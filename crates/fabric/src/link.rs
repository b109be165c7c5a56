//! Inter-chassis links as modeled servers.
//!
//! A [`Link`] is a single-server queue in the classic simulation sense:
//! frames arrive (at their uplink tx-completion time), serialize at the
//! link's capacity one at a time, then propagate for the link latency.
//! Contention is therefore *visible* — a burst that outruns the link
//! piles up in `busy_until` and the queueing it suffered is recorded —
//! rather than silently absorbed the way an infinite-capacity switch
//! would.
//!
//! Capacity `0` disables serialization entirely: arrival is exactly
//! `done + latency`, the pre-refactor single-switch behavior that the
//! differential suite pins bit-for-bit.

use npr_sim::Time;

const PS_PER_SEC: u64 = 1_000_000_000_000;

/// One directed inter-chassis link, owned by the sending member's
/// shard (so the parallel engine never shares mutable link state).
#[derive(Debug, Clone)]
pub struct Link {
    /// Propagation + forwarding latency, paid by every frame.
    pub latency_ps: Time,
    /// Serialization capacity; `0` = infinitely fast.
    pub capacity_bps: u64,
    /// Administrative/link-layer state; a down link drops frames (the
    /// fabric counts them) until restored.
    pub up: bool,
    /// When the serializer frees up.
    busy_until: Time,
    /// Frames carried.
    pub frames: u64,
    /// Bytes carried.
    pub bytes: u64,
    /// Total serialization time spent — utilization is this over the
    /// observation window.
    pub busy_ps: Time,
    /// Worst queueing delay any frame suffered waiting for the
    /// serializer.
    pub max_queue_ps: Time,
    /// Frames that arrived while the link was down.
    pub drops: u64,
}

impl Link {
    /// A healthy link with the given model parameters.
    pub fn new(latency_ps: Time, capacity_bps: u64) -> Self {
        Self {
            latency_ps,
            capacity_bps,
            up: true,
            busy_until: 0,
            frames: 0,
            bytes: 0,
            busy_ps: 0,
            max_queue_ps: 0,
            drops: 0,
        }
    }

    /// Carries one frame whose uplink transmission completed at `done`:
    /// returns its far-end arrival time, or `None` (counted in
    /// [`Link::drops`]) when the link is down.
    pub fn transit(&mut self, done: Time, frame_bytes: usize) -> Option<Time> {
        if !self.up {
            self.drops += 1;
            return None;
        }
        self.frames += 1;
        self.bytes += frame_bytes as u64;
        if self.capacity_bps == 0 {
            return Some(done + self.latency_ps);
        }
        let ser = (frame_bytes as u64 * 8).saturating_mul(PS_PER_SEC) / self.capacity_bps;
        let start = done.max(self.busy_until);
        self.max_queue_ps = self.max_queue_ps.max(start - done);
        self.busy_until = start + ser;
        self.busy_ps += ser;
        Some(start + ser + self.latency_ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_capacity_is_pure_latency() {
        let mut l = Link::new(2_000_000, 0);
        assert_eq!(l.transit(10, 1500), Some(2_000_010));
        assert_eq!(l.transit(5, 60), Some(2_000_005));
        assert_eq!(l.frames, 2);
        assert_eq!(l.max_queue_ps, 0);
    }

    #[test]
    fn serialization_queues_back_to_back_frames() {
        // 1 Gbps: a 1000-byte frame serializes in 8 us.
        let mut l = Link::new(1_000_000, 1_000_000_000);
        let ser = 8_000_000;
        assert_eq!(l.transit(0, 1000), Some(ser + 1_000_000));
        // Second frame arrives while the first still serializes: it
        // waits, and the wait is recorded.
        assert_eq!(l.transit(1_000_000, 1000), Some(2 * ser + 1_000_000));
        assert_eq!(l.max_queue_ps, ser - 1_000_000);
        assert_eq!(l.busy_ps, 2 * ser);
    }

    #[test]
    fn down_links_drop_visibly() {
        let mut l = Link::new(2_000_000, 0);
        l.up = false;
        assert_eq!(l.transit(0, 60), None);
        assert_eq!(l.drops, 1);
        assert_eq!(l.frames, 0);
        l.up = true;
        assert!(l.transit(0, 60).is_some());
    }
}
