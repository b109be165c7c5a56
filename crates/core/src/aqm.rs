//! Active queue management disciplines for the per-flow queue manager.
//!
//! Three installable disciplines, selected for every port's flow plane
//! by `RouterConfig::qm_aqm` (each port keeps its own controller state):
//!
//! * `DropTail` — the digest-recorded default: admit until the per-flow cap,
//!   then drop. No state, no randomness.
//! * `Red` — RED-style probabilistic early drop on a fixed-point EWMA of the
//!   per-flow queue occupancy. The coin flips come from a dedicated
//!   `XorShift64` seeded from the router config (one stream per port),
//!   consumed only at enqueue decisions in arrival order — which is the same
//!   order at every simulated thread count, so decisions are bit-identical
//!   across threads.
//! * `Codel` — CoDel-style sojourn-time controller. Sojourn is measured on
//!   the **simulated clock** (the enqueue timestamp is the simulated `now`
//!   at admission, compared against the simulated `now` at dequeue), never
//!   host time, so the control law is deterministic and thread-invariant by
//!   construction. Drops happen at head-of-line dequeue using the standard
//!   first-above-target + `interval / sqrt(count)` control law with an
//!   integer square root.
//!
//! Every drop decision made here is counted by the caller into exactly one
//! named `Report` counter (`qm_early_drops` for enqueue-time RED drops,
//! `qm_sojourn_drops` for dequeue-time CoDel drops); the per-flow cap drops
//! are counted by `PacketQueue` itself (`qm_cap_drops`).

use npr_sim::{Time, XorShift64};

use crate::router::us;

/// Which AQM discipline a port's flow plane runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AqmKind {
    /// Admit until the per-flow cap; drop beyond it. The default.
    DropTail,
    /// RED-style probabilistic early drop on EWMA occupancy.
    Red,
    /// CoDel-style sojourn-time controller on the simulated clock.
    Codel,
}

impl AqmKind {
    pub fn name(self) -> &'static str {
        match self {
            AqmKind::DropTail => "drop_tail",
            AqmKind::Red => "red",
            AqmKind::Codel => "codel",
        }
    }
}

/// RED occupancy below which no packet is dropped early, in packets.
pub const RED_MIN_PKTS: u32 = 8;

/// RED occupancy at and above which every packet is dropped, in packets.
pub const RED_MAX_PKTS: u32 = 24;

/// RED's maximum early-drop probability, in permille, reached at
/// [`RED_MAX_PKTS`].
pub const RED_PMAX_PERMILLE: u32 = 250;

/// The RED occupancy EWMA's gain is `2^-RED_WQ_SHIFT`.
pub const RED_WQ_SHIFT: u32 = 2;

/// CoDel's acceptable standing sojourn time. Both CoDel figures are on
/// the simulated clock, scaled to 100 Mbps ports (6.7 µs serialization
/// per 60-byte packet): interval ≈ 30 packet-times, target ≈ 7. The
/// ratio (target = 25% of interval) follows the CoDel guidance of
/// target ≪ interval; the absolute values keep the control loop fast
/// enough to matter within millisecond experiment windows.
pub const CODEL_TARGET_PS: Time = us(50);

/// CoDel's initial spacing between drops once above target.
pub const CODEL_INTERVAL_PS: Time = us(200);

/// Fixed-point shift for the RED occupancy EWMA.
const RED_FP: u32 = 8;

#[derive(Debug, Clone, Copy, Default)]
struct RedQueue {
    /// EWMA of queue length in packets, `RED_FP`-bit fixed point.
    avg_fp: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct CodelQueue {
    /// Simulated time at which sustained above-target sojourn triggers
    /// dropping; 0 = not armed.
    first_above: Time,
    /// Next scheduled drop while in the dropping state.
    drop_next: Time,
    /// Drops in the current dropping episode (controls drop spacing).
    count: u32,
    dropping: bool,
}

/// Per-port AQM state: one discipline, per-flow-queue controller state.
#[derive(Debug, Clone)]
pub struct Aqm {
    kind: AqmKind,
    redq: Vec<RedQueue>,
    codelq: Vec<CodelQueue>,
    rng: XorShift64,
}

/// Integer square root, minimum 1 (CoDel drop-spacing divisor).
fn isqrt(v: u64) -> u64 {
    if v < 2 {
        return 1;
    }
    let mut x = v;
    let mut y = (x + 1) / 2;
    while y < x {
        x = y;
        y = (x + v / x) / 2;
    }
    x.max(1)
}

impl Aqm {
    pub fn new(kind: AqmKind, nflows: usize, seed: u64) -> Self {
        Aqm {
            kind,
            redq: vec![RedQueue::default(); if kind == AqmKind::Red { nflows } else { 0 }],
            codelq: vec![CodelQueue::default(); if kind == AqmKind::Codel { nflows } else { 0 }],
            // Never seed XorShift64 with 0 (it would stick at 0).
            rng: XorShift64::new(seed | 1),
        }
    }

    pub fn kind(&self) -> AqmKind {
        self.kind
    }

    /// Enqueue-time decision for flow queue `q` currently holding `cur_len`
    /// packets. Returns true when the packet should be dropped early.
    pub fn on_enqueue(&mut self, q: usize, cur_len: usize) -> bool {
        if self.kind != AqmKind::Red {
            return false;
        }
        let rq = &mut self.redq[q];
        let sample = (cur_len as u64) << RED_FP;
        // avg += (sample - avg) * 2^-RED_WQ_SHIFT, in fixed point.
        let delta = sample as i64 - rq.avg_fp as i64;
        rq.avg_fp = (rq.avg_fp as i64 + (delta >> RED_WQ_SHIFT)) as u64;
        let min_fp = u64::from(RED_MIN_PKTS) << RED_FP;
        let max_fp = u64::from(RED_MAX_PKTS) << RED_FP;
        if rq.avg_fp >= max_fp {
            return true;
        }
        if rq.avg_fp < min_fp {
            return false;
        }
        let p = u64::from(RED_PMAX_PERMILLE) * (rq.avg_fp - min_fp) / (max_fp - min_fp);
        self.rng.below(1000) < p
    }

    /// Dequeue-time decision for the head packet of flow queue `q` that has
    /// sat in the queue for `sojourn` picoseconds of simulated time.
    /// Returns true when that head packet should be dropped.
    pub fn on_dequeue(&mut self, q: usize, sojourn: Time, now: Time) -> bool {
        if self.kind != AqmKind::Codel {
            return false;
        }
        let c = &mut self.codelq[q];
        if sojourn < CODEL_TARGET_PS {
            // Below target: disarm and leave any dropping episode.
            c.first_above = 0;
            c.dropping = false;
            return false;
        }
        if !c.dropping {
            if c.first_above == 0 {
                c.first_above = now + CODEL_INTERVAL_PS;
                return false;
            }
            if now < c.first_above {
                return false;
            }
            // Sojourn stayed above target for a full interval: start
            // dropping. Resume near the previous episode's rate (CoDel's
            // count reuse) so a persistent flow is controlled quickly.
            c.dropping = true;
            c.count = if c.count > 2 { c.count - 2 } else { 1 };
            c.drop_next = now + CODEL_INTERVAL_PS / isqrt(u64::from(c.count));
            return true;
        }
        if now >= c.drop_next {
            c.count += 1;
            c.drop_next += CODEL_INTERVAL_PS / isqrt(u64::from(c.count));
            return true;
        }
        false
    }

    /// Bytes of controller state [`Aqm::new`] allocates for `nflows`
    /// flow queues under `kind` (for the memory-budget math).
    pub fn mem_bytes(kind: AqmKind, nflows: usize) -> usize {
        nflows
            * match kind {
                AqmKind::DropTail => 0,
                AqmKind::Red => core::mem::size_of::<RedQueue>(),
                AqmKind::Codel => core::mem::size_of::<CodelQueue>(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ms;

    #[test]
    fn isqrt_is_exact_on_squares_and_monotone() {
        assert_eq!(isqrt(0), 1);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(4), 2);
        assert_eq!(isqrt(144), 12);
        let mut prev = 0;
        for v in 0..2000u64 {
            let r = isqrt(v);
            assert!(r >= prev, "isqrt not monotone at {v}");
            if v >= 1 {
                assert!(r * r <= v.max(1) && (r + 1) * (r + 1) > v, "isqrt wrong at {v}: {r}");
            }
            prev = r;
        }
    }

    #[test]
    fn drop_tail_never_intervenes() {
        let mut a = Aqm::new(AqmKind::DropTail, 8, 1);
        for len in 0..100 {
            assert!(!a.on_enqueue(0, len));
            assert!(!a.on_dequeue(0, ms(10), ms(20)));
        }
    }

    #[test]
    fn red_drops_ramp_with_occupancy() {
        let mut a = Aqm::new(AqmKind::Red, 4, 42);
        // Low occupancy: never drops.
        for _ in 0..200 {
            assert!(!a.on_enqueue(1, 2));
        }
        // Sustained occupancy between min and max: some but not all drop.
        let mut dropped = 0;
        for _ in 0..400 {
            if a.on_enqueue(1, 16) {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "RED should early-drop in the ramp region");
        assert!(dropped < 400, "RED must not drop everything in the ramp region");
        // Sustained occupancy past max: EWMA converges above max -> force drop.
        for _ in 0..100 {
            a.on_enqueue(1, 64);
        }
        assert!(a.on_enqueue(1, 64), "above max threshold RED drops deterministically");
    }

    #[test]
    fn red_state_is_per_flow_queue() {
        let mut a = Aqm::new(AqmKind::Red, 4, 42);
        for _ in 0..100 {
            a.on_enqueue(2, 64);
        }
        // Queue 2 saturated its EWMA; queue 3 is untouched.
        assert!(a.on_enqueue(2, 64));
        assert!(!a.on_enqueue(3, 0));
    }

    #[test]
    fn red_decisions_replay_bit_identically() {
        let run = || {
            let mut a = Aqm::new(AqmKind::Red, 2, 7);
            (0..500).map(|i| a.on_enqueue(i % 2, 12 + (i % 8))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn codel_tolerates_short_spikes_but_controls_standing_queues() {
        let mut a = Aqm::new(AqmKind::Codel, 2, 1);
        // A single above-target sojourn arms the controller but does not drop.
        assert!(!a.on_dequeue(0, CODEL_TARGET_PS * 2, us(10)));
        // Sojourn back under target: disarmed, still no drops.
        assert!(!a.on_dequeue(0, CODEL_TARGET_PS / 2, us(20)));
        assert!(!a.on_dequeue(0, CODEL_TARGET_PS * 2, us(30)));
        // Standing queue: above target for a full interval -> dropping starts.
        let mut now = us(30);
        let mut drops = 0;
        for _ in 0..200 {
            now += us(10);
            if a.on_dequeue(0, CODEL_TARGET_PS * 3, now) {
                drops += 1;
            }
        }
        assert!(drops > 2, "standing queue must be controlled, got {drops} drops");
        assert!(drops < 200, "CoDel paces drops, it does not drop-all");
        // Once sojourn recovers the episode ends.
        assert!(!a.on_dequeue(0, CODEL_TARGET_PS / 4, now + us(10)));
    }

    #[test]
    fn codel_drop_rate_accelerates_within_episode() {
        let mut a = Aqm::new(AqmKind::Codel, 1, 1);
        let mut now = 0;
        let mut drop_times = vec![];
        for _ in 0..4000 {
            now += us(2);
            if a.on_dequeue(0, CODEL_TARGET_PS * 10, now) {
                drop_times.push(now);
            }
        }
        assert!(drop_times.len() >= 8, "expected a sustained episode, got {}", drop_times.len());
        let first_gap = drop_times[1] - drop_times[0];
        let late_gap = drop_times[drop_times.len() - 1] - drop_times[drop_times.len() - 2];
        assert!(
            late_gap < first_gap,
            "drop spacing must shrink as count grows: first {first_gap} late {late_gap}"
        );
    }
}
