//! Timer-wheel / stride hybrid scheduler for the per-flow queue manager.
//!
//! This reuses the PR-2 calendar idiom at a different scale: instead of a
//! calendar of *events* keyed by picosecond timestamps, this is a calendar of
//! *flows* keyed by stride virtual-finish times. The wheel has a fixed 64
//! slots whose occupancy fits in a single `u64`, so "find the next non-empty
//! slot at or after the virtual-time cursor" is one `rotate_right` plus one
//! `trailing_zeros` — constant time regardless of flow count. Each slot holds
//! a two-level hierarchical bitmap over flow indices (a summary word over up
//! to 64 payload words), so "lowest-indexed flow in this slot" is two more
//! `trailing_zeros`. Nothing here allocates after construction and every
//! operation is O(1), which is the contract the per-flow plane needs to keep
//! enqueue/dequeue constant-time at thousands of flows per port.
//!
//! Ordering contract (what the property suite in `tests/qm.rs` differences
//! against a naive sorted oracle): among ready flows, pick the one whose
//! wheel slot is nearest at-or-after the cursor slot, breaking ties by lowest
//! flow index. Slots quantize virtual finish times to `quantum` units, and a
//! flow's placement is capped `WHEEL_SLOTS - 1` slots ahead of the cursor
//! (the same lag cap `WfqMapper::charge` applies), so a long-idle or
//! badly-behind flow can never wrap the wheel and masquerade as far-future.

use crate::wfq::VSCALE;

/// Number of wheel slots. Fixed at 64 so slot occupancy is one machine word.
pub const WHEEL_SLOTS: usize = 64;

/// Upper bound on flows a single wheel can index: 64 payload words of 64
/// bits under a single summary word.
pub const MAX_FLOWS: usize = WHEEL_SLOTS * 64;

#[derive(Debug, Clone)]
pub struct WheelSched {
    nflows: usize,
    /// Words per slot in the payload level of the hierarchical bitmap.
    wps: usize,
    /// Virtual-time width of one wheel slot.
    quantum: u64,
    /// Global virtual time; advances to the start of the slot being served.
    vt: u64,
    /// Bit s set when wheel slot s holds at least one ready flow.
    occ: u64,
    /// Per-slot summary: bit w set when `words[s * wps + w] != 0`.
    summary: Vec<u64>,
    /// Payload bitmap: bit b of `words[s * wps + w]` is flow `w * 64 + b`.
    words: Vec<u64>,
    /// Per-flow stride virtual finish time (uncapped; placement caps).
    finish: Vec<u64>,
    /// Wheel slot currently holding the flow (valid only while ready).
    slot: Vec<u8>,
    ready: Vec<bool>,
}

impl WheelSched {
    pub fn new(nflows: usize, quantum: u64) -> Self {
        assert!(nflows > 0 && nflows <= MAX_FLOWS, "wheel indexes at most {MAX_FLOWS} flows");
        assert!(quantum > 0, "slot quantum must be positive");
        let wps = nflows.div_ceil(64);
        WheelSched {
            nflows,
            wps,
            quantum,
            vt: 0,
            occ: 0,
            summary: vec![0; WHEEL_SLOTS],
            words: vec![0; WHEEL_SLOTS * wps],
            finish: vec![0; nflows],
            slot: vec![0; nflows],
            ready: vec![false; nflows],
        }
    }

    pub fn nflows(&self) -> usize {
        self.nflows
    }

    pub fn vt(&self) -> u64 {
        self.vt
    }

    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    pub fn finish_of(&self, flow: usize) -> u64 {
        self.finish[flow]
    }

    pub fn is_ready(&self, flow: usize) -> bool {
        self.ready[flow]
    }

    pub fn is_idle(&self) -> bool {
        self.occ == 0
    }

    /// Wheel slot a given finish time would land in after the lag/horizon
    /// clamp. Exposed so the oracle in the property suite can replicate
    /// placement without reaching into the bitmaps.
    pub fn placement_slot(&self, finish: u64) -> usize {
        let lo = self.vt;
        let hi = self.vt + (WHEEL_SLOTS as u64 - 1) * self.quantum;
        let placed = finish.clamp(lo, hi);
        ((placed / self.quantum) % WHEEL_SLOTS as u64) as usize
    }

    fn cursor_slot(&self) -> usize {
        ((self.vt / self.quantum) % WHEEL_SLOTS as u64) as usize
    }

    fn set_bits(&mut self, flow: usize, s: usize) {
        let w = flow / 64;
        let b = flow % 64;
        self.words[s * self.wps + w] |= 1 << b;
        self.summary[s] |= 1 << w;
        self.occ |= 1 << s;
        self.slot[flow] = s as u8;
    }

    fn clear_bits(&mut self, flow: usize) {
        let s = usize::from(self.slot[flow]);
        let w = flow / 64;
        let b = flow % 64;
        self.words[s * self.wps + w] &= !(1 << b);
        if self.words[s * self.wps + w] == 0 {
            self.summary[s] &= !(1 << w);
            if self.summary[s] == 0 {
                self.occ &= !(1 << s);
            }
        }
    }

    /// A flow's queue went from empty to non-empty: place it on the wheel.
    /// A flow that was idle rejoins at the current virtual time rather than
    /// its stale finish, so it cannot burst ahead of backlogged flows.
    pub fn mark_ready(&mut self, flow: usize) {
        if self.ready[flow] {
            return;
        }
        self.ready[flow] = true;
        self.finish[flow] = self.finish[flow].max(self.vt);
        let s = self.placement_slot(self.finish[flow]);
        self.set_bits(flow, s);
    }

    /// Pick the flow to serve next: nearest occupied slot at or after the
    /// cursor (wrapping), lowest flow index within it. Advances virtual time
    /// to the start of the chosen slot (the calendar "dry-wheel jump").
    /// Does not dequeue; follow with `on_service`.
    pub fn pick(&mut self) -> Option<usize> {
        if self.occ == 0 {
            return None;
        }
        let cur = self.cursor_slot();
        let off = self.occ.rotate_right(cur as u32).trailing_zeros() as u64;
        if off > 0 {
            // Jump the cursor to the start of the next occupied slot.
            self.vt = (self.vt / self.quantum + off) * self.quantum;
        }
        let s = (cur + off as usize) % WHEEL_SLOTS;
        let w = self.summary[s].trailing_zeros() as usize;
        let b = self.words[s * self.wps + w].trailing_zeros() as usize;
        Some(w * 64 + b)
    }

    /// Charge a service of `bytes` at `weight` to a flow previously returned
    /// by `pick`, and either re-place it (still backlogged) or retire it.
    pub fn on_service(&mut self, flow: usize, bytes: u32, weight: u32, still_backlogged: bool) {
        debug_assert!(self.ready[flow], "on_service on a flow that was never marked ready");
        self.clear_bits(flow);
        let stride = (u64::from(bytes) * VSCALE / u64::from(weight.max(1))).max(1);
        self.finish[flow] = self.finish[flow].max(self.vt) + stride;
        if still_backlogged {
            let s = self.placement_slot(self.finish[flow]);
            self.set_bits(flow, s);
        } else {
            self.ready[flow] = false;
        }
    }

    /// Bytes of backing storage a wheel over `nflows` flows allocates in
    /// [`WheelSched::new`] (for the memory-budget math in DESIGN §16):
    /// the summary and payload bitmaps, 8 bytes of finish time and 2 of
    /// slot/ready per flow.
    pub fn mem_bytes(nflows: usize) -> usize {
        WHEEL_SLOTS * 8 + WHEEL_SLOTS * nflows.div_ceil(64) * 8 + nflows * (8 + 1 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_wheel_picks_nothing() {
        let mut s = WheelSched::new(128, 1500 * VSCALE);
        assert!(s.is_idle());
        assert_eq!(s.pick(), None);
    }

    #[test]
    fn single_flow_round_trips() {
        let mut s = WheelSched::new(64, 1500 * VSCALE);
        s.mark_ready(7);
        assert_eq!(s.pick(), Some(7));
        s.on_service(7, 1500, 1, false);
        assert!(s.is_idle());
        assert!(!s.is_ready(7));
    }

    #[test]
    fn equal_weight_flows_alternate() {
        let mut s = WheelSched::new(64, 1500 * VSCALE);
        s.mark_ready(3);
        s.mark_ready(9);
        let mut served = vec![];
        for _ in 0..6 {
            let f = s.pick().unwrap();
            served.push(f);
            s.on_service(f, 1500, 1, true);
        }
        // Same slot initially -> lowest index first, then strict alternation
        // as each service pushes the served flow one slot ahead.
        assert_eq!(served, vec![3, 9, 3, 9, 3, 9]);
    }

    #[test]
    fn backlogged_flow_cannot_starve_light_one() {
        let mut s = WheelSched::new(64, 100 * VSCALE);
        s.mark_ready(0);
        // Serve flow 0 many times; its finish runs ahead but placement is
        // capped at WHEEL_SLOTS - 1 slots, so a newly ready flow is not
        // pushed arbitrarily far behind.
        for _ in 0..200 {
            assert_eq!(s.pick(), Some(0));
            s.on_service(0, 1500, 1, true);
        }
        s.mark_ready(5);
        // Flow 5 joins at vt and must be served before flow 0's capped
        // far-future placement.
        assert_eq!(s.pick(), Some(5));
    }

    #[test]
    fn weight_skews_service_ratio() {
        let mut s = WheelSched::new(64, 256 * VSCALE);
        s.mark_ready(1);
        s.mark_ready(2);
        let mut counts = [0u32; 3];
        for _ in 0..300 {
            let f = s.pick().unwrap();
            counts[f] += 1;
            let w = if f == 1 { 4 } else { 1 };
            s.on_service(f, 1500, w, true);
        }
        // Weight-4 flow should see roughly 4x the service of weight-1.
        let ratio = f64::from(counts[1]) / f64::from(counts[2]);
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio} counts {counts:?}");
    }

    #[test]
    fn mem_bytes_scales_linearly_with_flows() {
        let small = WheelSched::mem_bytes(64);
        let big = WheelSched::mem_bytes(4096);
        assert!(big > small);
        assert!(big < 64 * small, "hierarchical bitmap should stay compact: {big}");
    }
}
