//! Input-side weighted-fair-queueing approximation.
//!
//! Paper, section 3.4.1: "When multiple queues are available at each
//! output context and when these have fixed priority levels, the larger
//! computing capacity available in input-side protocol processing could
//! be used to select the appropriate priority queue and thereby
//! approximate more complex schemes, such as weighted fair queuing. We
//! have not evaluated this in detail."
//!
//! This module evaluates it. Each flow keeps a virtual finish time
//! charged `bytes / weight` per *admitted* packet; the global virtual
//! time advances with actual output service (`bytes / total_weight`).
//! The input side quantizes a flow's lag behind the global clock into
//! one of the port's fixed priority levels — a handful of register
//! operations, exactly where the paper said the spare capacity was.
//!
//! In steady state a continuously backlogged flow hovers at a
//! stationary lag, which forces its admitted throughput to
//! `weight / total_weight` of the link — true weighted fairness,
//! approximated through nothing but static priority queues.

use crate::classify::FlowKey;

/// Fixed-point scale for virtual time: units charged per byte at
/// weight 1. The per-flow wheel (`qm_sched`) charges on the same scale.
pub const VSCALE: u64 = 256;

/// Default bound on registered flows; beyond it, the least-recently
/// charged flow is evicted and its slot recycled.
pub const DEFAULT_MAX_FLOWS: usize = 4096;

/// Per-flow scheduler state.
#[derive(Debug, Clone, Copy)]
struct WfqFlow {
    weight: u32,
    finish: u64,
    charged_bytes: u64,
    /// Dead slots sit on the free list; charges to their stale ids are
    /// ignored rather than corrupting the recycled flow's state.
    live: bool,
    /// Charge-op stamp of the flow's last admitted packet (LRU key).
    last_active: u64,
}

/// The quantizing virtual-clock mapper.
///
/// Flow state is bounded: `with_bound` caps the slot vector, and once
/// full, registering a new flow evicts the least-recently *charged* one
/// and recycles its id. Under many-flow traffic (a 100k-flow sweep is
/// the pinned regression) memory stays `O(max_flows)` while every
/// actively charged flow keeps its id and its accumulated state.
#[derive(Debug)]
pub struct WfqMapper {
    flows: Vec<WfqFlow>,
    /// Recycled slot ids from evicted flows.
    free: Vec<u16>,
    vt: u64,
    levels: usize,
    /// Virtual-time width of one priority level.
    quantum: u64,
    total_weight: u64,
    max_flows: usize,
    /// Monotone charge-op counter driving the LRU stamps.
    op: u64,
}

impl WfqMapper {
    /// Creates a mapper quantizing into `levels` priorities with the
    /// given per-level virtual-time `quantum` (in `VSCALE`-weighted
    /// bytes) and the default flow-state bound.
    pub fn new(levels: usize, quantum: u64) -> Self {
        Self::with_bound(levels, quantum, DEFAULT_MAX_FLOWS)
    }

    /// As `new`, with an explicit bound on resident flow slots.
    pub fn with_bound(levels: usize, quantum: u64, max_flows: usize) -> Self {
        Self {
            flows: Vec::new(),
            free: Vec::new(),
            vt: 0,
            levels: levels.max(1),
            quantum: quantum.max(1),
            total_weight: 0,
            max_flows: max_flows.clamp(1, usize::from(u16::MAX) + 1),
            op: 0,
        }
    }

    /// Registers a flow with `weight`; returns its id. Recycles a freed
    /// slot when one exists; at the bound, evicts the least-recently
    /// charged flow and reuses its id.
    pub fn add_flow(&mut self, weight: u32) -> u16 {
        let weight = weight.max(1);
        let id = if let Some(id) = self.free.pop() {
            id
        } else if self.flows.len() < self.max_flows {
            self.flows.push(WfqFlow {
                weight: 0,
                finish: 0,
                charged_bytes: 0,
                live: false,
                last_active: 0,
            });
            (self.flows.len() - 1) as u16
        } else {
            // Full and nothing free: evict the idlest live flow.
            let victim = self
                .flows
                .iter()
                .enumerate()
                .min_by_key(|(_, f)| f.last_active)
                .map(|(i, _)| i)
                .expect("max_flows >= 1");
            self.total_weight -= u64::from(self.flows[victim].weight);
            victim as u16
        };
        self.op += 1;
        self.flows[usize::from(id)] = WfqFlow {
            weight,
            finish: self.vt,
            charged_bytes: 0,
            live: true,
            last_active: self.op,
        };
        self.total_weight += u64::from(weight);
        id
    }

    /// Retires every live flow idle for more than `idle_ops` charge
    /// operations, freeing its slot for reuse. Returns the evicted ids.
    pub fn evict_idle(&mut self, idle_ops: u64) -> Vec<u16> {
        let mut evicted = Vec::new();
        for (i, f) in self.flows.iter_mut().enumerate() {
            if f.live && self.op.saturating_sub(f.last_active) > idle_ops {
                f.live = false;
                self.total_weight -= u64::from(f.weight);
                self.free.push(i as u16);
                evicted.push(i as u16);
            }
        }
        evicted
    }

    /// Number of live flows.
    pub fn len(&self) -> usize {
        self.flows.iter().filter(|f| f.live).count()
    }

    /// Resident flow slots (live + free); bounded by `max_flows`.
    pub fn slots(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Priority level for the flow's next packet (0 = highest), from
    /// its current lag. Does not charge anything. An evicted (stale) id
    /// maps to the highest priority, exactly like a fresh flow.
    pub fn level_for(&self, flow: u16) -> usize {
        let f = &self.flows[usize::from(flow)];
        if !f.live {
            return 0;
        }
        let lag = f.finish.saturating_sub(self.vt);
        ((lag / self.quantum) as usize).min(self.levels - 1)
    }

    /// Bytes admitted (and, in steady state, served) for `flow`.
    pub fn charged_bytes(&self, flow: u16) -> u64 {
        self.flows[usize::from(flow)].charged_bytes
    }

    /// Charges an *admitted* packet of `bytes` to the flow (dropped
    /// packets consume no service and must not be charged). A charge to
    /// an evicted id is ignored — the id no longer names that flow.
    pub fn charge(&mut self, flow: u16, bytes: u32) {
        let cap = self.quantum * self.levels as u64;
        self.op += 1;
        let op = self.op;
        let vt = self.vt;
        let f = &mut self.flows[usize::from(flow)];
        if !f.live {
            return;
        }
        f.last_active = op;
        f.charged_bytes += u64::from(bytes);
        f.finish = f.finish.max(vt) + u64::from(bytes) * VSCALE / u64::from(f.weight);
        // Bound the lag so a flow can always recover within one cap of
        // service (prevents long-term banking or starvation).
        f.finish = f.finish.min(vt + cap);
    }

    /// Advances the global clock by `bytes` of actual output service.
    pub fn on_service(&mut self, bytes: u32) {
        if let Some(step) = (u64::from(bytes) * VSCALE).checked_div(self.total_weight) {
            self.vt += step;
        }
    }
}

/// Maps a packet's flow key to its registered WFQ flow id.
pub type WfqClassifyFn = Box<dyn FnMut(&FlowKey) -> Option<u16> + Send>;

/// World-attached WFQ state: the mapper plus the flow classifier.
pub struct WfqState {
    /// The mapper.
    pub mapper: WfqMapper,
    /// Maps a packet's flow key to its registered flow id.
    pub classify: WfqClassifyFn,
}

impl std::fmt::Debug for WfqState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfqState")
            .field("mapper", &self.mapper)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bounded priority queues + a strict-priority server: the output
    /// side of the approximation, in miniature. Overload drops at the
    /// queue exactly like the router's descriptor rings.
    struct Harness {
        m: WfqMapper,
        queues: Vec<std::collections::VecDeque<u16>>,
        cap: usize,
        served: Vec<u64>,
    }

    impl Harness {
        fn new(m: WfqMapper, cap: usize) -> Self {
            let levels = m.levels;
            let n = m.len();
            Self {
                m,
                queues: (0..levels).map(|_| Default::default()).collect(),
                cap,
                served: vec![0; n],
            }
        }
        fn offer(&mut self, flow: u16) {
            let lvl = self.m.level_for(flow);
            if self.queues[lvl].len() < self.cap {
                self.queues[lvl].push_back(flow);
                self.m.charge(flow, 64);
            }
        }
        fn serve(&mut self) {
            if let Some(f) = self.queues.iter_mut().find_map(|q| q.pop_front()) {
                self.served[usize::from(f)] += 64;
                self.m.on_service(64);
            }
        }
    }

    #[test]
    fn equal_weights_share_equally_under_overload() {
        let mut m = WfqMapper::new(8, 2048);
        let a = m.add_flow(10);
        let b = m.add_flow(10);
        let mut h = Harness::new(m, 16);
        for round in 0..30_000u64 {
            h.offer(a);
            h.offer(b);
            if round % 3 != 0 {
                h.serve(); // 2 services per 2 arrivals x 1.5 overload.
            }
        }
        let ratio = h.served[0] as f64 / h.served[1] as f64;
        assert!((0.85..1.18).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn weighted_shares_converge_to_weights() {
        let mut m = WfqMapper::new(8, 2048);
        let heavy = m.add_flow(30);
        let light = m.add_flow(10);
        let mut h = Harness::new(m, 16);
        for round in 0..60_000u64 {
            h.offer(heavy);
            h.offer(light);
            if round % 2 == 0 {
                h.serve(); // 2x overload in aggregate.
            }
        }
        let ratio = h.served[usize::from(heavy)] as f64 / h.served[usize::from(light)] as f64;
        assert!((2.2..4.0).contains(&ratio), "3:1 weights gave {ratio}");
    }

    #[test]
    fn light_flow_is_never_starved() {
        let mut m = WfqMapper::new(8, 2048);
        let heavy = m.add_flow(100);
        let light = m.add_flow(1);
        let mut h = Harness::new(m, 16);
        for round in 0..50_000u64 {
            h.offer(heavy);
            if round % 5 == 0 {
                h.offer(light);
            }
            if round % 2 == 0 {
                h.serve();
            }
        }
        assert!(
            h.served[usize::from(light)] > 0,
            "the lag cap guarantees eventual service"
        );
    }

    #[test]
    fn hundred_k_flow_sweep_is_memory_bounded() {
        // Pinned regression: before PR 10 `add_flow` pushed unboundedly,
        // so a many-flow sweep grew `flows` to 100k entries. The bound
        // caps resident slots and recycles ids.
        let mut m = WfqMapper::with_bound(8, 2048, 512);
        let mut ids = Vec::new();
        for i in 0..100_000u32 {
            let id = m.add_flow(1 + (i % 4));
            m.charge(id, 64);
            m.on_service(64);
            ids.push(id);
        }
        assert!(m.slots() <= 512, "resident slots grew to {}", m.slots());
        assert!(m.len() <= 512);
        assert!(ids.iter().all(|&id| usize::from(id) < 512), "ids must stay within the bound");
        // The mapper still works after heavy recycling.
        let f = m.add_flow(10);
        m.charge(f, 64);
        assert!(m.level_for(f) < 8);
    }

    #[test]
    fn eviction_prefers_idle_flows_and_preserves_active_ones() {
        let mut m = WfqMapper::with_bound(8, 2048, 4);
        let hot = m.add_flow(10);
        for _ in 0..3 {
            m.add_flow(1); // fills the table
        }
        // Keep `hot` freshly charged while registering a storm of new
        // flows: LRU eviction must always pick one of the idle slots.
        for _ in 0..50 {
            m.charge(hot, 64);
            let fresh = m.add_flow(1);
            assert_ne!(fresh, hot, "recently charged flow must not be evicted");
        }
        assert_eq!(m.charged_bytes(hot), 50 * 64, "hot flow state survived the storm");
    }

    #[test]
    fn evict_idle_frees_slots_and_ignores_stale_charges() {
        let mut m = WfqMapper::with_bound(4, 1000, 16);
        let a = m.add_flow(10);
        let b = m.add_flow(10);
        for _ in 0..20 {
            m.charge(b, 64);
        }
        // `a` has been idle for all 20 charges; `b` is current.
        let evicted = m.evict_idle(10);
        assert_eq!(evicted, vec![a]);
        assert_eq!(m.len(), 1);
        let before = m.charged_bytes(b);
        // A stale charge to the evicted id must not corrupt anything.
        m.charge(a, 9999);
        assert_eq!(m.level_for(a), 0);
        assert_eq!(m.charged_bytes(b), before);
        // The freed slot is recycled by the next registration.
        let c = m.add_flow(5);
        assert_eq!(c, a, "freed slot should be reused first");
        assert_eq!(m.charged_bytes(c), 0, "recycled slot starts clean");
    }

    #[test]
    fn idle_flows_do_not_bank_credit() {
        let mut m = WfqMapper::new(4, 1000);
        let a = m.add_flow(10);
        let _b = m.add_flow(10);
        // `a` idles while the clock advances far ahead.
        for _ in 0..1000 {
            m.on_service(64);
        }
        // Its next packet starts from the current clock, not the past.
        m.charge(a, 64);
        assert!(m.level_for(a) <= 1, "no banked burst allowance");
    }

    #[test]
    fn level_is_monotone_in_backlog() {
        let mut m = WfqMapper::new(8, 1000);
        let f = m.add_flow(4);
        let _g = m.add_flow(4);
        let mut last = 0;
        for _ in 0..50 {
            m.charge(f, 64);
            let l = m.level_for(f);
            assert!(l >= last);
            last = l;
        }
        assert_eq!(last, 7, "uncontrolled burst hits the floor");
    }
}
