//! Per-flow queue manager: scalable flow isolation with bounded memory.
//!
//! The WFQ/stride machinery (`wfq.rs`) manages tens of queues; this module
//! manages thousands of per-flow queues per port with constant-time
//! enqueue/dequeue, which is the regime "Queue Management in Network
//! Processors" targets. Flows are hashed (`classify::FlowKey` -> FNV-1a)
//! into a power-of-two set of bounded `PacketQueue`s per output port —
//! stochastic fairness queueing semantics: two flows that collide share a
//! queue and each other's fate, but an unresponsive elephant lands in *one*
//! queue and bloats only itself. Ready queues are indexed by the
//! hierarchical-bitmap timer wheel in `qm_sched`, so scheduling is O(1)
//! regardless of flow count, and an installable AQM discipline (`aqm.rs`)
//! decides early drops per port.
//!
//! Memory is a hard budget, not a hope: `QmPlane::new` computes the backing
//! bytes from the worst case (every queue full) and halves the flow count
//! until the plane fits `mem_budget_bytes` (floor 16 flows/port). The math
//! is spelled out in DESIGN.md §16.
//!
//! Ledger discipline (PR 3): every discard lands in exactly one named
//! counter — `early_drops` (RED at enqueue), the per-queue `PacketQueue`
//! drop counter summed as `cap_drops` (per-flow cap), or `sojourn_drops`
//! (CoDel at dequeue). Dropping never frees a buffer: descriptors live in
//! the circular pool with one-lap semantics, so a drop is pure accounting,
//! exactly like the `QueuePlane` rings. `Router::conservation` folds
//! `total_drops` and the live occupancy into the ledger.

use std::collections::VecDeque;

use npr_sim::{LogHistogram, Time};

use crate::aqm::{Aqm, AqmKind};
use crate::classify::FlowKey;
use crate::config::RouterConfig;
use crate::qm_sched::WheelSched;
use crate::queues::PacketQueue;

/// Smallest per-port flow count the budget clamp will go down to.
pub const MIN_FLOWS_PER_PORT: usize = 16;

/// FNV-1a over the 5-tuple-ish flow key, one round per word; maps a
/// flow to its queue slot.
pub fn flow_slot(key: &FlowKey, nflows: usize) -> usize {
    debug_assert!(nflows.is_power_of_two());
    let mut h = npr_check::rng::Fnv1a::new();
    h.write_word(u64::from(key.src));
    h.write_word(u64::from(key.dst));
    h.write_word(u64::from(key.sport) << 16 | u64::from(key.dport));
    // Fold the high half down before masking (one more round over it):
    // FNV's multiply only avalanches upward, and the slot mask keeps
    // the low bits.
    h.write_word(h.finish() >> 32);
    let h = h.finish();
    ((h ^ (h >> 16)) as usize) & (nflows - 1)
}

/// Virtual-time width of one wheel slot, in bytes of weight-1 service;
/// also the per-revolution burst a backlogged flow can take before the
/// wheel moves on (DRR-style quantum). ~2 minimum-size packets: coarser
/// quanta let a backlogged flow hold the wheel long enough to push a
/// sparse flow's sojourn past the CoDel target on a 100 Mbps port.
pub const QUANTUM_BYTES: u64 = 128;

/// One output port's per-flow queue set, scheduler, and AQM controller.
#[derive(Debug)]
struct FlowPlane {
    queues: Vec<PacketQueue>,
    /// Parallel to `queues`: simulated enqueue time and frame length of each
    /// queued descriptor, for sojourn measurement and stride charging.
    stamps: Vec<VecDeque<(Time, u32)>>,
    sched: WheelSched,
    aqm: Aqm,
    early_drops: u64,
    sojourn_drops: u64,
    /// Per-flow AQM drop attribution: RED discards never enter the
    /// `PacketQueue` (so its counters miss them) and CoDel discards are
    /// dequeued before being dropped (so they'd be miscounted as
    /// delivered). These keep `flow_stats` honest per flow.
    early_by_flow: Vec<u32>,
    sojourn_by_flow: Vec<u32>,
}

impl FlowPlane {
    fn new(cfg: &RouterConfig, port: usize, nflows: usize) -> Self {
        FlowPlane {
            queues: (0..nflows).map(|_| PacketQueue::new(cfg.qm_flow_cap)).collect(),
            stamps: vec![VecDeque::new(); nflows],
            sched: WheelSched::new(nflows, QUANTUM_BYTES * crate::wfq::VSCALE),
            aqm: Aqm::new(
                cfg.qm_aqm,
                nflows,
                cfg.qm_seed ^ (port as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            early_drops: 0,
            sojourn_drops: 0,
            early_by_flow: vec![0; nflows],
            sojourn_by_flow: vec![0; nflows],
        }
    }
}

/// All ports' flow planes plus plane-wide sojourn statistics.
#[derive(Debug)]
pub struct QmPlane {
    ports: Vec<FlowPlane>,
    nflows: usize,
    flow_cap: usize,
    mem_bytes: usize,
    /// Window gauge: `Router::mark` re-arms it (a window's maximum and
    /// percentiles are not the difference of two totals).
    pub(crate) sojourn_hist: LogHistogram,
    sojourn_sum_ps: u64,
    sojourn_samples: u64,
}

/// Worst-case backing bytes for one port at `flows` queues of `cap` packets
/// under discipline `aqm`: per queued packet a 4-byte descriptor plus a
/// 16-byte (time, len) stamp (the tuple pads to 16), per queue the
/// `PacketQueue`/`VecDeque` bookkeeping and two u32 AQM drop counters, plus
/// the wheel's bitmaps and finish times and the AQM's per-flow controller
/// state. The budget clamp holds this figure and [`QmPlane::mem_bytes`]
/// reports it. See DESIGN.md §16.
pub fn port_mem_bytes(flows: usize, cap: usize, aqm: AqmKind) -> usize {
    const QUEUE_OVERHEAD: usize = 96; // PacketQueue + two VecDeque headers
    let per_packet = 4 + 16;
    let attribution = 8; // two u32 AQM drop counters per flow
    flows * (cap * per_packet + QUEUE_OVERHEAD + attribution)
        + WheelSched::mem_bytes(flows)
        + Aqm::mem_bytes(aqm, flows)
}

impl QmPlane {
    /// Build from config, or `None` when the manager is disabled
    /// (`qm_flows_per_port == 0`, the digest-recorded default).
    pub fn from_config(cfg: &RouterConfig, ports: usize) -> Option<QmPlane> {
        if cfg.qm_flows_per_port == 0 {
            return None;
        }
        let mut nflows = cfg.qm_flows_per_port.next_power_of_two().min(crate::qm_sched::MAX_FLOWS);
        // Hard memory budget: halve the flow count until the worst case fits.
        let plane_bytes = |nflows| ports * port_mem_bytes(nflows, cfg.qm_flow_cap, cfg.qm_aqm);
        while nflows > MIN_FLOWS_PER_PORT && plane_bytes(nflows) > cfg.qm_mem_budget_bytes {
            nflows /= 2;
        }
        Some(QmPlane {
            ports: (0..ports).map(|p| FlowPlane::new(cfg, p, nflows)).collect(),
            nflows,
            flow_cap: cfg.qm_flow_cap,
            mem_bytes: plane_bytes(nflows),
            sojourn_hist: LogHistogram::new(),
            sojourn_sum_ps: 0,
            sojourn_samples: 0,
        })
    }

    pub fn nflows_per_port(&self) -> usize {
        self.nflows
    }

    pub fn flow_cap(&self) -> usize {
        self.flow_cap
    }

    /// Actual bytes reserved for queues, stamps, scheduler, and AQM state.
    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes
    }

    pub fn flow_index(&self, key: &FlowKey) -> usize {
        flow_slot(key, self.nflows)
    }

    /// Admit a descriptor into `port`'s flow queue for `key` at simulated
    /// time `now`. Returns false when the packet was discarded (early drop
    /// or per-flow cap); the discard is already counted when this returns.
    pub fn enqueue(&mut self, port: usize, key: &FlowKey, desc: u32, len: u32, now: Time) -> bool {
        let q = flow_slot(key, self.nflows);
        let fp = &mut self.ports[port];
        if fp.aqm.on_enqueue(q, fp.queues[q].len()) {
            fp.early_drops += 1;
            fp.early_by_flow[q] += 1;
            return false;
        }
        if !fp.queues[q].enqueue(desc) {
            // Per-flow cap: counted by the queue's own drop counter.
            return false;
        }
        fp.stamps[q].push_back((now, len));
        if fp.queues[q].len() == 1 {
            fp.sched.mark_ready(q);
        }
        true
    }

    /// Serve the next descriptor from `port` per the wheel schedule,
    /// applying the port's dequeue-time AQM (CoDel). Returns `None` when no
    /// flow queue on the port holds a packet.
    pub fn dequeue(&mut self, port: usize, now: Time) -> Option<u32> {
        let fp = &mut self.ports[port];
        let served = loop {
            let q = fp.sched.pick()?;
            let desc = fp.queues[q].dequeue().expect("ready flow queue must be non-empty");
            let (at, len) = fp.stamps[q].pop_front().expect("stamp tracks every queued desc");
            let sojourn = now.saturating_sub(at);
            let backlogged = !fp.queues[q].is_empty();
            let drop = fp.aqm.on_dequeue(q, sojourn, now);
            fp.sched.on_service(q, len.max(60), 1, backlogged);
            if drop {
                fp.sojourn_drops += 1;
                fp.sojourn_by_flow[q] += 1;
                continue;
            }
            break (desc, sojourn);
        };
        let (desc, sojourn) = served;
        self.sojourn_hist.record(sojourn);
        self.sojourn_sum_ps += sojourn;
        self.sojourn_samples += 1;
        Some(desc)
    }

    /// Occupancy of the flow queue `key` hashes to on `port`.
    pub fn flow_depth(&self, port: usize, key: &FlowKey) -> usize {
        self.ports[port].queues[flow_slot(key, self.nflows)].len()
    }

    /// (offered, delivered, dropped) for the flow queue `key` hashes to.
    /// Offered counts every packet that arrived for the flow (admitted or
    /// not); delivered counts packets actually handed to the wire (CoDel
    /// discards are dequeued but not delivered); dropped is the flow's
    /// share of all three drop sites. `offered == delivered + dropped +
    /// still-queued` at any instant.
    pub fn flow_stats(&self, port: usize, key: &FlowKey) -> (u64, u64, u64) {
        let s = flow_slot(key, self.nflows);
        let fp = &self.ports[port];
        let q = &fp.queues[s];
        let early = u64::from(fp.early_by_flow[s]);
        let sojourn = u64::from(fp.sojourn_by_flow[s]);
        let dropped = q.drops() + early + sojourn;
        (q.enqueued() + q.drops() + early, q.dequeued() - sojourn, dropped)
    }

    pub fn early_drops(&self) -> u64 {
        self.ports.iter().map(|fp| fp.early_drops).sum()
    }

    pub fn cap_drops(&self) -> u64 {
        self.ports.iter().map(|fp| fp.queues.iter().map(PacketQueue::drops).sum::<u64>()).sum()
    }

    pub fn sojourn_drops(&self) -> u64 {
        self.ports.iter().map(|fp| fp.sojourn_drops).sum()
    }

    /// Every qm discard, each counted exactly once.
    pub fn total_drops(&self) -> u64 {
        self.early_drops() + self.cap_drops() + self.sojourn_drops()
    }

    pub fn total_enqueued(&self) -> u64 {
        self.ports.iter().map(|fp| fp.queues.iter().map(PacketQueue::enqueued).sum::<u64>()).sum()
    }

    /// Descriptors currently resident in flow queues (conservation's
    /// in-flight term).
    pub fn total_queued(&self) -> usize {
        self.ports.iter().map(|fp| fp.queues.iter().map(PacketQueue::len).sum::<usize>()).sum()
    }

    pub fn sojourn_hist(&self) -> &LogHistogram {
        &self.sojourn_hist
    }

    pub fn sojourn_samples(&self) -> u64 {
        self.sojourn_samples
    }

    pub fn sojourn_avg_ps(&self) -> u64 {
        if self.sojourn_samples == 0 {
            0
        } else {
            self.sojourn_sum_ps / self.sojourn_samples
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::us;

    fn key(sport: u16) -> FlowKey {
        FlowKey { src: 0x0a00_0002, dst: 0x0a01_0001, sport, dport: 5001 }
    }

    fn qm_cfg(flows: usize) -> RouterConfig {
        RouterConfig { qm_flows_per_port: flows, ..RouterConfig::default() }
    }

    #[test]
    fn disabled_by_default() {
        assert!(QmPlane::from_config(&RouterConfig::default(), 8).is_none());
    }

    #[test]
    fn flow_slot_is_stable_and_in_range() {
        let k = key(7000);
        let a = flow_slot(&k, 256);
        assert_eq!(a, flow_slot(&k, 256));
        assert!(a < 256);
        // Different sports should (for these values) spread across slots.
        let slots: std::collections::HashSet<_> =
            (0..64u16).map(|i| flow_slot(&key(20_000 + i), 256)).collect();
        assert!(slots.len() > 48, "hash spreads poorly: {} distinct", slots.len());
    }

    #[test]
    fn enqueue_dequeue_round_trips_with_accounting() {
        let mut qm = QmPlane::from_config(&qm_cfg(64), 2).unwrap();
        assert!(qm.enqueue(1, &key(1000), 42, 60, us(1)));
        assert!(qm.enqueue(1, &key(1001), 43, 60, us(2)));
        assert_eq!(qm.total_queued(), 2);
        let a = qm.dequeue(1, us(5)).unwrap();
        let b = qm.dequeue(1, us(6)).unwrap();
        assert_eq!(qm.dequeue(1, us(7)), None);
        let mut got = [a, b];
        got.sort_unstable();
        assert_eq!(got, [42, 43]);
        assert_eq!(qm.total_enqueued(), 2);
        assert_eq!(qm.total_drops(), 0);
        assert_eq!(qm.sojourn_samples(), 2);
        assert!(qm.sojourn_avg_ps() > 0);
    }

    #[test]
    fn per_flow_cap_drops_count_exactly_once() {
        let cfg = RouterConfig { qm_flow_cap: 4, ..qm_cfg(16) };
        let mut qm = QmPlane::from_config(&cfg, 1).unwrap();
        let k = key(9);
        let mut admitted = 0;
        for d in 0..10u32 {
            if qm.enqueue(0, &k, d, 60, us(1)) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 4);
        assert_eq!(qm.cap_drops(), 6);
        assert_eq!(qm.early_drops(), 0);
        assert_eq!(qm.sojourn_drops(), 0);
        assert_eq!(qm.total_drops(), 6);
        assert_eq!(qm.flow_depth(0, &k), 4);
    }

    #[test]
    fn memory_budget_clamps_flow_count() {
        let cfg = RouterConfig {
            qm_flows_per_port: 4096,
            qm_mem_budget_bytes: 64 * 1024,
            ..RouterConfig::default()
        };
        let qm = QmPlane::from_config(&cfg, 8).unwrap();
        assert!(qm.nflows_per_port() < 4096, "budget must clamp");
        assert!(qm.nflows_per_port() >= MIN_FLOWS_PER_PORT);
        assert!(qm.mem_bytes() > 0);
        // The budget is hard for every discipline, cap and budget: above
        // the floor, the reported bytes (AQM state included) fit it, and
        // the clamp kept the largest power of two that does.
        for aqm in [AqmKind::DropTail, AqmKind::Red, AqmKind::Codel] {
            for cap in [4, 8, 32, 64] {
                for budget in [64 * 1024, 1_960_000, 2 << 20, 8 << 20] {
                    for ports in [8, 10] {
                        let cfg = RouterConfig {
                            qm_flows_per_port: 256,
                            qm_flow_cap: cap,
                            qm_mem_budget_bytes: budget,
                            qm_aqm: aqm,
                            ..RouterConfig::default()
                        };
                        let qm = QmPlane::from_config(&cfg, ports).unwrap();
                        let n = qm.nflows_per_port();
                        let what =
                            format!("{aqm:?} cap {cap} budget {budget} ports {ports}: {n} flows");
                        assert_eq!(qm.mem_bytes(), ports * port_mem_bytes(n, cap, aqm), "{what}");
                        if n > MIN_FLOWS_PER_PORT {
                            assert!(qm.mem_bytes() <= budget, "{what} hold {} B", qm.mem_bytes());
                        }
                        if n < 256 {
                            assert!(ports * port_mem_bytes(2 * n, cap, aqm) > budget, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn elephant_is_isolated_to_its_own_queue() {
        let mut qm = QmPlane::from_config(&qm_cfg(64), 1).unwrap();
        let elephant = key(9999);
        let victim = key(20_000);
        assert_ne!(qm.flow_index(&elephant), qm.flow_index(&victim));
        // Elephant blasts far past its cap; victim trickles.
        for d in 0..100u32 {
            qm.enqueue(0, &elephant, d, 60, us(1));
        }
        assert!(qm.enqueue(0, &victim, 500, 60, us(2)));
        // The elephant's overflow hit only its own queue.
        let (_, _, e_drops) = qm.flow_stats(0, &elephant);
        let (v_enq, _, v_drops) = qm.flow_stats(0, &victim);
        assert!(e_drops > 0);
        assert_eq!((v_enq, v_drops), (1, 0));
        // And the victim is served within one slot quantum's worth of
        // elephant service (the wheel is quantum-granular round robin).
        let mut until_victim = 0;
        loop {
            let d = qm.dequeue(0, us(10)).unwrap();
            until_victim += 1;
            if d == 500 {
                break;
            }
            assert!(until_victim <= 16, "victim starved behind elephant backlog");
        }
    }

    #[test]
    fn codel_discards_are_not_counted_as_delivered() {
        let cfg = RouterConfig { qm_aqm: crate::aqm::AqmKind::Codel, ..qm_cfg(16) };
        let mut qm = QmPlane::from_config(&cfg, 1).unwrap();
        let k = key(77);
        for d in 0..20u32 {
            qm.enqueue(0, &k, d, 60, us(1));
        }
        // Dequeue far in the future: sojourn is way above target for
        // long enough that CoDel's episode sheds at least one packet.
        let mut now = crate::router::ms(5);
        let mut delivered = 0u64;
        while qm.dequeue(0, now).is_some() {
            delivered += 1;
            now += us(50);
        }
        assert!(qm.sojourn_drops() > 0, "sojourn never exceeded target?");
        let (offered, flow_delivered, dropped) = qm.flow_stats(0, &k);
        assert_eq!(offered, 20);
        assert_eq!(flow_delivered, delivered, "CoDel discards must not count as delivered");
        assert_eq!(offered, flow_delivered + dropped, "flow ledger must close");
    }
}
