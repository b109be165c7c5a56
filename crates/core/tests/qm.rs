//! Per-flow queue manager suite (PR 10).
//!
//! Four layers, mirroring how the plane can fail:
//!
//! 1. A property suite differencing the O(1) bitmap/timer-wheel
//!    scheduler against a naive sorted-oracle scheduler that linearly
//!    scans every ready flow — same policy, no clever data structures.
//! 2. End-to-end isolation: an unresponsive elephant is shed by AQM in
//!    its own queue while paced victim flows keep ≥90% of their
//!    offered goodput, and the overload ladder degrades gracefully
//!    (early-drop → per-flow cap → health warn).
//! 3. Thread invariance: AQM decisions (RED coins, CoDel sojourn
//!    arithmetic) are bit-identical across delivery thread counts,
//!    asserted through the scatter differential like every other
//!    parallel suite.
//! 4. A qm-enabled chaos soak over all 8 fault classes with the
//!    conservation ledger holding.
//!
//! `scripts/verify.sh` fails if tier-1's run of this suite executes
//! zero tests.

use npr_check::prelude::*;
use npr_core::qm_sched::{WheelSched, WHEEL_SLOTS};
use npr_core::{ms, us, AqmKind, Key, Router, RouterConfig};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{scatter, FaultClass, FaultPlan, Time};
use npr_traffic::{FrameSpec, TcpMixSource};

const NFLOWS: usize = 8;

/// The naive oracle: identical placement/service arithmetic, but "next
/// flow" is a linear scan over all ready flows sorted by (cursor
/// distance, flow index) — the contract the wheel's rotate/trailing-
/// zeros machinery must match exactly.
struct OracleSched {
    quantum: u64,
    vt: u64,
    finish: Vec<u64>,
    slot: Vec<usize>,
    ready: Vec<bool>,
}

impl OracleSched {
    fn new(nflows: usize, quantum: u64) -> Self {
        OracleSched {
            quantum,
            vt: 0,
            finish: vec![0; nflows],
            slot: vec![0; nflows],
            ready: vec![false; nflows],
        }
    }

    fn placement_slot(&self, finish: u64) -> usize {
        let hi = self.vt + (WHEEL_SLOTS as u64 - 1) * self.quantum;
        let placed = finish.clamp(self.vt, hi);
        ((placed / self.quantum) % WHEEL_SLOTS as u64) as usize
    }

    fn mark_ready(&mut self, flow: usize) {
        if self.ready[flow] {
            return;
        }
        self.ready[flow] = true;
        self.finish[flow] = self.finish[flow].max(self.vt);
        self.slot[flow] = self.placement_slot(self.finish[flow]);
    }

    fn pick(&mut self) -> Option<usize> {
        let cursor = ((self.vt / self.quantum) % WHEEL_SLOTS as u64) as usize;
        let (dist, flow) = (0..self.ready.len())
            .filter(|&f| self.ready[f])
            .map(|f| (((self.slot[f] + WHEEL_SLOTS - cursor) % WHEEL_SLOTS), f))
            .min()?;
        if dist > 0 {
            self.vt = (self.vt / self.quantum + dist as u64) * self.quantum;
        }
        Some(flow)
    }

    fn on_service(&mut self, flow: usize, bytes: u32, weight: u32, still_backlogged: bool) {
        let stride = (u64::from(bytes) * npr_core::wfq::VSCALE / u64::from(weight.max(1))).max(1);
        self.finish[flow] = self.finish[flow].max(self.vt) + stride;
        if still_backlogged {
            self.slot[flow] = self.placement_slot(self.finish[flow]);
        } else {
            self.ready[flow] = false;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random enqueue/dequeue interleavings: the wheel and the naive
    /// oracle must agree on every pick and on the virtual clock.
    #[test]
    fn wheel_matches_sorted_oracle(ops in npr_check::collection::vec(
        (0usize..NFLOWS, any::<bool>()),
        1..400,
    )) {
        let quantum = 512 * npr_core::wfq::VSCALE;
        let mut wheel = WheelSched::new(NFLOWS, quantum);
        let mut oracle = OracleSched::new(NFLOWS, quantum);
        let mut depth = vec![0u32; NFLOWS];
        for &(flow, is_enqueue) in &ops {
            if is_enqueue {
                depth[flow] += 1;
                if depth[flow] == 1 {
                    wheel.mark_ready(flow);
                    oracle.mark_ready(flow);
                }
            } else {
                let got = wheel.pick();
                let want = oracle.pick();
                prop_assert_eq!(got, want, "pick diverged");
                if let Some(f) = got {
                    // Deterministic per-flow packet size and weight.
                    let bytes = 60 + (f as u32 * 97) % 1400;
                    let weight = (f as u32 % 3) + 1;
                    depth[f] -= 1;
                    let backlogged = depth[f] > 0;
                    wheel.on_service(f, bytes, weight, backlogged);
                    oracle.on_service(f, bytes, weight, backlogged);
                }
            }
            prop_assert_eq!(wheel.vt(), oracle.vt, "virtual clocks diverged");
        }
        // Final readiness agrees flow by flow.
        for f in 0..NFLOWS {
            prop_assert_eq!(wheel.is_ready(f), oracle.ready[f]);
            prop_assert_eq!(wheel.finish_of(f), oracle.finish[f]);
        }
    }
}

/// Destination net 2 → output port 2 (10.2.0.0/16).
fn mix_spec() -> FrameSpec {
    FrameSpec {
        dst: u32::from_be_bytes([10, 2, 0, 1]),
        ..Default::default()
    }
}

fn victim_key(i: u16) -> npr_core::FlowKey {
    let spec = mix_spec();
    npr_core::FlowKey {
        src: spec.src,
        dst: spec.dst,
        sport: TcpMixSource::VICTIM_SPORT0 + i,
        dport: spec.dport,
    }
}

fn elephant_key() -> npr_core::FlowKey {
    npr_core::FlowKey {
        sport: TcpMixSource::ELEPHANT_SPORT,
        ..victim_key(0)
    }
}

const VICTIMS: usize = 4;
const VICTIM_PPS: f64 = 5_000.0;
const ELEPHANT_PPS: f64 = 100_000.0;
const HORIZON: Time = ms(4);

/// A per-flow-qos router under the TCP-mix overload: four paced victim
/// flows and an unresponsive elephant from port 0, plus a heavy CBR
/// aggressor from port 1, all converging on output port 2 at ~1.4x its
/// wire capacity.
fn overloaded_router(aqm: AqmKind) -> Router {
    let mut r = Router::new(RouterConfig::per_flow_qos(aqm));
    // Finite sources so tests that need full quiescence can drain: 420
    // frames keep the elephant blasting past the 4 ms horizon (~4.2 ms
    // at 100 Kpps) while the victims trail off by ~84 ms, well inside
    // the 200 ms drain budget.
    r.attach_source(
        0,
        Box::new(TcpMixSource::new(mix_spec(), VICTIMS, VICTIM_PPS, ELEPHANT_PPS, 420)),
    );
    r.attach_cbr(1, 0.6, 600, 2);
    r
}

#[test]
fn default_config_leaves_the_manager_uninstalled() {
    let r = Router::new(RouterConfig::default());
    assert!(r.world.qm.is_none(), "qm must be opt-in: the golden digest depends on it");
    assert_eq!(RouterConfig::default().qm_aqm, AqmKind::DropTail);
}

#[test]
fn victims_keep_goodput_while_elephant_is_shed() {
    for aqm in [AqmKind::DropTail, AqmKind::Codel] {
        let mut r = overloaded_router(aqm);
        r.run_until(HORIZON);
        let qm = r.world.qm.as_ref().expect("per_flow_qos installs the plane");
        // The elephant overran its own queue and was shed there
        // (flow_stats = offered, delivered, dropped).
        let (e_offered, e_delivered, e_drops) = qm.flow_stats(2, &elephant_key());
        assert!(e_drops > 0, "{aqm:?}: elephant was never shed");
        assert!(e_offered > e_delivered, "{aqm:?}: elephant not backlogged");
        // Every victim kept ≥90% of its offered load (its offered rate
        // is far below fair share, so goodput ≈ offered).
        for i in 0..VICTIMS as u16 {
            let (v_offered, v_delivered, v_drops) = qm.flow_stats(2, &victim_key(i));
            assert!(v_offered > 10, "{aqm:?}: victim {i} barely arrived ({v_offered})");
            assert_eq!(v_drops, 0, "{aqm:?}: victim {i} lost packets to the elephant");
            assert!(
                v_delivered * 10 >= v_offered * 9,
                "{aqm:?}: victim {i} goodput {v_delivered}/{v_offered} under 90%"
            );
        }
        // Nothing was lost off-ledger: let the finite sources run out,
        // quiesce, and check the conservation ledger closes.
        assert!(r.drain(us(100), 2_000), "{aqm:?}: failed to quiesce");
        let c = r.conservation();
        assert!(c.holds(), "{aqm:?}: deficit={} {c:?}", c.deficit());
    }
}

/// The bufferbloat regime: ~1.1x persistent overload of port 2 with a
/// deep per-flow cap. Drop-tail lets the elephant's standing queue sit
/// at the cap (~64 packets ≈ 760 µs of sojourn); CoDel's drop rate is
/// ample for the ~16 Kpps excess and holds sojourn near target. Under
/// the much harsher 1.4x scenario neither discipline can control the
/// queue (CoDel's escalation cannot absorb 60 Kpps of excess), which is
/// exactly why the AQM gate is defined here and not there.
fn bloat_router(aqm: AqmKind) -> Router {
    let mut cfg = RouterConfig::per_flow_qos(aqm);
    cfg.qm_flow_cap = 64;
    cfg.qm_mem_budget_bytes = 8 << 20; // keep 256 flows at the deeper cap
    let mut r = Router::new(cfg);
    r.attach_source(
        0,
        Box::new(TcpMixSource::new(mix_spec(), VICTIMS, VICTIM_PPS, ELEPHANT_PPS, u64::MAX)),
    );
    r.attach_cbr(1, 0.3, u64::MAX, 2);
    r
}

#[test]
fn codel_controls_sojourn_against_drop_tail() {
    let p99 = |aqm: AqmKind| {
        let mut r = bloat_router(aqm);
        r.run_until(ms(10));
        let qm = r.world.qm.as_ref().unwrap();
        // Port 2 at 100 Mbps serves ~1500 packets over the 10 ms window.
        assert!(qm.sojourn_samples() > 500, "{aqm:?}: too few served packets");
        qm.sojourn_hist().percentile(99.0)
    };
    let dt = p99(AqmKind::DropTail);
    let cd = p99(AqmKind::Codel);
    // Same bar `QosResult::gate` holds the bench to: ≥2x better tail latency.
    assert!(
        cd * 2 <= dt,
        "CoDel p99 sojourn {cd}ps must be ≥2x better than drop-tail {dt}ps"
    );
}

/// Slow-plane packets wait in their flow's queue like any other: under
/// the bufferbloat load on port 2, a light stream from port 3 whose
/// flow is bound to a StrongARM forwarder is offered to its own flow
/// queue and served from it, instead of waiting in a ring the output
/// stage would read only when the wheel ran dry.
#[test]
fn strongarm_forwarded_flow_is_served_from_the_wheel() {
    let mut r = bloat_router(AqmKind::DropTail);
    let key = npr_core::FlowKey {
        src: u32::from_be_bytes([10, 3, 0, 2]),
        dst: u32::from_be_bytes([10, 2, 0, 1]),
        sport: 5_000,
        dport: 5_001,
    };
    r.install(Key::Flow(key), npr_forwarders::slow::full_ip_sa(), None).unwrap();
    r.attach_cbr(3, 0.05, u64::MAX, 2);
    r.run_until(ms(6));
    let qm = r.world.qm.as_ref().unwrap();
    let (offered, delivered, _) = qm.flow_stats(2, &key);
    assert!(offered > 0, "no StrongARM-forwarded packet reached the wheel");
    assert!(delivered * 10 >= offered * 9, "delivered {delivered} of {offered} offered");
    assert_eq!(r.world.queues.total_enqueued(), 0, "a packet entered a ring under the wheel");
}

#[test]
fn overload_ladder_degrades_gracefully() {
    // Rung 1 — early drop: RED sheds probabilistically before the hard
    // cap, so its force-drop threshold (below the cap) absorbs the
    // overload and the cap rung stays quiet.
    let mut r = overloaded_router(AqmKind::Red);
    r.run_until(HORIZON);
    {
        let qm = r.world.qm.as_ref().unwrap();
        assert!(qm.early_drops() > 0, "RED never early-dropped under 1.4x overload");
        assert_eq!(qm.cap_drops(), 0, "RED's early rung must spare the hard cap");
    }

    // Rung 2 — per-flow cap, and rung 3 — health warn: drop-tail has no
    // early stage, so the elephant slams its cap every epoch and the
    // health plane raises a (warn-only) alarm — nothing is throttled or
    // quarantined by the qm.
    let mut r = overloaded_router(AqmKind::DropTail);
    r.run_until(HORIZON);
    {
        let qm = r.world.qm.as_ref().unwrap();
        assert!(qm.cap_drops() > 0, "unresponsive elephant must hit its cap");
        assert_eq!(qm.early_drops(), 0, "drop-tail has no early rung");
    }
    assert!(
        r.health.stats.warnings > 0,
        "sustained per-flow cap overload must raise a health warning: {:?}",
        r.health.stats
    );
    assert_eq!(r.health.stats.throttles, 0);
    assert_eq!(r.health.stats.quarantines, 0);

    // CoDel sheds by sojourn at dequeue; its counter is separate.
    let mut r = overloaded_router(AqmKind::Codel);
    r.run_until(HORIZON);
    let qm = r.world.qm.as_ref().unwrap();
    assert!(qm.sojourn_drops() > 0, "CoDel never shed the standing queue");
}

/// One scenario of the qm thread-invariance sweep: a fault-injected,
/// qm-enabled router; the index picks the AQM discipline and fault
/// class. Returns the full outcome fingerprint (which mixes the qm
/// drop counters when the plane is installed).
fn qm_sweep_scenario(i: usize) -> u64 {
    let aqm = [AqmKind::DropTail, AqmKind::Red, AqmKind::Codel][i % 3];
    let class = FAULT_CLASSES[i % FAULT_CLASSES.len()];
    let mut r = Router::new(RouterConfig::per_flow_qos(aqm));
    let mut plan = FaultPlan::new(0x0A11_BA7 ^ ((i as u64) << 9));
    plan.set_rate(class, 2_000);
    r.set_fault_plan(Some(plan));
    r.attach_source(
        0,
        Box::new(TcpMixSource::new(mix_spec(), 3, 4_000.0, 60_000.0, u64::MAX)),
    );
    r.attach_cbr(1, 0.5, 400, 2);
    r.run_until(ms(2));
    r.fingerprint()
}

#[test]
fn aqm_decisions_are_thread_invariant() {
    let n = 2 * FAULT_CLASSES.len(); // every class, alternating AQMs
    let oracle = scatter(n, 1, qm_sweep_scenario);
    for t in [2, 4, 8] {
        assert_eq!(
            scatter(n, t, qm_sweep_scenario),
            oracle,
            "qm outcome diverged at {t} delivery threads"
        );
    }
}

/// Soak-style compound rates (the PR-5 corpus).
fn soak_rate(class: FaultClass) -> u32 {
    match class {
        FaultClass::MemStall => 1_000,
        FaultClass::DmaSlow => 5_000,
        FaultClass::TokenDrop => 500,
        FaultClass::TokenDuplicate => 2_500,
        FaultClass::PortFlap => 1_000,
        FaultClass::MpCorrupt => 5_000,
        FaultClass::PciError => 50_000,
        FaultClass::SaWedge => 30_000,
    }
}

#[test]
fn chaos_soak_with_per_flow_queues_conserves() {
    // Each discipline in its own run under the full 8-class compound
    // fault plan.
    for aqm in [AqmKind::DropTail, AqmKind::Red, AqmKind::Codel] {
        qm_chaos_soak(aqm);
    }
}

fn qm_chaos_soak(aqm: AqmKind) {
    let horizon = ms(8);
    let mut r = Router::new(RouterConfig::per_flow_qos(aqm));
    // Route exactly one flow (the port-3 CBR) through a StrongARM
    // forwarder so SaWedge/PciError have real jobs to corrupt, while
    // the TCP mix stays on the fast path through the flow queues — a
    // Key::All install would capture everything away from the qm.
    r.install(
        Key::Flow(npr_core::FlowKey {
            src: u32::from_be_bytes([10, 3, 0, 2]),
            dst: u32::from_be_bytes([10, 1, 0, 1]),
            sport: 5_000,
            dport: 5_001,
        }),
        npr_forwarders::slow::full_ip_sa(),
        None,
    )
    .unwrap();
    let mut plan = FaultPlan::new(0xC0FFEE);
    for &c in &FAULT_CLASSES {
        plan.set_rate(c, soak_rate(c));
    }
    r.set_fault_plan(Some(plan));
    // Finite sources so the router can actually quiesce for the drain:
    // the elephant burns its 300 frames in ~3.3 ms of hard overload,
    // the victims trail off by ~30 ms, both inside the drain budget.
    r.attach_source(
        0,
        Box::new(TcpMixSource::new(mix_spec(), 4, 10_000.0, 90_000.0, 300)),
    );
    r.attach_cbr(1, 0.5, 600, 2);
    r.attach_cbr(3, 0.4, 400, 1);
    r.run_until(horizon);
    let ok = r.drain(us(100), 2_000);
    assert!(ok, "{aqm:?} qm soak failed to quiesce: {:?}", r.conservation());
    let c = r.conservation();
    assert!(c.holds(), "{aqm:?}: deficit={} {c:?}", c.deficit());
    let injected: u64 = FAULT_CLASSES
        .iter()
        .map(|&cl| r.fault_plan().map_or(0, |p| p.injected(cl)))
        .sum();
    assert!(injected > 0, "{aqm:?}: the compound plan injected nothing");
    // The qm really carried the traffic (this is not a vacuous pass).
    let qm = r.world.qm.as_ref().unwrap();
    assert!(qm.total_enqueued() > 0, "{aqm:?}: no packet reached the flow queues");
    // The StrongARM-forwarded flow entered the wheel too: no ring was used.
    assert_eq!(r.world.queues.total_enqueued(), 0, "{aqm:?}: a packet entered a ring");
}
