//! Scenario-sweep sharding differential (`npr_sim::scatter`): N
//! independent fault-injected routers run across worker threads must
//! produce exactly the fingerprints of the sequential sweep — the
//! equality the parallel fault-sweep benchmark rests on.
//!
//! The fabric-level twin (whole multi-chassis fabrics run threaded
//! across the full fault corpus) lives with the fabric itself:
//! `crates/fabric/tests/parallel_differential.rs`.
//!
//! `scripts/verify.sh` fails if tier-1's run of this suite executes
//! zero tests, like the other differential gates.

use npr_core::{ms, Router, RouterConfig};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{scatter, FaultClass, FaultPlan, Time};

const THREADS: [usize; 3] = [2, 4, 8];
const HORIZON: Time = ms(8);
const FRAMES: u64 = 500;

/// Soak-style compound rates, halved (matches the fabric corpus).
fn corpus_rate(class: FaultClass) -> u32 {
    match class {
        FaultClass::MemStall => 1_000,
        FaultClass::DmaSlow => 5_000,
        FaultClass::TokenDrop => 500,
        FaultClass::TokenDuplicate => 2_500,
        FaultClass::PortFlap => 1_000,
        FaultClass::MpCorrupt => 5_000,
        FaultClass::PciError => 400_000,
        FaultClass::SaWedge => 30_000,
    }
}

/// One scenario of the independent-router sweep (the fault sweep's
/// unit of work): a fresh router, one fault class, seeded by index.
fn sweep_scenario(i: usize) -> u64 {
    let class = FAULT_CLASSES[i % FAULT_CLASSES.len()];
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 60;
    let mut r = Router::new(cfg);
    let mut plan = FaultPlan::new(0xDE6_0ADE ^ (i as u64) << 7);
    plan.set_rate(class, corpus_rate(class).max(2_000));
    r.set_fault_plan(Some(plan));
    r.attach_cbr(0, 0.6, FRAMES, 2);
    r.attach_cbr(1, 0.4, FRAMES / 2, 3);
    r.run_until(HORIZON);
    r.fingerprint()
}

#[test]
fn scatter_sweep_matches_sequential_at_every_thread_count() {
    // 2 scenarios per class: enough to cover the corpus without
    // dominating the suite's wall clock.
    let n = 2 * FAULT_CLASSES.len();
    let oracle = scatter(n, 1, sweep_scenario);
    for threads in THREADS {
        assert_eq!(
            scatter(n, threads, sweep_scenario),
            oracle,
            "threads={threads}"
        );
    }
    // Scenarios genuinely differ (the sweep isn't comparing a constant).
    let distinct: std::collections::HashSet<_> = oracle.iter().collect();
    assert!(distinct.len() > 1, "sweep scenarios all collapsed: {oracle:?}");
}

#[test]
fn repeat_scatter_runs_are_stable() {
    // Same seeds, same thread count, two runs: byte-identical. Guards
    // against hidden host-side nondeterminism (hash iteration, time).
    let n = FAULT_CLASSES.len();
    let a = scatter(n, 4, sweep_scenario);
    let b = scatter(n, 4, sweep_scenario);
    assert_eq!(a, b);
}
