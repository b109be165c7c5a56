//! Fabric-level lock-step differential for the parallel delivery
//! engine: a multi-chassis fabric run at threads {2, 4, 8} must be
//! bit-identical to the single-threaded sequential oracle — same
//! packet counts and digests (via [`Router::fingerprint`] folded into
//! `Fabric::fingerprint`), same drop ledgers, same health
//! decisions (including the order of quarantines), across the full
//! 8-class fault corpus and every topology. The engine-level twin
//! (`crates/sim/tests/parallel_differential.rs`) isolates the engine;
//! the scatter twin (`crates/core/tests/parallel_differential.rs`)
//! covers the scenario-sweep sharding; this suite proves the property
//! survives contact with whole clusters.
//!
//! `scripts/verify.sh` fails if tier-1's run of this suite executes
//! zero tests, like the other differential gates.

use npr_core::{ms, InstallRequest, Key, RouterConfig};
use npr_fabric::{Fabric, FabricConfig, Topology};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{FaultClass, FaultPlan, Time};
use npr_traffic::{CbrSource, FrameSpec};

const THREADS: [usize; 3] = [2, 4, 8];
const HORIZON: Time = ms(8);
const FRAMES: u64 = 500;

/// A 3-member fabric with ring cross-traffic, a local stream, an ME
/// forwarder installed on member 0, and (optionally) a fault plan armed
/// on every member — deterministic given `(topology, rates)`.
fn build_fabric(topology: Topology, rates: &[(FaultClass, u32)]) -> Fabric {
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 50;
    // A fat slice of PE-diverted traffic keeps the PCI bus busy so the
    // PciError injector has transactions to abort within the horizon.
    cfg.divert_pe_permille = 100;
    let cfg = match topology {
        Topology::SingleSwitch => FabricConfig::single_switch(3, cfg),
        Topology::Ring => FabricConfig::ring(3, cfg),
        Topology::SpineLeaf { .. } => FabricConfig::spine_leaf(3, cfg),
    };
    let mut f = Fabric::new(cfg);
    for k in 0..3usize {
        let dst_net = (((k + 1) % 3) * 8) as u8;
        f.member_mut(k).attach_source(
            0,
            Box::new(CbrSource::new(
                100_000_000,
                0.8,
                FrameSpec {
                    dst: u32::from_be_bytes([10, dst_net, 0, 1]),
                    ..Default::default()
                },
                FRAMES,
            )),
        );
        // A local stream that never crosses the switch keeps every
        // member busy between barriers.
        f.member_mut(k)
            .attach_cbr(1, 0.5, FRAMES / 2, (k * 8 + 4) as u8);
        if !rates.is_empty() {
            let mut plan = FaultPlan::new(0xFAB_D1FF ^ (k as u64) << 13);
            for &(class, ppm) in rates {
                plan.set_rate(class, ppm);
            }
            f.member_mut(k).set_fault_plan(Some(plan));
        }
    }
    f.member_mut(0)
        .install(
            Key::All,
            InstallRequest::Me {
                prog: npr_forwarders::syn_monitor().unwrap(),
            },
            None,
        )
        .unwrap();
    f
}

/// Every observable the differential compares, with field-level error
/// messages (the fingerprint alone would say "something diverged").
#[derive(Debug, PartialEq)]
struct Observed {
    fingerprint: u64,
    switched: u64,
    switch_drops: u64,
    link_drops: u64,
    external_tx: u64,
    total_drops: u64,
    ledgers: Vec<npr_core::Conservation>,
    health: Vec<(u64, u64, u64, u64)>,
    injected: Vec<u64>,
}

fn observe(f: &Fabric) -> Observed {
    Observed {
        fingerprint: f.fingerprint(),
        switched: f.switched(),
        switch_drops: f.switch_drops(),
        link_drops: f.link_drops(),
        external_tx: f.external_tx(),
        total_drops: f.total_drops(),
        ledgers: f.members().map(|r| r.conservation()).collect(),
        health: f
            .members()
            .map(|r| {
                let s = &r.health.stats;
                (s.warnings, s.throttles, s.quarantines, s.sa_resets)
            })
            .collect(),
        injected: f
            .members()
            .map(|r| r.fault_plan().map_or(0, |p| p.total_injected()))
            .collect(),
    }
}

fn run_fabric(topology: Topology, rates: &[(FaultClass, u32)], threads: usize) -> Observed {
    let mut f = build_fabric(topology, rates);
    f.run_lockstep(HORIZON, threads);
    observe(&f)
}

/// Soak-style compound rates, halved (three routers share the horizon).
fn corpus_rate(class: FaultClass) -> u32 {
    match class {
        FaultClass::MemStall => 1_000,
        FaultClass::DmaSlow => 5_000,
        FaultClass::TokenDrop => 500,
        FaultClass::TokenDuplicate => 2_500,
        FaultClass::PortFlap => 1_000,
        FaultClass::MpCorrupt => 5_000,
        // The PCI hook rolls once per transaction (plus once per
        // retry), and only the PE-diverted slice crosses the bus — a
        // recovery-bench-level rate guarantees hits within the horizon.
        FaultClass::PciError => 400_000,
        FaultClass::SaWedge => 30_000,
    }
}

#[test]
fn fault_free_fabric_is_identical_at_every_thread_count() {
    let oracle = run_fabric(Topology::SingleSwitch, &[], 1);
    assert!(oracle.switched > 0, "scenario never crossed the switch");
    for threads in THREADS {
        assert_eq!(
            run_fabric(Topology::SingleSwitch, &[], threads),
            oracle,
            "threads={threads}"
        );
    }
}

#[test]
fn full_fault_corpus_is_identical_at_every_thread_count() {
    // Every class singly, at a rate scaled like the soak's compound
    // plan; each must inject and still replay bit-for-bit in parallel.
    for class in FAULT_CLASSES {
        let rates = [(class, corpus_rate(class))];
        let oracle = run_fabric(Topology::SingleSwitch, &rates, 1);
        assert!(
            oracle.injected.iter().sum::<u64>() > 0,
            "{class:?} injected nothing — the corpus run proves nothing"
        );
        for threads in THREADS {
            assert_eq!(
                run_fabric(Topology::SingleSwitch, &rates, threads),
                oracle,
                "{class:?} threads={threads}"
            );
        }
    }
}

#[test]
fn compound_chaos_is_identical_on_every_topology() {
    // The full corpus at once, on all three wirings: modeled links,
    // multi-hop transit, and spine spreading must all replay
    // bit-for-bit under the parallel engine.
    let rates: Vec<_> = FAULT_CLASSES.map(|c| (c, corpus_rate(c))).to_vec();
    for topology in [
        Topology::SingleSwitch,
        Topology::Ring,
        Topology::SpineLeaf { spines: 2 },
    ] {
        let oracle = run_fabric(topology, &rates, 1);
        assert!(oracle.injected.iter().sum::<u64>() > 0, "{topology:?}");
        assert!(oracle.switched > 0, "{topology:?}");
        for threads in THREADS {
            assert_eq!(
                run_fabric(topology, &rates, threads),
                oracle,
                "{topology:?} threads={threads}"
            );
        }
    }
}
