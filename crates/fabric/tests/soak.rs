//! Chaos soak, fabric edition: a 3-chassis fabric with every fault
//! class armed on every member, run under the lockstep engine at 1
//! thread and again at 3 (one thread per chassis). The properties of
//! the single-router soak (`crates/core/tests/soak.rs`) must hold
//! cluster-wide:
//!
//! 1. **Conservation** — per-member ledgers and the whole-fabric switch
//!    equations balance, no matter what was injected.
//! 2. **Detection** — at least one wedge trips a member's watchdog.
//! 3. **Thread invariance** — the threaded run's fingerprint must
//!    match the sequential oracle's, in-process.
//! 4. **Termination** — both runs (and the final drain) complete under
//!    a wall-clock cap.
//!
//! Tier-1's `cargo test` runs it once; the audits read the threaded
//! run.

use std::time::{Duration, Instant};

use npr_core::{ms, us, InstallRequest, Key, RouterConfig};
use npr_fabric::{Fabric, FabricConfig};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{FaultClass, FaultPlan, Time};

const HORIZON_MS: u64 = 20;
const CBR_FRAMES: u64 = 1_300;
const WALL_CAP: Duration = Duration::from_secs(90);
/// Lockstep threads of the threaded run: one per chassis.
const THREADS: usize = 3;

/// Compound injection rates, matching the single-router soak.
fn rate_for(class: FaultClass) -> u32 {
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

/// A 3-chassis single-switch fabric with ring cross-traffic, local
/// streams, an ME forwarder, and the compound fault plan armed on
/// every member — deterministic, so two builds run to the same horizon
/// are comparable by fingerprint.
fn chaos_fabric() -> Fabric {
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 100;
    // PE-diverted traffic keeps the PCI bus busy for the PCI injector.
    cfg.divert_pe_permille = 30;
    let mut f = Fabric::new(FabricConfig::single_switch(3, cfg));
    for k in 0..3usize {
        let dst_net = (((k + 1) % 3) * 8) as u8;
        f.member_mut(k).attach_source(
            0,
            Box::new(npr_traffic::CbrSource::new(
                100_000_000,
                0.7,
                npr_traffic::FrameSpec {
                    dst: u32::from_be_bytes([10, dst_net, 0, 1]),
                    ..Default::default()
                },
                CBR_FRAMES / 2,
            )),
        );
        f.member_mut(k)
            .attach_cbr(1, 0.5, CBR_FRAMES / 2, (k * 8 + 4) as u8);
        let mut plan = FaultPlan::new(0xC0FFEE ^ ((k as u64) << 17));
        for &c in &FAULT_CLASSES {
            plan.set_rate(c, rate_for(c) / 2);
        }
        f.member_mut(k).set_fault_plan(Some(plan));
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

/// The chaos fabric run to the horizon and through a grace window at
/// `threads`.
fn soaked(threads: usize) -> Fabric {
    let horizon: Time = ms((HORIZON_MS / 2).max(2));
    let mut f = chaos_fabric();
    f.run_lockstep(horizon, threads);
    // Grace window: let in-flight switch traffic land before auditing.
    f.run_lockstep(horizon + us(200), threads);
    f
}

#[test]
fn chaos_soak_fabric_lockstep_is_thread_invariant_and_conserves() {
    let wall = Instant::now();
    let oracle = soaked(1).fingerprint();
    let mut f = soaked(THREADS);
    assert_eq!(
        f.fingerprint(),
        oracle,
        "lockstep at {THREADS} threads diverged from the sequential oracle"
    );

    let injected: u64 = f
        .members()
        .map(|r| r.fault_plan().map_or(0, |p| p.total_injected()))
        .sum();
    assert!(injected > 0, "the compound plan injected nothing");
    let resets: u64 = f.members().map(|r| r.health.stats.sa_resets).sum();
    assert!(
        resets > 0,
        "no wedge ever tripped any member's watchdog over the fabric soak"
    );

    // Fabric-level drain (members plus switch queues), then audit both
    // the per-member ledgers and the whole-fabric switch equations.
    assert!(f.drain(us(100), 4_000), "fabric failed to quiesce");
    for k in 0..f.len() {
        let c = f.member(k).conservation();
        assert!(c.holds(), "member {k} deficit={} {c:?}", c.deficit());
    }
    let fc = f.conservation();
    assert!(fc.holds(), "fabric conservation broke: {fc:?}");
    assert!(
        wall.elapsed() < WALL_CAP,
        "fabric soak exceeded the wall-clock cap: {:?}",
        wall.elapsed()
    );
}
