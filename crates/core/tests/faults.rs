//! Fault-injection suite: the deterministic fault plane drives every
//! injector class against a live router while the packet-conservation
//! ledger, the quiescence watchdog, and the one-lap invariant run
//! continuously. A router that silently leaks, double-counts, or
//! livelocks under injected hardware faults fails loudly here.
//!
//! The property bodies live in plain `fn(seed) -> Result` helpers so
//! the randomized sweep and pinned regression seeds share one code
//! path (same layout as `fuzz_robustness.rs`).

use npr_check::prelude::*;
use npr_core::{ms, us, Router, RouterConfig};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{FaultClass, FaultPlan, XorShift64};

/// Seeded scenarios per fault class.
const CASES: u32 = 64;
const CBR_FRAMES: u64 = 150;
const BIG_FRAMES: u64 = 60;

/// Traffic window: the CBR tails off well before this.
fn horizon() -> npr_sim::Time {
    ms(4)
}

/// Builds the shared fault scenario: two min-frame CBR ports, one port
/// of seeded multi-MP frames (2–9 MPs, exercising assembly under
/// faults), and a slice of traffic diverted across the PCI bus so the
/// PCI injector has transactions to corrupt.
fn build_router(seed: u64) -> Router {
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_pe_permille = 30;
    let mut r = Router::new(cfg);
    r.attach_cbr(0, 0.5, CBR_FRAMES, 2);
    r.attach_cbr(1, 0.5, CBR_FRAMES, 3);
    let mut rng = XorShift64::new(seed ^ 0xB16_F4A_735);
    let dst = u32::from_be_bytes([10, 4, 0, 1]);
    r.world.table.lookup_and_fill(dst);
    let frames: Vec<_> = (0..BIG_FRAMES)
        .map(|i| {
            let spec = npr_traffic::FrameSpec {
                len: 120 + rng.below(400) as usize,
                dst,
                ..Default::default()
            };
            (i * 50_000_000, npr_traffic::udp_frame(&spec, &[]))
        })
        .collect();
    r.attach_source(2, Box::new(npr_traffic::TraceSource::new(frames)));
    r
}

/// Runs one seeded scenario under `plan` and checks the invariants:
/// the run must quiesce (watchdog) and every admitted packet must be
/// accounted exactly once (conservation + one-lap).
fn check_invariants(mut r: Router, what: &str, seed: u64) -> Result<(), String> {
    r.run_until(horizon());
    // Quiescence watchdog: a deadlocked token ring or livelocked
    // assembly shows up as a drain that never completes.
    let quiesced = r.drain(us(100), 600);
    let c = r.conservation();
    prop_assert!(
        quiesced,
        "watchdog [{what} seed={seed}]: router failed to quiesce; {c:?}"
    );
    prop_assert!(
        c.holds(),
        "conservation [{what} seed={seed}]: deficit={} laps={} stale={} {c:?}",
        c.deficit(),
        c.lap_losses,
        c.stale_reads
    );
    Ok(())
}

/// Injection rate per class, scaled to how often its hook rolls: the
/// token and memory hooks fire per-operation (keep rates low or the
/// run crawls), the PCI hook fires per transaction (rare, rate high).
fn rate_for(class: FaultClass) -> u32 {
    match class {
        FaultClass::MemStall => 2_000,
        FaultClass::DmaSlow => 10_000,
        FaultClass::TokenDrop => 1_000,
        FaultClass::TokenDuplicate => 5_000,
        FaultClass::PortFlap => 2_000,
        FaultClass::MpCorrupt => 10_000,
        FaultClass::PciError => 100_000,
        // Rolled once per StrongARM job; each hit hangs the SA until
        // the health watchdog resets it, so keep hits rare.
        FaultClass::SaWedge => 2_000,
    }
}

fn class_case(class: FaultClass, seed: u64) -> Result<(), String> {
    let mut r = build_router(seed);
    r.set_fault_plan(Some(FaultPlan::new(seed).with_rate(class, rate_for(class))));
    check_invariants(r, &format!("{class:?}"), seed)
}

/// All seven classes at once: the compound-failure stress case.
fn all_classes_case(seed: u64) -> Result<(), String> {
    let mut r = build_router(seed);
    let mut plan = FaultPlan::new(seed);
    for &c in &FAULT_CLASSES {
        plan.set_rate(c, rate_for(c) / 2);
    }
    r.set_fault_plan(Some(plan));
    check_invariants(r, "all-classes", seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn mem_stall_conserves_packets(seed: u64) {
        class_case(FaultClass::MemStall, seed)?;
    }

    #[test]
    fn dma_slow_conserves_packets(seed: u64) {
        class_case(FaultClass::DmaSlow, seed)?;
    }

    #[test]
    fn token_drop_conserves_packets(seed: u64) {
        class_case(FaultClass::TokenDrop, seed)?;
    }

    #[test]
    fn token_duplicate_conserves_packets(seed: u64) {
        class_case(FaultClass::TokenDuplicate, seed)?;
    }

    #[test]
    fn port_flap_conserves_packets(seed: u64) {
        class_case(FaultClass::PortFlap, seed)?;
    }

    #[test]
    fn mp_corrupt_conserves_packets(seed: u64) {
        class_case(FaultClass::MpCorrupt, seed)?;
    }

    #[test]
    fn pci_error_conserves_packets(seed: u64) {
        class_case(FaultClass::PciError, seed)?;
    }

    #[test]
    fn sa_wedge_conserves_packets(seed: u64) {
        class_case(FaultClass::SaWedge, seed)?;
    }

    #[test]
    fn compound_faults_conserve_packets(seed: u64) {
        all_classes_case(seed)?;
    }
}

/// A run's observable outcome, for reproducibility comparison.
fn signature(r: &Router) -> (String, Vec<u64>, u64, u64) {
    let injected = FAULT_CLASSES
        .iter()
        .map(|&c| r.fault_plan().map_or(0, |p| p.injected(c)))
        .collect();
    let tx: u64 = (0..8).map(|p| r.ixp.hw.ports[p].tx_frames).sum();
    (format!("{:?}", r.conservation()), injected, tx, r.now())
}

/// Same seed, same fault schedule, same degradation numbers — the
/// plan's whole reason to exist.
#[test]
fn same_seed_reproduces_identical_faults_and_counters() {
    let run = || {
        let mut r = build_router(11);
        let mut plan = FaultPlan::new(42);
        for &c in &FAULT_CLASSES {
            plan.set_rate(c, rate_for(c) / 2);
        }
        r.set_fault_plan(Some(plan));
        r.run_until(horizon());
        assert!(r.drain(us(100), 600));
        signature(&r)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    assert!(
        a.1.iter().sum::<u64>() > 0,
        "the compound plan injected nothing — rates too low to test anything"
    );
}

/// A different seed produces a different fault schedule (the streams
/// really are seeded, not fixed).
#[test]
fn different_seed_changes_the_fault_schedule() {
    let run = |plan_seed: u64| {
        let mut r = build_router(11);
        r.set_fault_plan(Some(
            FaultPlan::new(plan_seed).with_rate(FaultClass::MpCorrupt, 20_000),
        ));
        r.run_until(horizon());
        assert!(r.drain(us(100), 600));
        signature(&r)
    };
    assert_ne!(run(1), run(2));
}

/// A plan with every rate at zero draws nothing from any stream: the
/// run is bit-identical to one with no plan attached at all (the
/// golden-digest guarantee, checked at the router level).
#[test]
fn zero_rate_plan_is_identical_to_no_plan() {
    let run = |plan: Option<FaultPlan>| {
        let mut r = build_router(11);
        r.set_fault_plan(plan);
        r.run_until(horizon());
        assert!(r.drain(us(100), 600));
        let tx: u64 = (0..8).map(|p| r.ixp.hw.ports[p].tx_frames).sum();
        (format!("{:?}", r.conservation()), tx, r.now())
    };
    assert_eq!(run(None), run(Some(FaultPlan::new(7))));
}

// Pinned regression seeds: the first failures each class's sweep found
// during development stay pinned verbatim.

#[test]
fn regression_seed_zero_all_classes() {
    all_classes_case(0).unwrap();
    for &c in &FAULT_CLASSES {
        class_case(c, 0).unwrap();
    }
}

/// The marker source address carried only by the decoy header embedded
/// in the frame payload: 10.99.0.1. Real frame heads carry the
/// `FrameSpec` default source, so the pad passes them untouched.
const DECOY_SRC: u32 = u32::from_be_bytes([10, 99, 0, 1]);

/// A VRP program that traps only on the decoy source address — i.e.
/// only when a corrupt-tag MP promoted mid-frame payload to a false
/// packet head. The trap itself is a 4-byte state read beyond the
/// program's 4 declared state bytes — exactly the class of runtime
/// violation the static verifier would have rejected at install time.
fn trap_on_decoy_header() -> npr_vrp::VrpProgram {
    use npr_vrp::{Cond, Insn, Src};
    npr_vrp::VrpProgram {
        name: "trap-on-decoy".into(),
        insns: vec![
            // IPv4 source address lives at frame offset 14 + 12.
            Insn::LdW { dst: 0, off: 26 },
            Insn::BrCond {
                cond: Cond::Ne,
                a: 0,
                b: Src::Imm(DECOY_SRC),
                target: 3,
            },
            Insn::SramRd { dst: 1, off: 92 },
            Insn::Done,
        ],
        state_bytes: 4,
    }
}

/// Builds a router fed with three-MP frames whose payload embeds a
/// complete, valid decoy frame aligned exactly to the second MP
/// (frame bytes 64..124). A corrupt-tag fault that relabels that
/// intermediate MP as `First`/`Only` creates a false packet head that
/// *passes* header validation — the hostile case that must reach the
/// interpreter rather than being screened out by the parsers.
fn build_decoy_router() -> Router {
    let cfg = RouterConfig::line_rate();
    let mut r = Router::new(cfg);
    let dst = u32::from_be_bytes([10, 4, 0, 1]);
    r.world.table.lookup_and_fill(dst);
    let decoy = npr_traffic::udp_frame(
        &npr_traffic::FrameSpec {
            src: DECOY_SRC,
            dst,
            ..Default::default()
        },
        &[],
    );
    // Outer frame: 42 header bytes + 150 payload = 192 bytes = 3 MPs.
    // Payload offset 22 puts the decoy at frame byte 64, the start of
    // the intermediate MP.
    let mut payload = vec![0u8; 150];
    payload[22..22 + decoy.len()].copy_from_slice(&decoy);
    let frames: Vec<_> = (0..100)
        .map(|i| {
            let spec = npr_traffic::FrameSpec {
                len: 192,
                dst,
                ..Default::default()
            };
            (i * 15_000_000, npr_traffic::udp_frame(&spec, &payload))
        })
        .collect();
    r.attach_source(2, Box::new(npr_traffic::TraceSource::new(frames)));
    r
}

/// Dynamic-trap pin: corrupt-tag MPs reaching the interpreter produce a
/// *counted* trap — the process never aborts, the run still quiesces,
/// and the conservation ledger still balances. The trap-prone program
/// is injected as a measurement pad, which bypasses the verifier the
/// same way a false start MP bypasses classification.
#[test]
fn corrupt_mps_trap_in_the_interpreter_without_aborting() {
    let mut r = build_decoy_router();
    r.set_vrp_pad(trap_on_decoy_header());
    r.set_fault_plan(Some(
        FaultPlan::new(5).with_rate(FaultClass::MpCorrupt, 200_000),
    ));
    r.run_until(horizon());
    assert!(r.drain(us(100), 600), "trapping pad must not wedge the run");
    let c = r.conservation();
    assert!(c.holds(), "deficit={} {c:?}", c.deficit());
    let traps = r.world.counters.vrp_traps.total();
    assert!(traps > 0, "the decoy pad never trapped");
    // Unattributed pad traps never escalate to quarantine.
    assert_eq!(r.health.stats.quarantines, 0);
}

/// Without fault injection the decoy payload is inert: the pad sees
/// only real frame heads and never fires. Pins that the trap above is
/// really caused by tag corruption, not by the traffic shape.
#[test]
fn decoy_payload_is_inert_without_faults() {
    let mut r = build_decoy_router();
    r.set_vrp_pad(trap_on_decoy_header());
    r.run_until(horizon());
    assert!(r.drain(us(100), 600));
    assert_eq!(r.world.counters.vrp_traps.total(), 0);
}

/// The wedge class actually wedges — and the watchdog actually resets.
/// Detection must happen within the configured bound: stall onset to
/// reset is at most `health::WEDGE_EPOCHS` epochs.
#[test]
fn sa_wedge_is_detected_and_reset_within_bound() {
    // SA-heavy variant of the shared scenario: a third of the traffic
    // bridges through the StrongARM so the wedge injector sees enough
    // jobs to fire within the horizon.
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 300;
    let mut r = Router::new(cfg);
    r.attach_cbr(0, 0.5, CBR_FRAMES, 2);
    r.attach_cbr(1, 0.5, CBR_FRAMES, 3);
    r.set_fault_plan(Some(
        FaultPlan::new(3).with_rate(FaultClass::SaWedge, 200_000),
    ));
    r.run_until(horizon());
    assert!(r.drain(us(100), 600));
    let c = r.conservation();
    assert!(c.holds(), "deficit={} {c:?}", c.deficit());
    let stats = r.health.stats;
    assert!(stats.sa_resets > 0, "the 20% wedge rate never tripped");
    // Mean detection-to-reset latency within the watchdog bound: the
    // lazily-armed pulse guarantees a sample at the deadline even on a
    // quiet event queue (1us of slack for epoch-boundary alignment).
    let bound_us = r.health.detection_bound_ps() as f64 / 1e6;
    let avg = stats.recovery_latency_avg_us();
    assert!(
        avg <= bound_us + 1.0,
        "mean recovery latency {avg:.1}us exceeds watchdog bound {bound_us:.1}us"
    );
}
