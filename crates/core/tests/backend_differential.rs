//! Backend differential gate at the router level: the same
//! forwarder-heavy scenario — Table 5 bytecode installed as general ME
//! forwarders over the faults.rs traffic shape — must produce an
//! identical digest whether installed programs run through the VRP
//! interpreter or the compile-on-verify chain. This is the system-level
//! half of the oracle policy (`crates/vrp/tests/differential.rs` is the
//! per-program half); `scripts/verify.sh` fails if tier-1's run of it
//! executes zero tests.

use npr_check::rng::Fnv1a;
use npr_core::{ms, us, InstallRequest, Key, Router, RouterConfig};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{FaultClass, FaultPlan, XorShift64};
use npr_vrp::VrpBackend;

const SEEDS: u64 = 6;
const CBR_FRAMES: u64 = 150;
const BIG_FRAMES: u64 = 60;

fn horizon() -> npr_sim::Time {
    ms(4)
}

/// The faults.rs traffic shape with a stack of Table 5 forwarders in
/// the packet path: every MP runs real bytecode several times over.
fn build_router(seed: u64, backend: VrpBackend) -> Router {
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_pe_permille = 30;
    cfg.vrp_backend = backend;
    let mut r = Router::new(cfg);
    for prog in [
        npr_forwarders::syn_monitor().expect("assembles"),
        npr_forwarders::dscp_tagger().expect("assembles"),
        npr_forwarders::ip_minimal().expect("assembles"),
    ] {
        let fid = r
            .install(Key::All, InstallRequest::Me { prog }, None)
            .expect("Table 5 forwarder admitted");
        let rec = r.getdata(fid).is_ok();
        assert!(rec, "install record missing");
    }
    // Every installed forwarder must actually sit on the requested tier.
    for f in &r.world.me_forwarders {
        assert_eq!(
            f.exec.is_compiled(),
            backend == VrpBackend::Compiled,
            "{} on the wrong tier",
            f.prog().name
        );
    }
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

/// Runs the scenario to quiescence and digests everything observable:
/// port counters, the world ledger, per-forwarder traps, queue drops,
/// and the health monitor's view.
fn run_digest(seed: u64, backend: VrpBackend, plan: Option<FaultPlan>) -> u64 {
    let mut r = build_router(seed, backend);
    r.set_fault_plan(plan);
    r.run_until(horizon());
    assert!(r.drain(us(100), 600), "router failed to quiesce");
    let mut d = Fnv1a::new();
    d.write_u64(r.now());
    d.write_u64(r.sa.done);
    d.write_u64(r.pe.done);
    for p in &r.ixp.hw.ports {
        d.write_u64(p.rx_frames);
        d.write_u64(p.rx_frames_dropped);
        d.write_u64(p.tx_frames);
    }
    let c = &r.world.counters;
    for counter in [
        &c.input_pkts,
        &c.input_mps,
        &c.vrp_drops,
        &c.vrp_traps,
        &c.validation_drops,
        &c.no_route_drops,
        &c.to_sa,
        &c.to_pe,
        &c.sa_local_done,
        &c.pe_done,
        &c.lap_losses,
        &c.tx_pkts,
        &c.input_reg_cycles,
        &c.output_reg_cycles,
        &c.output_mps,
        &c.latency_sum_ps,
        &c.latency_samples,
    ] {
        d.write_u64(counter.total());
    }
    for traps in &r.world.me_traps {
        d.write_u64(*traps);
    }
    d.write_u64(r.world.queues.total_drops());
    let h = &r.health.stats;
    d.write_u64(h.epochs);
    d.write_u64(h.warnings);
    d.write_u64(h.throttles);
    d.write_u64(h.quarantines);
    d.write_u64(h.sa_resets);
    d.finish()
}

/// The core assertion: for one (seed, plan), both tiers digest equal.
fn backends_agree(seed: u64, plan: Option<FaultPlan>, what: &str) {
    let interp = run_digest(seed, VrpBackend::Interp, plan.clone());
    let compiled = run_digest(seed, VrpBackend::Compiled, plan);
    assert_eq!(
        interp, compiled,
        "backends diverged [{what} seed={seed}]: \
         interp {interp:#018X} != compiled {compiled:#018X}"
    );
}

#[test]
fn fault_free_runs_are_backend_invariant() {
    for seed in 0..SEEDS {
        backends_agree(seed, None, "fault-free");
    }
}

#[test]
fn mp_corruption_is_backend_invariant() {
    // Corrupted MPs feed garbage bytes through the installed bytecode:
    // both tiers must take identical data-dependent paths through it.
    for seed in 0..SEEDS {
        let plan = FaultPlan::new(seed).with_rate(FaultClass::MpCorrupt, 10_000);
        backends_agree(seed, Some(plan), "mp-corrupt");
    }
}

#[test]
fn compound_faults_are_backend_invariant() {
    // Every injector class at once — the soak-style stress shape —
    // including StrongARM wedges that exercise install replay.
    for seed in 0..SEEDS {
        let mut plan = FaultPlan::new(seed);
        for &c in &FAULT_CLASSES {
            plan.set_rate(c, 1_000);
        }
        backends_agree(seed, Some(plan), "all-classes");
    }
}
