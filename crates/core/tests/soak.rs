//! Chaos soak: one long seeded run with every fault class armed at
//! once, against a router carrying installed forwarders on all three
//! planes. Three properties must survive the whole run:
//!
//! 1. **Conservation** — every admitted packet is accounted exactly
//!    once, no matter what was injected.
//! 2. **Bounded detection** — whenever the StrongARM stops making
//!    progress while holding a job, the health watchdog resets it
//!    within its advertised detection bound; the soak samples progress
//!    from the outside and fails on any stall the watchdog slept
//!    through.
//! 3. **Termination** — the run (including the final drain) completes
//!    under a wall-clock cap; a livelock or runaway retry loop fails
//!    loudly rather than hanging CI.
//!
//! Tier-1's `cargo test` runs it once, the full 20 ms horizon at the
//! dev profile's opt-level 1, and `scripts/verify.sh` fails if that
//! run executes zero tests. The router runs on one thread, so unlike
//! the fabric edition it has no threaded pass. The fabric edition (the
//! same chaos across a whole multi-chassis cluster, at 1 and 3
//! threads) lives with the fabric: `crates/fabric/tests/soak.rs`.

use std::time::{Duration, Instant};

use npr_core::{ms, us, InstallRequest, Key, Router, RouterConfig};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{FaultClass, FaultPlan, Time};

const HORIZON_MS: u64 = 20;
const CBR_FRAMES: u64 = 1_300;
const BIG_FRAMES: u64 = 300;
const WALL_CAP: Duration = Duration::from_secs(90);

/// Compound injection rates, scaled like `faults.rs` but with a hotter
/// wedge so the watchdog fires repeatedly over the long horizon.
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

#[test]
fn chaos_soak_conserves_detects_and_terminates() {
    let wall = Instant::now();
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 100;
    cfg.divert_pe_permille = 30;
    let mut r = Router::new(cfg);
    // One forwarder per plane, so recovery machinery has real targets.
    r.install(
        Key::All,
        InstallRequest::Me {
            prog: npr_forwarders::syn_monitor().unwrap(),
        },
        None,
    )
    .unwrap();
    r.install(Key::All, npr_forwarders::slow::full_ip_sa(), None)
        .unwrap();
    r.attach_cbr(0, 0.5, CBR_FRAMES, 2);
    r.attach_cbr(1, 0.5, CBR_FRAMES, 3);
    let dst = u32::from_be_bytes([10, 4, 0, 1]);
    r.world.table.lookup_and_fill(dst);
    let frames: Vec<_> = (0..BIG_FRAMES)
        .map(|i| {
            let spec = npr_traffic::FrameSpec {
                len: 320,
                dst,
                ..Default::default()
            };
            (i * 60_000_000, npr_traffic::udp_frame(&spec, &[]))
        })
        .collect();
    r.attach_source(2, Box::new(npr_traffic::TraceSource::new(frames)));

    let mut plan = FaultPlan::new(0xC0FFEE);
    for &c in &FAULT_CLASSES {
        plan.set_rate(c, rate_for(c));
    }
    r.set_fault_plan(Some(plan));

    // Outside-in watchdog audit: sample StrongARM progress every 50us
    // of simulated time; any stall that outlives the detection bound
    // without a recorded reset is a watchdog the chaos slept through.
    let bound = r.health.detection_bound_ps();
    let slice: Time = us(50);
    let horizon: Time = ms(HORIZON_MS);
    let mut t: Time = 0;
    let mut last_done = r.sa.jobs_finished;
    let mut stall: Option<(Time, u64)> = None;
    while t < horizon {
        t += slice;
        r.run_until(t);
        if r.sa.jobs_finished != last_done || r.sa.job.is_none() {
            last_done = r.sa.jobs_finished;
            stall = None;
        } else {
            let (since, resets0) = *stall.get_or_insert((t, r.health.stats.sa_resets));
            if t - since > bound + slice {
                assert!(
                    r.health.stats.sa_resets > resets0,
                    "StrongARM stalled since {since}ps with no reset by {t}ps \
                     (bound {bound}ps)"
                );
            }
        }
        assert!(
            wall.elapsed() < WALL_CAP,
            "soak exceeded the wall-clock cap mid-run at t={t}ps"
        );
    }

    assert!(r.drain(us(100), 2_000), "soak failed to quiesce");
    let c = r.conservation();
    assert!(c.holds(), "deficit={} {c:?}", c.deficit());
    // The chaos really happened: faults were injected, wedges tripped
    // the watchdog, and recovery ran more than once.
    let injected: u64 = FAULT_CLASSES
        .iter()
        .map(|&cl| r.fault_plan().map_or(0, |p| p.injected(cl)))
        .sum();
    assert!(injected > 0, "the compound plan injected nothing");
    assert!(
        r.health.stats.sa_resets > 0,
        "no wedge ever tripped the watchdog: {:?}",
        r.health.stats
    );
    assert!(
        wall.elapsed() < WALL_CAP,
        "soak exceeded the wall-clock cap: {:?}",
        wall.elapsed()
    );
}
