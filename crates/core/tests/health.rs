//! Health-and-recovery subsystem tests: the runtime-overrun escalation
//! ladder (warn -> throttle -> quarantine), trap-storm quarantine of an
//! unverified ME forwarder, StrongARM wedge reset with install replay
//! down the simulated control path, the `Report` surfacing of all of
//! it, and a fixed quarantine order for forwarders that offend in
//! lockstep. Companion to the wedge-detection pins in `faults.rs`.

use npr_core::health::TRAP_THRESHOLD;
use npr_core::{ms, us, FlowKey, InstallRequest, Key, Router, RouterConfig, WhereRun};
use npr_forwarders::slow::{full_ip_sa, tcp_proxy_pe, FULL_IP_CYCLES};

/// A router whose every packet takes the StrongARM-local slow path.
fn sa_router() -> Router {
    let mut r = Router::new(RouterConfig::line_rate());
    r.install(Key::All, full_ip_sa(), None)
        .expect("SA forwarder admitted");
    r.attach_cbr(0, 0.5, 150, 1);
    r
}

/// Quiesce and require the ledger to balance: recovery actions must
/// never lose or double-count a packet.
fn settle(r: &mut Router) {
    assert!(r.drain(us(100), 600), "router failed to quiesce");
    let c = r.conservation();
    assert!(c.holds(), "deficit={} {c:?}", c.deficit());
}

#[test]
fn sa_overrun_climbs_warn_throttle_quarantine() {
    let mut r = sa_router();
    // The forwarder declared FULL_IP_CYCLES but attempts ~4x that.
    r.sa.policer.misbehave(0, FULL_IP_CYCLES * 3);
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert!(s.warnings >= 1, "no warning rung: {s:?}");
    assert_eq!(s.throttles, 1, "throttle rung taken once: {s:?}");
    assert_eq!(s.quarantines, 1, "quarantine rung taken once: {s:?}");
    assert_eq!(r.health.quarantined, vec![(WhereRun::Sa, 0)]);
    // Quarantine unbound the forwarder: its flows fell back to the
    // default IP path, so packets kept flowing after the recovery.
    let tx: u64 = (0..8).map(|p| r.ixp.hw.ports[p].tx_frames).sum();
    assert!(tx > 0, "no traffic survived the quarantine");
    assert!(
        !r.sa.policer.throttled(0),
        "quarantine must clear the throttle"
    );
}

#[test]
fn overrun_ladder_unwinds_when_behavior_recovers() {
    let mut r = sa_router();
    r.sa.policer.misbehave(0, FULL_IP_CYCLES * 3);
    // One offending epoch (50us): the warn rung fires. Packets policed
    // before the fault clears may contaminate the *next* epoch's
    // average (at most the throttle rung) — but with good behavior no
    // later epoch can offend, so the quarantine rung is unreachable.
    r.run_until(us(60));
    r.sa.policer.misbehave(0, 0);
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert!(s.warnings >= 1, "{s:?}");
    assert!(s.throttles <= 1, "{s:?}");
    assert_eq!(s.quarantines, 0, "recovered forwarder was quarantined");
    assert!(
        !r.sa.policer.throttled(0),
        "throttle must lift once the overrun disappears"
    );
    assert!(r.health.quarantined.is_empty());
}

#[test]
fn pe_overrun_is_policed_like_the_strongarm() {
    let mut r = Router::new(RouterConfig::line_rate());
    r.install(Key::All, tcp_proxy_pe(50_000), None)
        .expect("PE forwarder admitted");
    r.attach_cbr(0, 0.5, 150, 1);
    r.pe.policer.misbehave(0, 4_000);
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert_eq!(s.throttles, 1, "{s:?}");
    assert_eq!(s.quarantines, 1, "{s:?}");
    assert_eq!(r.health.quarantined, vec![(WhereRun::Pe, 0)]);
    assert!(!r.pe.policer.throttled(0));
}

/// An always-trapping program standing in for ISTORE bit-rot: reads
/// state word 92 while only 4 bytes were allocated.
fn rotted() -> npr_vrp::VrpProgram {
    npr_vrp::VrpProgram {
        name: "rotted".into(),
        insns: vec![
            npr_vrp::Insn::SramRd { dst: 0, off: 92 },
            npr_vrp::Insn::Done,
        ],
        state_bytes: 4,
    }
}

#[test]
fn me_trap_storm_quarantines_the_forwarder() {
    let mut r = Router::new(RouterConfig::line_rate());
    let fid = r
        .install(
            Key::All,
            InstallRequest::Me {
                prog: npr_forwarders::syn_monitor().unwrap(),
            },
            None,
        )
        .unwrap();
    // Simulate post-verification corruption: the installed program rots
    // in the ISTORE into one the verifier would never have admitted.
    // The Executable refuses to compile it, so execution falls back to
    // the interpreter — whose dynamic checks surface the traps.
    let rotted = npr_vrp::Executable::new(rotted(), r.cfg.vrp_backend);
    assert!(!rotted.is_compiled(), "unverifiable program must not compile");
    r.world.me_forwarders[0].exec = rotted;
    r.attach_cbr(0, 0.9, 300, 1);
    r.attach_cbr(2, 0.9, 300, 3);
    r.run_until(ms(4));
    settle(&mut r);
    let s = r.health.stats;
    // ME ladder has no throttle rung: warn, then quarantine.
    assert_eq!(s.quarantines, 1, "{s:?}");
    assert_eq!(s.throttles, 0, "{s:?}");
    assert_eq!(r.health.quarantined, vec![(WhereRun::Me, 0)]);
    // The traps were attributed to the rotted forwarder and counted.
    assert!(r.world.me_traps[0] >= TRAP_THRESHOLD);
    assert!(r.world.counters.vrp_traps.total() >= r.world.me_traps[0]);
    // Quarantine unbound it: the fid is gone from the classifier and
    // traffic kept moving on the default path afterwards.
    assert!(r.getdata(fid).is_ok(), "install record survives quarantine");
    let tx: u64 = (0..8).map(|p| r.ixp.hw.ports[p].tx_frames).sum();
    assert!(tx > 0);
}

#[test]
fn a_queue_outside_the_queue_set_is_the_forwarders_trap() {
    // Verified code, yet it names queue 4000 of 10: a queue read from
    // flow state (as `table5`'s full-IP forwarder loads it) can say
    // anything. Rings and qm alike discard the override, charge it to
    // the forwarder as a trap, and route the packet as before.
    let qm = RouterConfig::per_flow_qos(npr_core::AqmKind::DropTail);
    for cfg in [RouterConfig::line_rate(), qm] {
        let mut r = Router::new(cfg);
        let mut a = npr_vrp::Asm::new("bad-queue");
        a.imm(1, 4000).set_queue(npr_vrp::Src::Reg(1)).done();
        let prog = a.finish(0).unwrap();
        r.install(Key::All, InstallRequest::Me { prog }, None)
            .expect("verified forwarder admitted");
        r.attach_cbr(0, 0.9, 300, 1);
        r.attach_cbr(2, 0.9, 300, 3);
        r.run_until(ms(4));
        settle(&mut r);
        assert!(r.world.me_traps[0] >= TRAP_THRESHOLD, "{:?}", r.world.me_traps);
        assert_eq!(r.health.quarantined, vec![(WhereRun::Me, 0)]);
        assert_eq!(r.ixp.hw.ports[1].tx_frames, 300, "routed port kept");
        assert_eq!(r.ixp.hw.ports[3].tx_frames, 300, "routed port kept");
    }
}

#[test]
fn wedge_reset_replays_installs_down_the_control_path() {
    use npr_sim::{FaultClass, FaultPlan};
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 333;
    let mut r = Router::new(cfg);
    r.install(
        Key::All,
        InstallRequest::Me {
            prog: npr_forwarders::syn_monitor().unwrap(),
        },
        None,
    )
    .unwrap();
    r.install(Key::All, full_ip_sa(), None).unwrap();
    let submitted_before = r.ctl_stats().submitted;
    r.attach_cbr(0, 0.5, 150, 1);
    r.set_fault_plan(Some(
        FaultPlan::new(9).with_rate(FaultClass::SaWedge, 100_000),
    ));
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert!(s.sa_resets > 0, "the wedge rate never tripped the watchdog");
    // Every reset replays both installs through the simulated control
    // path (Pentium marshalling, PCI descriptor, StrongARM execution).
    let replayed = r.ctl_stats().submitted - submitted_before;
    assert!(
        replayed >= s.sa_resets * 2,
        "{replayed} control ops for {} resets",
        s.sa_resets
    );
    // The reset preserved the installed set — nothing was quarantined.
    assert_eq!(r.installed().len(), 2);
    assert_eq!(s.quarantines, 0);
}

#[test]
fn compiled_forwarder_at_declared_cost_is_never_policed() {
    // Regression pin for the compiled VRP backend: overrun policing
    // measures *simulated* attempted cycles, and the compiled tier
    // reports bit-identical dynamic cost to the interpreter — so a
    // well-behaved forwarder must climb no rung of the escalation
    // ladder no matter which tier executes it, and must never trap.
    for backend in [npr_vrp::VrpBackend::Interp, npr_vrp::VrpBackend::Compiled] {
        let mut cfg = RouterConfig::line_rate();
        cfg.divert_sa_permille = 200;
        cfg.vrp_backend = backend;
        let mut r = Router::new(cfg);
        r.install(
            Key::All,
            InstallRequest::Me {
                prog: npr_forwarders::syn_monitor().unwrap(),
            },
            None,
        )
        .unwrap();
        assert_eq!(
            r.world.me_forwarders[0].exec.is_compiled(),
            backend == npr_vrp::VrpBackend::Compiled
        );
        // An SA forwarder running exactly at its declared cost rides
        // along: dynamic policing must stay quiet for it too.
        r.install(Key::All, full_ip_sa(), None).unwrap();
        r.attach_cbr(0, 0.9, 300, 1);
        r.run_until(ms(3));
        settle(&mut r);
        let s = r.health.stats;
        assert!(s.epochs > 0, "monitor never sampled [{backend}]");
        assert_eq!(s.warnings, 0, "[{backend}] {s:?}");
        assert_eq!(s.throttles, 0, "[{backend}] {s:?}");
        assert_eq!(s.quarantines, 0, "[{backend}] {s:?}");
        assert!(r.health.quarantined.is_empty(), "[{backend}]");
        assert_eq!(
            r.world.counters.vrp_traps.total(),
            0,
            "verified program trapped [{backend}]"
        );
        let tx: u64 = (0..8).map(|p| r.ixp.hw.ports[p].tx_frames).sum();
        assert!(tx > 0, "no traffic moved [{backend}]");
    }
}

#[test]
fn report_surfaces_health_counters() {
    let mut r = sa_router();
    r.sa.policer.misbehave(0, FULL_IP_CYCLES * 3);
    let report = r.measure(us(0), ms(3));
    assert!(report.health_epochs > 0);
    assert!(report.health_warnings >= 1);
    assert_eq!(report.health_throttles, 1);
    assert_eq!(report.health_quarantines, 1);
    assert_eq!(report.recoveries, 1);
    assert!(report.recovery_latency_avg_us > 0.0);
}

/// Fresh routers per lockstep test: each must agree with the first.
const ROUTERS: usize = 16;

/// Two forwarders on slow plane `wr`, each bound to its own flow
/// (port p to net p + 2), given the same overrun at the same instant:
/// they climb warn -> throttle -> quarantine in lockstep and are
/// quarantined in one epoch. Returns the router's fingerprint, which
/// mixes the quarantine order.
fn lockstep_quarantine(wr: WhereRun) -> u64 {
    let mut r = Router::new(RouterConfig::line_rate());
    for port in 0..2u8 {
        let flow = FlowKey {
            src: u32::from_be_bytes([10, port, 0, 2]),
            dst: u32::from_be_bytes([10, port + 2, 0, 1]),
            sport: 5000,
            dport: 5001,
        };
        let req = match wr {
            WhereRun::Sa => full_ip_sa(),
            _ => tcp_proxy_pe(50_000),
        };
        r.install(Key::Flow(flow), req, None).expect("admitted");
        r.attach_cbr(usize::from(port), 0.5, 150, port + 2);
    }
    let (policer, overrun) = match wr {
        WhereRun::Sa => (&mut r.sa.policer, FULL_IP_CYCLES * 3),
        _ => (&mut r.pe.policer, 4_000),
    };
    policer.misbehave(0, overrun);
    policer.misbehave(1, overrun);
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert_eq!((s.throttles, s.quarantines), (2, 2), "{s:?}");
    assert_eq!(r.health.quarantined, vec![(wr, 0), (wr, 1)]);
    r.fingerprint()
}

fn assert_lockstep_quarantine_is_deterministic(wr: WhereRun) {
    let prints: Vec<u64> = (0..ROUTERS).map(|_| lockstep_quarantine(wr)).collect();
    assert!(prints.iter().all(|&p| p == prints[0]), "{prints:x?}");
}

#[test]
fn sa_lockstep_quarantine_order_is_fixed() {
    assert_lockstep_quarantine_is_deterministic(WhereRun::Sa);
}

#[test]
fn pe_lockstep_quarantine_order_is_fixed() {
    assert_lockstep_quarantine_is_deterministic(WhereRun::Pe);
}
