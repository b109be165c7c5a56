//! Idle-rotation compression against its oracle (DESIGN.md §5, "Idle
//! rotations are skipped, exactly").
//!
//! The machine skips whole rotations of an idle input ring instead of
//! dispatching their ~90 events each. The oracle is the same router
//! with the switch off (`Router::set_spin_enabled(false)`): every event
//! dispatched one by one, as before the shortcut existed. Each seeded
//! scenario is run on both under
//!
//! * one deadline,
//! * 24 random cuts,
//! * a cut at every pending event timestamp (`next_event_time()`),
//!
//! and every observable — `fingerprint()`, `report()`,
//! `conservation()`, `ixp.reg_cycles()`, `next_event_time()` — must be
//! equal at every cut. Scenarios cover what decides whether and how far
//! the ring may jump: port loads from idle to 95 %, minimum-size and
//! multi-MP frames, bursts separated by gaps of 0–200 us, an
//! `install`/`remove` inside a gap (so `freeze_me` lands inside an
//! orbit), `attach_source` and `offer_frame` inside a gap, rings of
//! 1–16 input contexts, the per-flow queue manager, a StrongARM
//! forwarder the health monitor polices (its decisions are stamped with
//! the instant of the first event after an epoch boundary), and an
//! armed fault plan (which must never jump). The slow planes are kept
//! busy through the idle stretches: up to every packet diverted to the
//! StrongARM, `setdata`/`getdata` ops in flight across a gap, and the
//! ME `install` queued at the Pentium behind them — an op waits there
//! with no control event pending, so only the count of ME-code ops in
//! flight can tell a jump where to stop. The idle cases, SA-busy ones
//! included, assert `events_skipped() > 0`, so the suite cannot pass
//! vacuously.

use npr_check::prelude::*;
use npr_check::CheckRng;
use npr_core::router::build_udp_frame;
use npr_core::{us, AqmKind, FlowKey, InstallRequest, Key, Router, RouterConfig};
use npr_forwarders::slow::{full_ip_sa, FULL_IP_CYCLES};
use npr_sim::{FaultClass, FaultPlan, Time};
use npr_traffic::TraceSource;

/// Something done to the router between two `run_until` calls.
#[derive(Clone, Debug)]
enum Action {
    /// Install an ME forwarder no packet matches: the only effect is
    /// the ISTORE write freezing the input engines.
    Install,
    /// Remove it again (another freeze).
    Remove,
    /// `setdata` (`true`) or `getdata` on a StrongARM forwarder no
    /// packet matches: a control op that ends at the StrongARM.
    Data(bool),
    /// Attach a fresh trace to `port`, whose first one has ended.
    Attach(usize, Vec<(Time, Vec<u8>)>),
    /// Hand `port` these frames from outside, as a fabric link feeds
    /// one (`Router::offer_frame`): its first frames have run out.
    Offer(usize, Vec<(Time, Vec<u8>)>),
}

#[derive(Clone, Debug)]
struct Scenario {
    cfg: RouterConfig,
    /// Per port, the trace attached before the run.
    traces: Vec<Vec<(Time, Vec<u8>)>>,
    /// The port fed from outside instead (its trace is offered before
    /// the run).
    fed_port: usize,
    actions: Vec<(Time, Action)>,
    faults: Option<FaultPlan>,
    /// Every packet takes a StrongARM forwarder that overruns its
    /// declared cycles, so the health monitor climbs its ladder and the
    /// recovery latency in the `Report` depends on the instant of the
    /// first event after each epoch boundary.
    sa_overrun: bool,
    end: Time,
}

/// Bursts of frames from `from` on: each burst picks a load and a
/// frame size, each gap is 0–200 us.
fn bursts(rng: &mut CheckRng, port: usize, from: Time, until: Time) -> Vec<(Time, Vec<u8>)> {
    let mut out = Vec::new();
    let mut t = from + rng.below(us(40));
    while t < until {
        let load_pct = 1 + rng.below(95);
        let len = if rng.bool() {
            60
        } else {
            61 + rng.below(1_400) as usize
        };
        // Wire time of the frame at 100 Mbps (24 bytes of overhead),
        // stretched to the burst's load.
        let spacing = (len as u64 + 24) * 80_000 * 100 / load_pct;
        for _ in 0..1 + rng.below(6) {
            let dst = rng.below(8) as u8;
            out.push((t, build_udp_frame(port as u8, dst, len)));
            t += spacing;
        }
        t += rng.below(us(200));
    }
    out
}

fn scenario(seed: u64, faulty: bool) -> Scenario {
    let mut rng = CheckRng::new(seed);
    let mut cfg = if rng.below(3) == 0 {
        RouterConfig::per_flow_qos(AqmKind::Codel)
    } else {
        RouterConfig::line_rate()
    };
    cfg.input_ctxs = [1, 2, 4, 8, 16][rng.below(5) as usize];
    let end = us(1_200);
    let fed_port = rng.below(8) as usize;
    // A few ports stay silent, so the ring has long idle stretches.
    let traces: Vec<_> = (0..8)
        .map(|p| match rng.below(3) {
            0 => Vec::new(),
            _ => bursts(&mut rng, p, 0, end / 2),
        })
        .collect();
    let mut actions = Vec::new();
    let install_at = rng.below(end / 2);
    actions.push((install_at, Action::Install));
    actions.push((install_at + us(60) + rng.below(end / 3), Action::Remove));
    let p = rng.below(8) as usize;
    let at = end / 2 + rng.below(end / 4);
    if p != fed_port {
        actions.push((at, Action::Attach(p, bursts(&mut rng, p, at, end))));
    }
    let at = end / 2 + rng.below(end / 4);
    actions.push((
        at,
        Action::Offer(fed_port, bursts(&mut rng, fed_port, at, end)),
    ));
    // The slow planes busy through the gaps: diverted packets on the
    // StrongARM, data ops in flight, and up to two of them submitted
    // just ahead of the install, which then waits in the Pentium's
    // FIFO with no control event pending.
    cfg.divert_sa_permille = [0, 250, 1_000][rng.below(3) as usize];
    for _ in 0..rng.below(3) {
        actions.push((rng.below(end), Action::Data(rng.bool())));
    }
    for _ in 0..rng.below(3) {
        actions.push((install_at, Action::Data(rng.bool())));
    }
    // At one instant a data op goes first.
    actions.sort_by_key(|a| (a.0, !matches!(a.1, Action::Data(_))));
    let faults = faulty.then(|| {
        // Half the faulty cases draw nothing: an armed plan alone must
        // keep the ring from jumping.
        let mut plan = FaultPlan::new(seed);
        if rng.bool() {
            for class in [
                FaultClass::TokenDrop,
                FaultClass::TokenDuplicate,
                FaultClass::PortFlap,
            ] {
                plan = plan.with_rate(class, 2_000);
            }
        }
        plan
    });
    Scenario {
        cfg,
        traces,
        fed_port,
        actions,
        faults,
        sa_overrun: rng.below(3) == 0,
        end,
    }
}

/// A flow key no generated packet carries.
fn unused_flow() -> Key {
    Key::Flow(FlowKey {
        src: 0x0909_0909,
        dst: 0x0909_0909,
        sport: 9,
        dport: 9,
    })
}

struct Run {
    router: Router,
    fid: Option<npr_core::Fid>,
    /// The StrongARM forwarder `Action::Data` reads and writes.
    data_fid: npr_core::Fid,
}

impl Run {
    fn new(sc: &Scenario, compressed: bool) -> Self {
        let mut router = Router::new(sc.cfg.clone());
        router.set_spin_enabled(compressed);
        router.set_fault_plan(sc.faults.clone());
        if sc.sa_overrun {
            router
                .install(Key::All, full_ip_sa(), None)
                .expect("SA forwarder admitted");
            router.sa.policer.misbehave(0, FULL_IP_CYCLES * 3);
        }
        let data_fid = router
            .install(unused_flow(), full_ip_sa(), None)
            .expect("per-flow SA forwarder admitted");
        for (p, trace) in sc.traces.iter().enumerate() {
            if p != sc.fed_port {
                router.attach_source(p, Box::new(TraceSource::new(trace.clone())));
            }
        }
        for (at, frame) in &sc.traces[sc.fed_port] {
            router.offer_frame(sc.fed_port, *at, frame);
        }
        Self {
            router,
            fid: None,
            data_fid,
        }
    }

    fn apply(&mut self, action: &Action) {
        match action {
            Action::Install => {
                let prog = npr_forwarders::tcp_splicer().expect("splicer assembles");
                let req = InstallRequest::Me { prog };
                self.fid = Some(
                    self.router
                        .install(unused_flow(), req, None)
                        .expect("per-flow splicer admits"),
                );
            }
            Action::Remove => {
                let fid = self.fid.take().expect("installed before removed");
                self.router.remove(fid).expect("installed forwarder");
            }
            Action::Data(true) => {
                self.router
                    .setdata(self.data_fid, &[0x5A; 8])
                    .expect("installed forwarder");
            }
            Action::Data(false) => {
                self.router
                    .getdata(self.data_fid)
                    .expect("installed forwarder");
            }
            Action::Attach(p, trace) => {
                self.router
                    .attach_source(*p, Box::new(TraceSource::new(trace.clone())));
            }
            Action::Offer(p, frames) => {
                for (at, frame) in frames {
                    self.router.offer_frame(*p, *at, frame);
                }
            }
        }
    }

    /// Everything a caller can observe. `Report` holds floats, so it is
    /// compared through its `Debug` form (NaN-safe).
    fn observe(&self) -> (u64, String, npr_core::Conservation, u64, Option<Time>) {
        let r = &self.router;
        (
            r.fingerprint(),
            format!("{:?}", r.report()),
            r.conservation(),
            r.ixp.reg_cycles(),
            r.next_event_time(),
        )
    }
}

/// How the span between two actions is cut.
#[derive(Clone, Copy)]
enum Cuts {
    None,
    Random(u64),
    EveryEvent,
}

/// Runs `sc` compressed and on the oracle under the same cuts,
/// comparing at every one. Returns the compressed router's
/// `events_skipped()`.
fn run_pair(sc: &Scenario, cuts: Cuts) -> Result<u64, String> {
    let mut fast = Run::new(sc, true);
    let mut slow = Run::new(sc, false);
    let check = |fast: &Run, slow: &Run, at: Time| {
        let (f, s) = (fast.observe(), slow.observe());
        if f == s {
            Ok(())
        } else {
            Err(format!(
                "diverged at cut {at}:\n  compressed {f:?}\n  oracle     {s:?}"
            ))
        }
    };
    let mut rng = CheckRng::new(match cuts {
        Cuts::Random(seed) => seed,
        _ => 0,
    });
    let stops = sc
        .actions
        .iter()
        .map(|(at, a)| (*at, Some(a)))
        .chain([(sc.end, None)]);
    for (stop, action) in stops {
        let from = fast.router.now();
        match cuts {
            Cuts::None => {}
            Cuts::Random(_) => {
                let per_span = 24 / (sc.actions.len() as u64 + 1) + 1;
                let mut at: Vec<Time> = (0..per_span)
                    .map(|_| from + rng.below((stop - from).max(1)))
                    .collect();
                at.sort_unstable();
                for cut in at {
                    fast.router.run_until(cut);
                    slow.router.run_until(cut);
                    check(&fast, &slow, cut)?;
                }
            }
            Cuts::EveryEvent => {
                fast.router.start();
                slow.router.start();
                while let Some(next) = fast.router.next_event_time().filter(|&t| t <= stop) {
                    fast.router.run_until(next);
                    slow.router.run_until(next);
                    check(&fast, &slow, next)?;
                }
            }
        }
        fast.router.run_until(stop);
        slow.router.run_until(stop);
        check(&fast, &slow, stop)?;
        if let Some(a) = action {
            fast.apply(a);
            slow.apply(a);
            check(&fast, &slow, stop)?;
        }
    }
    if slow.router.events_skipped() != 0 {
        return Err("the oracle skipped events".into());
    }
    Ok(fast.router.events_skipped())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compressed_matches_the_oracle_under_one_deadline(seed: u64) {
        let sc = scenario(seed, false);
        let skipped = run_pair(&sc, Cuts::None);
        prop_assert!(skipped.is_ok(), "{}", skipped.unwrap_err());
        // Every scenario has silent ports and 200 us gaps.
        prop_assert!(skipped.unwrap() > 0, "nothing was skipped: the comparison is vacuous");
    }

    #[test]
    fn compressed_matches_the_oracle_at_random_cuts(seed: u64) {
        let sc = scenario(seed, false);
        let skipped = run_pair(&sc, Cuts::Random(seed ^ 0xC0FFEE));
        prop_assert!(skipped.is_ok(), "{}", skipped.unwrap_err());
        prop_assert!(skipped.unwrap() > 0, "nothing was skipped: the comparison is vacuous");
    }

    #[test]
    fn an_armed_fault_plan_never_jumps(seed: u64) {
        let sc = scenario(seed, true);
        let skipped = run_pair(&sc, Cuts::Random(seed));
        prop_assert!(skipped.is_ok(), "{}", skipped.unwrap_err());
        prop_assert_eq!(skipped.unwrap(), 0, "jumped with a fault plan armed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn compressed_matches_the_oracle_cut_at_every_event(seed: u64) {
        // The finest slicing there is. No deadline leaves room for a
        // jump, so this holds the private list's merge alone to the
        // oracle's order.
        let mut sc = scenario(seed, false);
        sc.end /= 4;
        sc.actions.retain(|a| a.0 < sc.end);
        let skipped = run_pair(&sc, Cuts::EveryEvent);
        prop_assert!(skipped.is_ok(), "{}", skipped.unwrap_err());
    }
}

#[test]
fn an_idle_line_rate_router_skips_most_of_its_events() {
    // 8 x 100 Mbps CBR at 10 % load: the ring is idle nine tenths of
    // the time, and most of that must be skipped, not stepped.
    let run = |compressed: bool| {
        let mut r = Router::new(RouterConfig::line_rate());
        r.set_spin_enabled(compressed);
        for p in 0..8 {
            r.attach_cbr(p, 0.10, u64::MAX, ((p + 1) % 8) as u8);
        }
        r.run_until(us(2_500));
        r
    };
    let (fast, slow) = (run(true), run(false));
    assert_eq!(fast.fingerprint(), slow.fingerprint());
    assert_eq!(
        format!("{:?}", fast.report()),
        format!("{:?}", slow.report())
    );
    assert_eq!(fast.ixp.reg_cycles(), slow.ixp.reg_cycles());
    assert_eq!(fast.next_event_time(), slow.next_event_time());
    // What was skipped is what the oracle dispatched and the
    // compressed run did not.
    assert_eq!(
        fast.events_dispatched() + fast.events_skipped(),
        slow.events_dispatched()
    );
    assert!(
        fast.events_dispatched() * 2 < slow.events_dispatched(),
        "{} of {} events still dispatched",
        fast.events_dispatched(),
        slow.events_dispatched()
    );
    // The saving lands on the four kinds an idle visit is made of.
    let (f, s) = (fast.events_by_kind(), slow.events_by_kind());
    for (kind, name) in npr_core::EVENT_KINDS.iter().enumerate() {
        if kind < 4 {
            assert!(f[kind] < s[kind], "{name}: {} vs {}", f[kind], s[kind]);
        } else {
            assert_eq!(f[kind], s[kind], "{name}");
        }
    }
}

#[test]
fn a_busy_strongarm_does_not_cut_idle_jumps_short() {
    // The idle router above with every packet diverted to the
    // StrongARM: its polls and completions now fall between the
    // arrivals, all through the ring's idle stretches. An ME install
    // and remove land first, so the span measured starts with no
    // ME-code op in flight, and from there the slow planes' events must
    // not bound a jump: the busy router dispatches what the idle one
    // does, within 2 %.
    let (from, until) = (
        us(200),
        us(2_500),
    );
    let run = |divert_sa_permille: u32, compressed: bool| {
        let mut cfg = RouterConfig::line_rate();
        cfg.divert_sa_permille = divert_sa_permille;
        let mut r = Router::new(cfg);
        r.set_spin_enabled(compressed);
        for p in 0..8 {
            r.attach_cbr(p, 0.10, u64::MAX, ((p + 1) % 8) as u8);
        }
        let prog = npr_forwarders::tcp_splicer().expect("splicer assembles");
        let fid = r
            .install(unused_flow(), InstallRequest::Me { prog }, None)
            .expect("per-flow splicer admits");
        r.run_until(us(50));
        r.remove(fid).expect("installed forwarder");
        r.run_until(from);
        assert_eq!(r.ctl_in_flight(), 0, "the control ops landed");
        let before = r.events_dispatched();
        r.run_until(until);
        (r.events_dispatched() - before, r)
    };
    let (busy, fast) = run(1_000, true);
    let (_, slow) = run(1_000, false);
    let (idle, _) = run(0, true);
    assert_eq!(fast.fingerprint(), slow.fingerprint());
    assert_eq!(
        format!("{:?}", fast.report()),
        format!("{:?}", slow.report())
    );
    assert_eq!(fast.ixp.reg_cycles(), slow.ixp.reg_cycles());
    assert_eq!(fast.next_event_time(), slow.next_event_time());
    assert!(fast.events_by_kind()[6] > 0, "the StrongARM never polled");
    assert!(fast.events_skipped() > 0, "nothing was skipped");
    assert!(
        busy * 100 <= idle * 102,
        "{busy} events with the StrongARM busy, {idle} without"
    );
}
