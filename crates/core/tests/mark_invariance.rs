//! Marking invariance: `Router::mark()` is an observation (DESIGN.md
//! §13). Every statistic is a lifetime total, so a mark — one snapshot
//! of those totals plus the three re-armed window gauges — may move a
//! `Report` and nothing else: not the ledger, not the fingerprint, not
//! `drain()`, not a health decision.
//!
//! Three scenarios carry it:
//!
//! * **rings** — four 95 % streams converge on one 100 Mbps port
//!   through 32-deep rings, so the queue-drop term of the ledger (which
//!   marking used to zero: deficit 156, `drain()` gives up) runs hot;
//! * **qm** — the same traffic into 8-deep per-flow queues, where the
//!   health monitor's overload detector reads the cap-drop total (which
//!   marking used to zero: 1, 2 or 6 warnings for 0, 1 or 6 marks);
//! * **golden** — the `robust_router` scenario the determinism digest
//!   pins, with the StrongARM, the Pentium and the control path busy.
//!
//! `scripts/verify.sh` fails if tier-1's run of this suite executes
//! zero tests.

use npr_check::prelude::*;
use npr_core::{ms, us, AqmKind, Conservation, HealthStats, Router, RouterConfig};
use npr_sim::Time;
use npr_vrp::VrpBackend;

mod common;

const HORIZON: Time = ms(3);
const GOLDEN_HORIZON: Time = us(2_500);
const CASES: u32 = 8;

/// 95 % of line rate from ports 0..4, all to port 7, 6000 frames each
/// (the sources run dry before `HORIZON`, so the run can drain).
fn converge(mut r: Router) -> Router {
    for p in 0..4 {
        r.attach_cbr(p, 0.95, 6_000, 7);
    }
    r
}

fn rings() -> Router {
    converge(Router::new(RouterConfig {
        queue_cap: 32,
        ..RouterConfig::line_rate()
    }))
}

fn qm() -> Router {
    converge(Router::new(RouterConfig {
        qm_flow_cap: 8,
        ..RouterConfig::per_flow_qos(AqmKind::DropTail)
    }))
}

fn golden() -> Router {
    common::robust_router(VrpBackend::Compiled)
}

/// Everything a mark may not move.
#[derive(Debug, PartialEq)]
struct Outcome {
    fingerprint: u64,
    conservation: Conservation,
    health: HealthStats,
    drained: bool,
}

/// Runs `r` to `horizon`, marking at each of `marks` on the way, then
/// drains it when its traffic is finite.
fn run(mut r: Router, horizon: Time, marks: &[Time], drain: bool) -> Outcome {
    let mut marks = marks.to_vec();
    marks.sort_unstable();
    for t in marks {
        r.run_until(t);
        // The instant itself: marking drops no packet and claims none.
        let before = (r.conservation(), r.fingerprint());
        r.mark();
        assert_eq!(
            (r.conservation(), r.fingerprint()),
            before,
            "mark at {t} ps"
        );
    }
    r.run_until(horizon);
    let drained = drain && r.drain(us(100), 400);
    let out = Outcome {
        fingerprint: r.fingerprint(),
        conservation: r.conservation(),
        health: r.health.stats,
        drained,
    };
    if drained {
        // A drained router balances, and a mark there keeps it so.
        r.mark();
        let c = r.conservation();
        assert!(c.holds() && c.in_flight == 0, "after drain and mark: {c:?}");
    }
    out
}

fn check(build: fn() -> Router, horizon: Time, drain: bool, marks: &[Time]) -> Result<(), String> {
    let unmarked = run(build(), horizon, &[], drain);
    prop_assert_eq!(unmarked.drained, drain, "unmarked run: {unmarked:?}");
    prop_assert!(
        unmarked.conservation.admitted > 1_000,
        "dead run: {unmarked:?}"
    );
    let marked = run(build(), horizon, marks, drain);
    prop_assert_eq!(marked, unmarked, "marks at {marks:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn marks_leave_the_congested_rings_run_unchanged(
        marks in npr_check::collection::vec(0..HORIZON, 0..9),
    ) {
        check(rings, HORIZON, true, &marks)?;
    }

    #[test]
    fn marks_leave_the_per_flow_queue_run_unchanged(
        marks in npr_check::collection::vec(0..HORIZON, 0..9),
    ) {
        check(qm, HORIZON, true, &marks)?;
    }

    #[test]
    fn marks_leave_the_golden_scenario_unchanged(
        marks in npr_check::collection::vec(0..GOLDEN_HORIZON, 0..9),
    ) {
        check(golden, GOLDEN_HORIZON, false, &marks)?;
    }
}

/// The health monitor's qm overload detector compares cap-drop totals
/// across epochs; a mark between two epochs must not look like a quiet
/// one (it restarted the warn ladder: 1 / 2 / 6 warnings before).
#[test]
fn qm_overload_warnings_are_the_same_for_0_1_and_6_marks() {
    let warnings: Vec<u64> = [0u64, 1, 6]
        .iter()
        .map(|&n| {
            let marks: Vec<Time> = (1..=n).map(|i| i * HORIZON / (n + 1)).collect();
            run(qm(), HORIZON, &marks, true).health.warnings
        })
        .collect();
    assert!(warnings[0] >= 1, "the overload never tripped the detector");
    assert_eq!(warnings, vec![warnings[0]; 3]);
}

#[test]
fn drain_succeeds_after_measure_on_the_congested_run() {
    let mut r = rings();
    let rep = r.measure(us(500), ms(2));
    assert!(rep.queue_drops > 0, "the rings never overflowed: {rep:?}");
    r.run_until(HORIZON);
    assert!(
        r.drain(us(100), 400),
        "deficit {}",
        r.conservation().deficit()
    );
    // The window saw only its own share of the run's drops.
    assert!(rep.queue_drops < r.conservation().queue_drops);
}

#[test]
fn measure_is_run_mark_run_report() {
    let table1: fn() -> Router = || Router::new(RouterConfig::table1_system());
    for build in [rings, qm, golden, table1] {
        let (warmup, window) = (us(500), ms(1));
        let measured = build().measure(warmup, window);
        let mut r = build();
        r.run_until(warmup);
        r.mark();
        r.run_until(warmup + window);
        assert_eq!(r.report(), measured);
    }
}
