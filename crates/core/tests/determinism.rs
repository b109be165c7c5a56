//! Golden determinism test for the event scheduler.
//!
//! The `robust_router` example scenario (section 4.7: a control stream
//! surviving a data-plane flood) is run twice with identical inputs and
//! must produce bit-identical counter and trace output; the digest of
//! one run is additionally pinned to a known-good constant. The pin
//! makes scheduler regressions loud: any change to event order — a
//! broken FIFO tie-break in the calendar queue, a wakeup coalesced when
//! it should not be — shifts packet interleavings and changes the
//! digest even when throughput assertions would still pass.
//!
//! The same digest must come out however the run is cut into
//! `Router::run_until` calls: where a simulation is observed is not
//! part of the model (DESIGN.md §13, slicing invariance).
//!
//! If this test fails after an *intentional* semantics change, rerun
//! with the new digest printed (`cargo test -p npr-core --test
//! determinism -- --nocapture`) and update `GOLDEN_DIGEST` in the same
//! PR, noting why the schedule moved.

use npr_check::prelude::*;
use npr_check::rng::Fnv1a;
use npr_check::CheckRng;
use npr_core::{ms, us, Router};
use npr_sim::Time;
use npr_vrp::VrpBackend;

mod common;

/// The scaled-down `robust_router` scenario: flood on seven ports, a
/// traced control stream installing routes via the Pentium on the
/// eighth. Returns the digest over every deterministic observable,
/// plus the measurement [`Report`] (compared whole in the repeat-run
/// test). Parameterized by the VRP execution backend, which must never
/// move the digest — the tiers are required to be bit-identical in
/// simulated behavior.
///
/// Health invariants for the thread matrix are asserted inline: the
/// monitor samples (`epochs > 0`) but never intervenes on this
/// fault-free run (`sa_resets == quarantines == 0`), on whichever
/// thread the scenario happens to execute.
fn run_scenario(backend: VrpBackend) -> (u64, npr_core::Report) {
    run_scenario_sliced(backend, |router, t| router.run_until(t))
}

/// [`run_scenario`] with its two spans (warm-up, then the measurement
/// window) advanced by `advance(router, span_end)`, which must leave
/// the router run to `span_end` and may get there in any steps.
fn run_scenario_sliced(
    backend: VrpBackend,
    mut advance: impl FnMut(&mut Router, Time),
) -> (u64, npr_core::Report) {
    let mut router = common::robust_router(backend);

    // `Router::measure`, with the stepping handed to `advance`. The
    // digest was pinned over the window's port and queue-drop counts;
    // those are lifetime totals, so read them where the window starts
    // and hash the differences.
    advance(&mut router, us(500));
    router.mark();
    let ports0: Vec<[u64; 3]> = router
        .ixp
        .hw
        .ports
        .iter()
        .map(|p| [p.rx_frames, p.rx_frames_dropped, p.tx_frames])
        .collect();
    let drops0 = router.world.queues.total_drops();
    let t0 = router.now().max(us(500));
    advance(&mut router, t0 + ms(2));
    let report = router.report();

    // Liveness floor — a digest of a dead run would pin nothing.
    assert!(report.forward_mpps > 0.1, "flood stalled: {report:?}");
    // The health monitor is armed at its default epoch for the whole
    // run: it must observe the router (epochs advance) without
    // perturbing the schedule — the pinned digest below is the guard
    // that its sampling stays passive on a fault-free run.
    assert!(
        router.health.stats.epochs > 0,
        "health monitor armed but never sampled"
    );
    assert_eq!(router.health.stats.sa_resets, 0);
    assert_eq!(router.health.stats.quarantines, 0);
    let installed = (0..40u32)
        .filter(|&x| {
            router
                .world
                .table
                .lookup_slow(u32::from_be_bytes([11, x as u8, 0, 0]) | 0x1234)
                .0
                .is_some()
        })
        .count() as u64;
    assert!(installed > 10, "control plane starved: {installed}/40");

    // FNV-1a: digests must be stable across runs, processes, and build
    // profiles, so only integers and fixed strings are fed in.
    let mut d = Fnv1a::new();
    d.write_u64(router.now());
    d.write_u64(installed);
    d.write_u64(router.sa.done);
    d.write_u64(router.pe.done);
    for (p, p0) in router.ixp.hw.ports.iter().zip(&ports0) {
        d.write_u64(p.rx_frames - p0[0]);
        d.write_u64(p.rx_frames_dropped - p0[1]);
        d.write_u64(p.tx_frames - p0[2]);
    }
    let c = &router.world.counters;
    for counter in [
        &c.input_pkts,
        &c.input_mps,
        &c.vrp_drops,
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
    d.write_u64(c.latency_max_ps);
    d.write_u64(router.world.queues.total_drops() - drops0);
    for e in &router.trace().events {
        d.write_u64(e.at);
        d.write_bytes(format!("{:?}", e.step).as_bytes());
    }
    (d.finish(), report)
}

/// Known-good digest of `run_scenario` under the calendar-queue
/// scheduler. Update only with an explained, intentional schedule
/// change (see module docs).
const GOLDEN_DIGEST: u64 = 0x4D47_0BA7_B68A_1105;

#[test]
fn robust_router_scenario_is_bit_identical_across_runs() {
    let (da, ra) = run_scenario(VrpBackend::Compiled);
    let (db, rb) = run_scenario(VrpBackend::Compiled);
    assert_eq!(
        da, db,
        "two identical runs diverged: the scheduler is nondeterministic"
    );
    // Same seed, two runs: not just the digest but the whole
    // measurement Report (every derived rate and latency figure) must
    // be byte-identical.
    assert_eq!(ra, rb, "repeat run produced a different Report");
}

#[test]
fn robust_router_scenario_matches_pinned_digest() {
    let (got, _) = run_scenario(VrpBackend::Compiled);
    assert_eq!(
        got, GOLDEN_DIGEST,
        "schedule changed: digest {got:#018X} != pinned {GOLDEN_DIGEST:#018X} \
         (see module docs before re-pinning)"
    );
}

#[test]
fn interpreter_backend_matches_the_same_pinned_digest() {
    // The backend knob must be invisible to the simulated schedule:
    // both execution tiers reproduce the same golden digest.
    let (got, _) = run_scenario(VrpBackend::Interp);
    assert_eq!(
        got, GOLDEN_DIGEST,
        "interpreter backend moved the schedule: {got:#018X}"
    );
}

/// Thread counts the golden digest is held to.
const THREAD_MATRIX: &[usize] = &[1, 2, 4, 8];

#[test]
fn golden_digest_holds_at_every_thread_count() {
    // One scenario copy per worker slot of an `npr_sim::scatter`
    // fan-out: at threads=8, eight copies run concurrently on spawned
    // OS threads, alternating VRP backends, and every one must land on
    // the pinned digest. The health invariants (monitor sampled,
    // never intervened) are asserted inside `run_scenario`, so they
    // are exercised per-thread-count too. This is the sweep-level
    // parallelism axis; the fabric-level axis (shared lockstep clock)
    // is pinned by `tests/parallel_differential.rs`.
    for &threads in THREAD_MATRIX {
        let digests = npr_sim::scatter(threads, threads, |i| {
            let backend = if i % 2 == 0 {
                VrpBackend::Compiled
            } else {
                VrpBackend::Interp
            };
            run_scenario(backend).0
        });
        for (i, d) in digests.iter().enumerate() {
            assert_eq!(
                *d, GOLDEN_DIGEST,
                "worker {i} at threads={threads} moved the digest: {d:#018X}"
            );
        }
    }
}

#[test]
fn golden_digest_holds_stepped_one_timestamp_at_a_time() {
    // The finest slicing there is: `run_until` returns at every
    // pending event timestamp.
    let (got, _) = run_scenario_sliced(VrpBackend::Compiled, |router, t| {
        router.start();
        while let Some(next) = router.next_event_time().filter(|&next| next <= t) {
            router.run_until(next);
        }
        router.run_until(t);
    });
    assert_eq!(got, GOLDEN_DIGEST, "stepping moved the digest: {got:#018X}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn golden_digest_holds_cut_at_random_instants(seed: u64) {
        let (_, whole) = run_scenario(VrpBackend::Compiled);
        let mut rng = CheckRng::new(seed);
        let (got, report) = run_scenario_sliced(VrpBackend::Compiled, |router, t| {
            let from = router.now();
            let mut cuts: Vec<Time> = (0..32).map(|_| from + rng.below(t - from)).collect();
            cuts.sort_unstable();
            for cut in cuts {
                router.run_until(cut);
            }
            router.run_until(t);
        });
        prop_assert_eq!(got, GOLDEN_DIGEST, "cuts moved the digest: {got:#018X}");
        prop_assert_eq!(report, whole, "cuts moved the Report");
    }
}
