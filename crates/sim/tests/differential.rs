//! Differential oracle suite: the calendar [`CalendarQueue`] must be
//! observationally identical to the reference [`OracleQueue`] (the
//! original binary heap) on any interleaving of operations.
//!
//! Every property drives both queues lock-step through a seed-derived
//! stream of `schedule`/`pop`/`peek` operations and compares every
//! observable: popped `(time, value)` pairs (values are unique, so a
//! seq tie-break divergence cannot hide), `peek_time`, `len`, and the
//! clock. Timestamp regimes are chosen adversarially for a calendar
//! queue: clusters of duplicate timestamps inside one bucket, streams
//! straddling bucket boundaries, and far-future spikes that exercise
//! the overflow spill level and the dry-wheel jump. Two more regimes
//! aim at the drain path and the bitmap jump (`check_router_shaped`,
//! `check_jumps`).

use npr_check::prelude::*;
use npr_sim::{CalendarQueue, OracleQueue, Time, XorShift64};

/// Bucket geometry mirrored from `queue.rs` (private there): widths
/// chosen here only to aim timestamps at calendar edge cases, never
/// used for correctness.
const BUCKET: Time = 4096;
const HORIZON: Time = 512 * BUCKET;

/// One operation on both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule(Time),
    ScheduleIn(Time),
    Pop,
    Peek,
}

/// A timestamp-delta distribution (relative to the queue clock).
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// Duplicate-heavy cluster: few distinct timestamps, many ties.
    Clustered,
    /// Dense near-future spread across a handful of buckets.
    Near,
    /// Exact bucket-boundary multiples.
    Boundary,
    /// Beyond the wheel horizon (overflow spill path).
    FarFuture,
    /// Everything at once.
    Mixed,
}

fn delta(rng: &mut XorShift64, regime: Regime) -> Time {
    match regime {
        Regime::Clustered => rng.below(4) * 17,
        Regime::Near => rng.below(8 * BUCKET),
        Regime::Boundary => rng.below(16) * BUCKET,
        Regime::FarFuture => HORIZON + rng.below(64) * HORIZON,
        Regime::Mixed => match rng.below(4) {
            0 => delta(rng, Regime::Clustered),
            1 => delta(rng, Regime::Near),
            2 => delta(rng, Regime::Boundary),
            _ => delta(rng, Regime::FarFuture),
        },
    }
}

/// Builds a seed-derived operation stream: schedule-biased so the
/// queues grow, with pops and peeks interleaved throughout.
fn stream(seed: u64, regime: Regime, len: usize) -> Vec<Op> {
    let mut rng = XorShift64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| match rng.below(8) {
            0..=3 => Op::Schedule(delta(&mut rng, regime)),
            4 => Op::ScheduleIn(delta(&mut rng, regime)),
            5..=6 => Op::Pop,
            _ => Op::Peek,
        })
        .collect()
}

/// Runs `ops` against both queues lock-step, comparing every
/// observable, then drains both and compares the full tail. Returns
/// the number of events popped (so callers can assert coverage).
fn run_differential(ops: &[Op]) -> Result<usize, String> {
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut ora: OracleQueue<u64> = OracleQueue::new();
    let mut next_val = 0u64;
    let mut popped = 0usize;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Schedule(d) => {
                // Absolute time from the shared clock: both queues see
                // the identical (at, value) pair.
                let at = cal.now() + d;
                cal.schedule(at, next_val);
                ora.schedule(at, next_val);
                next_val += 1;
            }
            Op::ScheduleIn(d) => {
                cal.schedule_in(d, next_val);
                ora.schedule_in(d, next_val);
                next_val += 1;
            }
            Op::Pop => {
                let (a, b) = (cal.pop(), ora.pop());
                if a != b {
                    return Err(format!("op {i}: pop {a:?} != oracle {b:?}"));
                }
                popped += usize::from(a.is_some());
            }
            Op::Peek => {
                if cal.peek_time() != ora.peek_time() {
                    return Err(format!(
                        "op {i}: peek {:?} != oracle {:?}",
                        cal.peek_time(),
                        ora.peek_time()
                    ));
                }
            }
        }
        if cal.len() != ora.len() {
            return Err(format!("op {i}: len {} != oracle {}", cal.len(), ora.len()));
        }
        if cal.now() != ora.now() {
            return Err(format!("op {i}: now {} != oracle {}", cal.now(), ora.now()));
        }
    }
    // Drain the tails: the full remaining pop sequences must agree.
    loop {
        let (a, b) = (cal.pop(), ora.pop());
        if a != b {
            return Err(format!("drain: pop {a:?} != oracle {b:?}"));
        }
        match a {
            Some(_) => popped += 1,
            None => break,
        }
    }
    if cal.now() != ora.now() {
        return Err(format!("drain: now {} != oracle {}", cal.now(), ora.now()));
    }
    Ok(popped)
}

fn check_regime(seed: u64, regime: Regime) -> Result<(), String> {
    let ops = stream(seed, regime, 400);
    let popped = run_differential(&ops)?;
    // Schedule-biased streams must actually exercise pops.
    if popped == 0 {
        return Err("stream popped nothing".into());
    }
    Ok(())
}

/// Both queues driven as one: every call applies to the calendar and
/// the oracle and compares each observable before returning.
#[derive(Default)]
struct Pair {
    cal: CalendarQueue<u64>,
    ora: OracleQueue<u64>,
    next_val: u64,
}

impl Pair {
    fn schedule(&mut self, at: Time) -> Result<(), String> {
        self.cal.schedule(at, self.next_val);
        self.ora.schedule(at, self.next_val);
        self.next_val += 1;
        self.observe("schedule")
    }

    /// `pop_if_at_or_before(deadline)` on both.
    fn pop_by(&mut self, deadline: Time) -> Result<Option<(Time, u64)>, String> {
        let (a, b) = (
            self.cal.pop_if_at_or_before(deadline),
            self.ora.pop_if_at_or_before(deadline),
        );
        if a != b {
            return Err(format!("pop by {deadline}: {a:?} != oracle {b:?}"));
        }
        self.observe("pop")?;
        Ok(a)
    }

    /// Pops both dry.
    fn drain(&mut self) -> Result<(), String> {
        while self.pop_by(Time::MAX / 2)?.is_some() {}
        Ok(())
    }

    fn observe(&self, after: &str) -> Result<(), String> {
        let cal = (self.cal.peek_time(), self.cal.len(), self.cal.now());
        let ora = (self.ora.peek_time(), self.ora.len(), self.ora.now());
        if cal != ora {
            return Err(format!(
                "after {after} (value {}): (peek, len, now) {cal:?} != oracle {ora:?}",
                self.next_val
            ));
        }
        Ok(())
    }
}

/// The router's population: a few dozen pending events, most a whole
/// number of 5 000 ps MicroEngine cycles ahead, drained in deadline
/// slices, with bursts landing at `now` while a bucket drains.
fn check_router_shaped(seed: u64) -> Result<(), String> {
    let mut rng = XorShift64::new(seed);
    let mut q = Pair::default();
    for _ in 0..24 {
        q.schedule(rng.below(40) * 5_000)?;
    }
    let mut deadline = 0;
    let mut popped = 0;
    while popped < 1_500 && !q.cal.is_empty() {
        deadline += rng.below(3 * HORIZON);
        while let Some((now, _)) = q.pop_by(deadline)? {
            popped += 1;
            // Hold the population near 40 and never past 64.
            let children = match q.cal.len() {
                0..=31 => 2,
                32..=47 => rng.below(3),
                48..=60 => rng.below(2),
                _ => 0,
            };
            for _ in 0..children {
                let d = match rng.below(10) {
                    0..=1 => 0,                            // Burst at `now`.
                    2..=4 => (1 + rng.below(40)) * 5_000,  // ME cycles.
                    5 => 1 + rng.below(300_000),           // Memory completion.
                    6 => 80_000,                           // 80 ns.
                    7 => 500_000,                          // 500 ns.
                    8 => 2_000_000 + rng.below(100_000),   // 2 us: the horizon edge.
                    _ => 6_720_000,                        // Frame time: spills.
                };
                q.schedule(now + d)?;
            }
        }
    }
    if popped < 1_000 {
        return Err(format!("only {popped} events popped"));
    }
    q.drain()
}

/// Aims at the bitmap jump: wheel events several buckets apart, with
/// spill events sitting at exactly the horizon the wheel had before the
/// jump, one picosecond either side of it and one full rotation ahead;
/// and at the dry wheel followed by an insert into the cursor's bucket.
fn check_jumps(seed: u64) -> Result<(), String> {
    let mut rng = XorShift64::new(seed);
    let mut q = Pair::default();
    for round in 0..24 {
        // The cursor sits on the bucket of the next event (or of the
        // last one popped when dry); the wheel ends 511 buckets later.
        let head = q.cal.peek_time().unwrap_or(q.cal.now());
        let edge = (head / BUCKET + 512) * BUCKET;
        let now = q.cal.now();
        for _ in 0..1 + rng.below(3) {
            q.schedule(now + (2 + rng.below(500)) * BUCKET + rng.below(BUCKET))?;
        }
        for at in [edge, edge - 1, edge + 1, edge + HORIZON] {
            for _ in 0..rng.below(3) {
                q.schedule(at)?;
            }
        }
        if round % 3 == 2 {
            // Run dry, then insert into the bucket the cursor was left
            // on, then past it.
            q.drain()?;
            let now = q.cal.now();
            q.schedule(now + rng.below(BUCKET - now % BUCKET))?;
            q.schedule(now + (1 + rng.below(600)) * BUCKET)?;
            q.schedule(now)?;
        }
        for _ in 0..rng.below(6) {
            q.pop_by(Time::MAX / 2)?;
        }
    }
    q.drain()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn router_shaped_population_matches_oracle(seed: u64) {
        prop_assert_eq!(check_router_shaped(seed), Ok(()));
    }

    #[test]
    fn bucket_jumps_past_horizon_spills_match_oracle(seed: u64) {
        prop_assert_eq!(check_jumps(seed), Ok(()));
    }

    #[test]
    fn clustered_duplicate_timestamps_match_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::Clustered), Ok(()));
    }

    #[test]
    fn near_future_streams_match_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::Near), Ok(()));
    }

    #[test]
    fn bucket_boundary_timestamps_match_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::Boundary), Ok(()));
    }

    #[test]
    fn far_future_spill_matches_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::FarFuture), Ok(()));
    }

    #[test]
    fn mixed_adversarial_streams_match_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::Mixed), Ok(()));
    }

    #[test]
    fn reschedule_from_dispatch_matches_oracle(seed: u64) {
        // The simulator's dominant pattern: every pop schedules new
        // work relative to the popped timestamp (hold model). Ties are
        // forced regularly to stress the FIFO tie-break.
        let mut rng = XorShift64::new(seed);
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut ora: OracleQueue<u64> = OracleQueue::new();
        for v in 0..16u64 {
            let at = rng.below(2 * BUCKET);
            cal.schedule(at, v);
            ora.schedule(at, v);
        }
        let mut next_val = 16u64;
        for _ in 0..600 {
            let (a, b) = (cal.pop(), ora.pop());
            prop_assert_eq!(a, b);
            let Some((t, _)) = a else { break };
            let n_children = rng.below(2) + usize::from(next_val < 200) as u64;
            for _ in 0..n_children {
                let d = match rng.below(5) {
                    0 => 0, // Duplicate `at`: same-timestamp tie.
                    1..=2 => rng.below(3 * BUCKET),
                    3 => rng.below(8) * BUCKET,
                    _ => HORIZON + rng.below(4) * HORIZON,
                };
                cal.schedule(t + d, next_val);
                ora.schedule(t + d, next_val);
                next_val += 1;
            }
        }
        loop {
            let (a, b) = (cal.pop(), ora.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(cal.now(), ora.now());
    }

    #[test]
    fn pop_if_at_or_before_matches_oracle(seed: u64) {
        // Deadline-bounded draining (the router's run_until pattern).
        let mut rng = XorShift64::new(seed);
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut ora: OracleQueue<u64> = OracleQueue::new();
        for v in 0..300u64 {
            let at = delta(&mut rng, Regime::Mixed);
            cal.schedule(at, v);
            ora.schedule(at, v);
        }
        let mut deadline = 0;
        while !cal.is_empty() || !ora.is_empty() {
            deadline += rng.below(2 * HORIZON);
            loop {
                let (a, b) = (
                    cal.pop_if_at_or_before(deadline),
                    ora.pop_if_at_or_before(deadline),
                );
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
            prop_assert_eq!(cal.len(), ora.len());
            prop_assert_eq!(cal.now(), ora.now());
        }
    }
}

/// Overflow-spill refill ordering: events parked in the spill heap
/// (scheduled beyond the wheel horizon) must, after migrating back
/// into the wheel, still interleave in global `(at, seq)` FIFO order
/// with events scheduled directly into the refilled region later. The
/// parallel delivery engine leans on exactly this — a barrier delivers
/// messages into a region the wheel has not reached yet, then local
/// work schedules into the same region.
#[test]
fn overflow_spill_refill_preserves_global_fifo_order() {
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut ora: OracleQueue<u64> = OracleQueue::new();
    let far = 2 * HORIZON + 5;
    // Values 0 and 1 spill (same far timestamp, insertion order 0, 1).
    for v in [0u64, 1] {
        cal.schedule(far, v);
        ora.schedule(far, v);
    }
    // A near event keeps the wheel busy below the spill region.
    cal.schedule(10, 2);
    ora.schedule(10, 2);
    assert_eq!(cal.pop(), Some((10, 2)));
    assert_eq!(ora.pop(), Some((10, 2)));
    // First spilled event comes back: the wheel had to jump into the
    // spill region and refill from the overflow heap.
    assert_eq!(cal.pop(), Some((far, 0)));
    assert_eq!(ora.pop(), Some((far, 0)));
    // Now schedule a *new* event at the same timestamp: it must lose
    // the tie to the still-queued refilled event (older seq), in both
    // queues.
    cal.schedule(far, 3);
    ora.schedule(far, 3);
    assert_eq!(cal.pop(), Some((far, 1)), "refilled event keeps its seq");
    assert_eq!(ora.pop(), Some((far, 1)));
    assert_eq!(cal.pop(), Some((far, 3)));
    assert_eq!(ora.pop(), Some((far, 3)));
    assert!(cal.is_empty() && ora.is_empty());
}

/// Dry-wheel jump across an epoch boundary: a deadline-bounded pop
/// (the delivery engine's per-epoch drain) that ends *before* a
/// far-future event must neither consume it nor advance the clock;
/// the next epoch's drain must jump the dry wheel straight to it.
#[test]
fn dry_wheel_jump_across_an_epoch_boundary() {
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    cal.schedule(5, 0);
    assert_eq!(cal.pop(), Some((5, 0)));
    let far = 5 + 3 * HORIZON + 123;
    cal.schedule(far, 1);
    // Epoch ending just shy of the event: dry drain, clock holds.
    assert_eq!(cal.pop_if_at_or_before(far - 1), None);
    assert_eq!(cal.now(), 5, "a refused pop must not advance the clock");
    assert_eq!(cal.peek_time(), Some(far));
    assert_eq!(cal.len(), 1);
    // Next epoch covers it: the wheel jumps lap(s) ahead and delivers.
    assert_eq!(cal.pop_if_at_or_before(far + HORIZON), Some((far, 1)));
    assert_eq!(cal.now(), far);
    assert!(cal.is_empty());
}

/// `pop_if_at_or_before` at the exact lookahead horizon: the deadline
/// is inclusive (mirroring `Router::run_until`), so an event *at* the
/// epoch horizon executes in that epoch — the invariant the delivery
/// engine's conservative proof is phrased against ("arrivals land
/// strictly after the horizon", hence never in the epoch that emitted
/// them).
#[test]
fn pop_if_at_or_before_is_inclusive_at_the_exact_horizon() {
    let horizon = 7 * BUCKET; // An epoch boundary on the test grid.
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut ora: OracleQueue<u64> = OracleQueue::new();
    for (at, v) in [(horizon - 1, 0u64), (horizon, 1), (horizon, 2), (horizon + 1, 3)] {
        cal.schedule(at, v);
        ora.schedule(at, v);
    }
    for q_pops in [
        [Some((horizon - 1, 0)), Some((horizon, 1)), Some((horizon, 2)), None],
    ] {
        for (i, expect) in q_pops.into_iter().enumerate() {
            assert_eq!(cal.pop_if_at_or_before(horizon), expect, "pop {i}");
            assert_eq!(ora.pop_if_at_or_before(horizon), expect, "oracle pop {i}");
        }
    }
    // The first event of the next epoch is untouched and the clock sits
    // exactly on the horizon.
    assert_eq!(cal.now(), horizon);
    assert_eq!(ora.now(), horizon);
    assert_eq!(cal.peek_time(), Some(horizon + 1));
    assert_eq!(cal.pop_if_at_or_before(horizon + 1), Some((horizon + 1, 3)));
    assert_eq!(ora.pop_if_at_or_before(horizon + 1), Some((horizon + 1, 3)));
}

/// The tie-break contract stated directly (not just "same as oracle"):
/// equal timestamps pop in insertion order.
#[test]
fn duplicate_timestamps_pop_in_insertion_order() {
    let mut rng = XorShift64::new(7);
    let mut cal: CalendarQueue<(Time, u64)> = CalendarQueue::new();
    let mut by_time: std::collections::BTreeMap<Time, Vec<u64>> = Default::default();
    for v in 0..2_000u64 {
        // 32 distinct timestamps across bucket and horizon boundaries,
        // so every storage level sees heavy duplication.
        let at = match rng.below(4) {
            0 => rng.below(4) * 13,
            1 => BUCKET - 1 + rng.below(4),
            2 => rng.below(4) * BUCKET,
            _ => HORIZON + rng.below(4) * HORIZON,
        };
        cal.schedule(at, (at, v));
        by_time.entry(at).or_default().push(v);
    }
    for (expect_t, expect_vals) in by_time {
        for expect_v in expect_vals {
            let (t, (at, v)) = cal.pop().expect("queue holds all scheduled events");
            assert_eq!(t, at);
            assert_eq!((t, v), (expect_t, expect_v));
        }
    }
    assert!(cal.is_empty());
}
