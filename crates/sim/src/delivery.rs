//! Conservative parallel delivery for deterministic discrete-event
//! simulation.
//!
//! The engine here parallelizes a simulation that has been partitioned
//! into [`Shard`]s — independently steppable sequential sub-simulations
//! (one chassis of a fabric, one scenario of a sweep) that interact
//! only through timestamped cross-shard messages. [`run_threads`] is
//! the one entry: it decides *when* each shard may safely advance and
//! *where* each message goes, and the thread count decides only which
//! thread advances which shard. At one thread every shard advances on
//! the calling thread — the lock-step oracle; at more, contiguous
//! chunks of shards advance on scoped `std::thread` workers that live
//! for the whole call. Every thread count must produce bit-identical
//! results — the differential suites
//! (`crates/sim/tests/parallel_differential.rs` and
//! `crates/core/tests/parallel_differential.rs`) hold them to it.
//!
//! # Conservative synchronization
//!
//! Simulated time is cut into epochs on a fixed grid of width
//! `lookahead`. The engine's safety argument is the classic
//! conservative (Chandy–Misra style) one, specialized to a barrier
//! design:
//!
//! * Every cross-shard interaction has a minimum modeled latency — for
//!   the router fabric, the inter-chassis switch traversal; for the
//!   chip-level models, the Table 3 memory/PCI costs set the floor (no
//!   event can cross a shard boundary in fewer picoseconds than the
//!   cheapest inter-shard link).
//! * `lookahead` is chosen at or below that minimum. An event executed
//!   in the epoch ending at `horizon` happened at `t > horizon −
//!   lookahead`, so any message it emits arrives at `t + link ≥ t +
//!   lookahead > horizon`: strictly beyond the barrier.
//! * Therefore every shard can execute its epoch *without hearing from
//!   anyone*: all messages that could affect the epoch were delivered
//!   at an earlier barrier. Shards never block on each other and never
//!   roll back — conservative, not optimistic.
//!
//! The engine enforces the invariant at every barrier: a message
//! arriving at or before the horizon it was emitted under is a
//! lookahead violation (a model bug) and panics loudly rather than
//! silently corrupting determinism.
//!
//! # Determinism
//!
//! Thread scheduling must never reach the simulation. Three rules make
//! the parallel run bit-identical to the sequential oracle:
//!
//! 1. Within an epoch shards share nothing; each advances alone.
//! 2. Outboxes are indexed by *source shard*, not by completion order,
//!    so the set of emitted messages is identified the same way no
//!    matter which worker finished first.
//! 3. At the barrier, back on the calling thread, messages are merged
//!    and delivered in `(arrival, source shard, emission seq)` order —
//!    a total order built entirely from simulation-assigned keys. Two
//!    same-timestamp messages from different shards can therefore
//!    never reorder, and the destination's own `(at, seq)` FIFO
//!    numbering (assigned at delivery) is reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use crate::time::Time;

/// An independently steppable sequential sub-simulation.
///
/// A shard owns its own event queue and state; it interacts with other
/// shards only through timestamped messages routed by the epoch engine.
/// `Send` is required so [`run_threads`] may lend a shard to a worker
/// thread for an epoch; a shard is only ever touched by one thread at a
/// time.
pub trait Shard: Send {
    /// The cross-shard message type.
    type Msg: Send;

    /// Timestamp of the earliest pending local event, or `None` when
    /// the shard is idle. The engine terminates when every shard is
    /// idle, so pending-but-unscheduled work must be visible here.
    fn next_time(&self) -> Option<Time>;

    /// Executes every local event with timestamp `<= horizon`. Emitted
    /// cross-shard messages go into `out`; each must arrive strictly
    /// after `horizon` (the conservative lookahead contract — the
    /// engine checks and panics on violations).
    fn advance(&mut self, horizon: Time, out: &mut Outbox<Self::Msg>);

    /// Accepts one cross-shard message arriving at `at`. Called only
    /// between epochs, in the deterministic merge order.
    fn deliver(&mut self, at: Time, msg: Self::Msg);

    /// Called on every shard at every barrier, after the messages of
    /// the epoch that ended at `horizon` were delivered — the hook for
    /// coalesced post-delivery work (re-arming a drained port, waking a
    /// poller). Default: nothing.
    fn flush(&mut self, _horizon: Time) {}
}

/// Cross-shard messages emitted by one shard during one epoch, in
/// emission order. The engine keeps one outbox per *source* shard,
/// so the emission sequence that breaks timestamp ties is assigned by
/// the simulation, never by thread completion order.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(usize, Time, M)>,
}

impl<M> Outbox<M> {
    fn new() -> Self {
        Self { msgs: Vec::new() }
    }

    /// Emits `msg` to shard `dest`, arriving at absolute time `at`.
    pub fn send(&mut self, dest: usize, at: Time, msg: M) {
        self.msgs.push((dest, at, msg));
    }

    /// Number of messages emitted so far this epoch.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True if nothing was emitted this epoch.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// Counters describing one [`run_threads`] call (progress evidence for
/// tests and benches; not part of the simulated state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Epochs executed (barriers crossed).
    pub epochs: u64,
    /// Cross-shard messages delivered.
    pub delivered: u64,
}

/// A contiguous run of shards and their outboxes: the unit one thread
/// advances in an epoch.
type Chunk<'a, S> = (&'a mut [S], &'a mut [Outbox<<S as Shard>::Msg>]);

fn advance<S: Shard>((shards, outboxes): &mut Chunk<'_, S>, horizon: Time) {
    for (s, out) in shards.iter_mut().zip(outboxes.iter_mut()) {
        s.advance(horizon, out);
    }
}

/// Runs `shards` on up to `threads` threads until every event with
/// timestamp `<= until` has executed.
///
/// The shards are cut by index into at most `threads` contiguous
/// chunks. The calling thread advances the first; each other chunk has
/// one scoped worker for the whole call, which is lent its chunk over a
/// channel at every epoch and hands it back. Merge, delivery and
/// `flush` run on the calling thread between epochs. `0` or `1` thread
/// is one chunk, no worker and no channel: the lock-step oracle. The
/// count is the caller's argument (`Fabric::run_lockstep(t, threads)`
/// passes its own through); no configuration field carries it.
///
/// `lookahead` is the epoch grid width in picoseconds; it must not
/// exceed the minimum cross-shard link latency (see the module docs for
/// the safety argument). Idle spans are skipped: the next epoch starts
/// at the grid slot of the globally earliest pending event, so a
/// sparse simulation does not pay for empty barriers.
///
/// # Panics
///
/// Panics if `lookahead` is zero, if a shard emits a message that
/// arrives at or before the horizon it was emitted under (a lookahead
/// violation — the model's cross-shard latency floor is wrong), or if
/// a shard panics on a worker.
pub fn run_threads<S: Shard>(
    threads: usize,
    shards: &mut [S],
    lookahead: Time,
    until: Time,
) -> EngineStats {
    assert!(lookahead > 0, "lookahead must be positive");
    let n = shards.len();
    let mut stats = EngineStats::default();
    // One outbox per source shard and one merge buffer, drained and
    // reused at every barrier: the lockstep path allocates only while
    // an epoch's traffic exceeds every earlier epoch's.
    let mut outboxes: Vec<Outbox<S::Msg>> = (0..n).map(|_| Outbox::new()).collect();
    let mut merged: Vec<(Time, usize, usize, usize, S::Msg)> = Vec::new();
    let per = n.div_ceil(threads.max(1)).max(1);
    let mut chunks: Vec<Chunk<'_, S>> = shards
        .chunks_mut(per)
        .zip(outboxes.chunks_mut(per))
        .collect();
    thread::scope(|scope| {
        // The channels live inside the scope, so a panic on this thread
        // drops them and every idle worker's loop ends before the scope
        // joins it. One thread is one chunk: no worker, no channel.
        let workers: Vec<_> = (1..chunks.len())
            .map(|_| {
                let (lend, lent) = mpsc::channel::<(Time, Chunk<'_, S>)>();
                let (give_back, given_back) = mpsc::channel();
                scope.spawn(move || {
                    for (horizon, mut chunk) in lent {
                        advance(&mut chunk, horizon);
                        if give_back.send(chunk).is_err() {
                            break;
                        }
                    }
                });
                (lend, given_back)
            })
            .collect();
        loop {
            // Globally earliest pending event; index order makes the min
            // deterministic (ties collapse to the same value anyway).
            let earliest = chunks
                .iter()
                .filter_map(|(sh, _)| sh.iter().filter_map(Shard::next_time).min())
                .min();
            let Some(earliest) = earliest else {
                break;
            };
            if earliest > until {
                break;
            }
            // Smallest grid multiple at or after `earliest`, capped at
            // `until` (a short final epoch is always safe — shrinking an
            // epoch only strengthens the lookahead guarantee).
            let horizon = earliest
                .div_ceil(lookahead)
                .saturating_mul(lookahead)
                .min(until);

            let (first, rest) = chunks
                .split_first_mut()
                .expect("a pending event has a shard");
            for ((lend, _), chunk) in workers.iter().zip(rest.iter_mut()) {
                lend.send((horizon, std::mem::take(chunk)))
                    .expect("a delivery worker panicked");
            }
            advance(first, horizon);
            for ((_, given_back), chunk) in workers.iter().zip(rest.iter_mut()) {
                *chunk = given_back.recv().expect("a delivery worker panicked");
            }
            stats.epochs += 1;

            // Barrier: merge every outbox into (arrival, src, emission-seq)
            // order — a total order over simulation-assigned keys, so the
            // destination sees the same delivery sequence no matter which
            // worker finished first (the cross-shard tie-break audit lives
            // in the parallel differential suites).
            for (c, (_, ob)) in chunks.iter_mut().enumerate() {
                for (j, out) in ob.iter_mut().enumerate() {
                    let src = c * per + j;
                    for (emit, (dest, at, msg)) in out.msgs.drain(..).enumerate() {
                        assert!(
                            at > horizon,
                            "lookahead violation: shard {src} emitted a message arriving at \
                             {at} ps, at or before the epoch horizon {horizon} ps \
                             (lookahead {lookahead} ps exceeds the real link latency)"
                        );
                        assert!(dest < n, "shard {src} addressed nonexistent shard {dest}");
                        merged.push((at, src, emit, dest, msg));
                    }
                }
            }
            merged.sort_by_key(|&(at, src, emit, _, _)| (at, src, emit));
            for (at, _, _, dest, msg) in merged.drain(..) {
                chunks[dest / per].0[dest % per].deliver(at, msg);
                stats.delivered += 1;
            }
            for (sh, _) in chunks.iter_mut() {
                sh.iter_mut().for_each(|s| s.flush(horizon));
            }
        }
    });
    stats
}

/// Host parallelism available to the engine (1 when the
/// platform cannot say). The CI gate uses this to decide whether a
/// wall-clock speedup is even physically possible on the host.
pub fn auto_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `n` fully independent jobs — no cross-shard messages, infinite
/// lookahead — across `threads` work-stealing workers, returning
/// results in job-index order.
///
/// This is the degenerate-but-dominant sharding for the fault/chaos
/// sweeps: every scenario is a whole sequential simulation constructed
/// *inside* its worker, so nothing simulation-side ever crosses a
/// thread. Results are reassembled by index, which makes the output a
/// pure function of `f` alone: `scatter(n, 8, f) == scatter(n, 1, f)`
/// for any deterministic `f` (the sweep differential tests pin this).
/// `threads <= 1` short-circuits to a plain sequential loop — the
/// oracle path.
pub fn scatter<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        got.push((i, f(i)));
                    }
                    got
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("scatter worker panicked"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(all.len(), n);
    all.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::rng::XorShift64;
    use npr_check::rng::Fnv1a;

    /// Minimum cross-shard latency of the test model, and the epoch
    /// grid derived from it (a PCI-descriptor-scale 1 us).
    const LINK_PS: Time = 1_000_000;

    /// Tags a value as a delivered cross-shard token: tokens are
    /// digest-visible but sterile (no successors), so the event
    /// population stays linear instead of a branching process.
    const MSG_BIT: u64 = 1 << 32;

    /// A small queueing node: local service events plus token messages
    /// to a neighbor, always `LINK_PS` or more in the future.
    struct Node {
        id: usize,
        n: usize,
        q: EventQueue<u64>,
        rng: XorShift64,
        digest: Fnv1a,
        processed: u64,
    }

    impl Node {
        fn new(id: usize, n: usize, seed: u64) -> Self {
            let mut q = EventQueue::new();
            q.schedule(id as Time * 7, id as u64);
            Self {
                id,
                n,
                q,
                rng: XorShift64::new(seed ^ (id as u64) << 17),
                digest: Fnv1a::new(),
                processed: 0,
            }
        }
    }

    impl Shard for Node {
        type Msg = u64;

        fn next_time(&self) -> Option<Time> {
            self.q.peek_time()
        }

        fn advance(&mut self, horizon: Time, out: &mut Outbox<u64>) {
            while let Some((at, v)) = self.q.pop_if_at_or_before(horizon) {
                self.processed += 1;
                self.digest.write_u64(at);
                self.digest.write_u64(v);
                if v & MSG_BIT != 0 {
                    continue; // Tokens are sterile (see MSG_BIT).
                }
                if v % 3 == 0 {
                    let dest = (self.id + 1 + (v as usize % self.n.saturating_sub(1).max(1)))
                        % self.n;
                    out.send(dest, at + LINK_PS + self.rng.below(LINK_PS), v | MSG_BIT);
                }
                if v < 4_000 {
                    self.q.schedule(at + 1 + self.rng.below(30_000), v + self.n as u64);
                }
            }
        }

        fn deliver(&mut self, at: Time, msg: u64) {
            self.digest.write_u64(at ^ msg);
            self.q.schedule(at, msg);
        }
    }

    fn build(n: usize, seed: u64) -> Vec<Node> {
        (0..n).map(|i| Node::new(i, n, seed)).collect()
    }

    fn fingerprint(nodes: &[Node]) -> Vec<(u64, u64, Time)> {
        nodes
            .iter()
            .map(|s| (s.digest.finish(), s.processed, s.q.now()))
            .collect()
    }

    #[test]
    fn parallel_matches_the_sequential_oracle() {
        let until = 50_000_000;
        let mut seq = build(5, 0xA5);
        let s_stats = run_threads(1, &mut seq, LINK_PS, until);
        for threads in [2, 4, 8] {
            let mut par = build(5, 0xA5);
            let p_stats = run_threads(threads, &mut par, LINK_PS, until);
            assert_eq!(fingerprint(&seq), fingerprint(&par), "threads={threads}");
            assert_eq!(s_stats, p_stats, "threads={threads}");
        }
        assert!(s_stats.delivered > 0, "the model never crossed a shard");
    }

    /// Panics in `advance` at its `at`-th call, with nothing to say
    /// before that.
    struct Faulty {
        calls: u32,
        at: Option<u32>,
    }

    impl Faulty {
        fn new(at: Option<u32>) -> Self {
            Self { calls: 0, at }
        }
    }

    impl Shard for Faulty {
        type Msg = ();
        fn next_time(&self) -> Option<Time> {
            Some(Time::from(self.calls) * LINK_PS + 1)
        }
        fn advance(&mut self, _horizon: Time, _out: &mut Outbox<()>) {
            self.calls += 1;
            assert_ne!(Some(self.calls), self.at, "shard failed in advance");
        }
        fn deliver(&mut self, _at: Time, _msg: ()) {}
    }

    #[test]
    #[should_panic(expected = "a delivery worker panicked")]
    fn a_shard_panicking_on_a_worker_fails_the_run() {
        // Shard 1 is the second chunk's at threads 2, so it fails on
        // the worker, three epochs in: the run must panic, not wait
        // forever for the chunk to come back.
        let mut shards = [Faulty::new(None), Faulty::new(Some(3))];
        run_threads(2, &mut shards, LINK_PS, 10 * LINK_PS);
    }

    #[test]
    fn idle_spans_are_skipped_not_iterated() {
        // Two events a simulated second apart: the epoch count must be
        // ~2, not one million (second / lookahead).
        struct Sparse(EventQueue<()>);
        impl Shard for Sparse {
            type Msg = ();
            fn next_time(&self) -> Option<Time> {
                self.0.peek_time()
            }
            fn advance(&mut self, horizon: Time, _out: &mut Outbox<()>) {
                while self.0.pop_if_at_or_before(horizon).is_some() {}
            }
            fn deliver(&mut self, _at: Time, _msg: ()) {}
        }
        let mut q = EventQueue::new();
        q.schedule(5, ());
        q.schedule(1_000_000_000_000, ());
        let mut shards = [Sparse(q)];
        let stats = run_threads(1, &mut shards, LINK_PS, 2_000_000_000_000);
        assert!(stats.epochs <= 2, "epochs {}", stats.epochs);
        assert!(shards[0].0.is_empty());
    }

    /// Unless already spent, emits one message that arrives at the
    /// horizon instead of beyond it.
    struct Cheater(bool);

    impl Shard for Cheater {
        type Msg = ();
        fn next_time(&self) -> Option<Time> {
            (!self.0).then_some(10)
        }
        fn advance(&mut self, horizon: Time, out: &mut Outbox<()>) {
            if !self.0 {
                self.0 = true;
                out.send(0, horizon, ());
            }
        }
        fn deliver(&mut self, _at: Time, _msg: ()) {}
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn too_cheap_a_link_is_a_loud_failure() {
        run_threads(1, &mut [Cheater(false)], LINK_PS, 10_000_000);
    }

    #[test]
    #[should_panic(expected = "lookahead violation: shard 1")]
    fn too_cheap_a_link_on_a_worker_is_a_loud_failure() {
        // Shard 1 advances on the worker; the check is the same merge.
        let mut shards = [Cheater(true), Cheater(false)];
        run_threads(2, &mut shards, LINK_PS, 10_000_000);
    }

    #[test]
    fn same_timestamp_cross_shard_messages_never_reorder() {
        // Regression for the (at, seq) tie-break audit: shards 0 and 1
        // both emit to shard 2 at the *same* arrival timestamp; the
        // merge must order them (src 0, src 1) at every thread count, so
        // the destination digests identically. Emission order within a
        // source is preserved too.
        struct Tie {
            id: usize,
            fired: bool,
            got: Vec<(Time, u64)>,
        }
        impl Shard for Tie {
            type Msg = u64;
            fn next_time(&self) -> Option<Time> {
                (!self.fired && self.id < 2).then_some(10)
            }
            fn advance(&mut self, horizon: Time, out: &mut Outbox<u64>) {
                if self.id < 2 && !self.fired && horizon >= 10 {
                    self.fired = true;
                    // Same arrival time from both sources, two
                    // messages each (emission seq must hold as well).
                    out.send(2, 3 * LINK_PS, self.id as u64 * 10);
                    out.send(2, 3 * LINK_PS, self.id as u64 * 10 + 1);
                }
            }
            fn deliver(&mut self, at: Time, msg: u64) {
                self.got.push((at, msg));
            }
        }
        let mk = || {
            vec![
                Tie { id: 0, fired: false, got: vec![] },
                Tie { id: 1, fired: false, got: vec![] },
                Tie { id: 2, fired: false, got: vec![] },
            ]
        };
        let expect = vec![
            (3 * LINK_PS, 0),
            (3 * LINK_PS, 1),
            (3 * LINK_PS, 10),
            (3 * LINK_PS, 11),
        ];
        let mut seq = mk();
        run_threads(1, &mut seq, LINK_PS, 10 * LINK_PS);
        assert_eq!(seq[2].got, expect);
        for threads in [2, 3, 8] {
            let mut par = mk();
            run_threads(threads, &mut par, LINK_PS, 10 * LINK_PS);
            assert_eq!(par[2].got, expect, "threads={threads}");
        }
    }

    #[test]
    fn scatter_returns_results_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let got = scatter(37, threads, |i| i * i);
            assert_eq!(got, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert_eq!(scatter(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn scatter_oversubscription_is_harmless() {
        // More threads than jobs (and than host cores): results are
        // still exactly the sequential ones.
        assert_eq!(scatter(3, 64, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn auto_threads_is_at_least_one() {
        assert!(auto_threads() >= 1);
    }
}
