//! Lock-step differential suite for the parallel delivery engine:
//! `run_threads` at every thread count must be observationally
//! identical to its one-thread oracle — same per-shard *event order* (full
//! trace, not just a digest), same cross-shard deliveries, same final
//! clocks, same engine stats. Scenarios come from a seeded generator
//! (topology, rates, fault perturbations from the `FaultPlan` class
//! streams), so every run is reproducible from its seed.
//!
//! The router-level twin (`crates/core/tests/parallel_differential.rs`)
//! asserts the same equality over real fabrics and the full 8-class
//! fault corpus; this suite isolates the engine so a divergence there
//! can be attributed.

use npr_check::prelude::*;
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{run_threads, EventQueue, FaultClass, FaultPlan, Outbox, Shard, Time, XorShift64};

/// Minimum cross-shard link latency of the generated scenarios, and
/// the engine lookahead derived from it.
const LINK_PS: Time = 1_000_000;

/// Thread counts the parallel engine is held to.
const THREADS: [usize; 3] = [2, 4, 8];

/// A generated scenario: shard count, per-shard work shape, and a
/// fault plan whose class streams perturb service times and token
/// routing (deterministically — the same plan replays identically).
#[derive(Debug, Clone)]
struct Scenario {
    shards: usize,
    seeds: Vec<u64>,
    fault_seed: u64,
    fault_rate_ppm: u32,
    until: Time,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = XorShift64::new(seed ^ 0x5DEE_CE66_D1CE_5EED);
    let shards = 2 + rng.below(6) as usize; // 2..=7: off the thread grid too.
    Scenario {
        shards,
        seeds: (0..shards).map(|_| rng.next_u64()).collect(),
        fault_seed: rng.next_u64(),
        fault_rate_ppm: 50_000 + rng.below(150_000) as u32,
        until: 10_000_000 + rng.below(30_000_000),
    }
}

/// One node of the synthetic mesh. Every observable mutation is logged
/// to `trace` so the differential compares *event order*, not only
/// outcomes. Faults (drawn from the per-class deterministic streams)
/// stretch service times and reroute/duplicate tokens.
struct Node {
    id: usize,
    n: usize,
    q: EventQueue<u64>,
    rng: XorShift64,
    faults: FaultPlan,
    trace: Vec<(Time, u64)>,
    delivered: Vec<(Time, u64)>,
}

/// Tokens delivered across shards carry this tag and never reproduce,
/// keeping the event population linear.
const MSG_BIT: u64 = 1 << 40;

impl Node {
    fn new(id: usize, sc: &Scenario) -> Self {
        let mut plan = FaultPlan::new(sc.fault_seed ^ (id as u64) << 9);
        for class in FAULT_CLASSES {
            plan.set_rate(class, sc.fault_rate_ppm);
        }
        let mut q = EventQueue::new();
        q.schedule((id as Time + 1) * 11, id as u64);
        Self {
            id,
            n: sc.shards,
            q,
            rng: XorShift64::new(sc.seeds[id]),
            faults: plan,
            trace: Vec::new(),
            delivered: Vec::new(),
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
            self.trace.push((at, v));
            if v & MSG_BIT != 0 {
                continue;
            }
            // Fault-perturbed service time.
            let stall = if self.faults.roll(FaultClass::MemStall) {
                self.faults.draw_window(FaultClass::MemStall, 1_000, 50_000)
            } else {
                0
            };
            // TokenDrop loses the emitted token, never the local
            // chain — a dropped first token must not silence the
            // shard for the whole run.
            if v % 4 == 0 && !self.faults.roll(FaultClass::TokenDrop) {
                // Duplicate-class skew, drawn only when the class is
                // armed (draws on disarmed classes are forbidden —
                // that's what keeps fault-free runs draw-free).
                let skew = u64::from(self.faults.roll(FaultClass::TokenDuplicate));
                let dest =
                    (self.id + 1 + (v as usize + skew as usize) % (self.n - 1).max(1)) % self.n;
                let arrival = at + LINK_PS + self.rng.below(LINK_PS);
                out.send(dest, arrival, v | MSG_BIT);
                if skew == 1 {
                    // Duplicated token: same payload, one link later.
                    out.send(dest, arrival + LINK_PS, v | MSG_BIT);
                }
            }
            if v < 1_500 {
                self.q
                    .schedule(at + 1 + stall + self.rng.below(40_000), v + self.n as u64);
            }
        }
    }

    fn deliver(&mut self, at: Time, msg: u64) {
        self.delivered.push((at, msg));
        self.q.schedule(at, msg);
    }
}

/// Every observable of one finished run, comparable with `==`.
#[derive(Debug, PartialEq, Eq)]
struct RunResult {
    traces: Vec<Vec<(Time, u64)>>,
    delivered: Vec<Vec<(Time, u64)>>,
    clocks: Vec<Time>,
    injected: Vec<u64>,
    epochs: u64,
    messages: u64,
}

fn run_with(sc: &Scenario, threads: usize) -> RunResult {
    let mut nodes: Vec<Node> = (0..sc.shards).map(|i| Node::new(i, sc)).collect();
    let stats = run_threads(threads, &mut nodes, LINK_PS, sc.until);
    RunResult {
        traces: nodes.iter().map(|s| s.trace.clone()).collect(),
        delivered: nodes.iter().map(|s| s.delivered.clone()).collect(),
        clocks: nodes.iter().map(|s| s.q.now()).collect(),
        injected: nodes.iter().map(|s| s.faults.total_injected()).collect(),
        epochs: stats.epochs,
        messages: stats.delivered,
    }
}

fn check_scenario(seed: u64) -> Result<(), String> {
    let sc = scenario(seed);
    let oracle = run_with(&sc, 1);
    // A scenario that never crosses a shard boundary proves nothing.
    if oracle.messages == 0 {
        return Err(format!("scenario {seed:#x} exchanged no messages"));
    }
    for threads in THREADS {
        let par = run_with(&sc, threads);
        if par != oracle {
            return Err(format!(
                "threads={threads} diverged from the sequential oracle \
                 (scenario {seed:#x}: epochs {} vs {}, messages {} vs {})",
                par.epochs, oracle.epochs, par.messages, oracle.messages
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_engine_matches_sequential_oracle_on_seeded_scenarios(seed: u64) {
        prop_assert_eq!(check_scenario(seed), Ok(()));
    }
}

/// Each fault class alone (plus all at once) through the differential:
/// per-class streams are drawn *inside* shard code, so this pins that
/// fault injection stays on the shard's own thread-independent stream
/// at every thread count.
#[test]
fn every_fault_class_is_thread_invariant() {
    for (i, class) in FAULT_CLASSES.into_iter().enumerate() {
        let mut sc = scenario(0xC1A_55 + i as u64);
        sc.fault_rate_ppm = 0;
        let mut nodes: Vec<Node> = (0..sc.shards).map(|k| Node::new(k, &sc)).collect();
        for n in &mut nodes {
            n.faults.set_rate(class, 200_000);
        }
        let oracle = {
            let stats = run_threads(1, &mut nodes, LINK_PS, sc.until);
            (
                nodes.iter().map(|s| s.trace.clone()).collect::<Vec<_>>(),
                nodes.iter().map(|s| s.faults.injected(class)).collect::<Vec<_>>(),
                stats,
            )
        };
        for threads in THREADS {
            let mut nodes: Vec<Node> = (0..sc.shards).map(|k| Node::new(k, &sc)).collect();
            for n in &mut nodes {
                n.faults.set_rate(class, 200_000);
            }
            let stats = run_threads(threads, &mut nodes, LINK_PS, sc.until);
            let got = (
                nodes.iter().map(|s| s.trace.clone()).collect::<Vec<_>>(),
                nodes.iter().map(|s| s.faults.injected(class)).collect::<Vec<_>>(),
                stats,
            );
            assert_eq!(got, oracle, "class {class:?} threads {threads}");
        }
    }
}

/// Pinned regression for the cross-shard tie-break audit: a scenario
/// seed known to produce same-timestamp arrivals at one destination
/// from different sources must replay identically at every thread
/// count. (The engine-level unit test pins the ordering rule itself;
/// this pins it under a full generated scenario.)
#[test]
fn pinned_seed_with_cross_shard_timestamp_ties_is_stable() {
    // LINK_PS divides every arrival's randomized component bound, so
    // collisions across sources are common; this seed was checked to
    // produce at least one.
    let sc = Scenario {
        shards: 4,
        seeds: vec![11, 11, 11, 11], // Identical streams force collisions.
        fault_seed: 0,
        fault_rate_ppm: 0,
        until: 20_000_000,
    };
    let oracle = run_with(&sc, 1);
    assert!(oracle.messages > 0);
    for threads in THREADS {
        assert_eq!(run_with(&sc, threads), oracle, "threads={threads}");
    }
}

/// More threads than shards: every chunk is one shard, and the threads
/// past the shard count get no worker (3 shards at 8 threads is the
/// calling thread and two workers; 1 shard at 4 is the calling thread
/// alone).
#[test]
fn more_threads_than_shards_match_the_oracle() {
    for (shards, threads) in [(3, 8), (1, 4)] {
        let mut sc = scenario(0x7EAD_5EED);
        sc.shards = shards;
        sc.seeds = (0..shards as u64).map(|i| 0x5EED ^ i).collect();
        let oracle = run_with(&sc, 1);
        assert!(oracle.messages > 0, "{shards} shards exchanged nothing");
        assert_eq!(
            run_with(&sc, threads),
            oracle,
            "{shards} shards at {threads} threads"
        );
    }
}
