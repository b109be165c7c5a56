//! `simbench`: the simulator's own performance baseline.
//!
//! Measures the event-scheduler microbenchmark (calendar queue vs the
//! `OracleQueue` reference heap, hold model on a large and on a
//! router-shaped population), events/sec on the golden scenario,
//! per-experiment wall-clock, and the parallel-delivery `threads` axis
//! (fault-sweep wall-clock at 1/2/4/8 worker threads), then writes
//! `BENCH_sim.json` — the recorded perf trajectory that later PRs must
//! not regress. Before timing anything it runs lock-step differential
//! checks and refuses to emit numbers from a scheduler — or a parallel
//! sweep — that diverges from its sequential oracle.
//!
//! ```text
//! simbench [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks repetitions and windows for CI; `--out` defaults
//! to stdout-only (pass a path to write the JSON file).

use std::time::Instant;

use npr_bench::BENCH_WINDOW;
use npr_core::{ms, us, FlowKey, Key, Router, RouterConfig};
use npr_forwarders::slow::route_updater_pe;
use npr_sim::{CalendarQueue, OracleQueue, Time, XorShift64};
use npr_traffic::{udp_frame, CbrSource, FrameSpec, MixSource, TraceSource};
use npr_vrp::VrpBackend;

/// Steady-state pending-event population for the large hold model.
/// Every context, port, controller, and slow-path timer of many
/// chassis at once: makes the heap's `O(log n)` vs the calendar's
/// `O(1)` visible.
const PENDING: usize = 8192;

/// Pending events of one busy router (what `Router` actually holds:
/// one per context, port and server), and the size of the event each
/// entry carries there.
const ROUTER_PENDING: usize = 40;
type RouterPayload = [u64; 3];

/// A delay distribution shaped like the simulator's: mostly short
/// compute/memory latencies within the wheel horizon, a tail of
/// frame-interarrival and retry timers beyond it.
fn hold_delay(rng: &mut XorShift64) -> Time {
    match rng.below(16) {
        0..=9 => 5_000 + rng.below(495_000), // Compute + memory (5 ns – 0.5 us).
        10..=13 => 500_000 + rng.below(1_500_000), // DMA bursts, long blocks.
        14 => rng.below(5_000),              // Same-cycle wakeups, ties.
        _ => 6_720_000 + rng.below(100) * 1_000_000, // Interarrivals, retries.
    }
}

/// The delay mix one router schedules with: wakeups at `now`, whole
/// MicroEngine cycles (5 000 ps), memory and DMA completions at
/// arbitrary picoseconds, and a thin tail at and past the wheel horizon.
fn router_delay(rng: &mut XorShift64) -> Time {
    match rng.below(16) {
        0..=2 => 0,                               // Dispatch at `now`.
        3..=9 => (1 + rng.below(24)) * 5_000,     // Context swap, compute, token.
        10..=12 => 40_000 + rng.below(200_000),   // Memory completions.
        13 => 500_000,                            // DMA.
        14 => 2_000_000 + rng.below(100_000),     // The horizon edge.
        _ => 6_720_000,                           // Frame interarrival: spills.
    }
}

/// The two queues behind one face, so one hold loop times both.
trait HoldQueue<E>: Default {
    fn schedule(&mut self, at: Time, ev: E);
    fn pop(&mut self) -> Option<(Time, E)>;
    fn len(&self) -> usize;
}

impl<E> HoldQueue<E> for CalendarQueue<E> {
    fn schedule(&mut self, at: Time, ev: E) {
        CalendarQueue::schedule(self, at, ev);
    }
    fn pop(&mut self) -> Option<(Time, E)> {
        CalendarQueue::pop(self)
    }
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
}

impl<E> HoldQueue<E> for OracleQueue<E> {
    fn schedule(&mut self, at: Time, ev: E) {
        OracleQueue::schedule(self, at, ev);
    }
    fn pop(&mut self) -> Option<(Time, E)> {
        OracleQueue::pop(self)
    }
    fn len(&self) -> usize {
        OracleQueue::len(self)
    }
}

/// Hold model: with `pending` events queued, pop one and schedule its
/// successor `delay` later, `ops` times. Returns events completed per
/// wall-clock second.
fn hold<E, Q: HoldQueue<E>>(
    pending: usize,
    payload: impl Fn(usize) -> E,
    delay: impl Fn(&mut XorShift64) -> Time,
    ops: u64,
) -> f64 {
    let mut rng = XorShift64::new(0xBEEF);
    let mut q = Q::default();
    for i in 0..pending {
        q.schedule(rng.below(2_000_000), payload(i));
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let (t, v) = q.pop().expect("population is conserved");
        q.schedule(t + delay(&mut rng), v);
    }
    let dt = t0.elapsed();
    assert_eq!(q.len(), pending);
    ops as f64 / dt.as_secs_f64()
}

/// Calendar and oracle medians over `reps` alternating runs of one
/// hold population (alternating keeps frequency scaling and cache
/// state comparable).
fn hold_pair<E>(
    pending: usize,
    payload: impl Fn(usize) -> E + Copy,
    delay: impl Fn(&mut XorShift64) -> Time + Copy,
    reps: usize,
    ops: u64,
) -> (f64, f64) {
    let mut cal = Vec::with_capacity(reps);
    let mut ora = Vec::with_capacity(reps);
    for _ in 0..reps {
        cal.push(hold::<E, CalendarQueue<E>>(pending, payload, delay, ops));
        ora.push(hold::<E, OracleQueue<E>>(pending, payload, delay, ops));
    }
    (median(cal), median(ora))
}

/// The golden scenario of `crates/core/tests/determinism.rs` (the
/// scaled-down `robust_router`: a flood on seven ports, a traced
/// control stream installing routes through the Pentium on the
/// eighth), run over the same 0.5 ms + 2 ms.
fn golden_scenario() -> HostRow {
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 333;
    let mut router = Router::new(cfg);
    let ctl = FrameSpec {
        src: u32::from_be_bytes([10, 0, 0, 9]),
        dst: u32::from_be_bytes([10, 1, 0, 1]),
        sport: 2600,
        dport: 89,
        ..Default::default()
    };
    let ctl_key = FlowKey {
        src: ctl.src,
        dst: ctl.dst,
        sport: ctl.sport,
        dport: ctl.dport,
    };
    router
        .install(Key::Flow(ctl_key), route_updater_pe(1_000), None)
        .expect("route updater admitted");
    for p in (0..8).filter(|&p| p != 1) {
        router.attach_cbr(p, 0.95, u64::MAX, ((p + 1) % 8) as u8);
    }
    let updates = (0..40u8)
        .map(|i| {
            let payload = [11, i, 0, 0, 16, i % 8];
            (Time::from(i) * 50_000_000, udp_frame(&ctl, &payload))
        })
        .collect();
    let bg_dst = u32::from_be_bytes([10, 2, 0, 1]);
    let bg = CbrSource::new(
        100_000_000,
        0.8,
        FrameSpec {
            dst: bg_dst,
            ..Default::default()
        },
        u64::MAX,
    );
    router.attach_source(
        1,
        Box::new(MixSource::new(vec![
            Box::new(TraceSource::new(updates)),
            Box::new(bg),
        ])),
    );
    router.trace_destination(bg_dst, 64);
    let t0 = Instant::now();
    std::hint::black_box(router.measure(us(500), ms(2)));
    HostRow::read(&router, t0)
}

/// The other end of the load axis: `line_rate()` with 8 x 100 Mbps CBR
/// at 10 % load over the same 2.5 simulated ms. The input ring is idle
/// nine tenths of the time, and an idle rotation is skipped rather than
/// dispatched, so events per simulated us is what this row records.
fn idle_line_rate() -> HostRow {
    let mut router = Router::new(RouterConfig::line_rate());
    for p in 0..8 {
        router.attach_cbr(p, 0.10, u64::MAX, ((p + 1) % 8) as u8);
    }
    let t0 = Instant::now();
    router.run_until(SCENARIO_PS);
    HostRow::read(&router, t0)
}

/// Simulated span of both host-speed scenarios.
const SCENARIO_PS: Time = us(500) + ms(2);

/// One host-speed scenario: exact event counts, and the wall of its
/// fixed simulated span.
struct HostRow {
    events: u64,
    events_skipped: u64,
    wall_s: f64,
}

impl HostRow {
    fn read(router: &Router, t0: Instant) -> Self {
        Self {
            events: router.events_dispatched(),
            events_skipped: router.events_skipped(),
            wall_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// Fastest of three: the usual floor against host noise (the
    /// counts are exact).
    fn fastest_of_three(run: fn() -> Self) -> Self {
        (0..3)
            .map(|_| run())
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("three runs")
    }

    fn sim_us_per_host_ms(&self) -> f64 {
        (SCENARIO_PS / us(1)) as f64 / (self.wall_s * 1e3)
    }

    fn events_per_sim_us(&self) -> f64 {
        self.events as f64 / (SCENARIO_PS / us(1)) as f64
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Lock-step differential check (the quick in-binary version of
/// `crates/sim/tests/differential.rs`): both queues run the hold model
/// plus interleaved peeks and must agree on every observable.
fn differential_check(ops: u64) -> Result<(), String> {
    let mut rng = XorShift64::new(0x0D1F);
    let mut cal: CalendarQueue<u64> = CalendarQueue::new();
    let mut ora: OracleQueue<u64> = OracleQueue::new();
    let mut next = 0u64;
    for _ in 0..256 {
        let at = rng.below(2_000_000);
        cal.schedule(at, next);
        ora.schedule(at, next);
        next += 1;
    }
    for i in 0..ops {
        let (a, b) = (cal.pop(), ora.pop());
        if a != b {
            return Err(format!("op {i}: calendar {a:?} != oracle {b:?}"));
        }
        let Some((t, _)) = a else {
            return Err(format!("op {i}: queues ran dry"));
        };
        // Refill with 1-2 successors so the population breathes; force
        // exact ties regularly to stress the FIFO tie-break.
        for _ in 0..1 + (i % 2) {
            let d = if rng.below(8) == 0 {
                0
            } else {
                hold_delay(&mut rng)
            };
            cal.schedule(t + d, next);
            ora.schedule(t + d, next);
            next += 1;
        }
        if cal.peek_time() != ora.peek_time() || cal.len() != ora.len() {
            return Err(format!("op {i}: peek/len diverged"));
        }
        // Keep the population bounded.
        if cal.len() > 4096 {
            let (a, b) = (cal.pop(), ora.pop());
            if a != b {
                return Err(format!("op {i}: drain pop diverged"));
            }
        }
    }
    Ok(())
}

/// Lock-step differential check for the VRP execution tiers (the quick
/// in-binary version of `crates/vrp/tests/differential.rs`): every
/// generated program must lower, and must produce bit-identical
/// results, MP bytes, and flow state through both backends, before the
/// backend-axis numbers are trusted.
fn vrp_differential_check(programs: u64) -> Result<(), String> {
    for seed in 0..programs {
        let prog = npr_vrp::gen::random_program(seed);
        let exec = npr_vrp::Executable::new(prog.clone(), VrpBackend::Compiled);
        if !exec.is_compiled() {
            return Err(format!("seed {seed}: verified program failed to lower"));
        }
        for fill in [0x00u8, 0x5A, 0xFF] {
            let mut mp_i = [fill; 64];
            let mut st_i = vec![0u8; usize::from(prog.state_bytes)];
            let mut mp_c = mp_i;
            let mut st_c = st_i.clone();
            let ri = npr_vrp::run(&prog, &mut mp_i, &mut st_i);
            let rc = exec.run(&mut mp_c, &mut st_c);
            if ri != rc || mp_i != mp_c || st_i != st_c {
                return Err(format!("seed {seed} fill {fill:#04x}: backends diverged"));
            }
        }
    }
    Ok(())
}

/// Times one experiment closure, returning wall milliseconds.
fn wall_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // 1. Refuse to benchmark a scheduler that diverges from the oracle.
    let diff_ops: u64 = if quick { 100_000 } else { 400_000 };
    if let Err(e) = differential_check(diff_ops) {
        eprintln!("simbench: DIFFERENTIAL CHECK FAILED: {e}");
        std::process::exit(1);
    }
    println!("differential check: {diff_ops} lock-step ops OK");
    let vrp_progs: u64 = if quick { 128 } else { 512 };
    if let Err(e) = vrp_differential_check(vrp_progs) {
        eprintln!("simbench: VRP BACKEND DIFFERENTIAL FAILED: {e}");
        std::process::exit(1);
    }
    println!("vrp backend differential: {vrp_progs} programs x 3 fills OK");

    // 2. Events/sec, median over repetitions, on two populations: the
    //    large one the calendar was built for, and the one a router
    //    actually holds (few entries, each a 24-byte event).
    let (reps, ops) = if quick { (5, 400_000u64) } else { (9, 2_000_000) };
    let (cal, ora) = hold_pair(PENDING, |i| i as u32, hold_delay, reps, ops);
    let speedup = cal / ora;
    println!(
        "event queue (hold model, {PENDING} pending): calendar {:.2} Mev/s, \
         oracle {:.2} Mev/s, speedup {speedup:.2}x",
        cal / 1e6,
        ora / 1e6
    );
    let (rs_cal, rs_ora) =
        hold_pair::<RouterPayload>(ROUTER_PENDING, |i| [i as u64; 3], router_delay, reps, ops);
    let rs_speedup = rs_cal / rs_ora;
    println!(
        "event queue (router-shaped, {ROUTER_PENDING} pending x {} B): calendar {:.2} Mev/s, \
         oracle {:.2} Mev/s, speedup {rs_speedup:.2}x",
        std::mem::size_of::<RouterPayload>(),
        rs_cal / 1e6,
        rs_ora / 1e6
    );

    // 2b. The end-to-end host figures: events/sec and simulated us per
    //     host ms on the golden scenario (ports at 95 %: the ring is
    //     never idle for long), and on its idle counterpart.
    let golden = HostRow::fastest_of_three(golden_scenario);
    println!(
        "golden scenario: {} events ({:.1} per sim us, {} skipped) in {:.1} ms, {:.2} Mev/s, \
         {:.1} sim us per host ms",
        golden.events,
        golden.events_per_sim_us(),
        golden.events_skipped,
        golden.wall_s * 1e3,
        golden.events as f64 / golden.wall_s / 1e6,
        golden.sim_us_per_host_ms()
    );
    let idle = HostRow::fastest_of_three(idle_line_rate);
    println!(
        "idle line rate: {} events ({:.1} per sim us, {} skipped) in {:.1} ms, \
         {:.1} sim us per host ms",
        idle.events,
        idle.events_per_sim_us(),
        idle.events_skipped,
        idle.wall_s * 1e3,
        idle.sim_us_per_host_ms()
    );

    // 3. Per-experiment wall-clock over representative experiments.
    let (warmup, window) = if quick {
        (us(200), us(600))
    } else {
        (us(500), BENCH_WINDOW)
    };
    let experiments: Vec<(&str, f64)> = vec![
        (
            "table1_disciplines",
            wall_ms(|| {
                std::hint::black_box(npr_bench::table1(warmup, window));
            }),
        ),
        (
            "table4_pentium_path",
            wall_ms(|| {
                std::hint::black_box(npr_bench::table4(warmup, window));
            }),
        ),
        (
            "linerate_8x100mbps",
            wall_ms(|| {
                std::hint::black_box(npr_bench::linerate(warmup, window));
            }),
        ),
        (
            "baseline_comparison",
            wall_ms(|| {
                std::hint::black_box(npr_bench::baseline(warmup, window));
            }),
        ),
    ];
    for (name, ms) in &experiments {
        println!("experiment {name}: {ms:.1} ms wall");
    }

    // 3b. The VRP backend axis: pure executor throughput on both tiers
    //     plus a full-router service-suite run on both tiers. The
    //     compiled chain's payoff is host-only (simulated time is pinned
    //     identical by the differential gates above).
    let axis_iters: u64 = if quick { 20_000 } else { 120_000 };
    let axis = npr_bench::backend_axis(axis_iters, warmup, window);
    print!(
        "vrp backend axis: service corpus {:.2} -> {:.2} Mexec/s ({:.2}x); heavy",
        axis.interp_pps / 1e6,
        axis.compiled_pps / 1e6,
        axis.speedup,
    );
    for s in &axis.heavy {
        print!(
            " {} {:.0} -> {:.0} Minsn/s ({:.2}x),",
            s.kind,
            s.interp_ips / 1e6,
            s.compiled_ips / 1e6,
            s.speedup
        );
    }
    println!(
        " router wall {:.1} -> {:.1} ms ({:.2}x)",
        axis.router_interp_ms, axis.router_compiled_ms, axis.router_speedup
    );

    // 3c. The parallel-delivery threads axis: the fault sweep (one
    //     fresh fault-injected router per (class, rate) point) fanned
    //     across worker threads via `npr_sim::scatter`. Before any
    //     wall-clock number is published, every thread count's curves
    //     must be bit-identical to the sequential sweep — a diverging
    //     parallel engine gets no benchmark. Speedup is honestly
    //     bounded by the host: `host_cores` is recorded next to the
    //     numbers, and on a 1-core box every count degenerates to the
    //     sequential path.
    let sweep_rates: &[u32] = if quick {
        &[0, 20_000, 80_000]
    } else {
        npr_bench::DEGRADE_RATES
    };
    let thread_counts: [usize; 4] = [1, 2, 4, 8];
    let mut sweep_walls: Vec<f64> = Vec::new();
    let mut sweep_curves = Vec::new();
    for &n in &thread_counts {
        let t0 = Instant::now();
        sweep_curves.push(npr_bench::fault_curves_threaded(
            sweep_rates,
            warmup,
            window,
            n,
        ));
        sweep_walls.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    for (i, curves) in sweep_curves.iter().enumerate().skip(1) {
        if curves != &sweep_curves[0] {
            eprintln!(
                "simbench: PARALLEL SWEEP DIVERGED at {} threads: refusing to emit numbers",
                thread_counts[i]
            );
            std::process::exit(1);
        }
    }
    let host_cores = npr_sim::auto_threads();
    let sweep_speedup_max = sweep_walls[1..]
        .iter()
        .fold(0.0f64, |m, &w| m.max(sweep_walls[0] / w));
    print!("parallel fault sweep ({host_cores} host cores): wall");
    for (n, w) in thread_counts.iter().zip(&sweep_walls) {
        print!(" {n}t={w:.0}ms");
    }
    println!(", best speedup {sweep_speedup_max:.2}x, bit-identical OK");

    // 4. Emit JSON (hand-formatted: the workspace has no serde, by
    //    policy).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": 1,\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str("  \"event_queue_microbench\": {\n");
    json.push_str("    \"model\": \"hold\",\n");
    json.push_str(&format!("    \"pending_events\": {PENDING},\n"));
    json.push_str(&format!("    \"ops_per_rep\": {ops},\n"));
    json.push_str(&format!("    \"reps\": {reps},\n"));
    json.push_str(&format!(
        "    \"calendar_events_per_sec\": {},\n",
        cal.round()
    ));
    json.push_str(&format!(
        "    \"oracle_events_per_sec\": {},\n",
        ora.round()
    ));
    json.push_str(&format!("    \"speedup\": {speedup:.3},\n"));
    json.push_str(&format!(
        "    \"router_shaped\": {{ \"pending_events\": {ROUTER_PENDING}, \
         \"payload_bytes\": {}, \"calendar_events_per_sec\": {}, \
         \"oracle_events_per_sec\": {}, \"speedup\": {rs_speedup:.3} }}\n",
        std::mem::size_of::<RouterPayload>(),
        rs_cal.round(),
        rs_ora.round()
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"golden_scenario\": {{ \"events\": {}, \"events_skipped\": {}, \"wall_ms\": {:.1}, \
         \"events_per_sec\": {}, \"sim_us_per_host_ms\": {:.1} }},\n",
        golden.events,
        golden.events_skipped,
        golden.wall_s * 1e3,
        (golden.events as f64 / golden.wall_s).round(),
        golden.sim_us_per_host_ms()
    ));
    json.push_str(&format!(
        "  \"idle_line_rate\": {{ \"events\": {}, \"events_skipped\": {}, \
         \"events_per_sim_us\": {:.1}, \"wall_ms\": {:.1}, \"sim_us_per_host_ms\": {:.1} }},\n",
        idle.events,
        idle.events_skipped,
        idle.events_per_sim_us(),
        idle.wall_s * 1e3,
        idle.sim_us_per_host_ms()
    ));
    json.push_str(&format!(
        "  \"differential_check\": {{ \"lock_step_ops\": {diff_ops}, \"ok\": true }},\n"
    ));
    json.push_str("  \"vrp_backend\": {\n");
    json.push_str(&format!(
        "    \"differential_programs\": {vrp_progs},\n"
    ));
    json.push_str(&format!(
        "    \"corpus_execs_per_iter\": {},\n",
        axis.execs_per_iter
    ));
    json.push_str(&format!("    \"iters\": {},\n", axis.iters));
    json.push_str(&format!(
        "    \"interp_execs_per_sec\": {},\n",
        axis.interp_pps.round()
    ));
    json.push_str(&format!(
        "    \"compiled_execs_per_sec\": {},\n",
        axis.compiled_pps.round()
    ));
    json.push_str(&format!("    \"speedup\": {:.3},\n", axis.speedup));
    json.push_str("    \"heavy\": {\n");
    for (i, s) in axis.heavy.iter().enumerate() {
        let comma = if i + 1 < axis.heavy.len() { "," } else { "" };
        json.push_str(&format!(
            "      \"{}\": {{ \"insns_per_iter\": {}, \
             \"interp_insns_per_sec\": {}, \"compiled_insns_per_sec\": {}, \
             \"speedup\": {:.3} }}{comma}\n",
            s.kind,
            s.insns_per_iter,
            s.interp_ips.round(),
            s.compiled_ips.round(),
            s.speedup
        ));
    }
    json.push_str("    },\n");
    json.push_str(&format!(
        "    \"heavy_speedup\": {:.3},\n",
        axis.heavy_speedup
    ));
    json.push_str(&format!(
        "    \"router_interp_wall_ms\": {:.1},\n",
        axis.router_interp_ms
    ));
    json.push_str(&format!(
        "    \"router_compiled_wall_ms\": {:.1},\n",
        axis.router_compiled_ms
    ));
    json.push_str(&format!(
        "    \"router_speedup\": {:.3}\n",
        axis.router_speedup
    ));
    json.push_str("  },\n");
    json.push_str("  \"parallel\": {\n");
    json.push_str(&format!("    \"host_cores\": {host_cores},\n"));
    json.push_str("    \"fault_sweep\": {\n");
    json.push_str(&format!(
        "      \"points\": {},\n",
        sweep_rates.len() * npr_bench::exp_faults::DEGRADE_CLASSES.len()
    ));
    json.push_str("      \"threads\": [");
    for (i, n) in thread_counts.iter().enumerate() {
        let comma = if i + 1 < thread_counts.len() { ", " } else { "" };
        json.push_str(&format!("{n}{comma}"));
    }
    json.push_str("],\n");
    json.push_str("      \"wall_ms\": [");
    for (i, w) in sweep_walls.iter().enumerate() {
        let comma = if i + 1 < sweep_walls.len() { ", " } else { "" };
        json.push_str(&format!("{w:.1}{comma}"));
    }
    json.push_str("],\n");
    json.push_str(&format!(
        "      \"speedup_max\": {sweep_speedup_max:.3},\n"
    ));
    json.push_str("      \"bit_identical\": true\n");
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"experiments\": [\n");
    for (i, (name, ms)) in experiments.iter().enumerate() {
        let comma = if i + 1 < experiments.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"wall_ms\": {ms:.1} }}{comma}\n"
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write BENCH_sim.json");
            println!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
