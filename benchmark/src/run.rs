//! The run protocol: timed repeats with tracing off (`--trace 0`), or
//! one untraced reference, one traced run, a timestamp-stepping pass, an
//! unsliced run and the kernels (`--trace 1`). Every run ends in the
//! correctness gate; a failed gate fails the process.
//!
//! Host time is taken per simulated slice and summarised by a low
//! quantile, not a mean: this host is a shared two-core VM where the
//! same slice takes 1x to 2x as long for seconds at a time, and the
//! fastest fiftieth of ~800 slices repeats to 2-3% where the mean of
//! the same runs spreads by 20% (README, "Noise").

use std::time::Instant;

use npr_sim::{EngineStats, Time};

use crate::counts::{self, collect, Counts};
use crate::kernels::{self, Captured, KernelInputs};
use crate::spec::{Workload, WorkloadId, REPEATS};
use crate::trace::Tracer;
use crate::workload::{build, sources, Built, Sut, PS_PER_US};
use crate::Metrics;

/// The paper's headline: 3.47 Mpps for 64-byte packets, I.2 + O.1.
pub const PAPER_MPPS: f64 = 3.47;

/// Simulated time run past the horizon before draining, so frames still
/// on an input wire at the horizon arrive and are accounted.
const TAIL: Time = 1_000 * PS_PER_US;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Worker threads of the unsliced run (the `Parallel` strategy on a
    /// fabric); the timed runs always use one.
    pub par_threads: usize,
}

impl Options {
    /// The fixed simulated horizon of one run, a whole number of slices.
    pub fn horizon(&self) -> Time {
        let slice = self.workload.slice_us;
        let slices = if self.quick {
            8
        } else {
            let us = self.workload.sim_us_per_second as f64 * self.seconds / REPEATS as f64;
            ((us / slice as f64) as u64).max(8)
        };
        slices * slice * PS_PER_US
    }

    fn slice(&self) -> Time {
        self.workload.slice_us * PS_PER_US
    }
}

/// What one invocation found.
pub struct Outcome {
    /// Gate failures; empty means correct.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Lines for the human-readable report and the result file.
    pub info: Vec<(String, String)>,
    pub fingerprint: u64,
    pub trace_jsonl: Option<String>,
}

/// Constructions timed for `setup_s`: one per repeat and two more. Not
/// many more: over a dozen large allocate/free cycles glibc raises its
/// mmap threshold and a construction gets 3x cheaper in a way no user of
/// the router ever sees.
const SETUPS: usize = 5;

/// The quantile of per-slice host times that stands for a slice on an
/// unperturbed host.
const QUIET_QUANTILE: f64 = 0.02;

fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    xs[((xs.len() - 1) as f64 * q).round() as usize]
}

/// Host seconds the slices would take on a quiet host.
fn quiet_wall(slice_s: &[f64]) -> f64 {
    quantile(slice_s, QUIET_QUANTILE) * slice_s.len() as f64
}

/// Runs to `horizon` in `slice`-long steps on one thread, handing each
/// slice's index and host seconds to `each`. Slicing `run_until` /
/// grid-aligned `run_lockstep` leaves the simulation bit-identical (the
/// unsliced run of `--trace 1` holds that).
fn run_sliced(
    sut: &mut Sut,
    horizon: Time,
    slice: Time,
    mut each: impl FnMut(&Sut, u64, Instant, f64),
) -> EngineStats {
    let mut total = EngineStats::default();
    for i in 1..=horizon / slice {
        let t0 = Instant::now();
        let st = sut.run_to(i * slice, 1);
        let secs = t0.elapsed().as_secs_f64();
        total.epochs += st.epochs;
        total.delivered += st.delivered;
        each(sut, i, t0, secs);
    }
    total
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs past the horizon, drains, and audits the final ledger.
fn finish(o: &Options, sut: &mut Sut, horizon: Time, failures: &mut Vec<String>) -> Counts {
    if !o.workload.drainable {
        // No sources to exhaust: audit the mid-run ledger instead. What
        // it cannot see is inside a hardware context: one packet per
        // input context, and the batch of descriptors an output context
        // drained from its queue in one head-pointer read.
        let c = collect(sut, horizon);
        let hidden: usize = sut
            .routers()
            .iter()
            .map(|r| r.cfg.input_ctxs + r.cfg.output_ctxs * r.cfg.out_batch)
            .sum();
        if !(0..=hidden as i64).contains(&c.deficit) {
            failures.push(format!(
                "mid-run ledger deficit {} is outside what {hidden} context slots can hold",
                c.deficit
            ));
        }
        return c;
    }
    sut.run_to(horizon + TAIL, 1);
    if !sut.drain() {
        failures.push("drain did not quiesce".into());
    }
    if !sut.conserved() {
        failures.push("conservation() does not hold after the drain".into());
    }
    let c = collect(sut, horizon);
    if c.offered != c.delivered() + c.lost() {
        failures.push(format!(
            "outside ledger: offered {} != delivered {} + lost {}",
            c.offered,
            c.delivered(),
            c.lost()
        ));
    }
    c
}

fn paper_gate(
    o: &Options,
    at_h: &Counts,
    info: &mut Vec<(String, String)>,
    failures: &mut Vec<String>,
) {
    if o.workload.id != WorkloadId::FastpathMinsize {
        info.push((
            "paper_err_frac".into(),
            "null (unvalidated: the repo holds no reference for this workload)".into(),
        ));
        return;
    }
    let mpps = at_h.delivered_tx as f64 / (at_h.horizon as f64 / 1e12) / 1e6;
    let err = (mpps - PAPER_MPPS).abs() / PAPER_MPPS;
    info.push((
        "paper_err_frac".into(),
        format!("{err:.5} (|{mpps:.4} - {PAPER_MPPS}| / {PAPER_MPPS})"),
    ));
    if err > 0.03 {
        failures.push(format!("paper_err_frac {err:.4} > 0.03"));
    }
}

fn info_common(horizon: Time, at_h: &Counts, info: &mut Vec<(String, String)>) {
    info.push(("sim_horizon_us".into(), (horizon / PS_PER_US).to_string()));
    info.push(("offered_frames".into(), at_h.offered.to_string()));
    info.push(("delivered_frames".into(), at_h.delivered().to_string()));
    info.push(("latency_samples".into(), at_h.latency_samples.to_string()));
    info.push((
        "latency_samples_beyond_p999".into(),
        (at_h.latency_samples / 1000).to_string(),
    ));
    info.push(("threads".into(), "1".into()));
}

/// `--trace 0`: the end-to-end metrics.
pub fn timed(o: &Options) -> Outcome {
    let horizon = o.horizon();
    let mut failures = Vec::new();
    let mut setups = Vec::new();
    let mut slice_s: Vec<f64> = Vec::new();
    let mut first: Option<(u64, Counts, Counts)> = None;
    for rep in 0..REPEATS {
        let Built { mut sut, parts, .. } = build(o.workload.id, o.seed, horizon, o.quick);
        setups.push(parts.total());
        run_sliced(&mut sut, horizon, o.slice(), |_, _, _, secs| {
            slice_s.push(secs)
        });
        let at_h = collect(&sut, horizon);
        let fp = sut.fingerprint();
        let fin = finish(o, &mut sut, horizon, &mut failures);
        match &first {
            None => first = Some((fp, at_h, fin)),
            Some((fp0, at_h0, fin0)) => {
                if fp != *fp0 {
                    failures.push(format!("repeat {rep}: fingerprint {fp:016x} != {fp0:016x}"));
                }
                if at_h != *at_h0 || fin != *fin0 {
                    failures.push(format!("repeat {rep}: simulated counters differ"));
                }
            }
        }
    }
    // Two more constructions, so the fastest is taken over five.
    if !o.quick {
        for _ in REPEATS..SETUPS {
            setups.push(build(o.workload.id, o.seed, horizon, o.quick).parts.total());
        }
    }
    let (fingerprint, at_h, fin) = first.expect("REPEATS > 0");

    let mut info = Vec::new();
    info_common(horizon, &at_h, &mut info);
    info.push(("repeats".into(), REPEATS.to_string()));
    info.push((
        "setup_ms".into(),
        setups
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    info.push(("slices_timed".into(), slice_s.len().to_string()));
    info.push((
        "slice_host_ms_p02_p50_p95".into(),
        [QUIET_QUANTILE, 0.5, 0.95]
            .map(|q| format!("{:.3}", quantile(&slice_s, q) * 1e3))
            .join(" "),
    ));
    paper_gate(o, &at_h, &mut info, &mut failures);

    // One repeat's worth of quiet-host seconds.
    let wall = quiet_wall(&slice_s) / REPEATS as f64;
    let mut m = Metrics::default();
    m.set("sim_us_per_host_s", (horizon / PS_PER_US) as f64 / wall);
    m.set("host_ns_per_pkt", wall * 1e9 / at_h.delivered_tx as f64);
    // The fastest construction, for the slices' reason.
    m.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    counts::end_to_end(&at_h, &fin, &mut m);
    m.set("peak_rss_mib", peak_rss_mib());
    Outcome {
        failures,
        attempted: fin.offered,
        failed: fin.lost(),
        metrics: m,
        info,
        fingerprint,
        trace_jsonl: None,
    }
}

/// Steps the system one event timestamp at a time up to `until`;
/// returns how many distinct timestamps it visited.
fn step_through(sut: &mut Sut, until: Time) -> u64 {
    // Prime the schedules: an unstarted router reports no pending event.
    sut.run_to(0, 1);
    let mut n = 0;
    while let Some(t) = sut.next_event_time().filter(|&t| t <= until) {
        sut.run_to(t, 1);
        n += 1;
    }
    sut.run_to(until, 1);
    n
}

/// `--trace 1`: the per-layer metrics.
pub fn traced(o: &Options) -> Outcome {
    let horizon = o.horizon();
    let slice = o.slice();
    let slices = horizon / slice;
    // The stepping pass and the unsliced run cover the first quarter.
    let step_horizon = slices.div_ceil(4) * slice;
    let step_slices = (step_horizon / slice) as usize;
    let mut failures = Vec::new();
    let mut m = Metrics::default();
    let mut tr = Tracer::default();

    // Run 0: untraced reference, timed exactly as `--trace 0` times it.
    let Built { mut sut, .. } = build(o.workload.id, o.seed, horizon, o.quick);
    let mut ref_s = Vec::new();
    let engine = run_sliced(&mut sut, horizon, slice, |_, _, _, secs| ref_s.push(secs));
    let wall0 = quiet_wall(&ref_s);
    let at_h0 = collect(&sut, horizon);
    let fp0 = sut.fingerprint();
    drop(sut);

    // Run 1: traced: a span and a counter sample per slice.
    let root = tr.open("traced_run", None, 1);
    let setup_span = tr.open("setup", Some(root), 1);
    let Built {
        mut sut,
        parts,
        rules,
    } = build(o.workload.id, o.seed, horizon, o.quick);
    tr.close(setup_span, Vec::new());
    let mut at = tr.spans[setup_span].start_ns;
    for (name, s) in [
        ("route.synth_table", parts.synth_table),
        ("router.new", parts.new),
        ("install", parts.install),
        ("attach", parts.attach),
    ] {
        let end = at + (s * 1e9) as u64;
        tr.record(name, Some(setup_span), 1, at, end);
        at = end;
    }
    let run_span = tr.open("run", Some(root), 1);
    let slice_name = match &sut {
        Sut::Fabric(_) => "run_lockstep",
        Sut::Router { .. } => "run_until",
    };
    let mut traced_s = Vec::new();
    // (fingerprint, frames offered) when the traced run passes the
    // stepping pass's horizon.
    let mut at_step = (0, 0);
    run_sliced(&mut sut, horizon, slice, |sut, i, t0, secs| {
        let start = tr.ns_at(t0);
        let s = tr.record(
            slice_name,
            Some(run_span),
            1,
            start,
            start + (secs * 1e9) as u64,
        );
        let sample = counts::sample(sut);
        tr.spans[s].counters = sample.to_vec();
        traced_s.push(secs);
        if i * slice == step_horizon {
            at_step = (sut.fingerprint(), sample[0].1);
        }
    });
    tr.close(run_span, Vec::new());
    let wall1 = quiet_wall(&traced_s);
    let at_h1 = collect(&sut, horizon);
    let fp1 = sut.fingerprint();
    let updates_done = sut.updates_applied();
    let s = tr.open("drain", Some(root), 1);
    let fin = finish(o, &mut sut, horizon, &mut failures);
    tr.close(s, Vec::new());
    let s = tr.open("report", Some(root), 1);
    for r in sut.routers() {
        std::hint::black_box(r.report());
    }
    tr.close(s, Vec::new());
    let s = tr.open("conservation", Some(root), 1);
    std::hint::black_box(sut.conserved());
    tr.close(s, Vec::new());
    tr.close(root, Vec::new());
    drop(sut);
    if fp1 != fp0 {
        failures.push(format!(
            "traced fingerprint {fp1:016x} != untraced {fp0:016x}"
        ));
    }
    if at_h1 != at_h0 {
        failures.push("simulated counters differ between traced and untraced runs".into());
    }

    // Run 2: unsliced, on the parallel strategy where there is one.
    let Built { sut: mut whole, .. } = build(o.workload.id, o.seed, horizon, o.quick);
    let root = tr.open("unsliced_run", None, 2);
    whole.run_to(step_horizon, o.par_threads);
    tr.close(root, Vec::new());
    let wall_whole = tr.ms(root) / 1e3;
    if whole.fingerprint() != at_step.0 {
        failures.push(format!(
            "unsliced threads={} fingerprint {:016x} != sliced threads=1 {:016x} at {} us",
            o.par_threads,
            whole.fingerprint(),
            at_step.0,
            step_horizon / PS_PER_US
        ));
    }
    drop(whole);

    // Run 3: the timestamp-stepping pass.
    let Built { mut sut, .. } = build(o.workload.id, o.seed, horizon, o.quick);
    let root = tr.open("stepping_pass", None, 3);
    let timestamps = step_through(&mut sut, step_horizon);
    tr.close(root, vec![("timestamps", timestamps)]);
    let wall_stepped = tr.ms(root) / 1e3;
    // Stepping a fabric puts a barrier at every timestamp, and the
    // lockstep engine's outcome depends on where its barriers fall (see
    // README, "What the gate found"): there the pass is a different
    // simulation of the same offered load, and only that is compared.
    let stepped = match &sut {
        Sut::Fabric(_) => (at_step.0, counts::sample(&sut)[0].1),
        Sut::Router { .. } => (sut.fingerprint(), at_step.1),
    };
    if stepped != at_step {
        failures.push(format!(
            "stepped (fingerprint, offered) ({:016x}, {}) != sliced ({:016x}, {}) at {} us",
            stepped.0,
            stepped.1,
            at_step.0,
            at_step.1,
            step_horizon / PS_PER_US
        ));
    }

    // Kernels, on inputs captured from the workload's own sources and on
    // the stepped system's own routing table.
    let root = tr.open("kernels", None, 4);
    let capture = if o.quick { 2_048 } else { 16_384 };
    let mut srcs = sources(o.workload.id, o.seed, horizon, o.quick);
    let (mut frames, next_frame_ns, next_frame_n) = kernels::pull_frames(&mut srcs, capture);
    if frames.is_empty() {
        // No sources: the ideal ports' template frame is the input.
        frames = (0..8u8)
            .map(|p| npr_core::router::build_udp_frame(p, (p + 1) % 8, 60))
            .collect();
    }
    let captured = Captured::new(frames);
    let is_fabric = sut.fabric().is_some();
    // Route rebinds for the update kernel: the workload's own storm, or
    // the port routes when it has none.
    let (table, storm) = match &mut sut {
        Sut::Router { router, churn } => (&mut router.world.table, churn.updates.as_slice()),
        Sut::Fabric(f) => (&mut f.member_mut(0).world.table, [].as_slice()),
    };
    let updates = if storm.is_empty() {
        kernels::port_routes()
    } else {
        storm.iter().take(4_096).map(|u| u.route).collect()
    };
    kernels::run_all(
        KernelInputs {
            captured: &captured,
            table,
            updates,
            rules: &rules,
        },
        &mut m,
    );
    m.set("traffic.next_frame_ns", next_frame_ns);
    tr.close(root, Vec::new());
    drop(sut);

    // Simulated-clock layers. Ideal ports clone a template: no source
    // is ever asked for a frame.
    let frames_pulled = if o.workload.id == WorkloadId::FastpathMinsize {
        0
    } else {
        at_h1.offered
    };
    counts::per_layer(&at_h1, &fin, updates_done, frames_pulled, &mut m);

    // Engine density and the host-time budget.
    let horizon_us = (horizon / PS_PER_US) as f64;
    let step_us = (step_horizon / PS_PER_US) as f64;
    let ts_per_us = timestamps as f64 / step_us;
    let wall0_ns = wall0 * 1e9;
    m.set("engine.timestamps", timestamps as f64);
    m.set("engine.step_horizon_us", step_us);
    m.set("engine.timestamps_per_sim_us", ts_per_us);
    m.set(
        "engine.host_ns_per_timestamp",
        wall0_ns / (ts_per_us * horizon_us),
    );
    m.set("sim.delivery.epochs", engine.epochs as f64);
    m.set(
        "sim.delivery.msgs_per_epoch",
        if engine.epochs > 0 {
            engine.delivered as f64 / engine.epochs as f64
        } else {
            0.0
        },
    );
    // Both walls as the clock read them, over the same simulated span.
    let wall_seq: f64 = ref_s[..step_slices].iter().sum();
    m.set(
        "sim.delivery.par_over_seq",
        if is_fabric {
            wall_whole / wall_seq
        } else {
            0.0
        },
    );
    let g = |m: &Metrics, name: &str| m.get(name).expect("set above");
    let c = &at_h0;
    let shares = [
        (
            "host.share.engine",
            ts_per_us * horizon_us * (g(&m, "sim.queue.hold_ns") + g(&m, "ixp.machine.step_ns")),
        ),
        (
            "host.share.mem",
            (c.dram_accesses + c.sram_accesses + c.scratch_accesses) as f64
                * g(&m, "ixp.mem.access_ns")
                + c.dma_jobs as f64 * g(&m, "sim.server.admit_ns"),
        ),
        ("host.share.traffic", frames_pulled as f64 * next_frame_ns),
        (
            "host.share.route",
            (c.cache_hits + c.cache_misses) as f64 * g(&m, "route.table.lookup_and_fill_ns")
                + updates_done as f64 * g(&m, "route.table.update_ns"),
        ),
        ("host.share.vrp", g(&m, "vrp.execs") * g(&m, "vrp.exec_ns")),
        (
            "host.share.qm",
            c.qm_enqueued as f64 * g(&m, "core.qm.enq_deq_ns"),
        ),
        (
            "host.share.delivery",
            engine.epochs as f64 * g(&m, "sim.delivery.barrier_ns"),
        ),
    ];
    let mut attributed = 0.0;
    for (name, ns) in shares {
        m.set(name, ns / wall0_ns);
        attributed += ns / wall0_ns;
    }
    m.set("host.unattributed_frac", 1.0 - attributed);
    m.set("slice.host_ms_p50", quantile(&traced_s, 0.50) * 1e3);
    m.set("slice.host_ms_p95", quantile(&traced_s, 0.95) * 1e3);
    m.set("trace.overhead_frac", wall1 / wall0 - 1.0);
    m.set("host.untraced_wall_ms", wall0 * 1e3);
    m.set("host.traced_wall_ms", wall1 * 1e3);
    m.set("host.stepped_wall_ms", wall_stepped * 1e3);
    m.set("host.unsliced_wall_ms", wall_whole * 1e3);
    m.set("setup.synth_table_ms", parts.synth_table * 1e3);
    m.set("setup.new_ms", parts.new * 1e3);
    m.set("setup.install_ms", parts.install * 1e3);
    m.set("setup.attach_ms", parts.attach * 1e3);

    // The waterfall must add up to the loss it explains.
    let stages: f64 = [
        "drops.port_rx_frac",
        "drops.vrp_frac",
        "drops.no_route_frac",
        "drops.queue_frac",
        "drops.escalation_frac",
        "drops.lap_frac",
        "drops.fabric_frac",
    ]
    .iter()
    .map(|n| g(&m, n))
    .sum();
    if (stages - g(&m, "sim.loss_frac")).abs() > 1e-12 {
        failures.push(format!(
            "drop waterfall sums to {stages} but sim.loss_frac is {}",
            g(&m, "sim.loss_frac")
        ));
    }

    let mut info = Vec::new();
    info_common(horizon, &at_h1, &mut info);
    info.push(("par_threads".into(), o.par_threads.to_string()));
    info.push(("kernel_samples".into(), kernels::samples().to_string()));
    info.push(("next_frame_samples".into(), next_frame_n.to_string()));
    info.push(("captured_frames".into(), captured.frames.len().to_string()));
    info.push(("slices".into(), slices.to_string()));
    paper_gate(o, &at_h1, &mut info, &mut failures);
    Outcome {
        failures,
        attempted: fin.offered,
        failed: fin.lost(),
        metrics: m,
        info,
        fingerprint: fp1,
        trace_jsonl: Some(tr.to_jsonl()),
    }
}
