//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is `--emit-spec` of these tables; the smoke test
//! holds the two equal.

/// The program and its arguments, as `BENCHMARK.json` records them.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Host seconds one run measures (`--seconds` default).
pub const RUN_SECONDS: u64 = 12;

/// Timed repeats per run, on fresh systems; their fingerprints must
/// agree and their slices pool into the host-clock estimate.
pub const REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    FastpathMinsize,
    ServicesMixed,
    RouteChurn,
    FabricQos,
}

pub struct Workload {
    pub id: WorkloadId,
    pub name: &'static str,
    pub why: &'static str,
    /// Simulated microseconds per `--seconds` second: fixed work, sized
    /// so that the seed commit spends about one host second on it here.
    pub sim_us_per_second: u64,
    /// Simulated microseconds per host-time sample: every run advances
    /// in slices this long (a multiple of the 2 us lockstep grid).
    pub slice_us: u64,
    /// Whether sources end and the system can be drained and audited.
    pub drainable: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        id: WorkloadId::FastpathMinsize,
        name: "fastpath_minsize",
        why: "64-byte frames on ideal ports, nothing installed: the paper's 3.47 Mpps headline; only the engine and the IXP model work",
        sim_us_per_second: 72_000,
        slice_us: 1_000,
        drainable: false,
    },
    Workload {
        id: WorkloadId::ServicesMixed,
        name: "services_mixed",
        why: "IMIX, TCP flows, a SYN flood and route updates through three VRP programs with a third diverted: VRP, StrongARM, Pentium and PCI work",
        sim_us_per_second: 120_000,
        slice_us: 1_000,
        drainable: true,
    },
    Workload {
        id: WorkloadId::RouteChurn,
        name: "route_churn",
        why: "1M prefixes, Zipf over 16x the route cache, 10k updates/s and 64 classifier rules: the route layer read and written at once",
        sim_us_per_second: 100_000,
        slice_us: 1_000,
        drainable: true,
    },
    Workload {
        id: WorkloadId::FabricQos,
        name: "fabric_qos",
        why: "4-chassis spine/leaf over per-flow CoDel queues, run in lockstep: the only one where the delivery barrier, links and the qm wheel run",
        sim_us_per_second: 27_000,
        slice_us: 200,
        drainable: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Host-clock rates may worsen by 20%: their ten-run spread on this
/// host is 1-4% in a quiet hour and up to 10% in a noisy one.
/// Simulated-clock metrics repeat exactly
/// for one seed; their bounds cover what another seed moves (a latency
/// percentile steps by one ~6% histogram bucket or not at all).
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("sim_us_per_host_s", "sim_us/s", Better::Higher, 0.20),
    e2e("host_ns_per_pkt", "ns", Better::Lower, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.08),
    e2e("sim_forward_mpps", "Mpps", Better::Higher, 0.03),
    e2e("sim_goodput_mbps", "Mbps", Better::Higher, 0.02),
    e2e("sim_latency_p50", "sim_us", Better::Lower, 0.10),
    e2e("sim_latency_p99", "sim_us", Better::Lower, 0.15),
    e2e("sim_latency_p999", "sim_us", Better::Lower, 0.20),
    e2e("sim_delivered_frac", "frac", Better::Higher, 0.01),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher as Hi, Lower as Lo};

/// Layer = crate.module. Units: `sim_us` is simulated time, `ns`/`ms`
/// are host time, `count`/`frac`/`ratio` are exact simulated counters
/// unless the name starts with `host.`, `slice.` or `trace.`.
pub const PER_LAYER: [PerLayer; 94] = [
    // npr-ixp
    pl("ixp.reg_cycles_per_pkt", "cycles", Lo),
    pl("ixp.dram.util", "frac", Lo),
    pl("ixp.dram.wait_ns_per_access", "sim_ns", Lo),
    pl("ixp.dram.accesses_per_pkt", "count", Lo),
    pl("ixp.sram.util", "frac", Lo),
    pl("ixp.sram.wait_ns_per_access", "sim_ns", Lo),
    pl("ixp.sram.accesses_per_pkt", "count", Lo),
    pl("ixp.scratch.util", "frac", Lo),
    pl("ixp.dma.util", "frac", Lo),
    pl("ixp.dma.wait_ns_per_job", "sim_ns", Lo),
    pl("ixp.mutex.wait_cycles", "cycles", Lo),
    pl("ixp.port.rx_drop_frac", "frac", Lo),
    pl("ixp.machine.step_ns", "ns", Lo),
    pl("ixp.mem.access_ns", "ns", Lo),
    // npr-sim
    pl("engine.timestamps", "count", Lo),
    pl("engine.host_ns_per_timestamp", "ns", Lo),
    pl("sim.queue.hold_ns", "ns", Lo),
    pl("sim.server.admit_ns", "ns", Lo),
    pl("sim.delivery.epochs", "count", Lo),
    pl("sim.delivery.msgs_per_epoch", "count", Hi),
    pl("sim.delivery.barrier_ns", "ns", Lo),
    pl("sim.delivery.par_over_seq", "ratio", Lo),
    // npr-core
    pl("core.input.reg_per_mp", "cycles", Lo),
    pl("core.output.reg_per_mp", "cycles", Lo),
    pl("core.input.mps_per_pkt", "count", Lo),
    pl("core.sa.share", "frac", Lo),
    pl("core.sa.kpps", "kpps", Hi),
    pl("core.pe.share", "frac", Lo),
    pl("core.pe.kpps", "kpps", Hi),
    pl("core.pci.util", "frac", Lo),
    pl("core.control.ops", "count", Hi),
    pl("core.control.latency_avg_us", "sim_us", Lo),
    pl("core.health.epochs", "count", Hi),
    pl("core.health.warnings", "count", Lo),
    pl("core.qm.enqueued", "count", Hi),
    pl("core.qm.early_drop_frac", "frac", Lo),
    pl("core.qm.cap_drop_frac", "frac", Lo),
    pl("core.qm.sojourn_drop_frac", "frac", Lo),
    pl("core.qm.sojourn_p50_us", "sim_us", Lo),
    pl("core.qm.sojourn_p99_us", "sim_us", Lo),
    pl("core.qm.enq_deq_ns", "ns", Lo),
    pl("core.qm_sched.pick_ns", "ns", Lo),
    // npr-route
    pl("route.cache.lookups", "count", Hi),
    pl("route.cache.hit_ratio", "frac", Hi),
    pl("route.trie.mean_levels", "count", Lo),
    pl("route.trie.bytes", "bytes", Lo),
    pl("route.table.updates", "count", Hi),
    pl("route.classify.tuples", "count", Lo),
    pl("route.trie.lookup_ns", "ns", Lo),
    pl("route.table.lookup_and_fill_ns", "ns", Lo),
    pl("route.table.update_ns", "ns", Lo),
    pl("route.classify.classify_ns", "ns", Lo),
    // npr-vrp / npr-forwarders
    pl("vrp.execs", "count", Hi),
    pl("vrp.exec_ns", "ns", Lo),
    pl("vrp.verify_lower_ns", "ns", Lo),
    // npr-packet / npr-traffic
    pl("packet.checksum_ns", "ns", Lo),
    pl("packet.parse_ns", "ns", Lo),
    pl("traffic.next_frame_ns", "ns", Lo),
    pl("traffic.frames", "count", Hi),
    // npr-fabric
    pl("fabric.switched_frac", "frac", Hi),
    pl("fabric.link.drop_frac", "frac", Lo),
    pl("fabric.link.admit_ns", "ns", Lo),
    // drop waterfall: fractions of offered, summing to sim.loss_frac
    pl("sim.loss_frac", "frac", Lo),
    pl("drops.port_rx_frac", "frac", Lo),
    pl("drops.vrp_frac", "frac", Lo),
    pl("drops.no_route_frac", "frac", Lo),
    pl("drops.queue_frac", "frac", Lo),
    pl("drops.escalation_frac", "frac", Lo),
    pl("drops.lap_frac", "frac", Lo),
    pl("drops.fabric_frac", "frac", Lo),
    // simulated latency behind the end-to-end percentiles
    pl("sim.latency.samples", "count", Hi),
    pl("sim.latency.mean_us", "sim_us", Lo),
    pl("sim.latency.max_us", "sim_us", Lo),
    // host-time budget
    pl("host.share.engine", "frac", Lo),
    pl("host.share.mem", "frac", Lo),
    pl("host.share.traffic", "frac", Lo),
    pl("host.share.route", "frac", Lo),
    pl("host.share.vrp", "frac", Lo),
    pl("host.share.qm", "frac", Lo),
    pl("host.share.delivery", "frac", Lo),
    pl("host.unattributed_frac", "frac", Lo),
    pl("slice.host_ms_p50", "ms", Lo),
    pl("slice.host_ms_p95", "ms", Lo),
    pl("trace.overhead_frac", "frac", Lo),
    // traced-run walls the ratios above are built from
    pl("host.untraced_wall_ms", "ms", Lo),
    pl("host.traced_wall_ms", "ms", Lo),
    pl("host.stepped_wall_ms", "ms", Lo),
    pl("host.unsliced_wall_ms", "ms", Lo),
    // set-up, by part
    pl("setup.synth_table_ms", "ms", Lo),
    pl("setup.new_ms", "ms", Lo),
    pl("setup.install_ms", "ms", Lo),
    pl("setup.attach_ms", "ms", Lo),
    // engine density
    pl("engine.timestamps_per_sim_us", "count", Lo),
    pl("engine.step_horizon_us", "sim_us", Lo),
];
