//! Stopwatch kernels: each calls one layer's public functions on inputs
//! captured from the workload's own sources and reports the median host
//! nanoseconds per operation over [`samples`] batches.
//!
//! A kernel prices one operation of a layer in isolation (warm caches,
//! no interleaving), so `kernel ns x the workload's count` estimates
//! that layer's share of the run; it is not a profile of it.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use npr_core::{FlowKey, QmPlane, RouterConfig, WheelSched};
use npr_fabric::{Link, GIGABIT_BPS, SWITCH_LATENCY_PS};
use npr_ixp::{ChipConfig, CtxProgram, Env, Ixp, IxpEv, MemCtl, MemKind, Op, Rw, Sched};
use npr_packet::{checksum16, EthernetFrame, Frame, Ipv4Header, Mp};
use npr_route::classify::{ClassRule, PktKey5, TupleSpace};
use npr_route::{NextHop, Route, RoutingTable};
use npr_sim::{run_threads, CalendarQueue, Outbox, Server, Shard, Time, XorShift64};
use npr_vrp::{compile, verify, Executable, VrpBudget, VrpProgram};

use crate::Metrics;

/// `--quick` cuts the samples per kernel; set once at start-up.
static QUICK: AtomicBool = AtomicBool::new(false);

pub fn set_quick(quick: bool) {
    QUICK.store(quick, Ordering::Relaxed);
}

/// Batches timed per kernel; the reported figure is their median.
pub fn samples() -> usize {
    if QUICK.load(Ordering::Relaxed) {
        5
    } else {
        51
    }
}

/// Operations per batch, so one batch spans tens of microseconds.
const BATCH: usize = 2_048;

/// Median ns per operation of `batch`, which runs `ops` operations.
fn stopwatch(ops: usize, mut batch: impl FnMut()) -> f64 {
    batch(); // Warm-up: first-touch faults stay out of the samples.
    let mut ns: Vec<f64> = (0..samples())
        .map(|_| {
            let t0 = Instant::now();
            batch();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

/// Inputs the kernels share, captured once from the workload.
pub struct Captured {
    /// Frames pulled from the workload's sources (its rx template when
    /// it has no sources).
    pub frames: Vec<Frame>,
    /// IPv4 destinations of those frames, in order.
    pub dsts: Vec<u32>,
    /// Their 5-tuples.
    pub keys: Vec<PktKey5>,
    /// First MP of each frame.
    pub mps: Vec<[u8; 64]>,
}

impl Captured {
    pub fn new(frames: Vec<Frame>) -> Self {
        let mut dsts = Vec::new();
        let mut keys = Vec::new();
        let mut mps = Vec::new();
        for f in &frames {
            let ip = Ipv4Header::parse(&f[14..]).expect("sources emit valid IPv4");
            dsts.push(ip.dst);
            keys.push(PktKey5 {
                src: ip.src,
                dst: ip.dst,
                sport: u16::from_be_bytes([f[34], f[35]]),
                dport: u16::from_be_bytes([f[36], f[37]]),
                proto: f[23],
            });
            mps.push(Mp::segment(f, 0, 0).remove(0).data);
        }
        Self {
            frames,
            dsts,
            keys,
            mps,
        }
    }
}

// ---------------------------------------------------------------------
// npr-ixp

/// Alternates a compute block with a blocking SRAM read, so a step is a
/// context swap as often as a resume.
struct Spin(bool);

impl CtxProgram<()> for Spin {
    fn resume(&mut self, _env: &mut Env<'_, ()>) -> Op {
        self.0 = !self.0;
        if self.0 {
            Op::Compute(8)
        } else {
            Op::MemRead(MemKind::Sram, 4)
        }
    }
}

/// The bench's own scheduler: a handful of pending events, earliest
/// first, FIFO among ties.
#[derive(Default)]
struct MiniSched {
    now: Time,
    seq: u64,
    pending: Vec<(Time, u64, IxpEv)>,
}

impl Sched for MiniSched {
    fn now(&self) -> Time {
        self.now
    }
    fn at(&mut self, t: Time, ev: IxpEv) {
        self.seq += 1;
        self.pending.push((t, self.seq, ev));
    }
}

impl MiniSched {
    fn pop(&mut self) -> IxpEv {
        let i = (0..self.pending.len())
            .min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
            .expect("spinning contexts always leave an event pending");
        let (t, _, ev) = self.pending.swap_remove(i);
        self.now = t;
        ev
    }
}

fn machine_step() -> f64 {
    let mut ixp: Ixp<()> = Ixp::new(ChipConfig::default());
    for ctx in 0..4 {
        ixp.set_program(ctx, Box::new(Spin(false)));
    }
    let mut sched = MiniSched::default();
    ixp.start(&mut (), &mut sched);
    stopwatch(BATCH, || {
        for _ in 0..BATCH {
            let ev = sched.pop();
            ixp.handle(ev, &mut (), &mut sched);
        }
    })
}

fn mem_access() -> f64 {
    let chip = ChipConfig::default();
    let mut dram = MemCtl::new(
        "dram",
        chip.dram_read_cycles,
        chip.dram_write_cycles,
        chip.dram_bps,
    );
    let mut now = 0;
    stopwatch(BATCH, || {
        for i in 0..BATCH {
            let rw = if i % 2 == 0 { Rw::Read } else { Rw::Write };
            now = black_box(dram.access(now, rw, 32)) - 200_000;
        }
    })
}

// ---------------------------------------------------------------------
// npr-sim

/// `simbench`'s delay mix: mostly short compute/memory latencies inside
/// the wheel, a tail of interarrival and retry timers beyond it.
fn hold_delay(rng: &mut XorShift64) -> Time {
    match rng.below(16) {
        0..=9 => 5_000 + rng.below(495_000),
        10..=13 => 500_000 + rng.below(1_500_000),
        14 => rng.below(5_000),
        _ => 6_720_000 + rng.below(100) * 1_000_000,
    }
}

fn queue_hold() -> f64 {
    const PENDING: usize = 8_192;
    let mut rng = XorShift64::new(0xBEEF);
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    for i in 0..PENDING {
        q.schedule(rng.below(2_000_000), i as u32);
    }
    // The population starts bunched inside 2 us; hold until it has
    // spread to the delay mix's own steady state.
    for _ in 0..32 * PENDING {
        let (t, v) = q.pop().expect("population is conserved");
        q.schedule(t + hold_delay(&mut rng), v);
    }
    stopwatch(BATCH, || {
        for _ in 0..BATCH {
            let (t, v) = q.pop().expect("population is conserved");
            q.schedule(t + hold_delay(&mut rng), v);
        }
    })
}

fn server_admit() -> f64 {
    let mut s = Server::new("bench");
    let mut now = 0;
    stopwatch(BATCH, || {
        for _ in 0..BATCH {
            now = black_box(s.admit(now, 40_000, 260_000)) - 230_000;
        }
    })
}

/// A shard with one local event per epoch and nothing to say.
struct Tick(Time);

impl Shard for Tick {
    type Msg = ();
    fn next_time(&self) -> Option<Time> {
        Some(self.0)
    }
    fn advance(&mut self, horizon: Time, _out: &mut Outbox<()>) {
        self.0 = horizon + 1;
    }
    fn deliver(&mut self, _at: Time, _msg: ()) {}
}

/// One thread, as the timed runs use: the `Sequential` strategy's share
/// of `npr_sim::run`'s epoch loop.
fn delivery_barrier() -> f64 {
    const EPOCHS: usize = 64;
    let mut shards: Vec<Tick> = (0..4).map(|_| Tick(1)).collect();
    let mut until = 0;
    stopwatch(EPOCHS, || {
        until += EPOCHS as Time * SWITCH_LATENCY_PS;
        black_box(run_threads(1, &mut shards, SWITCH_LATENCY_PS, until));
    })
}

// ---------------------------------------------------------------------
// npr-core

fn flow_keys(c: &Captured) -> Vec<FlowKey> {
    c.keys
        .iter()
        .map(|k| FlowKey {
            src: k.src,
            dst: k.dst,
            sport: k.sport,
            dport: k.dport,
        })
        .collect()
}

fn qm_enq_deq(c: &Captured) -> f64 {
    let mut qm = QmPlane::from_config(&crate::workload::qos_config(), 10)
        .expect("per_flow_qos installs the plane");
    let keys = flow_keys(c);
    let mut now = 0;
    stopwatch(keys.len(), || {
        for (i, k) in keys.iter().enumerate() {
            now += 6_720_000;
            black_box(qm.enqueue(i % 8, k, i as u32, 60, now));
            black_box(qm.dequeue(i % 8, now + 1_000_000));
        }
    })
}

fn qm_sched_pick() -> f64 {
    const FLOWS: usize = 256;
    let mut sched = WheelSched::new(FLOWS, 128);
    for f in 0..FLOWS {
        sched.mark_ready(f);
    }
    stopwatch(BATCH, || {
        for i in 0..BATCH {
            let f = sched.pick().expect("every flow stays backlogged");
            sched.on_service(f, 60 + (i % 8) as u32 * 180, 1, true);
        }
    })
}

// ---------------------------------------------------------------------
// npr-route

fn trie_lookup(table: &RoutingTable, c: &Captured) -> f64 {
    stopwatch(c.dsts.len(), || {
        for &d in &c.dsts {
            black_box(table.lookup_slow(d));
        }
    })
}

/// The fast path's own sequence: probe the cache, fall to the trie and
/// fill on a miss — on the workload's destination stream, so the hit
/// mix is the workload's.
fn lookup_and_fill(table: &mut RoutingTable, c: &Captured) -> f64 {
    stopwatch(c.dsts.len(), || {
        for &d in &c.dsts {
            if table.lookup_fast(d).is_none() {
                black_box(table.lookup_and_fill(d));
            }
        }
    })
}

fn table_update(table: &mut RoutingTable, updates: &[Route]) -> f64 {
    stopwatch(updates.len(), || {
        for u in updates {
            table.insert(u.addr, u.plen, u.next_hop);
        }
    })
}

fn classify(rules: &[ClassRule], c: &Captured) -> f64 {
    let mut ts = TupleSpace::new();
    for r in rules {
        ts.insert(*r, &VrpBudget::default())
            .expect("the router admitted the same rules");
    }
    stopwatch(c.keys.len(), || {
        for k in &c.keys {
            black_box(ts.classify(k));
        }
    })
}

// ---------------------------------------------------------------------
// npr-vrp / npr-forwarders

fn suite_programs() -> Vec<VrpProgram> {
    vec![
        npr_forwarders::syn_monitor().expect("builtin assembles"),
        npr_forwarders::wavelet_dropper().expect("builtin assembles"),
        npr_forwarders::dscp_tagger().expect("builtin assembles"),
    ]
}

fn vrp_exec(c: &Captured) -> f64 {
    // The backend every workload's router is configured with.
    let backend = RouterConfig::default().vrp_backend;
    let execs: Vec<Executable> = suite_programs()
        .into_iter()
        .map(|p| Executable::new(p, backend))
        .collect();
    let mut states: Vec<Vec<u8>> = execs
        .iter()
        .map(|e| vec![0u8; usize::from(e.prog().state_bytes)])
        .collect();
    stopwatch(c.mps.len() * execs.len(), || {
        for mp0 in &c.mps {
            for (e, st) in execs.iter().zip(states.iter_mut()) {
                let mut mp = *mp0;
                black_box(e.run(&mut mp, st).ok());
            }
        }
    })
}

fn vrp_verify_lower() -> f64 {
    let progs = suite_programs();
    let budget = VrpBudget::default();
    const ROUNDS: usize = 16;
    stopwatch(ROUNDS * progs.len(), || {
        for _ in 0..ROUNDS {
            for p in &progs {
                black_box(verify(p, &budget).ok());
                black_box(compile(p).ok());
            }
        }
    })
}

// ---------------------------------------------------------------------
// npr-packet / npr-traffic / npr-fabric

fn packet_checksum(c: &Captured) -> f64 {
    stopwatch(c.frames.len(), || {
        for f in &c.frames {
            black_box(checksum16(&f[14..34]));
        }
    })
}

fn packet_parse(c: &Captured) -> f64 {
    stopwatch(c.frames.len(), || {
        for f in &c.frames {
            let eth = EthernetFrame::parse(f).expect("captured frames are whole");
            black_box(Ipv4Header::parse(eth.payload()).ok());
        }
    })
}

fn link_admit(c: &Captured) -> f64 {
    let mut link = Link::new(SWITCH_LATENCY_PS, GIGABIT_BPS);
    let mut done = 0;
    stopwatch(c.frames.len(), || {
        for f in &c.frames {
            done += 1_000_000;
            black_box(link.transit(done, f.len()));
        }
    })
}

/// Pulls `n` frames round-robin from `sources`, timing each batch of
/// pulls; returns the frames and the median ns per `next_frame`.
pub fn pull_frames(
    sources: &mut [Box<dyn npr_ixp::TrafficSource>],
    n: usize,
) -> (Vec<Frame>, f64, usize) {
    let mut frames = Vec::with_capacity(n);
    let mut live: VecDeque<usize> = (0..sources.len()).collect();
    let mut ns = Vec::new();
    let batch = (n / samples()).max(1);
    while frames.len() < n && !live.is_empty() {
        let before = frames.len();
        let t0 = Instant::now();
        while frames.len() - before < batch {
            let Some(i) = live.pop_front() else { break };
            if let Some((_, f)) = sources[i].next_frame() {
                frames.push(f);
                live.push_back(i);
            }
        }
        let pulled = frames.len() - before;
        if pulled > 0 {
            ns.push(t0.elapsed().as_nanos() as f64 / pulled as f64);
        }
    }
    ns.sort_by(f64::total_cmp);
    let median = ns.get(ns.len() / 2).copied().unwrap_or(0.0);
    (frames, median, ns.len())
}

/// What the kernels need beyond the captured frames.
pub struct KernelInputs<'a> {
    pub captured: &'a Captured,
    /// The workload's own routing table (its size, its cache state).
    pub table: &'a mut RoutingTable,
    /// Route rebinds for the update kernel (the workload's own storm, or
    /// the port routes when it has none).
    pub updates: Vec<Route>,
    pub rules: &'a [ClassRule],
}

/// Runs every kernel and records `<layer>.<op>_ns`.
pub fn run_all(k: KernelInputs<'_>, m: &mut Metrics) {
    let c = k.captured;
    m.set("ixp.machine.step_ns", machine_step());
    m.set("ixp.mem.access_ns", mem_access());
    m.set("sim.queue.hold_ns", queue_hold());
    m.set("sim.server.admit_ns", server_admit());
    m.set("sim.delivery.barrier_ns", delivery_barrier());
    m.set("core.qm.enq_deq_ns", qm_enq_deq(c));
    m.set("core.qm_sched.pick_ns", qm_sched_pick());
    m.set("route.trie.lookup_ns", trie_lookup(k.table, c));
    m.set(
        "route.table.lookup_and_fill_ns",
        lookup_and_fill(k.table, c),
    );
    m.set("route.table.update_ns", table_update(k.table, &k.updates));
    m.set("route.classify.classify_ns", classify(k.rules, c));
    m.set("vrp.exec_ns", vrp_exec(c));
    m.set("vrp.verify_lower_ns", vrp_verify_lower());
    m.set("packet.checksum_ns", packet_checksum(c));
    m.set("packet.parse_ns", packet_parse(c));
    m.set("fabric.link.admit_ns", link_admit(c));
}

/// The `10.p.0.0/16` port routes every router carries, as update input
/// for workloads without a storm of their own.
pub fn port_routes() -> Vec<Route> {
    (0..8u8)
        .map(|p| Route {
            addr: u32::from_be_bytes([10, p, 0, 0]),
            plen: 16,
            next_hop: NextHop {
                port: p,
                mac: npr_packet::MacAddr::for_port(p),
            },
        })
        .collect()
}
