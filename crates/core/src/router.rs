//! The composition root: builds the three processor levels over one
//! event loop and hands each [`PlaneEvent`] to its handler.
//!
//! The levels themselves live elsewhere — the MicroEngine programs in
//! [`crate::input`] and [`crate::output`], the StrongARM in
//! [`crate::sa`], the Pentium in [`crate::pe`]. The control interface is in
//! [`crate::control`], measurement in [`crate::report`]. This module
//! only assembles them: construction from a [`RouterConfig`], traffic
//! attachment, and the dispatch loop.

use std::collections::HashMap;

use npr_ixp::params::{NUM_PORTS, PORT_RATES_BPS, WIRE_OVERHEAD_BYTES};
use npr_ixp::{IStore, Ixp, PortId, RingId, TrafficSource};
use npr_packet::{EthernetFrame, Ipv4Header, Ipv4Proto, MacAddr, Mp, UdpHeader};
use npr_route::NextHop;
use npr_sim::{cycles_to_ps, FaultPlan, Time, Wakeup, PS_PER_SEC};
use npr_vrp::VrpBudget;

use crate::config::{RouterConfig, TrafficTemplate};
use crate::health::HealthMonitor;
use crate::input::InputLoop;
use crate::install::{Fid, InstallRecord};
use crate::output::OutputLoop;
use crate::pci::{Pci, PE_BUFFERS};
use crate::pe::Pentium;
use crate::plane::{Bus, Chip, ControlOp, CtlStats, IxpSched, PlaneEvent, PlaneQueue, EVENT_KINDS};
use crate::queues::InputDiscipline;
use crate::report::Totals;
use crate::sa::StrongArm;
use crate::world::{RouterWorld, RunMode};

/// Milliseconds of simulated time, in picoseconds.
pub const fn ms(n: u64) -> Time {
    n * 1_000_000_000
}

/// Microseconds of simulated time, in picoseconds.
pub const fn us(n: u64) -> Time {
    n * 1_000_000
}

/// A replaying traffic source for real-port experiments.
struct RateSource {
    interval_ps: Time,
    next_at: Time,
    frame: Vec<u8>,
    remaining: u64,
}

impl TrafficSource for RateSource {
    fn next_frame(&mut self) -> Option<(Time, Vec<u8>)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let t = self.next_at;
        self.next_at += self.interval_ps;
        Some((t, self.frame.clone()))
    }
}

/// The assembled router.
pub struct Router {
    /// Configuration it was built with.
    pub cfg: RouterConfig,
    /// The IXP1200 machine.
    pub ixp: Ixp<RouterWorld>,
    /// Shared data-plane state.
    pub world: RouterWorld,
    /// StrongARM level.
    pub sa: StrongArm,
    /// Pentium level.
    pub pe: Pentium,
    /// PCI bus + I2O buffers.
    pub pci: Pci,
    /// Logical instruction-store allocator (mirrored on all input
    /// contexts).
    pub istore: IStore,
    /// Total VRP budget for the configured line rate.
    pub vrp_budget: VrpBudget,
    pub(crate) events: PlaneQueue,
    /// Events dispatched, by [`PlaneEvent::kind`]. Host-side
    /// accounting: not part of [`Router::fingerprint`].
    events_by_kind: [u64; EVENT_KINDS.len()],
    /// Coalesces same-timestamp [`PlaneEvent::SaPoll`] wakeups (many
    /// producers poke the StrongARM; one poll drains them all).
    pub(crate) sa_waker: Wakeup,
    /// Coalesces same-timestamp [`PlaneEvent::PeWake`] wakeups.
    pub(crate) pe_waker: Wakeup,
    started: bool,
    pub(crate) installs: HashMap<Fid, InstallRecord>,
    pub(crate) next_fid: Fid,
    /// Control-plane accounting (lifetime totals).
    pub(crate) ctl: CtlStats,
    /// Reserve all StrongARM capacity for bridging (admission policy).
    pub sa_reserved_for_pe: bool,
    pub(crate) mutex_ids: Vec<npr_ixp::MutexId>,
    /// [`Router::totals`] at the last [`Router::mark`] (all zero at
    /// boot): the start of the window [`Router::report`] covers.
    pub(crate) mark: Totals,
    /// The runtime health monitor (watchdog, overrun policing,
    /// quarantine, recovery). Armed by default; piggybacks on the event
    /// loop, scheduling only the wedge watchdog's `HealthPulse`.
    pub health: HealthMonitor,
}

impl Router {
    /// Builds a router from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (more than 16 input or
    /// output contexts in excess of FIFO slots is allowed — slots are
    /// shared — but zero ports is not).
    pub fn new(cfg: RouterConfig) -> Self {
        assert!(cfg.ports_in_use > 0, "need at least one port");
        let mut world = RouterWorld::new(
            cfg.mode,
            NUM_PORTS,
            cfg.queues_per_port,
            cfg.queue_cap,
            cfg.pool_bufs,
        );
        // The paper's classic 16-8-8 IPv4 trie (`RoutingTable::new`).
        world.table = npr_route::RoutingTable::new(cfg.route_cache_slots);
        world.table.set_invalidation(cfg.route_invalidation);
        if cfg.synthetic_routes > 0 {
            // Preload a BGP-like table before the port routes below, so
            // the /16 port routes win any overlap the generator drew.
            let spec = npr_route::gen::TableSpec {
                prefixes: cfg.synthetic_routes,
                seed: cfg.synthetic_route_seed,
                ports: cfg.ports_in_use as u8,
                neighbors_per_port: 4,
            };
            world.table.load(npr_route::gen::synth_table(&spec));
        }
        world.qm = crate::qm::QmPlane::from_config(&cfg, NUM_PORTS);

        // Routes: 10.p.0.0/16 -> port p.
        for p in 0..cfg.ports_in_use {
            world.table.insert(
                u32::from_be_bytes([10, p as u8, 0, 0]),
                16,
                NextHop {
                    port: p as u8,
                    mac: MacAddr::for_port(p as u8),
                },
            );
        }

        let mut ixp: Ixp<RouterWorld> = Ixp::new(cfg.chip.clone());

        // Templates for ideal-port mode: minimum-size frames.
        if cfg.chip.ideal_ports && cfg.input_ctxs > 0 {
            for p in 0..cfg.ports_in_use {
                let dst_net = match cfg.traffic {
                    TrafficTemplate::AllToOne => 0usize,
                    _ => (p + 1) % cfg.ports_in_use,
                };
                let frame = build_udp_frame(p as u8, dst_net as u8, 60);
                let dst = u32::from_be_bytes([10, dst_net as u8, 0, 1]);
                world.table.lookup_and_fill(dst);
                let mp = Mp::segment(&frame, p as u8, 0).remove(0);
                ixp.set_rx_template(p, mp);
            }
        }
        // Output-only synthesis template.
        if cfg.mode == RunMode::OutputOnly {
            let frame = build_udp_frame(0, 1, 60);
            world.out_template = Some(Mp::segment(&frame, 0, 0).remove(0));
        }

        // Token rings over interleaved context orders.
        let order = |base: usize, n: usize| -> Vec<usize> {
            if cfg.interleave_rings {
                interleave(base, n)
            } else {
                (base..base + n).collect()
            }
        };
        let input_ids: Vec<usize> = order(0, cfg.input_ctxs);
        let out_base = if cfg.input_ctxs > 0 {
            // Output contexts start on the next whole MicroEngine.
            cfg.input_ctxs.div_ceil(4) * 4
        } else {
            0
        };
        let output_ids: Vec<usize> = order(out_base, cfg.output_ctxs);
        assert!(
            out_base + cfg.output_ctxs <= npr_ixp::params::NUM_CTX,
            "context demand exceeds the 24 available"
        );

        let input_ring: RingId = if !input_ids.is_empty() {
            ixp.add_ring(input_ids.clone())
        } else {
            usize::MAX
        };
        let output_ring: RingId = if !output_ids.is_empty() {
            ixp.add_ring(output_ids.clone())
        } else {
            usize::MAX
        };

        // Queue mutexes (protected discipline).
        let mut mutex_ids = Vec::new();
        if cfg.in_discipline == InputDiscipline::ProtectedShared {
            for qid in 0..world.queue_mutex.len() {
                let m = ixp.add_mutex();
                world.queue_mutex[qid] = Some(m);
                mutex_ids.push(m);
            }
        }

        // Input programs: ring position determines the port so that the
        // contexts servicing one port sit half a rotation apart.
        for (pos, &ctx) in input_ids.iter().enumerate() {
            let port: PortId = pos % cfg.ports_in_use;
            let slot = ctx % npr_ixp::params::IN_FIFO_SLOTS;
            let prog = InputLoop::new(port, slot, input_ring, pos, &cfg);
            ixp.set_program(ctx, Box::new(prog));
        }
        // Output programs.
        for (j, &ctx) in output_ids.iter().enumerate() {
            let port: PortId = j % cfg.ports_in_use;
            let slot = j % npr_ixp::params::OUT_FIFO_SLOTS;
            let prog = OutputLoop::new(port, slot, output_ring, cfg.out_discipline, cfg.out_batch);
            ixp.set_program(ctx, Box::new(prog));
        }

        let sa = StrongArm::new(cfg.sa_interrupts, cfg.sa_synth_feed);
        let pe = Pentium::new(cfg.pe_delay_loop);
        let pci = Pci::new(PE_BUFFERS);

        Self {
            ixp,
            world,
            sa,
            pe,
            pci,
            istore: IStore::new(),
            vrp_budget: VrpBudget::default(),
            events: PlaneQueue::default(),
            events_by_kind: [0; EVENT_KINDS.len()],
            sa_waker: Wakeup::new(),
            pe_waker: Wakeup::new(),
            started: false,
            installs: HashMap::new(),
            next_fid: 1,
            ctl: CtlStats::default(),
            sa_reserved_for_pe: false,
            mutex_ids,
            mark: Totals::default(),
            health: HealthMonitor::default(),
            cfg,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.events.now()
    }

    /// Events dispatched since construction: the denominator for
    /// host-side cost per event (`simbench` reports events/sec on the
    /// golden scenario with it). Not proportional to simulated time:
    /// the rotations of an idle input ring are skipped, not dispatched
    /// ([`Router::events_skipped`] counts what they would have added).
    pub fn events_dispatched(&self) -> u64 {
        self.events_by_kind.iter().sum()
    }

    /// [`Router::events_dispatched`] split by event kind, in the order
    /// of [`EVENT_KINDS`]. Host-side accounting, outside the
    /// fingerprint.
    pub fn events_by_kind(&self) -> [u64; EVENT_KINDS.len()] {
        self.events_by_kind
    }

    /// Events the machine elided by skipping whole rotations of an idle
    /// token ring (`npr_ixp::SpinStats` has the jump and rotation
    /// counts). Host-side accounting, outside the fingerprint.
    pub fn events_skipped(&self) -> u64 {
        self.ixp.spin_stats().events
    }

    /// The oracle switch of the idle-rotation differential tests: with
    /// `false` every event is dispatched one by one.
    #[doc(hidden)]
    pub fn set_spin_enabled(&mut self, on: bool) {
        self.ixp.set_spin_enabled(on);
    }

    /// Injects a synthetic VRP padding program directly into
    /// `protocol_processing` — the paper's Figure 9/10 methodology of
    /// "adding instructions to the null VRP", which bypasses the
    /// extensible classifier and admission control. Measurement use
    /// only; services use [`Router::install`].
    pub fn set_vrp_pad(&mut self, prog: npr_vrp::VrpProgram) {
        let state = vec![0u8; usize::from(prog.state_bytes)];
        self.world.vrp_pad = Some((prog, state));
    }

    /// Installs a tuple-space 5-tuple classification rule, admitted
    /// against the router's per-packet VRP budget exactly like a
    /// forwarder: a rule whose worst-case probe sequence would blow the
    /// MicroEngine budget is refused and the table is untouched.
    pub fn install_rule(
        &mut self,
        rule: npr_route::classify::ClassRule,
    ) -> Result<(), npr_route::classify::ClassifyError> {
        self.world.classifier.bind_rule(rule, &self.vrp_budget)
    }

    /// Removes an installed classification rule by id.
    pub fn remove_rule(&mut self, id: u32) -> bool {
        self.world.classifier.unbind_rule(id)
    }

    /// Arms (or clears) the deterministic fault-injection plane. The
    /// plan's per-class xorshift streams drive every injector in the
    /// stack; a plan with all rates at zero draws nothing and leaves
    /// the schedule bit-identical to an unfaulted run.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.ixp.set_fault_plan(plan);
    }

    /// The active fault plan, if any (injection tallies live here).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.ixp.fault_plan()
    }

    /// Hands `frame` to `port`'s receive wire, its first bit at `at`
    /// or when the port's previous frame ends, and re-arms the port
    /// (fabric use: a member's uplinks are fed from outside, frame by
    /// frame, as each arrival becomes final).
    pub fn offer_frame(&mut self, port: PortId, at: Time, frame: &[u8]) {
        self.start();
        self.ixp.hw.ports[port].offer(port, at, frame);
        self.reprime_port(port);
    }

    fn reprime_port(&mut self, port: PortId) {
        let mut s = IxpSched {
            q: &mut self.events,
            epoch: 0,
        };
        self.ixp.reprime_port(port, &mut s);
    }

    /// Attaches a traffic source to a real port. Safe to call while the
    /// simulation is running (e.g. to start a second traffic phase).
    pub fn attach_source(&mut self, port: PortId, src: Box<dyn TrafficSource>) {
        self.ixp.set_source(port, src);
        if self.started {
            self.reprime_port(port);
        }
    }

    /// Attaches a constant-rate 64-byte source to `port` at `fraction`
    /// of line rate (the paper's 141 Kpps = 95% sources).
    pub fn attach_cbr(&mut self, port: PortId, fraction: f64, frames: u64, dst_net: u8) {
        let rate = PORT_RATES_BPS[port] as f64 * fraction;
        let frame = build_udp_frame(port as u8, dst_net, 60);
        let wire_bits = ((60 + WIRE_OVERHEAD_BYTES) * 8) as f64;
        let pps = rate / wire_bits;
        let interval_ps = (PS_PER_SEC as f64 / pps) as Time;
        let dst = u32::from_be_bytes([10, dst_net, 0, 1]);
        self.world.table.lookup_and_fill(dst);
        self.ixp.set_source(
            port,
            Box::new(RateSource {
                interval_ps,
                next_at: 0,
                frame,
                remaining: frames,
            }),
        );
    }

    /// Primes the port schedules and StrongARM feed (idempotent).
    /// `run_until`/`offer_frame` call this implicitly; `npr-fabric` calls
    /// it explicitly before handing members to the delivery engine,
    /// whose `next_time` probe would see an unstarted router as idle.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let Self {
            ixp, world, events, ..
        } = self;
        let mut s = IxpSched {
            q: events,
            epoch: 0,
        };
        ixp.start(world, &mut s);
        if self.cfg.sa_synth_feed.is_some() {
            let now = self.events.now();
            if self.sa_waker.request(now) {
                self.events.schedule(now, PlaneEvent::SaPoll);
            }
        }
    }

    /// Timestamp of the earliest pending event, or `None` when idle.
    /// The delivery engine's `Shard::next_time` probe — only meaningful
    /// after `start()` (an unstarted router looks idle).
    pub fn next_event_time(&self) -> Option<Time> {
        let held = self.ixp.spin_head().map(|(at, _)| at);
        [self.events.peek_time(), held].into_iter().flatten().min()
    }

    /// Pops the next event due at or before `t`: the head of the queue
    /// or the machine's privately held head (`npr_ixp`'s `spin.rs`),
    /// whichever has the smaller `(at, seq)` — the order one queue
    /// holding both would pop them in. Atomic with the deadline: an
    /// event beyond `t` is neither consumed nor allowed to advance the
    /// clock.
    fn pop_next(&mut self, t: Time) -> Option<(Time, PlaneEvent)> {
        match self.ixp.spin_head() {
            Some(held) if self.events.peek_key().is_none_or(|queued| held < queued) => {
                if held.0 > t {
                    return None;
                }
                let (at, ev) = self.ixp.spin_pop().expect("peeked entry");
                self.events.advance_to(at);
                Some((at, PlaneEvent::Machine(ev)))
            }
            _ => self.events.pop_if_at_or_before(t),
        }
    }

    /// Runs the simulation until absolute time `t` (inclusive).
    ///
    /// Always single-threaded: every event crosses the shared [`Bus`]
    /// built in `dispatch`, so one router is one sequential strand. The
    /// parallel delivery engine (`npr_sim::delivery`) therefore shards
    /// at the *router* granularity — whole chassis in a fabric, whole
    /// scenarios in a sweep — never inside one (DESIGN.md §13).
    pub fn run_until(&mut self, t: Time) {
        self.start();
        self.events.deadline = t;
        while let Some((at, ev)) = self.pop_next(t) {
            self.events_by_kind[ev.kind()] += 1;
            self.dispatch(at, ev);
            // The health monitor samples between events (crate::health
            // says when it schedules anything).
            self.health_tick(at);
        }
        self.events.deadline = 0;
    }

    /// Hands one event to its handler: one arm per [`PlaneEvent`]
    /// variant, so an event nobody handles does not compile. This is
    /// the only place the three levels meet: everything they share
    /// crosses through the [`Bus`] built here for the event.
    fn dispatch(&mut self, at: Time, ev: PlaneEvent) {
        let (sa, pe, mut bus) = self.planes();
        match ev {
            PlaneEvent::Machine(e) => bus.machine(e),
            // The one event that stops the MicroEngines lands here, not
            // through the `Bus`: no level can freeze an engine.
            PlaneEvent::CtlApply(op) => return self.apply_ctl(at, &op),
            // A coalescing waker retires before its handler runs, so the
            // handler can request the next wakeup at the same timestamp.
            PlaneEvent::SaPoll => {
                bus.sa_waker.fire(at);
                sa.poll(&mut bus);
            }
            PlaneEvent::SaDone { gen } => sa.done(gen, &mut bus),
            PlaneEvent::CtlAdmit(op) => sa.admit(*op, &mut bus),
            // The pulse exists to advance the clock to the watchdog
            // deadline; the monitor samples after the dispatch.
            PlaneEvent::HealthPulse => {}
            PlaneEvent::PeArrive(item) => pe.arrive(*item, &mut bus),
            PlaneEvent::PeWake => {
                bus.pe_waker.fire(at);
                pe.wake(&mut bus);
            }
            PlaneEvent::PeDone => pe.finish(&mut bus),
            PlaneEvent::PeWriteback { desc, head } => pe.writeback(&mut bus, desc, &head),
            PlaneEvent::CtlSubmit(op) => pe.submit(*op, &mut bus),
        }
        // An input context staged an escalated packet: one poll serves
        // however many did (the waker coalesces repeats anyway).
        if std::mem::take(&mut bus.world.wake_sa) {
            bus.wake_sa_in(0);
        }
    }

    /// Lands an admitted ME-code op in the instruction store. Writing
    /// the store "requires disabling the parallel processor" (section
    /// 4.5): every input engine mirroring it sits idle for the write
    /// window — running contexts finish their current op and stall
    /// until the thaw. The op completes when the write does, and stops
    /// bounding idle-ring jumps (`IxpSched::calm_until`). A handful of
    /// calls per run: kept out of the dispatch loop.
    #[cold]
    #[inline(never)]
    fn apply_ctl(&mut self, at: Time, op: &ControlOp) {
        let until = at + cycles_to_ps(IStore::install_cycles(op.istore_slots()));
        // Input contexts fill whole MicroEngines from engine 0.
        for me in 0..self.cfg.input_ctxs.div_ceil(4) {
            self.ixp.freeze_me(me, until);
        }
        self.ctl.complete(op, until);
        self.events.me_code_ops -= 1;
    }

    /// Splits the router into its two slow-path levels and the [`Bus`]
    /// they share: the one place a `Bus` is built.
    pub(crate) fn planes(&mut self) -> (&mut StrongArm, &mut Pentium, Bus<'_>) {
        let Self {
            ixp,
            world,
            sa,
            pe,
            pci,
            events,
            sa_waker,
            pe_waker,
            ctl,
            health,
            ..
        } = self;
        let bus = Bus {
            world,
            pci,
            chip: Chip::new(ixp),
            ctl,
            events,
            epoch: health.next_epoch,
            sa_waker,
            pe_waker,
        };
        (sa, pe, bus)
    }

    /// Arms the packet tracer for IPv4 destination `dst` (records up to
    /// `limit` steps; see [`crate::trace`]).
    pub fn trace_destination(&mut self, dst: u32, limit: usize) {
        self.world.tracer = crate::trace::Tracer::arm(dst, limit);
        self.world.traced_descs.clear();
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &crate::trace::Tracer {
        &self.world.tracer
    }
}

/// Interleaves `n` context ids starting at `base` so that consecutive
/// ring members sit on different MicroEngines (paper, section 3.2.2).
fn interleave(base: usize, n: usize) -> Vec<usize> {
    let ids: Vec<usize> = (base..base + n).collect();
    let mut out: Vec<usize> = Vec::with_capacity(n);
    for lane in 0..4 {
        for &id in &ids {
            if (id - base) % 4 == lane {
                out.push(id);
            }
        }
    }
    // With fewer than 5 contexts the lanes collapse to the identity.
    debug_assert_eq!(out.len(), n);
    out
}

/// Builds a valid minimal UDP-in-IPv4-in-Ethernet frame from source
/// network `src_net` to `10.dst_net.0.1`.
pub fn build_udp_frame(src_net: u8, dst_net: u8, len: usize) -> Vec<u8> {
    let len = len.max(60);
    let mut f = vec![0u8; len];
    EthernetFrame::write_header(
        &mut f,
        MacAddr::for_port(dst_net),
        MacAddr([0x02, 1, 1, 1, 1, src_net]),
        npr_packet::EtherType::Ipv4,
    );
    let ip = Ipv4Header {
        header_len: 20,
        dscp_ecn: 0,
        total_len: (len - 14) as u16,
        ident: 0x1234,
        flags_frag: 0x4000,
        ttl: 64,
        proto: Ipv4Proto::Udp,
        checksum: 0,
        src: u32::from_be_bytes([10, src_net, 0, 2]),
        dst: u32::from_be_bytes([10, dst_net, 0, 1]),
    };
    ip.write(&mut f[14..]);
    UdpHeader {
        src_port: 5000,
        dst_port: 5001,
        length: (len - 34) as u16,
        checksum: 0,
    }
    .write(&mut f[34..]);
    f
}

/// Parses the IPv4 destination address out of an Ethernet frame.
pub(crate) fn parse_dst(frame: &[u8]) -> Option<u32> {
    let eth = EthernetFrame::parse(frame).ok()?;
    let ip = Ipv4Header::parse(eth.payload()).ok()?;
    Some(ip.dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;

    #[test]
    fn build_udp_frame_is_fully_valid() {
        let f = build_udp_frame(2, 5, 60);
        let eth = EthernetFrame::parse(&f).unwrap();
        assert_eq!(eth.ethertype(), npr_packet::EtherType::Ipv4);
        let ip = Ipv4Header::parse(eth.payload()).unwrap();
        assert_eq!(ip.dst, u32::from_be_bytes([10, 5, 0, 1]));
        assert_eq!(ip.proto, Ipv4Proto::Udp);
        assert_eq!(parse_dst(&f), Some(ip.dst));
    }

    #[test]
    fn interleave_alternates_microengines() {
        let order = interleave(0, 16);
        // Consecutive members must sit on different MEs.
        for w in order.windows(2) {
            assert_ne!(w[0] / 4, w[1] / 4, "{order:?}");
        }
        // And it is a permutation.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn interleave_handles_partial_engines() {
        for n in [1usize, 3, 5, 7, 11] {
            let order = interleave(4, n);
            assert_eq!(order.len(), n);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (4..4 + n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn measure_windows_are_independent() {
        let mut r = Router::new(RouterConfig::table1_system());
        let first = r.measure(us(200), us(400));
        // A second measurement on the warmed system reports a fresh
        // window, not cumulative counts.
        let t0 = r.now();
        r.mark();
        r.run_until(t0 + us(400));
        let second = r.report();
        assert!(first.forward_mpps > 0.0);
        assert!(second.forward_mpps > 0.0);
        // Windows are comparable (steady state), not additive.
        let ratio = second.forward_mpps / first.forward_mpps;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn report_utilizations_are_fractions() {
        let mut r = Router::new(RouterConfig::table1_system());
        let rep = r.measure(us(200), us(400));
        for u in [rep.dram_util, rep.sram_util, rep.dma_util, rep.pci_util] {
            assert!((0.0..=1.05).contains(&u), "utilization {u}");
        }
        assert!(rep.window_ps >= us(395), "window {}", rep.window_ps);
    }

    #[test]
    fn ms_and_us_are_picoseconds() {
        assert_eq!(ms(1), 1_000_000_000);
        assert_eq!(us(1), 1_000_000);
        assert_eq!(ms(1), us(1000));
    }

    #[test]
    fn run_until_is_idempotent_at_the_same_time() {
        let mut r = Router::new(RouterConfig::table1_system());
        r.run_until(us(100));
        let pkts = r.world.counters.input_pkts.total();
        r.run_until(us(100));
        assert_eq!(r.world.counters.input_pkts.total(), pkts);
    }
}
