//! The fabric proper: N member routers wired by a [`Topology`], with
//! inter-chassis links as modeled servers.
//!
//! Each member is a full [`Router`] whose gigabit ports `8..8+u` are
//! the internal uplinks, wrapped in a [`MemberShard`] — the unit of
//! parallelism for `npr_sim::delivery`. [`Fabric::run_lockstep`] is
//! the one way to move a fabric through time: the epoch grid is the
//! link latency (the minimum cross-chassis latency, hence a safe
//! lookahead), members advance concurrently under a chosen thread
//! count, and cross-shard frames are merged deterministically on
//! `(arrival, source, emission)`, so every thread count is
//! bit-identical to the single-threaded oracle (DESIGN.md §13).
//!
//! A shard shares nothing: it owns its router, the inboxes of its
//! uplink ports and its half of the switch, and the engine lends it to
//! one worker at a time. The outcome does not depend on where the
//! barriers fall either, so a run may be cut at any instant: a port is
//! handed the frames bound for it in `(arrival, source)` order, and
//! only once that order is final (see [`FabricPort::inbox`]).
//!
//! A member's *generation* counts its incarnations.
//! [`Fabric::rejoin_chassis`] bumps it between two lock-step runs and
//! fences what the old incarnation had not yet received: frames in its
//! inboxes and frames on an uplink wire none of whose MPs had arrived
//! — counted, never delivered. Delivery happens only inside a run, so
//! nothing addressed to the old incarnation can arrive after the fence.

use std::collections::{HashMap, VecDeque};

use npr_core::{Router, RouterConfig};
use npr_packet::{EthernetFrame, Frame, Ipv4Header, MacAddr, Mp};
use npr_route::NextHop;
use npr_sim::{run_threads, EngineStats, Outbox, Shard, Time};

use crate::topology::{
    FabricConfig, Steer, Topology, Wire, REASSEMBLY_AGE_PS, SWITCH_LATENCY_PS, UPLINK_PORT,
};
use crate::Link;

/// One frame on its way to a member port.
pub(crate) struct Arrival {
    /// When its first bit reaches the port.
    at: Time,
    /// The member that sent it.
    src: usize,
    frame: Frame,
}

/// One member fabric port: the physical port, where its wire leads,
/// the modeled link it transmits onto, and the inbox frames arrive in.
pub(crate) struct FabricPort {
    /// Physical port index (`UPLINK_PORT + fabric-port index`).
    pub(crate) port: usize,
    pub(crate) wire: Wire,
    pub(crate) link: Link,
    /// Frames switched toward this member and not yet handed to the
    /// port, by `(arrival, source)`, first in first out within a key.
    ///
    /// Barriers deliver frames in emission order, not arrival order (a
    /// frame held up on a busy link lands after one sent later on an
    /// idle one), so what sits here at an instant depends on where the
    /// barriers fell. What leaves does not: once every member has
    /// advanced to barrier `b`, anything still unsent arrives after
    /// `b` plus the link latency, so the flush at `b` hands the port
    /// every arrival up to there, in its final order.
    pub(crate) inbox: VecDeque<Arrival>,
}

/// One chassis as a delivery shard: the router, its fabric ports, and
/// the switch-side state that belongs to this member (reassembly of
/// *its* transmitted MPs, its share of the switch counters).
pub struct MemberShard {
    pub(crate) router: Router,
    /// This member's index.
    pub(crate) k: usize,
    /// Total member count (for subnet ownership routing).
    pub(crate) n: usize,
    pub(crate) ports: Vec<FabricPort>,
    /// Current incarnation; bumped by [`Fabric::rejoin_chassis`].
    pub(crate) generation: u64,
    /// Frames earlier incarnations had not received (in an inbox, or
    /// whole on an uplink wire), fenced by [`Fabric::rejoin_chassis`].
    pub(crate) fenced: u64,
    /// Partial frames being reassembled from captured uplink MPs,
    /// keyed by (fabric-port index, frame id); the `Time` is the last
    /// MP's completion, for age-out.
    pub(crate) partial: HashMap<(usize, u64), (Time, Vec<Mp>)>,
    /// Frames abandoned mid-reassembly (closing MP never arrived —
    /// e.g. a corrupted position tag carried through cut-through).
    pub(crate) assembly_drops: u64,
    /// Frames this member pushed through the fabric.
    pub(crate) switched: u64,
    /// Frames from this member that no one owns.
    pub(crate) switch_drops: u64,
    /// Frames this incarnation's flushes handed to its uplink ports.
    pub(crate) handed: u64,
    /// Fabric-port rx/tx, external tx and member-drop totals of
    /// previous incarnations (a re-join rebuilds the router and zeroes
    /// its counters; the ledgers carry them forward).
    pub(crate) rx_carry: u64,
    pub(crate) tx_carry: u64,
    pub(crate) ext_tx_carry: u64,
    pub(crate) drop_carry: u64,
    /// The resident route-updater, installed lazily on first re-steer.
    pub(crate) updater: Option<npr_core::Fid>,
}

impl MemberShard {
    /// Drains this member's captured uplink MPs (in place: each
    /// capture keeps its capacity for the next epoch), reassembles
    /// complete frames, routes them per-wire, and carries them across
    /// the link model: sends every switchable frame to its destination
    /// member through `out`, counting unroutable ones as switch drops
    /// and down-link ones in the link's own ledger.
    /// `now` drives the reassembly age-out: an entry untouched for
    /// [`REASSEMBLY_AGE_PS`] is abandoned and counted, so a frame whose
    /// closing MP never arrives (a corrupted position tag carried
    /// through cut-through) can't pin switch state forever.
    fn collect_switched(&mut self, now: Time, out: &mut Outbox<<Self as Shard>::Msg>) {
        for ix in 0..self.ports.len() {
            let port = self.ports[ix].port;
            let mut cap = self.router.ixp.hw.ports[port]
                .tx_capture
                .take()
                .unwrap_or_default();
            for (done, mp) in cap.drain(..) {
                let fid = mp.frame_id;
                let ends = mp.tag.ends_packet();
                let entry = self.partial.entry((ix, fid)).or_insert((done, Vec::new()));
                entry.0 = done;
                entry.1.push(mp);
                if !ends {
                    continue;
                }
                let (_, mps) = self.partial.remove(&(ix, fid)).expect("entry just touched");
                let frame = Mp::reassemble(&mps);
                let (dest, dest_port_ix) = match self.ports[ix].wire {
                    Wire::Switch { port_ix } => match owner_of(&frame, self.n) {
                        Some(dest) if dest != self.k => (dest, port_ix),
                        _ => {
                            self.switch_drops += 1;
                            continue;
                        }
                    },
                    Wire::Point { dest, dest_port_ix } => (dest, dest_port_ix),
                };
                if let Some(at) = self.ports[ix].link.transit(done, frame.len()) {
                    out.send(dest, at, (dest_port_ix, self.k, frame));
                    self.switched += 1;
                }
            }
            self.router.ixp.hw.ports[port].tx_capture = Some(cap);
        }
        let before = self.partial.len();
        self.partial.retain(|_, (touched, _)| *touched + REASSEMBLY_AGE_PS > now);
        self.assembly_drops += (before - self.partial.len()) as u64;
    }

    /// Frames switched toward this member that it has not received:
    /// in an inbox, or handed to an uplink port with none of their MPs
    /// off the wire yet.
    pub(crate) fn queued(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| (p.inbox.len() + self.router.ixp.hw.ports[p.port].on_wire().1) as u64)
            .sum()
    }

    /// Nothing on its way into the router: no frame in an inbox, no MP
    /// pending on an uplink wire, and every MP a port received has been
    /// through the input loop (none waits in a receive buffer or sits
    /// in an input context short of admission). Ideal ports make MPs
    /// without receiving them, hence `<=`; such a member never idles.
    pub(crate) fn inbound_idle(&self) -> bool {
        let ports = &self.router.ixp.hw.ports;
        let received: u64 = ports.iter().map(|p| p.rx_mps).sum();
        self.ports
            .iter()
            .all(|p| p.inbox.is_empty() && ports[p.port].on_wire().0 == 0)
            && received <= self.router.world.counters.input_mps.total()
    }

    pub(crate) fn link_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.link.drops).sum()
    }

    /// Frames received off the fabric, across incarnations: every frame
    /// handed to an uplink port, less those still whole on its wire.
    pub(crate) fn fabric_rx(&self) -> u64 {
        let waiting: usize = self
            .ports
            .iter()
            .map(|p| self.router.ixp.hw.ports[p.port].on_wire().1)
            .sum();
        self.rx_carry + self.handed - waiting as u64
    }

    pub(crate) fn fabric_tx(&self) -> u64 {
        self.tx_carry
            + self
                .ports
                .iter()
                .map(|p| self.router.ixp.hw.ports[p.port].tx_frames)
                .sum::<u64>()
    }

    /// Frames transmitted on external ports, across incarnations.
    pub(crate) fn external_tx(&self) -> u64 {
        let live = &self.router.ixp.hw.ports[..8];
        self.ext_tx_carry + live.iter().map(|p| p.tx_frames).sum::<u64>()
    }

    /// The member router's drops, across incarnations (see
    /// [`Fabric::total_drops`]).
    pub(crate) fn member_drops(&self) -> u64 {
        let r = &self.router;
        let c = &r.world.counters;
        self.drop_carry
            + r.conservation().drops()
            + c.validation_drops.total()
            + c.vrp_drops.total()
            + c.input_lap_drops.total()
            + r.ixp
                .hw
                .ports
                .iter()
                .map(|p| p.rx_frames_dropped)
                .sum::<u64>()
    }
}

impl Shard for MemberShard {
    /// `(receiving fabric-port index, sending member, frame)`.
    type Msg = (usize, usize, Frame);

    /// The router's next event, or the instant the next held-back
    /// arrival settles (one lookahead before it lands) if that comes
    /// first: with every member idle, nothing else would bring the
    /// barrier that hands it to its port in time.
    fn next_time(&self) -> Option<Time> {
        let settles = self
            .ports
            .iter()
            .filter_map(|p| Some(p.inbox.front()?.at - SWITCH_LATENCY_PS));
        self.router
            .next_event_time()
            .into_iter()
            .chain(settles)
            .min()
    }

    fn advance(&mut self, horizon: Time, out: &mut Outbox<Self::Msg>) {
        self.router.run_until(horizon);
        self.collect_switched(horizon, out);
    }

    /// Files the frame in its port's inbox.
    fn deliver(&mut self, at: Time, (ix, src, frame): Self::Msg) {
        let inbox = &mut self.ports[ix].inbox;
        let after = inbox.partition_point(|a| (a.at, a.src) <= (at, src));
        inbox.insert(after, Arrival { at, src, frame });
    }

    /// Every member has reached `horizon` and its frames are in:
    /// arrivals up to one link latency past it are settled. Hands them
    /// to the ports; what stays in an inbox arrives later, and so does
    /// every frame a later barrier delivers.
    fn flush(&mut self, horizon: Time) {
        let settled = horizon + SWITCH_LATENCY_PS;
        for p in &mut self.ports {
            while p.inbox.front().is_some_and(|a| a.at <= settled) {
                let a = p.inbox.pop_front().expect("head checked");
                self.router.offer_frame(p.port, a.at, &a.frame);
                self.handed += 1;
            }
        }
    }
}

/// Which member of an `n`-member fabric owns a frame's destination
/// subnet. Member `k` owns `10.(k*8 + p).0.0/16` for its eight
/// external ports `p`.
pub fn owner_of(frame: &[u8], n: usize) -> Option<usize> {
    let eth = EthernetFrame::parse(frame).ok()?;
    let ip = Ipv4Header::parse(eth.payload()).ok()?;
    let b = ip.dst.to_be_bytes();
    if b[0] != 10 {
        return None;
    }
    let owner = usize::from(b[1]) / 8;
    (owner < n).then_some(owner)
}

/// A multi-chassis router fabric.
pub struct Fabric {
    pub(crate) topology: Topology,
    pub(crate) cfgs: Vec<RouterConfig>,
    pub(crate) link_capacity_bps: u64,
    pub(crate) shards: Vec<MemberShard>,
    pub(crate) clock: Time,
    /// The member currently administratively drained, if any.
    pub(crate) drained: Option<usize>,
    /// Shadow of the fabric-programmed routes: `routes[k][net]` is the
    /// port member `k` currently steers `10.net/16` to (`None` =
    /// removed). Re-steering diffs against this so only real changes
    /// ride the control path.
    pub(crate) routes: Vec<Vec<Option<u8>>>,
    /// Replayable per-member provisioning (installs, rules); re-applied
    /// through a fresh incarnation's control path on re-join.
    pub(crate) provision: Vec<Option<Box<dyn Fn(&mut Router) + Send>>>,
    /// Route updates applied via the simulated control path.
    pub(crate) resteer_ops: u64,
    /// Measurement mark (see [`Fabric::mark`]).
    pub(crate) mark_clock: Time,
    pub(crate) mark_external_tx: u64,
}

impl Fabric {
    /// Builds a fabric from config-driven wiring. Member `k` owns the
    /// subnets `10.(k*8 + p).0.0/16` for its eight external ports `p`;
    /// every foreign subnet routes onto the fabric per the topology's
    /// steering.
    pub fn new(cfg: FabricConfig) -> Self {
        let n = cfg.members.len();
        let fports = cfg.topology.fabric_ports(n);
        let mut fabric = Self {
            topology: cfg.topology,
            cfgs: cfg.members,
            link_capacity_bps: cfg.link_capacity_bps,
            shards: Vec::new(),
            clock: 0,
            drained: None,
            routes: vec![vec![None; n * 8]; n],
            provision: (0..n).map(|_| None).collect(),
            resteer_ops: 0,
            mark_clock: 0,
            mark_external_tx: 0,
        };
        for k in 0..n {
            let (router, routes) = fabric.boot_member(k, n, &fports);
            fabric.routes[k] = routes;
            fabric.shards.push(MemberShard {
                router,
                k,
                n,
                ports: fports
                    .iter()
                    .map(|&ix| FabricPort {
                        port: UPLINK_PORT + ix,
                        wire: fabric.topology.wire(k, ix, n),
                        link: Link::new(SWITCH_LATENCY_PS, fabric.link_capacity_bps),
                        inbox: VecDeque::new(),
                    })
                    .collect(),
                generation: 0,
                fenced: 0,
                partial: HashMap::new(),
                switched: 0,
                switch_drops: 0,
                assembly_drops: 0,
                handed: 0,
                rx_carry: 0,
                tx_carry: 0,
                ext_tx_carry: 0,
                drop_carry: 0,
                updater: None,
            });
        }
        fabric
    }

    /// The paper's sketch: `n` members behind one ideal gigabit
    /// switch.
    pub fn single_switch(n: usize, base: RouterConfig) -> Self {
        Self::new(FabricConfig::single_switch(n, base))
    }

    /// Boots one member router: RI capacity budgeted for the internal
    /// links, fabric routes programmed per the topology's *current*
    /// steering (all links up at first boot; the live view on
    /// re-join) and uplink tx captured; the shard hands the uplinks
    /// their frames. Returns the router and its programmed route
    /// shadow. Used both at construction and by
    /// [`Fabric::rejoin_chassis`] (same boot path, fresh incarnation).
    pub(crate) fn boot_member(
        &self,
        k: usize,
        n: usize,
        fports: &[usize],
    ) -> (Router, Vec<Option<u8>>) {
        let mut cfg = self.cfgs[k].clone();
        if !fports.is_empty() {
            // The uplinks are extra serviced ports: they take input
            // capacity from the rotation (the paper's point about
            // budgeting RI capacity for the internal link) and need
            // their own output contexts; one uplink yields the
            // pre-refactor 3-ME/2.25-ME split (12 in, 9 out).
            cfg.ports_in_use = 8 + fports.len();
            cfg.input_ctxs = 12;
            cfg.output_ctxs = 8 + fports.len();
        }
        let mut r = Router::new(cfg);
        // Replace the default routes with fabric-wide ones.
        let mut routes = vec![None; n * 8];
        for net in 0..(n * 8) as u8 {
            let owner = usize::from(net) / 8;
            let port = match self.steer(k, owner) {
                Steer::Local => Some((usize::from(net) % 8) as u8),
                Steer::Port(ix) => Some((UPLINK_PORT + fports[ix]) as u8),
                Steer::Unreachable => None,
            };
            if let Some(port) = port {
                r.world.table.insert(
                    u32::from_be_bytes([10, net, 0, 0]),
                    16,
                    NextHop {
                        port,
                        mac: MacAddr::for_port(port),
                    },
                );
            }
            routes[usize::from(net)] = port;
        }
        // Capture uplink transmissions for the fabric.
        for &ix in fports {
            r.ixp.hw.ports[UPLINK_PORT + ix].tx_capture = Some(Vec::new());
        }
        (r, routes)
    }

    /// The current steering decision for member `k` toward member `j`,
    /// under live link state and any active drain.
    pub(crate) fn steer(&self, k: usize, j: usize) -> Steer {
        let n = self.cfgs.len();
        let shards = &self.shards;
        let up = move |m: usize, ix: usize| {
            // During construction the shard vector is still growing;
            // unbuilt members have every link up.
            shards.get(m).is_none_or(|s| s.ports[ix].link.up)
        };
        self.topology.steer(k, j, n, &up, self.drained)
    }

    /// Number of member routers.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the fabric has no members.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The wiring this fabric was built with.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Member router `k`.
    pub fn member(&self, k: usize) -> &Router {
        &self.shards[k].router
    }

    /// Member router `k`, mutably (attach sources, inspect state).
    pub fn member_mut(&mut self, k: usize) -> &mut Router {
        &mut self.shards[k].router
    }

    /// Iterates the member routers.
    pub fn members(&self) -> impl Iterator<Item = &Router> {
        self.shards.iter().map(|s| &s.router)
    }

    /// Frames switched between members.
    pub fn switched(&self) -> u64 {
        self.shards.iter().map(|s| s.switched).sum()
    }

    /// Frames that arrived at the switch with no owning member.
    pub fn switch_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.switch_drops).sum()
    }

    /// Frames dropped on down inter-chassis links.
    pub fn link_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.link_drops()).sum()
    }

    /// Stale-generation frames fenced at re-joined members' queues.
    pub fn fenced_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.fenced).sum()
    }

    /// Uplink frames abandoned mid-reassembly by the switch-layer
    /// age-out.
    pub fn assembly_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.assembly_drops).sum()
    }

    /// Frames switched toward members and not yet received: in fabric
    /// inboxes, or whole on an uplink wire.
    pub fn queued_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.queued()).sum()
    }

    /// Member `k`'s link on fabric port `ix` (stats, up/down state).
    pub fn link(&self, k: usize, ix: usize) -> &Link {
        &self.shards[k].ports[ix].link
    }

    /// Runs the whole fabric until `t` under the conservative parallel
    /// engine (`npr_sim::run_threads`): epoch grid = the link latency
    /// (the cross-chassis lookahead; serialization on a finite-capacity
    /// link only pushes arrivals later). `threads` ≤ 1 is the lock-step
    /// sequential oracle; a larger count advances the members on up to
    /// that many threads, whose workers live for this one call.
    ///
    /// Bit-identical at every thread count, and however the span up to
    /// `t` is cut into calls (each call ends in a barrier at its `t`) —
    /// gated by the fabric differential and slicing suites.
    pub fn run_lockstep(&mut self, t: Time, threads: usize) -> EngineStats {
        for s in &mut self.shards {
            // The engine polls `next_time` before any shard advances;
            // an unstarted router would look idle and end the run.
            s.router.start();
        }
        let stats = run_threads(threads, &mut self.shards, SWITCH_LATENCY_PS, t);
        self.clock = self.clock.max(t);
        stats
    }

    /// MPs captured from member `k`'s uplinks that still await the rest
    /// of their frame (reassembly state spans epoch boundaries).
    pub fn pending_uplink_mps(&self, k: usize) -> usize {
        self.shards[k].partial.values().map(|(_, v)| v.len()).sum()
    }

    /// Total frames transmitted on external ports across all members
    /// and all their incarnations.
    pub fn external_tx(&self) -> u64 {
        self.shards.iter().map(|s| s.external_tx()).sum()
    }

    /// Total drops anywhere in the fabric, across incarnations: the
    /// switch layer's (fenced frames included), and each member's
    /// ledger drops (queue and flow-queue, escalation, no-route, lap,
    /// forwarder, truncation) plus the ones before admission (port rx,
    /// validation, VRP, input lap).
    pub fn total_drops(&self) -> u64 {
        self.switch_drops()
            + self.link_drops()
            + self.fenced_drops()
            + self.assembly_drops()
            + self.shards.iter().map(|s| s.member_drops()).sum::<u64>()
    }

    /// FNV-fold of every member's [`Router::fingerprint`] plus the
    /// fabric-level switch counters — the one-number equality the
    /// parallel differential suite compares across thread counts. The
    /// fold is exactly the pre-refactor one while the new machinery is
    /// idle (no link drops, no fences, first incarnations), so the
    /// single-switch pins survive the refactor; once any of it engages,
    /// its counters join the fold.
    pub fn fingerprint(&self) -> u64 {
        let mut h = npr_check::rng::Fnv1a::new();
        let mut mix = |v: u64| h.write_u64(v);
        for s in &self.shards {
            mix(s.router.fingerprint());
            mix(s.switched);
            mix(s.switch_drops);
            mix(s.partial.values().map(|(_, v)| v.len() as u64).sum());
            let link_drops = s.link_drops();
            if link_drops | s.fenced | s.generation | s.assembly_drops != 0 {
                mix(link_drops);
                mix(s.fenced);
                mix(s.generation);
                mix(s.assembly_drops);
            }
        }
        h.finish()
    }
}
