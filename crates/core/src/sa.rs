//! The StrongARM level (paper, sections 3.6 / 4.1).
//!
//! The StrongARM runs a minimal OS that (1) acts as a bridge forwarding
//! packets to the Pentium, and (2) supports a small collection of local
//! forwarders — including the route-cache miss handler that runs the
//! full prefix match. Pentium-bound packets have priority over local
//! work ("we currently implement a simple priority scheme that gives
//! packets being passed up to the Pentium precedence over packets that
//! are to be processed locally"), and cross the bus in proportion to
//! their forwarders' tickets ([`PeStaging`]). Control operations
//! arriving over the bus ([`PlaneEvent::CtlAdmit`]) take precedence
//! over everything: they are rare, and bounding their latency is what
//! makes the operator interface usable.
//!
//! [`StrongArm`] is this level: it owns the job state and jump table,
//! and `Router::dispatch` hands it its [`PlaneEvent`]s (`SaPoll`,
//! `SaDone`, `CtlAdmit`) with the shared [`Bus`].

use std::collections::VecDeque;

use npr_packet::BufferHandle;
use npr_sim::{cycles_to_ps, FaultClass, Time};

use crate::classify::FlowKey;
use crate::costs::{
    CTL_DESC_BYTES, CTL_SA_CYCLES, SA_BRIDGE_BASE, SA_BRIDGE_PER_EXTRA_MP, SA_INTERRUPT_OVERHEAD,
    SA_LOCAL_BASE, SA_LOOKUP_PER_LEVEL,
};
use crate::health::Policer;
use crate::pci::ROUTING_HEADER_BYTES;
use crate::pe::PeItem;
use crate::plane::{Bus, ControlOp, PlaneEvent};
use crate::queues::PacketQueue;
use crate::router::build_udp_frame;
use crate::sched::Stride;
use crate::world::{PktMeta, RouterWorld};

/// Shortest injected wedge hang (`FaultClass::SaWedge`), in
/// picoseconds. Chosen far above any legitimate job (the costliest
/// bridge is ~25 us) and far above the default watchdog detection bound
/// (4 epochs x 50 us = 200 us), so a wedge is always caught mid-hang.
pub const SA_WEDGE_MIN_PS: Time = 500_000_000;

/// Spread of the injected hang above [`SA_WEDGE_MIN_PS`] (uniform).
pub const SA_WEDGE_SPREAD_PS: Time = 500_000_000;

/// Retry interval for escalated packets whose MPs have not all landed
/// in DRAM yet: 6 us — roughly one 64-byte MP wire time at 100 Mbps, so
/// one retry usually suffices for a frame whose tail is still arriving.
pub const SA_DEFER_INTERVAL_PS: Time = 6_000_000;

/// Deferral bound before the StrongARM declares a never-assembling
/// escalated packet dead: 64 retries x the 6 us interval ~ 384 us — far
/// past any legitimate assembly time, so live packets are never hit.
pub const SA_MAX_DEFERRALS: u16 = 64;

/// The bridge moves only a packet's head and routing header across PCI
/// (section 3.7's lazy body retrieval).
const BRIDGE_LAZY: bool = true;

/// Table 4's synthetic feed moves each packet whole, as the paper's
/// measurement loop does.
const SYNTH_BRIDGE_LAZY: bool = false;

/// Bytes one transfer of a `len`-byte packet puts on the bus, either
/// way across the bridge.
pub(crate) fn bridge_bytes(len: usize, lazy: bool) -> usize {
    (if lazy { 64 } else { len }) + ROUTING_HEADER_BYTES
}

/// Signature of a StrongARM-local packet transformation: owned bytes
/// (resizable) + metadata; `false` drops the packet.
pub type SaPacketFn = Box<dyn FnMut(&mut Vec<u8>, &mut PktMeta) -> bool + Send>;

/// A StrongARM-local forwarder: a jump-table entry. The forwarder owns
/// the packet bytes for the duration of the call and may grow or shrink
/// them (ICMP replies replace the offending packet wholesale).
pub struct SaForwarder {
    /// Name for reports.
    pub name: String,
    /// Cycles at 200 MHz this forwarder costs per packet.
    pub cycles: u64,
    /// The packet transformation. Returns `false` to drop.
    pub f: SaPacketFn,
}

impl std::fmt::Debug for SaForwarder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaForwarder")
            .field("name", &self.name)
            .field("cycles", &self.cycles)
            .finish()
    }
}

/// Tickets of the null forwarder's staging queue (diverted packets and
/// Pentium-bound packets no installed forwarder claims).
const NULL_PE_TICKETS: u64 = 100;

/// Capacity of each Pentium-bound staging queue, in packets.
const PE_STAGE_CAP: usize = 512;

/// Pentium-bound packets staged at the StrongARM: queue 0 holds the
/// null forwarder's, queue `i + 1` those of Pentium forwarder `i`. When
/// an I2O buffer is free, a stride share over the forwarders' declared
/// tickets picks the queue whose head crosses the bus, one stride per
/// bridged packet; this is the one place the Pentium is shared.
#[derive(Debug)]
pub struct PeStaging {
    pub(crate) queues: Vec<PacketQueue<(u32, u32)>>,
    pub(crate) share: Stride,
}

impl Default for PeStaging {
    fn default() -> Self {
        let mut s = Self {
            queues: Vec::new(),
            share: Stride::new(),
        };
        s.add(NULL_PE_TICKETS);
        s
    }
}

impl PeStaging {
    /// Opens the staging queue of the next installed Pentium forwarder,
    /// weighted by its (non-zero) tickets.
    pub(crate) fn add(&mut self, tickets: u64) {
        self.queues.push(PacketQueue::new(PE_STAGE_CAP));
        self.share.add_flow(tickets);
    }

    /// Stages escalated packet `desc` for Pentium jump-table entry
    /// `fwdr` (`u32::MAX` = null); `false` when its queue overflowed.
    pub(crate) fn enqueue(&mut self, desc: u32, fwdr: u32) -> bool {
        // The null forwarder, `u32::MAX`, wraps to queue 0.
        self.queues[fwdr.wrapping_add(1) as usize].enqueue((desc, fwdr))
    }

    /// The staging queues, null forwarder's first.
    pub fn queues(&self) -> &[PacketQueue<(u32, u32)>] {
        &self.queues
    }
}

/// The job the StrongARM is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaJob {
    /// Bridging a packet toward the Pentium.
    Bridge {
        /// Queue descriptor.
        desc: u32,
        /// The staging queue it left, where a soft reset returns it.
        queue: usize,
        /// Pentium forwarder index (`u32::MAX` = null).
        fwdr: u32,
    },
    /// Running a local forwarder.
    Local {
        /// Queue descriptor.
        desc: u32,
        /// Local jump-table index (`u32::MAX` = null).
        fwdr: u32,
    },
    /// Resolving a route-cache miss via the trie.
    Miss {
        /// Queue descriptor.
        desc: u32,
    },
    /// Synthetic feed for the Table 4 experiment: the StrongARM
    /// manufactures a packet of `len` bytes and bridges it.
    SynthBridge {
        /// Frame length.
        len: usize,
    },
    /// Executing a control operation that crossed the bus.
    Control(ControlOp),
}

/// StrongARM state.
#[derive(Debug, Default)]
pub struct StrongArm {
    /// Currently executing job (None = idle).
    pub job: Option<SaJob>,
    /// Use interrupts instead of polling (slower; section 3.6).
    use_interrupts: bool,
    /// Local forwarder jump table.
    pub forwarders: Vec<SaForwarder>,
    /// Synthetic feed's frame length; `None` = disabled.
    synth_feed: Option<usize>,
    /// Busy picoseconds (for spare-cycle accounting).
    pub busy_ps: Time,
    /// Packets completed (any packet job kind; control ops are counted
    /// in [`crate::plane::CtlStats`] instead).
    pub done: u64,
    /// Control operations awaiting execution (served before packets).
    pub ctl_q: VecDeque<ControlOp>,
    /// Jobs finished since construction (packets *and* control ops) —
    /// the health monitor's progress signal: a held `job` with no
    /// `jobs_finished` movement across epochs is a wedge.
    pub jobs_finished: u64,
    /// Reset generation. Bumped by [`StrongArm::soft_reset`] so stale
    /// `SaDone` completions from the pre-reset job are ignored.
    pub gen: u64,
    /// Completion time of the current job (busy-time rollback on reset).
    pub job_done_at: Time,
    /// Runtime-budget policing of the local forwarders: the overrun
    /// fault hook, attempted-cost accounting and the throttle rung.
    pub policer: Policer,
}

impl StrongArm {
    /// Creates an idle StrongARM that takes interrupts instead of
    /// polling when `use_interrupts`, and manufactures packets of
    /// `synth_feed` bytes for the Pentium when that is set
    /// (`RouterConfig::{sa_interrupts, sa_synth_feed}`).
    pub fn new(use_interrupts: bool, synth_feed: Option<usize>) -> Self {
        Self {
            use_interrupts,
            synth_feed,
            ..Self::default()
        }
    }

    /// Declared per-packet cost of jump-table entry `fwdr` (0 for the
    /// null forwarder).
    fn declared(&self, fwdr: u32) -> u64 {
        self.forwarders.get(fwdr as usize).map_or(0, |f| f.cycles)
    }

    /// Cycles to bridge a packet of `mps` MPs toward the Pentium.
    pub fn bridge_cycles(&self, mps: u8, lazy: bool) -> u64 {
        let extra = if lazy {
            0
        } else {
            u64::from(mps.saturating_sub(1))
        };
        let base = SA_BRIDGE_BASE + extra * SA_BRIDGE_PER_EXTRA_MP;
        let intr = if self.use_interrupts {
            SA_INTERRUPT_OVERHEAD
        } else {
            0
        };
        base + intr
    }

    /// Cycles for a local job running jump-table entry `fwdr`.
    pub fn local_cycles(&self, fwdr: u32) -> u64 {
        let f = self.declared(fwdr);
        let intr = if self.use_interrupts {
            SA_INTERRUPT_OVERHEAD
        } else {
            0
        };
        SA_LOCAL_BASE + f + intr
    }

    /// Cycles for a route-miss job touching `levels` trie levels.
    pub fn miss_cycles(&self, levels: u32) -> u64 {
        SA_LOCAL_BASE + u64::from(levels) * SA_LOOKUP_PER_LEVEL
    }
}

/// True when the packet's MPs are all in DRAM (the StrongARM must not
/// act on a frame whose tail is still arriving on the wire; the paper
/// retrieves bodies lazily for the same reason).
fn assembled(world: &RouterWorld, desc: u32) -> bool {
    let h = BufferHandle::from_descriptor(desc);
    let m = world.meta_of(h);
    m.mps_total != 0 && m.mps_written >= m.mps_total
}

/// The packet's IPv4 destination (`None` for a frame without one), or
/// `Err(Lapped)` once its buffer was reused.
fn dst_of(world: &mut RouterWorld, h: BufferHandle) -> Result<Option<u32>, Lapped> {
    world
        .pool
        .read(h)
        .map(crate::router::parse_dst)
        .ok_or(Lapped)
}

/// A packet's buffer was reused while the packet waited: its bytes and
/// metadata now belong to another packet.
struct Lapped;

impl StrongArm {
    /// Holds back an escalated packet whose MPs are not all in DRAM:
    /// re-queues `entry` on `q` and retries after
    /// [`SA_DEFER_INTERVAL_PS`] — unless its assembly was aborted
    /// (truncated frame) or it has been deferred past the liveness
    /// bound. Then the packet is declared dead and `true` is returned:
    /// its terminal drop is counted here, exactly once.
    fn defer<T>(
        bus: &mut Bus<'_>,
        q: impl FnOnce(&mut RouterWorld) -> &mut PacketQueue<T>,
        desc: u32,
        entry: T,
    ) -> bool {
        let meta = bus.world.meta_mut(BufferHandle::from_descriptor(desc));
        meta.deferrals += 1;
        if meta.aborted || meta.deferrals > SA_MAX_DEFERRALS {
            bus.world.counters.truncated_drops.inc();
            return true;
        }
        q(bus.world).enqueue(entry);
        bus.wake_sa_in(SA_DEFER_INTERVAL_PS);
        false
    }

    /// [`PlaneEvent::SaPoll`]: starts the most urgent job when idle.
    pub(crate) fn poll(&mut self, bus: &mut Bus<'_>) {
        if self.job.is_some() {
            return;
        }
        let now = bus.now();
        // Priority 0: control operations (rare; latency-bounded).
        if let Some(op) = self.ctl_q.pop_front() {
            let cycles = CTL_SA_CYCLES;
            bus.ctl.sa_cycles += cycles;
            self.begin_job(bus, SaJob::Control(op), cycles, now);
            return;
        }
        // Priority 1: Pentium-bound staging, shared by tickets. Without
        // a free I2O buffer, or with an unassembled head, try local work.
        let pe_q = &bus.world.sa_pe_q;
        if let Some(queue) = pe_q.share.peek(|q| !pe_q.queues[q].is_empty()) {
            if bus.pci.claim_buffer() {
                let (desc, fwdr) = bus.world.sa_pe_q.queues[queue]
                    .dequeue()
                    .expect("non-empty");
                if assembled(bus.world, desc) {
                    bus.world.sa_pe_q.share.charge(queue);
                    let h = BufferHandle::from_descriptor(desc);
                    let mps = bus.world.meta_of(h).mps_total.max(1);
                    let cycles = self.bridge_cycles(mps, BRIDGE_LAZY);
                    self.begin_job(bus, SaJob::Bridge { desc, queue, fwdr }, cycles, now);
                    return;
                }
                bus.pci.release_buffer();
                Self::defer(bus, |w| &mut w.sa_pe_q.queues[queue], desc, (desc, fwdr));
            }
        }
        // Priority 2: route-cache misses.
        if let Some(desc) = bus.world.sa_miss_q.dequeue() {
            if !assembled(bus.world, desc) {
                if Self::defer(bus, |w| &mut w.sa_miss_q, desc, desc) {
                    bus.wake_sa_in(0);
                }
                return;
            }
            // The job is charged for the trie levels it will walk; the
            // lookup itself, which fills the route cache, happens when
            // the job completes (`route`).
            let dst = dst_of(bus.world, BufferHandle::from_descriptor(desc))
                .ok()
                .flatten()
                .unwrap_or(0);
            let (_, levels) = bus.world.table.lookup_slow(dst);
            let cycles = self.miss_cycles(levels);
            self.begin_job(bus, SaJob::Miss { desc }, cycles, now);
            return;
        }
        // Priority 3: local forwarders.
        if let Some((desc, fwdr)) = bus.world.sa_local_q.dequeue() {
            if !assembled(bus.world, desc) {
                if Self::defer(bus, |w| &mut w.sa_local_q, desc, (desc, fwdr)) {
                    bus.wake_sa_in(0);
                }
                return;
            }
            let declared = self.declared(fwdr);
            let cycles = self.local_cycles(fwdr) + self.policer.police(fwdr, declared);
            // Local processing touches IXP DRAM (shared with the
            // MicroEngines): charge the controller.
            bus.chip.dram_access(now, npr_ixp::Rw::Read, 64);
            bus.chip.dram_access(now, npr_ixp::Rw::Write, 64);
            self.begin_job(bus, SaJob::Local { desc, fwdr }, cycles, now);
            return;
        }
        // Synthetic feed (Table 4).
        if let Some(len) = self.synth_feed {
            if bus.pci.claim_buffer() {
                let mps = npr_packet::Mp::count_for_len(len) as u8;
                let cycles = self.bridge_cycles(mps, SYNTH_BRIDGE_LAZY);
                self.begin_job(bus, SaJob::SynthBridge { len }, cycles, now);
            }
            // Else: a PeWriteback/PeDone will re-poll us.
        }
    }

    fn begin_job(&mut self, bus: &mut Bus<'_>, job: SaJob, cycles: u64, now: Time) {
        self.job = Some(job);
        let mut dur = cycles_to_ps(cycles);
        // Injected wedge: the job hangs far past any legitimate cost.
        // The watchdog must detect and reset before the hang resolves.
        if let Some(f) = bus.chip.fault_plan() {
            if f.roll(FaultClass::SaWedge) {
                dur += f.draw_window(FaultClass::SaWedge, SA_WEDGE_MIN_PS, SA_WEDGE_SPREAD_PS);
            }
        }
        self.busy_ps += dur;
        self.job_done_at = now + dur;
        bus.send_at(now + dur, PlaneEvent::SaDone { gen: self.gen });
    }

    /// Watchdog soft reset (paper, section 5: the StrongARM "can be
    /// rebooted without disturbing the MicroEngines"). Abandons the
    /// wedged job losslessly — the held packet re-enters the staging
    /// queue it came from — rolls back the phantom busy time, and bumps
    /// the generation so the stale completion event is ignored. The
    /// caller (the health monitor) replays verified installs afterward.
    pub fn soft_reset(&mut self, bus: &mut Bus<'_>) {
        let now = bus.now();
        self.gen += 1;
        if self.job_done_at > now {
            self.busy_ps = self.busy_ps.saturating_sub(self.job_done_at - now);
            self.job_done_at = now;
        }
        match self.job.take() {
            Some(SaJob::Bridge { desc, queue, fwdr }) => {
                bus.pci.release_buffer();
                bus.world.sa_pe_q.queues[queue].enqueue((desc, fwdr));
            }
            Some(SaJob::Local { desc, fwdr }) => {
                bus.world.sa_local_q.enqueue((desc, fwdr));
            }
            Some(SaJob::Miss { desc }) => {
                bus.world.sa_miss_q.enqueue(desc);
            }
            Some(SaJob::SynthBridge { .. }) => {
                bus.pci.release_buffer();
            }
            Some(SaJob::Control(op)) => {
                self.ctl_q.push_front(op);
            }
            None => {}
        }
        bus.wake_sa_in(0);
    }

    /// The StrongARM's one full prefix match (it owns the trie): looks
    /// `dst` up, filling the route cache, and aims the packet at the
    /// next hop's port, priority 0. Returns `false` when no route
    /// exists.
    fn route(bus: &mut Bus<'_>, h: BufferHandle, dst: u32) -> bool {
        let Some(nh) = bus.world.table.lookup_and_fill(dst).0 else {
            return false;
        };
        let qid = bus.world.queues.qid(usize::from(nh.port), 0);
        let meta = bus.world.meta_mut(h);
        meta.out_port = nh.port;
        meta.qid = qid as u16;
        meta.needs_route = false;
        true
    }

    /// Routes an escalated packet whose classification missed the
    /// cache. Returns `false` (and counts the drop) when it has no
    /// route, or when its buffer lapped. After a lap `needs_route` is
    /// the slot's next packet's; read either way, the stale handle ends
    /// as one lap loss, here or at the caller's own read.
    fn resolve_route(bus: &mut Bus<'_>, h: BufferHandle) -> bool {
        if !bus.world.meta_of(h).needs_route {
            return true;
        }
        let Ok(dst) = dst_of(bus.world, h) else {
            bus.world.counters.lap_losses.inc();
            return false;
        };
        let routed = dst.is_some_and(|dst| Self::route(bus, h, dst));
        if !routed {
            bus.world.counters.no_route_drops.inc();
        }
        routed
    }

    /// Runs a local forwarder over the packet and enqueues the result.
    fn finish_local(&mut self, bus: &mut Bus<'_>, desc: u32, fwdr: u32) {
        if bus.world.traced_descs.contains(&desc) {
            let now = bus.now();
            bus.world
                .tracer
                .record(now, crate::trace::TraceStep::StrongArm { kind: "local" });
        }
        let h = BufferHandle::from_descriptor(desc);
        let mut ok = true;
        let mut lapped = false;
        match bus.world.pool.read(h).map(|b| b.to_vec()) {
            Some(mut bytes) => {
                if let Some(f) = self.forwarders.get_mut(fwdr as usize) {
                    let mut meta = *bus.world.meta_of(h);
                    ok = (f.f)(&mut bytes, &mut meta);
                    // The forwarder may have replaced the packet (ICMP
                    // generation): refresh size-derived metadata and
                    // write the bytes back; it may also have re-aimed
                    // the packet (replies go out the ingress port), so
                    // rebind the queue.
                    bytes.truncate(npr_packet::buffer::DEFAULT_BUFFER_SIZE);
                    meta.len = bytes.len() as u16;
                    let mps = npr_packet::Mp::count_for_len(bytes.len()) as u8;
                    meta.mps_total = mps;
                    meta.mps_written = mps;
                    meta.qid = bus.world.queues.qid(usize::from(meta.out_port), 0) as u16;
                    *bus.world.meta_mut(h) = meta;
                    bus.world.pool.write(h, &bytes);
                }
            }
            None => {
                bus.world.counters.lap_losses.inc();
                ok = false;
                lapped = true;
            }
        }
        if !ok && !lapped {
            // The forwarder rejected or consumed the packet: this is
            // its one terminal counter (it used to vanish uncounted).
            bus.world.counters.sa_fwdr_drops.inc();
        }
        if ok {
            // Slow-path fragmentation: oversized packets are split per
            // RFC 791 before transmission, each fragment in its own
            // buffer (the DF-bit / unfragmentable case was already
            // answered by the ICMP responder or dropped).
            if let Some(mtu) = bus.world.fragment_mtu {
                let meta = *bus.world.meta_of(h);
                let needs = usize::from(meta.len).saturating_sub(14) > mtu;
                if needs {
                    let frame = bus
                        .world
                        .pool
                        .read(h)
                        .map(|b| b.to_vec())
                        .unwrap_or_default();
                    if let Some(frags) = npr_packet::ipv4::fragment(&frame, mtu) {
                        let now = bus.now();
                        // The datagram leaves as its fragments: all but
                        // one are new packets on the ledger.
                        bus.world.counters.minted.add(frags.len() as u64 - 1);
                        // Every fragment waits in its datagram's flow
                        // queue (only the first carries the ports).
                        let key = FlowKey::read(&frame);
                        for frag in frags {
                            let fh = bus.world.alloc_packet(frag.len() as u16, meta.in_port, now);
                            bus.world.pool.write(fh, &frag);
                            {
                                let m = bus.world.meta_mut(fh);
                                m.out_port = meta.out_port;
                                m.qid = meta.qid;
                                let mps = npr_packet::Mp::count_for_len(frag.len()) as u8;
                                m.mps_total = mps;
                                m.mps_written = mps;
                            }
                            bus.world.enqueue_out(fh.to_descriptor(), Some(key), now);
                        }
                        bus.world.counters.sa_local_done.inc();
                        return;
                    }
                    // DF set or unfragmentable: the local path drops
                    // an admitted packet, a fate on the ledger.
                    bus.world.counters.sa_fwdr_drops.inc();
                    return;
                }
            }
            let now = bus.now();
            bus.world.enqueue_out(desc, None, now);
            bus.world.counters.sa_local_done.inc();
        }
    }

    /// Completes a control operation at this level: ME code continues
    /// to the fast path as a [`PlaneEvent::CtlApply`]; `getdata`
    /// replies cross the bus back up; everything else terminates here.
    fn finish_control(&mut self, bus: &mut Bus<'_>, op: ControlOp) {
        let now = bus.now();
        if op.istore_slots() > 0 {
            bus.send_at(now, PlaneEvent::CtlApply(Box::new(op)));
            return;
        }
        let up = op.pci_up_bytes(CTL_DESC_BYTES);
        if up > 0 {
            let done_t = bus.ctl_pci_transfer(up);
            bus.ctl.complete(&op, done_t);
        } else {
            bus.ctl.complete(&op, now);
        }
    }

    fn finish(&mut self, bus: &mut Bus<'_>) {
        let now = bus.now();
        let Some(job) = self.job.take() else {
            return;
        };
        self.jobs_finished += 1;
        if let SaJob::Control(op) = job {
            self.finish_control(bus, op);
            bus.wake_sa_in(0);
            return;
        }
        self.done += 1;
        match job {
            SaJob::Bridge { desc, fwdr, .. } => {
                if bus.world.traced_descs.contains(&desc) {
                    bus.world
                        .tracer
                        .record(now, crate::trace::TraceStep::StrongArm { kind: "bridge" });
                }
                let h = BufferHandle::from_descriptor(desc);
                if !Self::resolve_route(bus, h) {
                    bus.pci.release_buffer();
                    bus.wake_sa_in(0);
                    return;
                }
                let (head, len, mps) = match bus.world.pool.read(h) {
                    Some(b) => {
                        let mut head = [0u8; 64];
                        let n = b.len().min(64);
                        head[..n].copy_from_slice(&b[..n]);
                        let m = bus.world.meta_of(h);
                        (head, m.len, m.mps_total.max(1))
                    }
                    None => {
                        bus.world.counters.lap_losses.inc();
                        bus.pci.release_buffer();
                        bus.wake_sa_in(0);
                        return;
                    }
                };
                let done_t = bus.pci_transfer(bridge_bytes(usize::from(len), BRIDGE_LAZY));
                bus.send_at(
                    done_t,
                    PlaneEvent::PeArrive(Box::new(PeItem {
                        desc,
                        fwdr,
                        head,
                        len,
                        mps,
                        lazy: BRIDGE_LAZY,
                    })),
                );
            }
            SaJob::SynthBridge { len } => {
                let frame = build_udp_frame(1, 0, len);
                let h = bus.world.alloc_packet(len as u16, 9, now);
                bus.world.counters.minted.inc();
                bus.world.pool.write(h, &frame);
                let qid = bus.world.queues.qid(0, 0) as u16;
                {
                    let meta = bus.world.meta_mut(h);
                    meta.mps_written = meta.mps_total;
                    meta.out_port = 0;
                    meta.qid = qid;
                }
                let mut head = [0u8; 64];
                let n = frame.len().min(64);
                head[..n].copy_from_slice(&frame[..n]);
                let done_t = bus.pci_transfer(bridge_bytes(len, SYNTH_BRIDGE_LAZY));
                bus.send_at(
                    done_t,
                    PlaneEvent::PeArrive(Box::new(PeItem {
                        desc: h.to_descriptor(),
                        fwdr: u32::MAX,
                        head,
                        len: len as u16,
                        mps: npr_packet::Mp::count_for_len(len) as u8,
                        lazy: SYNTH_BRIDGE_LAZY,
                    })),
                );
            }
            SaJob::Local { desc, fwdr } => {
                let h = BufferHandle::from_descriptor(desc);
                if !Self::resolve_route(bus, h) {
                    bus.wake_sa_in(0);
                    return;
                }
                self.finish_local(bus, desc, fwdr);
            }
            SaJob::Miss { desc } => {
                let h = BufferHandle::from_descriptor(desc);
                let Ok(dst) = dst_of(bus.world, h) else {
                    bus.world.counters.lap_losses.inc();
                    bus.wake_sa_in(0);
                    return;
                };
                if dst.is_some_and(|dst| Self::route(bus, h, dst)) {
                    bus.world.enqueue_out(desc, None, now);
                    bus.world.counters.sa_local_done.inc();
                } else if bus.world.exception_sa_fwdr != u32::MAX {
                    // Unroutable packets (including traffic for the
                    // router itself) go to the exception handler — the
                    // ICMP responder answers pings and sources
                    // Destination Unreachable.
                    let fwdr = bus.world.exception_sa_fwdr;
                    self.finish_local(bus, desc, fwdr);
                } else {
                    // No route, no handler: drop.
                    bus.world.counters.no_route_drops.inc();
                }
            }
            SaJob::Control(_) => unreachable!("handled above"),
        }
        bus.wake_sa_in(0);
    }

    /// [`PlaneEvent::SaDone`]: finishes the current job, unless the
    /// completion is from a pre-reset generation and so stale: the job
    /// it would finish was requeued by the soft reset.
    pub(crate) fn done(&mut self, gen: u64, bus: &mut Bus<'_>) {
        if gen == self.gen {
            self.finish(bus);
        }
    }

    /// [`PlaneEvent::CtlAdmit`]: queues a control op that crossed the
    /// bus from the Pentium.
    pub(crate) fn admit(&mut self, op: ControlOp, bus: &mut Bus<'_>) {
        self.ctl_q.push_back(op);
        bus.wake_sa_in(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_cycles_match_table4_calibration() {
        let sa = StrongArm::new(false, None);
        assert_eq!(sa.bridge_cycles(1, true), 374);
        // 1500 B = 24 MPs, full copy.
        let c = sa.bridge_cycles(24, false);
        assert!((4100..=4300).contains(&c), "{c}");
        // Lazy body: only the head crosses, cost stays flat.
        assert_eq!(sa.bridge_cycles(24, true), 374);
    }

    #[test]
    fn interrupts_cost_more() {
        let polling = StrongArm::new(false, None).local_cycles(u32::MAX);
        assert!(StrongArm::new(true, None).local_cycles(u32::MAX) > polling);
    }

    #[test]
    fn forwarder_cycles_included() {
        let mut sa = StrongArm::new(false, None);
        sa.forwarders.push(SaForwarder {
            name: "full-ip".into(),
            cycles: 660,
            f: Box::new(|_, _| true),
        });
        assert_eq!(sa.local_cycles(0), 380 + 660);
    }

    /// Table 4's synthetic feed mints every packet it bridges to the
    /// Pentium: none is admitted, and each transmitted one is minted.
    #[test]
    fn synthetic_feed_packets_are_minted() {
        let mut r = crate::Router::new(crate::RouterConfig::pentium_path(1500));
        r.run_until(crate::ms(2));
        // Stop the feed so the run can drain.
        r.sa.synth_feed = None;
        assert!(r.drain(crate::us(100), 600), "failed to quiesce");
        let c = r.conservation();
        assert!(c.holds(), "deficit={} {c:?}", c.deficit());
        assert_eq!(c.admitted, 0);
        assert!(c.minted > 0 && c.transmitted == c.minted, "{c:?}");
    }
}
