//! The router world: all data-plane state shared by context programs,
//! the StrongARM, and the Pentium.
//!
//! The machine model (`npr-ixp`) simulates *time*; this module owns the
//! *data*: packet buffers, queue contents, classification state, flow
//! state, and counters. Programs mutate the world at the simulation
//! instant where the corresponding hardware operation completes.

use std::collections::HashMap;

use npr_packet::buffer::DEFAULT_BUFFER_SIZE;
use npr_packet::{BufferHandle, BufferPool, Mp};
use npr_route::RoutingTable;
use npr_sim::{Counter, Time};
use npr_vrp::{VrpCost, VrpProgram};

use crate::classify::{Classifier, FlowKey};
use crate::queues::{PacketQueue, QueuePlane};
use crate::trace::TraceStep;

/// How the router is being exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Only input contexts run; enqueued packets vanish into a sink
    /// (the paper's input-process measurements).
    InputOnly,
    /// Only output contexts run; dequeue always finds a synthesized
    /// ready packet (the paper's "single additional instruction to fool
    /// the process into believing data was always available").
    OutputOnly,
    /// Full pipeline: input -> queues -> output, plus the StrongARM and
    /// Pentium levels.
    System,
}

/// Per-packet metadata, indexed by buffer index (valid while the
/// buffer's lap matches).
#[derive(Debug, Clone, Copy, Default)]
pub struct PktMeta {
    /// Frame length in bytes.
    pub len: u16,
    /// Arrival port.
    pub in_port: u8,
    /// Output port chosen by classification.
    pub out_port: u8,
    /// Output queue id.
    pub qid: u16,
    /// Total MPs in the frame.
    pub mps_total: u8,
    /// MPs written to DRAM so far (cut-through pacing).
    pub mps_written: u8,
    /// True when classification could not route the packet (cache miss
    /// at escalation time); the StrongARM resolves it via the trie.
    pub needs_route: bool,
    /// True when the frame's assembly died before its final MP (MAC
    /// truncation / corrupted tag): downstream stages must discard the
    /// packet instead of waiting on MPs that will never arrive.
    pub aborted: bool,
    /// StrongARM not-yet-assembled deferrals so far (liveness watchdog:
    /// past a bound the packet is declared dead).
    pub deferrals: u16,
    /// Arrival timestamp of the first MP.
    pub arrival: Time,
}

/// A MicroEngine-installed forwarder: verified bytecode, lowered for
/// the configured execution backend at admission time.
#[derive(Debug)]
pub struct MeForwarder {
    /// The program plus its compiled form (when the backend knob asked
    /// for one and the program verified). Both tiers are bit-identical
    /// in simulated behavior; unverifiable programs — ISTORE bit-rot —
    /// run through the interpreter and surface their traps as before.
    pub exec: npr_vrp::Executable,
    /// Its verified static cost.
    pub cost: VrpCost,
}

impl MeForwarder {
    /// The installed program.
    pub fn prog(&self) -> &VrpProgram {
        self.exec.prog()
    }
}

/// Destination of an escalated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Escalation {
    /// StrongARM-local forwarder (jump-table index).
    SaLocal {
        /// Jump-table index (`u32::MAX` = null forwarder).
        fwdr: u32,
    },
    /// Route-cache miss: StrongARM runs the full prefix match.
    SaMiss,
    /// Pentium-bound, staged in its forwarder's queue.
    Pe {
        /// Jump-table index of the Pentium forwarder (`u32::MAX` = null).
        fwdr: u32,
    },
}

/// World-level counters: lifetime totals, except the two latency
/// window gauges at the end, which [`crate::Router::mark`] re-arms.
#[derive(Debug, Default)]
pub struct Counters {
    /// Packets completed by the input process (enqueued or escalated).
    pub input_pkts: Counter,
    /// Packets the router made itself, past the input process: one per
    /// synthetic-feed packet, and `k - 1` per datagram the StrongARM
    /// cuts into `k` fragments. The ledger's second source.
    pub minted: Counter,
    /// MPs completed by the input process.
    pub input_mps: Counter,
    /// Packets dropped by VRP `Drop` actions.
    pub vrp_drops: Counter,
    /// Packets dropped by header validation / TTL expiry.
    pub validation_drops: Counter,
    /// Escalated packets dropped because no route exists (StrongARM
    /// trie miss).
    pub no_route_drops: Counter,
    /// Packets escalated to the StrongARM (local or miss).
    pub to_sa: Counter,
    /// Packets escalated toward the Pentium.
    pub to_pe: Counter,
    /// Packets the StrongARM finished locally.
    pub sa_local_done: Counter,
    /// Packets the Pentium finished.
    pub pe_done: Counter,
    /// Packets lost to buffer-lap overruns (stale handles).
    pub lap_losses: Counter,
    /// Packets whose buffer lapped *before* admission (the write of an
    /// MP into a not-yet-enqueued packet found a stale handle). Kept
    /// separate from [`Counters::lap_losses`], which counts admitted
    /// packets.
    pub input_lap_drops: Counter,
    /// Continuation MPs discarded because their frame's first MP never
    /// made an assembly record (it was dropped or its tag was
    /// corrupted). An MP-level ledger: the packet-level drop was
    /// already counted where the first MP died.
    pub orphan_mp_drops: Counter,
    /// Packets the StrongARM's local path discarded: a local forwarder
    /// returned `false` (it consumed or rejected the packet), or the
    /// datagram needed fragmenting and could not be cut (DF set).
    pub sa_fwdr_drops: Counter,
    /// Packets a Pentium forwarder explicitly dropped.
    pub pe_drops: Counter,
    /// Packets a Pentium forwarder consumed (terminated at the router,
    /// e.g. control traffic).
    pub pe_consumed: Counter,
    /// Packets discarded because their frame assembly died mid-flight
    /// (truncated by the MAC or mislabeled by a corrupted tag) — the
    /// port-successor check or a liveness watchdog declared them dead.
    pub truncated_drops: Counter,
    /// VRP interpreter traps: a program run returned a runtime error
    /// instead of an action. A verified program cannot trap, so these
    /// mark unverified pads or corrupted installs; the packet continues
    /// down the default path (a trap is never a process abort).
    pub vrp_traps: Counter,
    /// Packets transmitted (counted by output data plumbing in system
    /// mode; port counters are authoritative).
    pub tx_pkts: Counter,
    /// Register cycles issued by input contexts (Table 2 measurement).
    pub input_reg_cycles: Counter,
    /// Register cycles issued by output contexts.
    pub output_reg_cycles: Counter,
    /// MPs through the output process.
    pub output_mps: Counter,
    /// Sum of per-packet forwarding latencies (arrival to last MP on
    /// the wire), in picoseconds.
    pub latency_sum_ps: Counter,
    /// Number of latency samples.
    pub latency_samples: Counter,
    /// Window gauge: maximum observed latency since the last mark, ps.
    pub latency_max_ps: u64,
    /// Window gauge: latency distribution (ps) since the last mark.
    pub latency_hist: npr_sim::LogHistogram,
}

/// Frame-assembly record for multi-MP packets.
#[derive(Debug, Clone, Copy)]
pub struct Assembly {
    /// The buffer the frame is being written into.
    pub buf: BufferHandle,
    /// Next MP index to write.
    pub next_mp: u8,
}

/// The shared world.
pub struct RouterWorld {
    /// Run mode.
    pub mode: RunMode,
    /// DRAM packet buffers (the circular pool).
    pub pool: BufferPool,
    /// Per-buffer packet metadata.
    pub meta: Vec<PktMeta>,
    /// Output queues.
    pub queues: QueuePlane,
    /// Hardware mutex protecting each queue (None for private queues).
    pub queue_mutex: Vec<Option<npr_ixp::MutexId>>,
    /// The classifier / flow table.
    pub classifier: Classifier,
    /// Routing table with fast-path cache.
    pub table: RoutingTable,
    /// Installed MicroEngine forwarders, indexed by `fwdr_index`.
    pub me_forwarders: Vec<MeForwarder>,
    /// Interpreter traps per ME forwarder (same indexing); the health
    /// monitor uses the attribution to pick a quarantine target.
    pub me_traps: Vec<u64>,
    /// Per-flow SRAM state blocks, indexed by `state_idx`.
    pub flow_state: Vec<Vec<u8>>,
    /// StrongARM-local work queue of `(descriptor, jump-table index)`.
    pub sa_local_q: PacketQueue<(u32, u32)>,
    /// Route-miss queue (StrongARM services with the trie).
    pub sa_miss_q: PacketQueue,
    /// Pentium-bound staging queues, one per installed Pentium
    /// forwarder plus the null forwarder's, shared by their tickets.
    pub sa_pe_q: crate::sa::PeStaging,
    /// An input context staged an escalated packet for the StrongARM.
    /// Context programs only see the world, so they raise this, and
    /// `Router::dispatch` takes it after the step and wakes the
    /// StrongARM once.
    pub wake_sa: bool,
    /// StrongARM jump-table index handling exceptional packets (TTL
    /// expiry, IP options) when no installed forwarder claimed them.
    /// `u32::MAX` = the null handler (forward unmodified).
    pub exception_sa_fwdr: u32,
    /// Input-side WFQ approximation (section 3.4.1's sketch): when set,
    /// unclaimed packets are assigned a priority level by the mapper.
    pub wfq: Option<crate::wfq::WfqState>,
    /// Per-flow queue manager (`npr_core::qm`): when set, it is every
    /// port's output queue and `queues` stays empty — packets hash into
    /// bounded per-flow queues scheduled by the timer wheel, with the
    /// port's AQM discipline deciding early drops. `None` (default)
    /// keeps the paper's rings byte-identical.
    pub qm: Option<crate::qm::QmPlane>,
    /// Slow-path fragmentation MTU: when set, the StrongARM fragments
    /// oversized packets (RFC 791) instead of forwarding them whole.
    pub fragment_mtu: Option<usize>,
    /// Packet tracer (disarmed by default; see [`crate::trace`]).
    pub tracer: crate::trace::Tracer,
    /// Destination of the packet currently being traced through the
    /// slow path, keyed by descriptor.
    pub traced_descs: std::collections::HashSet<u32>,
    /// In-progress multi-MP frames.
    pub assembly: HashMap<u64, Assembly>,
    /// Frame currently being assembled per input port. Frames on one
    /// wire cannot interleave, so a new start-of-frame MP on a port
    /// proves any older in-progress assembly there is dead (its final
    /// MP never arrived) and must be aborted.
    pub port_assembly: Vec<Option<u64>>,
    /// Counters.
    pub counters: Counters,
    /// Stride accumulator of the Pentium diversion, shared by every
    /// input context: diversion is an evenly spaced deterministic
    /// stride of `RouterConfig::divert_pe_permille`, not random.
    pub divert_ctr: u32,
    /// Second accumulator (StrongARM diverts).
    pub divert_ctr_sa: u32,
    /// Synthetic VRP padding injected directly into
    /// `protocol_processing` (the Figure 9/10 methodology): program and
    /// its state window. Runs on every start-of-packet MP without the
    /// extensible-classifier overhead.
    pub vrp_pad: Option<(npr_vrp::VrpProgram, Vec<u8>)>,
    /// Template packet for output-only synthesis.
    pub out_template: Option<Mp>,
}

impl RouterWorld {
    /// Creates a world with `ports x queues_per_port` output queues.
    pub fn new(
        mode: RunMode,
        ports: usize,
        queues_per_port: usize,
        queue_cap: usize,
        pool_bufs: usize,
    ) -> Self {
        let pool = BufferPool::new(pool_bufs, DEFAULT_BUFFER_SIZE);
        Self {
            mode,
            meta: vec![PktMeta::default(); pool.len()],
            pool,
            queues: QueuePlane::new(ports, queues_per_port, queue_cap),
            queue_mutex: vec![None; ports * queues_per_port],
            classifier: Classifier::new(),
            table: RoutingTable::new(4096),
            me_forwarders: Vec::new(),
            me_traps: Vec::new(),
            flow_state: Vec::new(),
            sa_local_q: PacketQueue::new(512),
            sa_miss_q: PacketQueue::new(256),
            sa_pe_q: Default::default(),
            wake_sa: false,
            exception_sa_fwdr: u32::MAX,
            wfq: None,
            qm: None,
            fragment_mtu: None,
            tracer: crate::trace::Tracer::default(),
            traced_descs: std::collections::HashSet::new(),
            assembly: HashMap::new(),
            port_assembly: vec![None; ports],
            counters: Counters::default(),
            divert_ctr: 0,
            divert_ctr_sa: 0,
            vrp_pad: None,
            out_template: None,
        }
    }

    /// Allocates a buffer and initializes its metadata; returns the
    /// handle. The old buffer's packet (if still queued somewhere) is
    /// implicitly lost — the paper's one-lap lifetime.
    pub fn alloc_packet(&mut self, len: u16, in_port: u8, now: Time) -> BufferHandle {
        let h = self.pool.alloc();
        self.meta[h.index() as usize] = PktMeta {
            len,
            in_port,
            out_port: 0,
            qid: 0,
            mps_total: if len > 0 {
                npr_packet::Mp::count_for_len(usize::from(len)) as u8
            } else {
                0 // Unknown until the last MP is written.
            },
            mps_written: 0,
            needs_route: false,
            aborted: false,
            deferrals: 0,
            arrival: now,
        };
        h
    }

    /// Metadata for a (current) handle.
    pub fn meta_of(&self, h: BufferHandle) -> &PktMeta {
        &self.meta[h.index() as usize]
    }

    /// Mutable metadata for a (current) handle.
    pub fn meta_mut(&mut self, h: BufferHandle) -> &mut PktMeta {
        &mut self.meta[h.index() as usize]
    }

    /// The one way a packet enters an output queue, from the input loop
    /// or a slow plane. With the queue manager armed it joins the flow
    /// queue `key` hashes to on `meta.out_port`; `None` reads the key
    /// from the buffer ([`FlowKey::read`]; a lapped buffer queues under
    /// the all-zero key and the output stage counts the loss). Otherwise
    /// it joins ring `meta.qid`. `false` means refused: the discard is
    /// already counted, a traced packet's trace ends `Dropped`, and the
    /// buffer is kept (one-lap pool semantics).
    pub fn enqueue_out(&mut self, desc: u32, key: Option<FlowKey>, now: Time) -> bool {
        let h = BufferHandle::from_descriptor(desc);
        let meta = *self.meta_of(h);
        let admitted = match &mut self.qm {
            Some(qm) => {
                let key =
                    key.unwrap_or_else(|| FlowKey::read(self.pool.read(h).unwrap_or_default()));
                let len = u32::from(meta.len.max(60));
                qm.enqueue(usize::from(meta.out_port), &key, desc, len, now)
            }
            None => self.queues.enqueue(usize::from(meta.qid), desc),
        };
        if !admitted && self.traced_descs.remove(&desc) {
            let step = TraceStep::Dropped { reason: "queue" };
            self.tracer.record(now, step);
        }
        admitted
    }

    /// Records a traced packet's `Enqueued` step once
    /// [`Self::enqueue_out`] admitted it. The input loop and the Pentium
    /// record it; a StrongARM reinjection does not, because its
    /// `StrongArm` step at the same instant marks the hand-back and the
    /// golden digest pins that trace.
    pub(crate) fn trace_enqueued(&mut self, desc: u32, now: Time) {
        if self.traced_descs.contains(&desc) {
            let qid = self.meta_of(BufferHandle::from_descriptor(desc)).qid;
            self.tracer.record(now, TraceStep::Enqueued { qid });
        }
    }

    /// Counts a VRP interpreter trap, attributing it to an installed ME
    /// forwarder when one was running (pads run unattributed). The
    /// packet itself continues down the default path — a trap is a
    /// counted event, never an abort.
    pub fn count_vrp_trap(&mut self, fwdr: Option<u32>) {
        self.counters.vrp_traps.inc();
        if let Some(i) = fwdr {
            let i = i as usize;
            if self.me_traps.len() <= i {
                self.me_traps.resize(i + 1, 0);
            }
            self.me_traps[i] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_packet_sets_meta() {
        let mut w = RouterWorld::new(RunMode::System, 8, 1, 64, 32);
        let h = w.alloc_packet(1500, 3, 42);
        let m = *w.meta_of(h);
        assert_eq!(m.len, 1500);
        assert_eq!(m.in_port, 3);
        assert_eq!(m.mps_total, 24);
        assert_eq!(m.arrival, 42);
    }

    #[test]
    fn world_has_default_pe_class() {
        let w = RouterWorld::new(RunMode::System, 2, 1, 8, 16);
        assert_eq!(w.sa_pe_q.queues().len(), 1);
    }
}
