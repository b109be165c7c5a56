//! The output-loop context program (paper, Figure 6).
//!
//! Each output context owns one output-FIFO slot and services the
//! queues of one port: token handshake for FIFO slot ordering, queue
//! selection under the configured discipline (batched / unbatched /
//! bit-array indirection), per-MP DRAM reads, FIFO fill, and the DMA to
//! the port.

use std::collections::VecDeque;

use npr_ixp::{CtxProgram, Env, MemKind, Op, PortId, RingId};
use npr_packet::{BufferHandle, Mp, MpTag};
use npr_sim::{cycles_to_ps, Time};

use crate::costs::OutputCosts;
use crate::queues::OutputDiscipline;
use crate::world::{RouterWorld, RunMode};

/// Idle-poll interval (cycles) when no packets are queued.
const POLL_IDLE_CYCLES: u64 = 100;

/// Retry interval when waiting for a cut-through MP that has not yet
/// been written by the input side.
const CUT_THROUGH_WAIT_CYCLES: u64 = 400;

/// Consecutive cut-through waits tolerated before the packet is
/// declared dead (its remaining MPs are never coming — a truncated
/// frame the abort path missed). 128 polls x 400 cycles ~ 256 us,
/// orders of magnitude beyond any legitimate inter-MP gap, so the
/// watchdog never fires on live traffic.
const CUT_THROUGH_MAX_POLLS: u32 = 128;

/// Extra select cycles when a batched context must refill its batch
/// (head-pointer fetch, range arithmetic); batch hits are discounted.
/// The averages at the default batch depth reproduce the O.1 constants.
const BATCH_REFILL_EXTRA: u32 = 30;
/// Select-cost discount when serving from a warm batch.
const BATCH_HIT_DISCOUNT: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    TokenAcq,
    TokenCtl,
    ReleaseTok,
    Select,
    HeadRead,
    PtrRead2,
    NoWork,
    AddrCalc,
    DramRead1,
    FillFifo,
    Dma,
    TailPublish,
    ScratchWrites,
    LoopEnd,
}

/// The in-flight packet being transmitted.
#[derive(Debug, Clone, Copy)]
struct Current {
    buf: BufferHandle,
    next_mp: u8,
}

/// The output-loop program for one context.
pub struct OutputLoop {
    port: PortId,
    slot: usize,
    ring: RingId,
    discipline: OutputDiscipline,
    costs: OutputCosts,
    phase: Phase,

    current: Option<Current>,
    batch: VecDeque<u32>,
    batch_max: usize,
    refilled: bool,
    /// Pulls from an unbatchable source (see `count_pull`).
    pulls: u32,
    pending_mp: Option<Mp>,
    staged_tag: MpTag,
    scratch_w_left: u32,
    /// Consecutive cut-through waits on the current packet.
    wait_polls: u32,

    /// Register cycles issued.
    reg_issued: u64,
    /// Register count already published to the world counter.
    reg_published: u64,
}

impl OutputLoop {
    /// Creates the program for `port`, FIFO `slot`, ordered by `ring`.
    pub fn new(
        port: PortId,
        slot: usize,
        ring: RingId,
        discipline: OutputDiscipline,
        batch_max: usize,
    ) -> Self {
        let costs = match discipline {
            OutputDiscipline::SingleBatched => OutputCosts::SINGLE_BATCHED,
            OutputDiscipline::SingleUnbatched => OutputCosts::SINGLE_UNBATCHED,
            OutputDiscipline::MultiIndirect => OutputCosts::MULTI_INDIRECT,
        };
        Self {
            port,
            slot,
            ring,
            discipline,
            costs,
            phase: Phase::TokenAcq,
            current: None,
            batch: VecDeque::new(),
            batch_max: batch_max.max(1),
            refilled: false,
            pulls: 0,
            pending_mp: None,
            staged_tag: MpTag::Only,
            scratch_w_left: 0,
            wait_polls: 0,
            reg_issued: 0,
            reg_published: 0,
        }
    }

    fn compute(&mut self, n: u32) -> Op {
        self.reg_issued += u64::from(n);
        Op::Compute(n)
    }

    /// Counts one pull from a source a batched context cannot pre-fetch
    /// from (the synthesized supply, the flow wheel): the refill is
    /// charged every `batch_max` pulls, and on a pull that `found`
    /// nothing, as on an empty ring.
    fn count_pull(&mut self, found: bool) {
        if self.discipline == OutputDiscipline::SingleBatched {
            self.pulls += 1;
            self.refilled |= !found || (self.pulls as usize).is_multiple_of(self.batch_max);
        }
    }

    /// Picks the next packet (data side). Returns `false` when no work
    /// is available. `now` drives the per-flow queue manager's
    /// dequeue-time AQM (CoDel sojourn is simulated-clock arithmetic).
    fn select_packet(&mut self, w: &mut RouterWorld, now: Time) -> bool {
        if self.current.is_some() {
            return true;
        }
        let desc = if w.mode == RunMode::OutputOnly {
            // Synthesized descriptor: infinite supply.
            self.count_pull(true);
            Some(0)
        } else if let Some(qm) = &mut w.qm {
            // The timer wheel is the port's only output queue: every
            // packet for it, fast path or slow plane, entered through
            // `RouterWorld::enqueue_out`. It is pulled once per
            // transmission even under batched output: pre-fetching a
            // batch ahead of the scheduler would freeze its decisions
            // `batch_max` packet-times early and put a fixed sojourn
            // floor under every flow (8 x 6.7 us at 100 Mbps — right at
            // the CoDel target), which is exactly the latency a
            // dequeue-time AQM exists to police. Only the
            // descriptor-fetch *cost* is amortized.
            debug_assert!(
                w.queues.select_ready(self.port).is_none(),
                "ring used under qm"
            );
            let d = qm.dequeue(self.port, now);
            self.count_pull(d.is_some());
            d
        } else {
            match self.discipline {
                OutputDiscipline::SingleBatched => {
                    if self.batch.is_empty() {
                        self.refilled = true;
                        let qid = w.queues.qid(self.port, 0);
                        for _ in 0..self.batch_max {
                            match w.queues.dequeue(qid) {
                                Some(d) => self.batch.push_back(d),
                                None => break,
                            }
                        }
                    }
                    self.batch.pop_front()
                }
                OutputDiscipline::SingleUnbatched => {
                    let qid = w.queues.qid(self.port, 0);
                    w.queues.dequeue(qid)
                }
                OutputDiscipline::MultiIndirect => w
                    .queues
                    .select_ready(self.port)
                    .and_then(|qid| w.queues.dequeue(qid)),
            }
        };
        match desc {
            Some(d) => {
                self.current = Some(Current {
                    buf: BufferHandle::from_descriptor(d),
                    next_mp: 0,
                });
                true
            }
            None => false,
        }
    }

    /// Builds the next MP of the current packet (data side of the DRAM
    /// reads). Returns:
    /// * `Ok(true)` — MP staged in `pending_mp`;
    /// * `Ok(false)` — the next MP has not been written yet (cut-through
    ///   pacing);
    /// * `Err(())` — packet lost (buffer lap) or complete.
    fn stage_mp(&mut self, w: &mut RouterWorld) -> Result<bool, ()> {
        if w.mode == RunMode::OutputOnly {
            let mut mp = w
                .out_template
                .clone()
                .expect("output-only mode needs a template");
            mp.tag = MpTag::Only;
            self.staged_tag = MpTag::Only;
            self.pending_mp = Some(mp);
            return Ok(true);
        }
        let cur = self.current.ok_or(())?;
        let k = cur.next_mp;
        let meta = *w.meta_of(cur.buf);
        if meta.aborted {
            // Assembly died (truncated frame / corrupted tag): the
            // remaining MPs will never be written. Discard.
            w.counters.truncated_drops.inc();
            return Err(());
        }
        if meta.mps_total != 0 && k >= meta.mps_total {
            return Err(());
        }
        if k >= meta.mps_written {
            // Input side has not written this MP yet.
            if w.pool.read(cur.buf).is_none() {
                w.counters.lap_losses.inc();
                return Err(());
            }
            return Ok(false);
        }
        let Some(data) = w.pool.read(cur.buf) else {
            w.counters.lap_losses.inc();
            return Err(());
        };
        let off = usize::from(k) * 64;
        let len = data.len().saturating_sub(off).min(64);
        if len == 0 {
            return Err(());
        }
        let mut bytes = [0u8; 64];
        bytes[..len].copy_from_slice(&data[off..off + len]);
        let is_last = meta.mps_total == k + 1;
        let tag = match (k, is_last) {
            (0, true) => MpTag::Only,
            (0, false) => MpTag::First,
            (_, true) => MpTag::Last,
            _ => MpTag::Intermediate,
        };
        self.staged_tag = tag;
        self.pending_mp = Some(Mp {
            data: bytes,
            len: len as u8,
            tag,
            port: meta.out_port,
            frame_id: u64::from(cur.buf.to_descriptor()),
        });
        Ok(true)
    }

    /// Advances packet progress after a transmitted MP.
    fn advance(&mut self, w: &mut RouterWorld, sent: MpTag, now: npr_sim::Time) {
        if w.mode == RunMode::OutputOnly {
            return;
        }
        if let Some(wfq) = &mut w.wfq {
            // Actual service advances the WFQ virtual clock.
            wfq.mapper.on_service(64);
        }
        if sent.ends_packet() {
            w.counters.tx_pkts.inc();
            if let Some(c) = self.current.take() {
                let meta = *w.meta_of(c.buf);
                if w.traced_descs.remove(&c.buf.to_descriptor()) {
                    let step = crate::trace::TraceStep::Transmitted {
                        port: meta.out_port,
                    };
                    w.tracer.record(now, step);
                }
                let lat = now.saturating_sub(meta.arrival);
                if meta.arrival > 0 && lat > 0 {
                    w.counters.latency_sum_ps.add(lat);
                    w.counters.latency_samples.inc();
                    w.counters.latency_max_ps = w.counters.latency_max_ps.max(lat);
                    w.counters.latency_hist.record(lat);
                }
            }
        } else if let Some(c) = &mut self.current {
            c.next_mp += 1;
        }
    }
}

impl CtxProgram<RouterWorld> for OutputLoop {
    fn resume(&mut self, env: &mut Env<'_, RouterWorld>) -> Op {
        loop {
            match self.phase {
                Phase::TokenAcq => {
                    self.phase = Phase::TokenCtl;
                    return Op::TokenAcquire(self.ring);
                }
                Phase::TokenCtl => {
                    // The token only sequences FIFO-slot activation
                    // order (Figure 6 lines 1-2): held across the
                    // control compute, then released.
                    self.phase = Phase::ReleaseTok;
                    return self.compute(self.costs.token_ctl);
                }
                Phase::ReleaseTok => {
                    self.phase = Phase::Select;
                    return Op::TokenRelease(self.ring);
                }
                Phase::Select => {
                    // The select cost is paid per iteration; with
                    // batching, the head-pointer *memory read* is only
                    // paid when the batch empties.
                    let starting_new = self.current.is_none();
                    let need_head_read = match self.discipline {
                        OutputDiscipline::SingleBatched => starting_new && self.batch.is_empty(),
                        _ => starting_new,
                    };
                    self.refilled = false;
                    let got = self.select_packet(env.world, env.now);
                    self.phase = if !got {
                        Phase::NoWork
                    } else if need_head_read && env.world.mode != RunMode::OutputOnly {
                        Phase::HeadRead
                    } else {
                        Phase::PtrRead2
                    };
                    // Batching trades a per-packet discount for a
                    // periodic refill cost.
                    let n = if self.discipline == OutputDiscipline::SingleBatched {
                        if self.refilled {
                            self.costs.select_queue + BATCH_REFILL_EXTRA
                        } else {
                            self.costs.select_queue - BATCH_HIT_DISCOUNT
                        }
                    } else {
                        self.costs.select_queue
                    };
                    return self.compute(n);
                }
                Phase::NoWork => {
                    self.phase = Phase::TokenAcq;
                    return Op::Idle(cycles_to_ps(POLL_IDLE_CYCLES));
                }
                Phase::HeadRead => {
                    self.phase = Phase::PtrRead2;
                    return Op::MemRead(MemKind::Scratch, 4);
                }
                Phase::PtrRead2 => {
                    self.phase = Phase::AddrCalc;
                    return Op::MemRead(MemKind::Scratch, 4);
                }
                Phase::AddrCalc => {
                    match self.stage_mp(env.world) {
                        Ok(true) => {
                            self.wait_polls = 0;
                            self.phase = Phase::DramRead1;
                        }
                        Ok(false) => {
                            // Cut-through: wait for the input side —
                            // but not forever. A frame whose tail was
                            // lost would otherwise head-of-line block
                            // this port silently.
                            self.wait_polls += 1;
                            if self.wait_polls > CUT_THROUGH_MAX_POLLS {
                                self.wait_polls = 0;
                                env.world.counters.truncated_drops.inc();
                                self.current = None;
                                self.phase = Phase::LoopEnd;
                                continue;
                            }
                            self.phase = Phase::AddrCalc;
                            return Op::Idle(cycles_to_ps(CUT_THROUGH_WAIT_CYCLES));
                        }
                        Err(()) => {
                            // Lost or complete: next packet.
                            self.wait_polls = 0;
                            self.current = None;
                            self.phase = Phase::LoopEnd;
                            continue;
                        }
                    }
                    return self.compute(self.costs.addr_calc);
                }
                Phase::DramRead1 => {
                    // Both 32-byte reads are issued back-to-back into
                    // separate transfer-register banks and pipeline in
                    // the controller.
                    self.phase = Phase::FillFifo;
                    return Op::MemRead2(MemKind::Dram, 32);
                }
                Phase::FillFifo => {
                    if let Some(mp) = self.pending_mp.take() {
                        env.hw.out_fifo[self.slot].push_back(mp);
                    }
                    self.phase = Phase::Dma;
                    let n = self.costs.fifo_fill + self.costs.dram_issue;
                    return self.compute(n);
                }
                Phase::Dma => {
                    self.phase = Phase::TailPublish;
                    return Op::DmaTxToPort {
                        slot: self.slot,
                        port: self.port,
                    };
                }
                Phase::TailPublish => {
                    let sent_tag = self.staged_tag;
                    self.advance(env.world, sent_tag, env.now);
                    self.scratch_w_left = 6;
                    self.phase = Phase::ScratchWrites;
                    // Tail publish and the control-status writes below
                    // are posted: the context does not reuse their
                    // transfer registers, so it never waits on them.
                    return Op::MemWritePosted(MemKind::Sram, 4);
                }
                Phase::ScratchWrites => {
                    if self.scratch_w_left > 0 {
                        self.scratch_w_left -= 1;
                        return Op::MemWritePosted(MemKind::Scratch, 4);
                    }
                    self.phase = Phase::LoopEnd;
                }
                Phase::LoopEnd => {
                    self.phase = Phase::TokenAcq;
                    let n = self.costs.publish + self.costs.loop_ctl;
                    env.world.counters.output_mps.inc();
                    let delta = self.reg_issued + u64::from(n) - self.reg_published;
                    env.world.counters.output_reg_cycles.add(delta);
                    self.reg_published = self.reg_issued + u64::from(n);
                    return self.compute(n);
                }
            }
        }
    }
}
