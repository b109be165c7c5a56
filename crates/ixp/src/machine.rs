//! The event-driven machine: MicroEngines, contexts, token rings,
//! hardware mutexes, the DMA state machine, and FIFO plumbing.
//!
//! # Execution model
//!
//! A *program* ([`CtxProgram`]) drives each hardware context. Every time
//! the context is able to run, the machine calls `resume`, which returns
//! the next [`Op`]. By convention the program has already advanced its
//! own state past the returned operation, so the next `resume` continues
//! after it.
//!
//! * [`Op::Compute`] occupies the MicroEngine's issue slot for `n`
//!   cycles; the context keeps the slot (a context runs until it
//!   voluntarily swaps, as on the real chip).
//! * Memory, DMA, token and mutex operations block the context: it
//!   leaves the issue slot (one swap-cycle of dead time) and a peer
//!   context is dispatched, hiding the latency.
//! * Token rings implement the paper's token-passing mutual exclusion:
//!   the token moves member-to-member with a one-cycle on-chip signal
//!   and *parks* at each member until that member passes through its
//!   acquire point.
//!
//! The machine does not own the event loop; the embedding simulation
//! (see `npr-core`) owns an `EventQueue` and feeds [`IxpEv`] values back
//! into [`Ixp::handle`]. This lets the StrongARM, PCI bus, and Pentium
//! share the same clock and queue.

use std::collections::VecDeque;

use npr_packet::Mp;
use npr_sim::{cycles_to_ps, FaultClass, FaultPlan, Server, Time};

use crate::hash::HashUnit;
use crate::mem::{MemCtl, MemKind, Rw};
use crate::params::{
    dma_occupancy_ps, dma_tx_occupancy_ps, ChipConfig, CTX_PER_ME, CTX_SWAP_CYCLES,
    DMA_RX_CMD_CYCLES, DRAM_BPS, DRAM_READ_CYCLES, DRAM_WRITE_CYCLES, MUTEX_GRANT_CYCLES,
    MUTEX_HANDOFF_CYCLES, NUM_CTX, NUM_MICROENGINES, PORT_RATES_BPS, PORT_RX_BUF_MPS, SCRATCH_BPS,
    SCRATCH_READ_CYCLES, SCRATCH_WRITE_CYCLES, SRAM_BPS, SRAM_READ_CYCLES, SRAM_WRITE_CYCLES,
    TOKEN_PASS_CYCLES,
};
use crate::port::{PortData, PortId, TrafficSource};

/// Context index (0..24). Context `c` lives on MicroEngine `c / 4`.
pub type CtxId = usize;

/// MicroEngine index (0..6).
pub type MeId = usize;

/// Token-ring index.
pub type RingId = usize;

/// Hardware-mutex index.
pub type MutexId = usize;

/// Operations a context program can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Execute `n` register instructions (1 cycle each) on the issue slot.
    Compute(u32),
    /// Blocking memory read of `bytes` from the given memory.
    MemRead(MemKind, u32),
    /// Two pipelined reads issued back-to-back from separate transfer
    /// registers; the context blocks until the later one completes.
    MemRead2(MemKind, u32),
    /// Blocking memory write of `bytes` (the context waits for
    /// completion — used when transfer registers are reused).
    MemWrite(MemKind, u32),
    /// Posted memory write: charges data-path occupancy but the context
    /// continues immediately (write buffering; no completion signal).
    MemWritePosted(MemKind, u32),
    /// Block until this context holds the ring's token.
    TokenAcquire(RingId),
    /// Pass the token to the next member (non-blocking).
    TokenRelease(RingId),
    /// Block until this context holds the mutex (grant costs an SRAM
    /// access even when uncontended).
    MutexAcquire(MutexId),
    /// One test-and-set attempt: an atomic SRAM read-modify-write that
    /// blocks only for its own latency. The outcome is left in
    /// `HwData::last_try[ctx]` — the building block of the spin-lock
    /// ablation (the paper's rejected strategy, section 3.4.2).
    MutexTryAcquire(MutexId),
    /// Release the mutex; a queued waiter is granted after the unlock
    /// write (non-blocking for the releaser).
    MutexRelease(MutexId),
    /// DMA one MP from `port`'s receive buffer into `IN_FIFO[slot]`.
    /// Blocking; the caller must have verified `port_rdy` (in ideal-port
    /// mode the port template is cloned instead).
    DmaRxToFifo {
        /// Source port.
        port: PortId,
        /// Destination input-FIFO slot.
        slot: usize,
    },
    /// DMA the MP in `OUT_FIFO[slot]` to `port`. Blocking.
    DmaTxToPort {
        /// Source output-FIFO slot.
        slot: usize,
        /// Destination port.
        port: PortId,
    },
    /// Park this context for a fixed interval (harness use).
    Idle(Time),
    /// Stop running this context.
    Halt,
}

/// Environment passed to programs on each resume.
pub struct Env<'a, W> {
    /// Current simulation time.
    pub now: Time,
    /// The context being resumed.
    pub ctx: CtxId,
    /// The embedding world (queues, buffers, flow tables — owned by
    /// `npr-core`).
    pub world: &'a mut W,
    /// Data-plane hardware state (FIFOs, ports, hash unit).
    pub hw: &'a mut HwData,
}

/// A context program: a resumable state machine.
///
/// `Send` so a whole chip (and the router embedding it) can move to a
/// worker thread under `npr_sim::delivery`; a program is only ever run
/// by the thread that owns its machine.
pub trait CtxProgram<W>: Send {
    /// Advances the program and returns the next operation. The machine
    /// guarantees `resume` is called exactly once per completed op.
    fn resume(&mut self, env: &mut Env<'_, W>) -> Op;

    /// `Some` only while the program sits in a poll loop whose polled
    /// input is quiet: until that input changes it will issue nothing
    /// but `Compute`, `Idle` and its own ring's token ops and touch
    /// nothing but itself. The key names its place in the loop: equal
    /// keys (with equal machine state) mean equal futures (`spin.rs`).
    fn spin_key(&self, _hw: &HwData) -> Option<u32> {
        None
    }

    /// The program's own tally of the `Compute` cycles it has issued,
    /// if it keeps one (the machine credits it for rotations it skips).
    fn spin_cycles(&self) -> u64 {
        0
    }

    /// Adds `cycles` skipped `Compute` cycles to that tally.
    fn spin_credit(&mut self, _cycles: u64) {}
}

/// Data-plane hardware state visible to programs.
pub struct HwData {
    /// 16 input FIFO slots (each an addressable 64-byte register file).
    /// A slot holds a short queue so that Figure 7's >16-context sweeps
    /// (where contexts share slots) remain well-defined; with the
    /// paper's static 1:1 assignment at most one MP is ever present.
    pub in_fifo: Vec<VecDeque<Mp>>,
    /// 16 output FIFO slots (same short-queue treatment as `in_fifo`
    /// for >16-context sweeps).
    pub out_fifo: Vec<VecDeque<Mp>>,
    /// MAC ports.
    pub ports: Vec<PortData>,
    /// Per-port template MP for ideal-port mode (the paper's "move a
    /// single packet from a port to each FIFO slot; future iterations
    /// see this same packet").
    pub rx_template: Vec<Option<Mp>>,
    /// The hardware hash unit.
    pub hash: HashUnit,
    /// Mirror of `ChipConfig::ideal_ports` so programs can test
    /// readiness without access to the config.
    pub ideal: bool,
    /// Result of each context's last `MutexTryAcquire`.
    pub last_try: Vec<bool>,
}

impl HwData {
    /// `port_rdy(p)` as tested by the input loop.
    pub fn port_rdy(&self, p: PortId) -> bool {
        self.ideal || self.ports[p].rdy()
    }
}

/// Machine events; the embedding event loop routes these back into
/// [`Ixp::handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IxpEv {
    /// The issue slot of a MicroEngine may be free: try to dispatch.
    MeDispatch(MeId),
    /// A compute block finished; resume the (still running) context.
    CtxComputeDone(CtxId),
    /// A blocking operation finished; the context becomes ready.
    CtxBlockDone(CtxId),
    /// The token of a ring arrives at its current position.
    TokenAt(RingId),
    /// The next pending MP lands in a port's receive buffer.
    RxArrive(PortId),
}

/// Scheduling interface the machine uses to arrange future events.
pub trait Sched {
    /// Current time.
    fn now(&self) -> Time;
    /// Schedule `ev` at absolute time `t`.
    fn at(&mut self, t: Time, ev: IxpEv);

    /// The earliest instant at which anything outside the machine may
    /// act on it (a control write, a health decision), the run deadline
    /// aside; outside work no armed ring can see need not bound it.
    /// Under the default, "unknown", the machine never skips idle
    /// rotations (`spin.rs`).
    fn calm_until(&self) -> Time {
        0
    }

    /// The instant the embedding loop is running to (inclusive).
    fn run_deadline(&self) -> Time {
        0
    }

    /// Draws the sequence number `at` would stamp on its next event.
    /// Only called once `calm_until` has reported a horizon; such a
    /// scheduler dispatches [`Ixp::spin_head`] merged by `(at, seq)`.
    fn take_seq(&mut self) -> u64 {
        0
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtxStatus {
    Unused,
    Ready,
    Running,
    Blocked,
    WaitToken(RingId),
    WaitMutex(MutexId),
    Halted,
}

#[derive(Debug)]
struct Me {
    ready: VecDeque<CtxId>,
    current: Option<CtxId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingState {
    /// In flight to `pos`.
    Moving,
    /// Parked at `pos`, whose member has not reached its acquire yet.
    Parked,
    /// Held by `pos`'s member.
    Held,
}

#[derive(Debug)]
struct Ring {
    members: Vec<CtxId>,
    pos: usize,
    state: RingState,
}

#[derive(Debug, Default)]
struct HwMutex {
    holder: Option<CtxId>,
    waiters: VecDeque<(CtxId, Time)>,
    acquisitions: u64,
    wait_ps: Time,
}

/// The IXP1200 machine, generic over the embedding world `W`.
pub struct Ixp<W> {
    /// Chip configuration.
    pub cfg: ChipConfig,
    /// DRAM controller (packet buffers).
    pub dram: MemCtl,
    /// SRAM controller (queues, flow state).
    pub sram: MemCtl,
    /// Scratch controller (queue pointers).
    pub scratch: MemCtl,
    /// The receive-side DMA state machine (port -> input FIFO). The
    /// paper's input loop serializes access to it via the token.
    pub dma: Server,
    /// The transmit-side DMA machine (output FIFO -> port), which
    /// consumes the strictly-ordered output FIFO slots circularly.
    pub dma_tx: Server,
    /// Data-plane state shared with programs.
    pub hw: HwData,
    mes: Vec<Me>,
    ctx_status: Vec<CtxStatus>,
    progs: Vec<Option<Box<dyn CtxProgram<W>>>>,
    rings: Vec<Ring>,
    mutexes: Vec<HwMutex>,
    reg_cycles: u64,
    /// Per-ME freeze deadline: while `now < me_frozen_until[me]` the
    /// MicroEngine issues nothing (ISTORE writes disable the engine —
    /// paper, section 4.5 — and the fault plane reuses the mechanism).
    me_frozen_until: Vec<Time>,
    /// Deterministic fault injector; `None` (the default) leaves every
    /// hook a no-op so fault-free runs are bit-identical.
    faults: Option<FaultPlan>,
    /// Idle-rotation compression state (`spin.rs`).
    spin: spin::Spin,
}

/// Fault-magnitude bounds for the machine-level injectors (all drawn
/// from the class's own stream, so they are reproducible per seed).
mod fault_mag {
    /// Memory stall episode: window length in picoseconds (0.5–2 us).
    pub const MEM_STALL_MIN_PS: u64 = 500_000;
    pub const MEM_STALL_SPREAD_PS: u64 = 1_500_000;
    /// Extra latency per access during an episode (100–500 ns).
    pub const MEM_EXTRA_MIN_PS: u64 = 100_000;
    pub const MEM_EXTRA_SPREAD_PS: u64 = 400_000;
    /// DMA slowdown multiplier: occupancy x (2..=8).
    pub const DMA_SLOW_MIN_X: u64 = 2;
    pub const DMA_SLOW_SPREAD_X: u64 = 7;
    /// Lost-token recovery timeout in ME cycles (1k–4k: the watchdog
    /// regenerating the signal).
    pub const TOKEN_RECOVERY_MIN_CYC: u64 = 1_000;
    pub const TOKEN_RECOVERY_SPREAD_CYC: u64 = 3_000;
    /// Port flap outage in picoseconds (10–60 us: several frame times).
    pub const FLAP_MIN_PS: u64 = 10_000_000;
    pub const FLAP_SPREAD_PS: u64 = 50_000_000;
}

impl<W> Ixp<W> {
    /// Builds a machine from `cfg` with no programs loaded.
    pub fn new(cfg: ChipConfig) -> Self {
        let ports = PORT_RATES_BPS
            .iter()
            .map(|&r| PortData::new(r, PORT_RX_BUF_MPS))
            .collect::<Vec<_>>();
        let nports = ports.len();
        Self {
            dram: MemCtl::new("dram", DRAM_READ_CYCLES, DRAM_WRITE_CYCLES, DRAM_BPS),
            sram: MemCtl::new("sram", SRAM_READ_CYCLES, SRAM_WRITE_CYCLES, SRAM_BPS),
            scratch: MemCtl::new(
                "scratch",
                SCRATCH_READ_CYCLES,
                SCRATCH_WRITE_CYCLES,
                SCRATCH_BPS,
            ),
            dma: Server::new("ix-dma-rx"),
            dma_tx: Server::new("ix-dma-tx"),
            hw: HwData {
                in_fifo: vec![VecDeque::new(); crate::params::IN_FIFO_SLOTS],
                out_fifo: vec![VecDeque::new(); crate::params::OUT_FIFO_SLOTS],
                ports,
                rx_template: vec![None; nports],
                hash: HashUnit::default(),
                ideal: cfg.ideal_ports,
                last_try: vec![false; NUM_CTX],
            },
            mes: (0..NUM_MICROENGINES)
                .map(|_| Me {
                    ready: VecDeque::new(),
                    current: None,
                })
                .collect(),
            ctx_status: vec![CtxStatus::Unused; NUM_CTX],
            progs: (0..NUM_CTX).map(|_| None).collect(),
            rings: Vec::new(),
            mutexes: Vec::new(),
            cfg,
            reg_cycles: 0,
            me_frozen_until: vec![0; NUM_MICROENGINES],
            faults: None,
            spin: spin::Spin::default(),
        }
    }

    /// Attaches (or clears) the deterministic fault plan.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
        self.spin_note_fault_plan();
    }

    /// The attached fault plan, if any (counters, rate queries).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Mutable access for injectors outside the machine (PCI lives in
    /// `npr-core` but shares this plan's streams).
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.faults.as_mut()
    }

    /// Freezes MicroEngine `me` until absolute time `until`: no context
    /// on it is dispatched or resumed while frozen (pending events
    /// self-defer to the thaw time). Used by ISTORE installation — the
    /// engine is disabled while its instruction store is written — and
    /// by the fault plane.
    pub fn freeze_me(&mut self, me: MeId, until: Time) {
        self.spin.disturb_all();
        self.me_frozen_until[me] = self.me_frozen_until[me].max(until);
    }

    /// `me`'s thaw time if it is frozen at `now`.
    fn frozen_until(&self, me: MeId, now: Time) -> Option<Time> {
        (now < self.me_frozen_until[me]).then_some(self.me_frozen_until[me])
    }

    /// Loads `prog` onto context `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn set_program(&mut self, ctx: CtxId, prog: Box<dyn CtxProgram<W>>) {
        assert!(ctx < NUM_CTX, "context out of range");
        self.spin.topology_changed();
        self.progs[ctx] = Some(prog);
        self.ctx_status[ctx] = CtxStatus::Ready;
    }

    /// Creates a token ring over `members` (visited in the given order;
    /// callers interleave MicroEngines per the paper's section 3.2.2).
    /// The token starts parked at the first member.
    pub fn add_ring(&mut self, members: Vec<CtxId>) -> RingId {
        assert!(!members.is_empty(), "empty token ring");
        self.spin.topology_changed();
        self.rings.push(Ring {
            members,
            pos: 0,
            state: RingState::Parked,
        });
        self.rings.len() - 1
    }

    /// Creates a hardware mutex.
    pub fn add_mutex(&mut self) -> MutexId {
        self.mutexes.push(HwMutex::default());
        self.mutexes.len() - 1
    }

    /// Attaches a traffic source to a port's receive side.
    pub fn set_source(&mut self, port: PortId, src: Box<dyn TrafficSource>) {
        self.hw.ports[port].source = Some(src);
    }

    /// Sets the ideal-mode receive template for `port`.
    pub fn set_rx_template(&mut self, port: PortId, mp: Mp) {
        self.hw.rx_template[port] = Some(mp);
    }

    /// Total register cycles issued by all contexts.
    pub fn reg_cycles(&self) -> u64 {
        self.reg_cycles
    }

    /// Total time contexts spent waiting for mutex `m`, and the number of
    /// acquisitions (used by the Figure 10 contention-overhead report).
    pub fn mutex_stats(&self, m: MutexId) -> (Time, u64) {
        let mx = &self.mutexes[m];
        (mx.wait_ps, mx.acquisitions)
    }

    /// Starts the machine: queues every loaded context for dispatch and
    /// primes port receive schedules.
    pub fn start(&mut self, world: &mut W, sched: &mut impl Sched) {
        self.spin_find_closed_rings();
        for c in 0..NUM_CTX {
            if self.progs[c].is_some() {
                self.make_ready(c, sched);
            }
        }
        for p in 0..self.hw.ports.len() {
            self.prime_port(p, sched);
        }
        let _ = world;
    }

    /// Handles one machine event.
    pub fn handle(&mut self, ev: IxpEv, world: &mut W, sched: &mut impl Sched) {
        match ev {
            IxpEv::MeDispatch(me) => {
                if let Some(thaw) = self.frozen_until(me, sched.now()) {
                    self.post(thaw, IxpEv::MeDispatch(me), sched);
                    return;
                }
                self.dispatch(me, world, sched);
            }
            IxpEv::CtxComputeDone(c) => {
                // A frozen engine resumes nothing: the running context's
                // completion defers to the thaw (the ISTORE-write stall).
                if let Some(thaw) = self.frozen_until(Self::me_of(c), sched.now()) {
                    self.post(thaw, IxpEv::CtxComputeDone(c), sched);
                    return;
                }
                debug_assert_eq!(self.ctx_status[c], CtxStatus::Running);
                self.run_ctx(c, world, sched);
            }
            IxpEv::CtxBlockDone(c) => self.make_ready(c, sched),
            IxpEv::TokenAt(r) => self.token_at(r, sched),
            IxpEv::RxArrive(p) => self.rx_arrive(p, sched),
        }
    }

    fn me_of(c: CtxId) -> MeId {
        c / CTX_PER_ME
    }

    fn make_ready(&mut self, c: CtxId, sched: &mut impl Sched) {
        debug_assert!(!matches!(self.ctx_status[c], CtxStatus::Running));
        self.ctx_status[c] = CtxStatus::Ready;
        let me = Self::me_of(c);
        self.mes[me].ready.push_back(c);
        if self.mes[me].current.is_none() {
            self.post(sched.now(), IxpEv::MeDispatch(me), sched);
        }
    }

    fn dispatch(&mut self, me: MeId, world: &mut W, sched: &mut impl Sched) {
        if self.mes[me].current.is_some() {
            return;
        }
        let Some(c) = self.mes[me].ready.pop_front() else {
            return;
        };
        debug_assert_eq!(self.ctx_status[c], CtxStatus::Ready);
        self.ctx_status[c] = CtxStatus::Running;
        self.mes[me].current = Some(c);
        self.run_ctx(c, world, sched);
    }

    /// The context leaves the issue slot; a peer may be dispatched after
    /// one swap cycle of dead time.
    fn swap_out(&mut self, c: CtxId, sched: &mut impl Sched) {
        let me = Self::me_of(c);
        debug_assert_eq!(self.mes[me].current, Some(c));
        self.mes[me].current = None;
        if !self.mes[me].ready.is_empty() {
            self.post(
                sched.now() + cycles_to_ps(CTX_SWAP_CYCLES),
                IxpEv::MeDispatch(me),
                sched,
            );
        }
    }

    /// Runs `c` (which holds its MicroEngine's issue slot) until it
    /// schedules a compute block, blocks, or halts.
    fn run_ctx(&mut self, c: CtxId, world: &mut W, sched: &mut impl Sched) {
        loop {
            let op = {
                let Self { progs, hw, .. } = self;
                let prog = progs[c].as_mut().expect("running ctx has a program");
                let mut env = Env {
                    now: sched.now(),
                    ctx: c,
                    world,
                    hw,
                };
                prog.resume(&mut env)
            };
            self.spin.note_op(c, op);
            match op {
                Op::Compute(0) => continue,
                Op::Compute(n) => {
                    self.reg_cycles += u64::from(n);
                    self.post(
                        sched.now() + cycles_to_ps(u64::from(n)),
                        IxpEv::CtxComputeDone(c),
                        sched,
                    );
                    return;
                }
                Op::MemRead(kind, bytes) => {
                    self.maybe_stall_mem(kind, sched.now());
                    let done = self.mem(kind).access(sched.now(), Rw::Read, bytes as usize);
                    self.block(c, CtxStatus::Blocked, sched);
                    self.post(done, IxpEv::CtxBlockDone(c), sched);
                    return;
                }
                Op::MemRead2(kind, bytes) => {
                    // Paired reads issue back to back and the context
                    // blocks on the batch: one wakeup at the last
                    // completion (FIFO completions are nondecreasing).
                    self.maybe_stall_mem(kind, sched.now());
                    let done = self
                        .mem(kind)
                        .access_batch(sched.now(), Rw::Read, bytes as usize, 2);
                    self.block(c, CtxStatus::Blocked, sched);
                    self.post(done, IxpEv::CtxBlockDone(c), sched);
                    return;
                }
                Op::MemWrite(kind, bytes) => {
                    self.maybe_stall_mem(kind, sched.now());
                    let done = self
                        .mem(kind)
                        .access(sched.now(), Rw::Write, bytes as usize);
                    self.block(c, CtxStatus::Blocked, sched);
                    self.post(done, IxpEv::CtxBlockDone(c), sched);
                    return;
                }
                Op::MemWritePosted(kind, bytes) => {
                    let now = sched.now();
                    self.maybe_stall_mem(kind, now);
                    let _ = self.mem(kind).access(now, Rw::Write, bytes as usize);
                    continue;
                }
                Op::TokenAcquire(r) => {
                    let ring = &mut self.rings[r];
                    let here = ring.members[ring.pos] == c;
                    if here && ring.state == RingState::Parked {
                        ring.state = RingState::Held;
                        continue;
                    }
                    self.block(c, CtxStatus::WaitToken(r), sched);
                    return;
                }
                Op::TokenRelease(r) => {
                    let ring = &mut self.rings[r];
                    debug_assert_eq!(ring.state, RingState::Held);
                    debug_assert_eq!(ring.members[ring.pos], c);
                    ring.pos = (ring.pos + 1) % ring.members.len();
                    ring.state = RingState::Moving;
                    let nominal = sched.now() + cycles_to_ps(TOKEN_PASS_CYCLES);
                    let (mut arrive, mut dup) = (nominal, false);
                    if let Some(f) = self.faults.as_mut() {
                        if f.roll(FaultClass::TokenDrop) {
                            // The pass is lost on the wire; the watchdog
                            // regenerates the token after a timeout.
                            let cyc = fault_mag::TOKEN_RECOVERY_MIN_CYC
                                + f.draw_below(
                                    FaultClass::TokenDrop,
                                    fault_mag::TOKEN_RECOVERY_SPREAD_CYC,
                                );
                            arrive = sched.now() + cycles_to_ps(cyc);
                        }
                        if f.roll(FaultClass::TokenDuplicate) {
                            // Spurious second signal; `token_at` absorbs
                            // whichever copy arrives with the ring no
                            // longer in flight.
                            dup = true;
                        }
                    }
                    if dup {
                        self.post(nominal + cycles_to_ps(1), IxpEv::TokenAt(r), sched);
                    }
                    self.post(arrive, IxpEv::TokenAt(r), sched);
                    continue;
                }
                Op::MutexTryAcquire(m) => {
                    // A test-and-set probe: an atomic RMW that locks the
                    // SRAM controller for both phases (double-width
                    // occupancy), acquired or not.
                    let now = sched.now();
                    let done = self.sram.access(now, Rw::Read, 8);
                    let free = self.mutexes[m].holder.is_none();
                    if free {
                        self.mutexes[m].holder = Some(c);
                        self.mutexes[m].acquisitions += 1;
                    }
                    self.hw.last_try[c] = free;
                    self.block(c, CtxStatus::Blocked, sched);
                    self.post(done, IxpEv::CtxBlockDone(c), sched);
                    return;
                }
                Op::MutexAcquire(m) => {
                    let now = sched.now();
                    if self.mutexes[m].holder.is_none() {
                        self.mutexes[m].holder = Some(c);
                        self.mutexes[m].acquisitions += 1;
                        // Uncontended grant: one SRAM CAM access.
                        let done = self
                            .sram
                            .access(now, Rw::Read, 4)
                            .max(now + cycles_to_ps(MUTEX_GRANT_CYCLES));
                        self.block(c, CtxStatus::Blocked, sched);
                        self.post(done, IxpEv::CtxBlockDone(c), sched);
                    } else {
                        self.mutexes[m].waiters.push_back((c, now));
                        self.block(c, CtxStatus::WaitMutex(m), sched);
                    }
                    return;
                }
                Op::MutexRelease(m) if self.cfg.spinlock_mutexes => {
                    // Spin-lock mode: plain unlock write; spinners
                    // discover the free lock on their next probe.
                    debug_assert_eq!(self.mutexes[m].holder, Some(c));
                    self.mutexes[m].holder = None;
                    let _ = self.sram.access(sched.now(), Rw::Write, 4);
                    continue;
                }
                Op::MutexRelease(m) => {
                    let now = sched.now();
                    debug_assert_eq!(self.mutexes[m].holder, Some(c));
                    if let Some((w, since)) = self.mutexes[m].waiters.pop_front() {
                        self.mutexes[m].holder = Some(w);
                        self.mutexes[m].acquisitions += 1;
                        // Handoff: unlock write observed by the waiter.
                        let done = self
                            .sram
                            .access(now, Rw::Write, 4)
                            .max(now + cycles_to_ps(MUTEX_HANDOFF_CYCLES));
                        self.mutexes[m].wait_ps += done.saturating_sub(since);
                        self.ctx_status[w] = CtxStatus::Blocked;
                        self.post(done, IxpEv::CtxBlockDone(w), sched);
                    } else {
                        self.mutexes[m].holder = None;
                    }
                    continue;
                }
                Op::DmaRxToFifo { port, slot } => {
                    let now = sched.now();
                    let mut mp = if self.cfg.ideal_ports {
                        self.hw.rx_template[port]
                            .clone()
                            .expect("ideal port needs a template")
                    } else {
                        self.hw.ports[port]
                            .rx_buf
                            .pop_front()
                            .expect("DmaRxToFifo on empty port (check port_rdy)")
                    };
                    let mut occ = dma_occupancy_ps(mp.len.max(1) as usize);
                    if let Some(f) = self.faults.as_mut() {
                        if f.roll(FaultClass::MpCorrupt) {
                            // A corrupted MAC status word mislabels the
                            // MP's position; downstream assembly must
                            // drop (and count) the orphaned pieces.
                            let k = f.draw_below(FaultClass::MpCorrupt, 3);
                            mp.tag = mp.tag.corrupted(k);
                        }
                        if f.roll(FaultClass::DmaSlow) {
                            let x = fault_mag::DMA_SLOW_MIN_X
                                + f.draw_below(FaultClass::DmaSlow, fault_mag::DMA_SLOW_SPREAD_X);
                            occ *= x;
                        }
                    }
                    let lat = occ + cycles_to_ps(DMA_RX_CMD_CYCLES);
                    let done = self.dma.admit(now, occ, lat);
                    self.hw.in_fifo[slot].push_back(mp);
                    self.block(c, CtxStatus::Blocked, sched);
                    self.post(done, IxpEv::CtxBlockDone(c), sched);
                    return;
                }
                Op::DmaTxToPort { slot, port } => {
                    let now = sched.now();
                    let mp = self.hw.out_fifo[slot]
                        .pop_front()
                        .expect("DmaTxToPort from empty FIFO slot");
                    let mut occ = dma_tx_occupancy_ps(mp.len.max(1) as usize);
                    if let Some(f) = self.faults.as_mut() {
                        if f.roll(FaultClass::DmaSlow) {
                            let x = fault_mag::DMA_SLOW_MIN_X
                                + f.draw_below(FaultClass::DmaSlow, fault_mag::DMA_SLOW_SPREAD_X);
                            occ *= x;
                        }
                    }
                    let done = self.dma_tx.admit(now, occ, occ);
                    if let Some(cap) = &mut self.hw.ports[port].tx_capture {
                        cap.push((done, mp.clone()));
                    }
                    let mut done = done;
                    if !self.cfg.ideal_ports {
                        let (_, release) = self.hw.ports[port].admit_tx(done, &mp, PORT_RX_BUF_MPS);
                        done = done.max(release);
                    } else {
                        // Ideal mode still counts transmissions.
                        let p = &mut self.hw.ports[port];
                        p.tx_mps += 1;
                        p.tx_bytes += u64::from(mp.len);
                        if mp.tag.ends_packet() {
                            p.tx_frames += 1;
                        }
                    }
                    self.block(c, CtxStatus::Blocked, sched);
                    self.post(done, IxpEv::CtxBlockDone(c), sched);
                    return;
                }
                Op::Idle(ps) => {
                    self.block(c, CtxStatus::Blocked, sched);
                    self.post(sched.now() + ps, IxpEv::CtxBlockDone(c), sched);
                    return;
                }
                Op::Halt => {
                    self.ctx_status[c] = CtxStatus::Halted;
                    let me = Self::me_of(c);
                    self.mes[me].current = None;
                    if !self.mes[me].ready.is_empty() {
                        self.post(sched.now(), IxpEv::MeDispatch(me), sched);
                    }
                    return;
                }
            }
        }
    }

    fn block(&mut self, c: CtxId, status: CtxStatus, sched: &mut impl Sched) {
        self.ctx_status[c] = status;
        self.swap_out(c, sched);
    }

    fn mem(&mut self, kind: MemKind) -> &mut MemCtl {
        match kind {
            MemKind::Dram => &mut self.dram,
            MemKind::Sram => &mut self.sram,
            MemKind::Scratch => &mut self.scratch,
        }
    }

    fn token_at(&mut self, r: RingId, sched: &mut impl Sched) {
        if self.spin_token_at(r, sched) {
            return;
        }
        let ring = &mut self.rings[r];
        if ring.state != RingState::Moving {
            // A duplicated token signal (fault plane) arrives after the
            // genuine one parked or granted: absorb it — the ring must
            // never double-grant.
            return;
        }
        let m = ring.members[ring.pos];
        if self.ctx_status[m] == CtxStatus::WaitToken(r) {
            ring.state = RingState::Held;
            self.make_ready(m, sched);
        } else {
            ring.state = RingState::Parked;
        }
    }

    /// MemStall injector: rolled once per memory operation; a hit opens
    /// a stall episode on the targeted controller.
    fn maybe_stall_mem(&mut self, kind: MemKind, now: Time) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        if f.roll(FaultClass::MemStall) {
            let dur = f.draw_window(
                FaultClass::MemStall,
                fault_mag::MEM_STALL_MIN_PS,
                fault_mag::MEM_STALL_SPREAD_PS,
            );
            let extra = f.draw_window(
                FaultClass::MemStall,
                fault_mag::MEM_EXTRA_MIN_PS,
                fault_mag::MEM_EXTRA_SPREAD_PS,
            );
            self.mem(kind).inject_stall(now, dur, extra);
        }
    }

    /// (Re)arms the receive schedule of `p` — required after attaching
    /// a source to a port whose previous source was exhausted.
    pub fn reprime_port(&mut self, p: PortId, sched: &mut impl Sched) {
        self.prime_port(p, sched);
    }

    /// Schedules the `RxArrive` for the head of `p`'s pending MPs
    /// unless one is already outstanding, so priming is idempotent.
    fn prime_port(&mut self, p: PortId, sched: &mut impl Sched) {
        if self.hw.ports[p].rx_due.is_some() {
            return;
        }
        if let Some(t) = self.hw.ports[p].refill_pending(p) {
            // A source attached mid-run may stamp its first frame in
            // this machine's past: deliver it now rather than then.
            let t = t.max(sched.now());
            sched.at(t, IxpEv::RxArrive(p));
            self.hw.ports[p].rx_due = Some(t);
        }
        self.spin_note_ports();
    }

    fn rx_arrive(&mut self, p: PortId, sched: &mut impl Sched) {
        let now = sched.now();
        // The port may turn ready under a polling context.
        self.spin.disturb_all();
        self.hw.ports[p].rx_due = None;
        if let Some(f) = self.faults.as_mut() {
            if f.roll(FaultClass::PortFlap) {
                let dur = f.draw_window(
                    FaultClass::PortFlap,
                    fault_mag::FLAP_MIN_PS,
                    fault_mag::FLAP_SPREAD_PS,
                );
                self.hw.ports[p].inject_flap(now, dur);
            }
        }
        self.hw.ports[p].deliver_pending(now);
        // Arms the next MP of this frame, or pulls the next frame.
        self.prime_port(p, sched);
    }
}

#[path = "spin.rs"]
mod spin;
pub use spin::SpinStats;

#[cfg(test)]
#[path = "machine_tests.rs"]
mod tests;
