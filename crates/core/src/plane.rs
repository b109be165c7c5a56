//! The typed event set of the processor hierarchy and the shared
//! hardware its handlers borrow.
//!
//! The router is three processors behind one event loop: the
//! MicroEngines, whose programs run inside the machine model; the
//! StrongARM ([`crate::sa::StrongArm`]); and the Pentium
//! ([`crate::pe::Pentium`]). Each level owns only its level-local
//! state; the hardware every level shares — the packet world, the PCI
//! bus, the event queue, and a narrow [`Chip`] port onto the IXP
//! machine — travels through a [`Bus`] borrowed for one event.
//!
//! A [`PlaneEvent`] is the instruction set: `Router::dispatch` is one
//! exhaustive match from each variant to its handler, so an event with
//! no handler is a compile error. Context
//! programs running inside the machine model only see the world, so an
//! input context that stages an escalated packet raises
//! `RouterWorld::wake_sa`, and the dispatcher turns it into one
//! StrongARM wakeup after the step.
//!
//! # The simulated control path
//!
//! `install / remove / getdata / setdata` used to be out-of-band Rust
//! calls; the paper's operations run *on* the hierarchy (section 4.5)
//! and must contend with data traffic. Admission control and
//! bookkeeping stay synchronous (the operator learns immediately
//! whether the request is admissible), but the operation itself is a
//! [`ControlOp`] that traverses the levels with real costs:
//!
//! 1. [`PlaneEvent::CtlSubmit`] — the op originates at the Pentium,
//!    which marshals it for `costs::CTL_PE_CYCLES`, sharing the single
//!    Pentium server with packet forwarders.
//! 2. The descriptor (plus ME program words or `setdata` payload)
//!    crosses the PCI bus as an ordinary transaction, contending with
//!    packet DMA.
//! 3. [`PlaneEvent::CtlAdmit`] — the StrongARM fields the doorbell and
//!    executes the op for `costs::CTL_SA_CYCLES`, ahead of packet work
//!    on its single server.
//! 4. For ME code, [`PlaneEvent::CtlApply`] lands the write in the
//!    instruction store: the mirroring input MicroEngines freeze for
//!    the 80-cycles-per-slot write window (section 4.5's "requires
//!    disabling the parallel processor"). No plane can freeze an
//!    engine: the composition root applies this one event itself
//!    (`Router::apply_ctl`), and [`PlaneQueue`] counts the ME-code ops
//!    between their submission and this landing.
//!
//! `getdata` replies cross the bus a second time, upward. Every stage
//! charges its level's cycle accounting, so control load is visible in
//! the `Report` and in PCI utilization.

use npr_ixp::{Ixp, IxpEv, Rw, Sched};
use npr_sim::{EventQueue, FaultPlan, Time, Wakeup};

use crate::install::Fid;
use crate::pci::Pci;
use crate::pe::PeItem;
use crate::world::RouterWorld;

/// What a control operation does once it reaches its level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlVerb {
    /// Activate an installed forwarder. `slots > 0` means ME code that
    /// must be written into the instruction store (freezing the input
    /// engines for the write window); `slots == 0` is a StrongARM or
    /// Pentium jump-table registration.
    Install {
        /// The forwarder being activated.
        fid: Fid,
        /// ISTORE slots its code occupies (ME only).
        slots: usize,
    },
    /// Deactivate a forwarder; ME removals rewrite the store under the
    /// same freeze window as installs.
    Remove {
        /// The forwarder being removed.
        fid: Fid,
        /// ISTORE slots being reclaimed (ME only).
        slots: usize,
    },
    /// Read `bytes` of flow state back to the operator.
    GetData {
        /// The forwarder whose state is read.
        fid: Fid,
        /// State bytes crossing the bus upward.
        bytes: usize,
    },
    /// Write `bytes` of flow state.
    SetData {
        /// The forwarder whose state is written.
        fid: Fid,
        /// Payload bytes riding the downward descriptor.
        bytes: usize,
    },
}

/// One in-flight control operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlOp {
    /// Submission order (also the op's identity in traces).
    pub seq: u64,
    /// What to do.
    pub verb: ControlVerb,
    /// Submission time (latency accounting).
    pub issued: Time,
}

impl ControlOp {
    /// Bytes of the Pentium-to-StrongARM descriptor transaction:
    /// descriptor + ME program words (4 B per ISTORE slot) + `setdata`
    /// payload.
    pub fn pci_down_bytes(&self, desc_bytes: usize) -> usize {
        desc_bytes
            + match self.verb {
                ControlVerb::Install { slots, .. } => slots * 4,
                ControlVerb::SetData { bytes, .. } => bytes,
                _ => 0,
            }
    }

    /// Bytes of the upward reply transaction (`getdata` only).
    pub fn pci_up_bytes(&self, desc_bytes: usize) -> usize {
        match self.verb {
            ControlVerb::GetData { bytes, .. } => desc_bytes + bytes,
            _ => 0,
        }
    }

    /// ISTORE slots this op rewrites on the fast path (0 = the op
    /// terminates at the StrongARM).
    pub fn istore_slots(&self) -> usize {
        match self.verb {
            ControlVerb::Install { slots, .. } | ControlVerb::Remove { slots, .. } => slots,
            _ => 0,
        }
    }
}

/// Typed inter-plane messages on the shared event queue.
///
/// The queue moves one of these per `schedule` and per `pop`, and most
/// are `Machine`. The rare variants with a large payload (a packet
/// head, a control op) box it so they do not set the size of every
/// entry; `plane_event_stays_small` holds the line.
#[derive(Debug)]
pub enum PlaneEvent {
    /// Fast path: a machine event (context dispatch, DMA completion,
    /// token arrival, ...).
    Machine(IxpEv),
    /// Fast path: an admitted control op lands in the instruction
    /// store (freeze window starts now).
    CtlApply(Box<ControlOp>),
    /// StrongARM: look for work.
    SaPoll,
    /// StrongARM: the current job finished. The generation number guards
    /// against stale completions: a watchdog soft reset bumps the
    /// StrongARM's generation, so a `SaDone` scheduled by the wedged job
    /// is ignored when it finally fires.
    SaDone {
        /// StrongARM generation that scheduled this completion.
        gen: u64,
    },
    /// StrongARM: a control op crossed the bus from the Pentium.
    CtlAdmit(Box<ControlOp>),
    /// Watchdog pulse: scheduled by the health monitor when it first
    /// observes a stall, so detection happens at the configured bound
    /// even if the event queue would otherwise go quiet. Dispatch does
    /// nothing with it (the monitor samples after every event). Never
    /// scheduled on a healthy run — the fault-free schedule stays
    /// bit-identical.
    HealthPulse,
    /// Pentium: a packet arrived over PCI.
    PeArrive(Box<PeItem>),
    /// Pentium: look for work.
    PeWake,
    /// Pentium: the current job finished.
    PeDone,
    /// Pentium: a write-back crossed the bus (back toward the IXP; the
    /// fast path's output loop picks the queued descriptor up from
    /// SRAM, so the event terminates at the Pentium plane, which owns
    /// the I2O buffer being released).
    PeWriteback {
        /// IXP-side descriptor.
        desc: u32,
        /// Possibly modified head bytes.
        head: Box<[u8; 64]>,
    },
    /// Pentium: the operator submitted a control op.
    CtlSubmit(Box<ControlOp>),
}

/// Control-plane accounting: totals since construction. `Router::mark`
/// snapshots the whole struct (it is `Copy`), and the report diffs
/// against the snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtlStats {
    /// Operations submitted.
    pub submitted: u64,
    /// Operations that reached their terminal level.
    pub completed: u64,
    /// Pentium cycles spent marshalling.
    pub pe_cycles: u64,
    /// StrongARM cycles spent admitting/executing.
    pub sa_cycles: u64,
    /// PCI bytes moved by control descriptors.
    pub pci_bytes: u64,
    /// Sum of completion latencies (submit to terminal), ps.
    pub latency_sum_ps: u64,
    /// Worst completion latency, ps.
    pub latency_max_ps: u64,
}

impl CtlStats {
    /// Operations submitted but not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.completed
    }

    /// Records `op` reaching its terminal level at `done`.
    pub fn complete(&mut self, op: &ControlOp, done: Time) {
        self.completed += 1;
        let lat = done.saturating_sub(op.issued);
        self.latency_sum_ps += lat;
        self.latency_max_ps = self.latency_max_ps.max(lat);
    }
}

impl PlaneEvent {
    /// Index of this event's kind in [`EVENT_KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            PlaneEvent::Machine(IxpEv::MeDispatch(_)) => 0,
            PlaneEvent::Machine(IxpEv::CtxComputeDone(_)) => 1,
            PlaneEvent::Machine(IxpEv::CtxBlockDone(_)) => 2,
            PlaneEvent::Machine(IxpEv::TokenAt(_)) => 3,
            PlaneEvent::Machine(IxpEv::RxArrive(_)) => 4,
            PlaneEvent::CtlApply(_) => 5,
            PlaneEvent::SaPoll => 6,
            PlaneEvent::SaDone { .. } => 7,
            PlaneEvent::CtlAdmit(_) => 8,
            PlaneEvent::HealthPulse => 9,
            PlaneEvent::PeArrive(_) => 10,
            PlaneEvent::PeWake => 11,
            PlaneEvent::PeDone => 12,
            PlaneEvent::PeWriteback { .. } => 13,
            PlaneEvent::CtlSubmit(_) => 14,
        }
    }
}

/// Names of the event kinds `Router::events_by_kind` counts, in its
/// order: the five machine events, then the plane events.
pub const EVENT_KINDS: [&str; 15] = [
    "MeDispatch",
    "CtxComputeDone",
    "CtxBlockDone",
    "TokenAt",
    "RxArrive",
    "CtlApply",
    "SaPoll",
    "SaDone",
    "CtlAdmit",
    "HealthPulse",
    "PeArrive",
    "PeWake",
    "PeDone",
    "PeWriteback",
    "CtlSubmit",
];

/// The router's event queue, which also knows when its pending
/// non-`Machine` events are due, whether an ME-code control op is on
/// its way to the fast path, and how far the current `run_until` goes:
/// the outside facts the machine needs before it may skip idle
/// rotations (`npr_ixp`'s `spin.rs`). Every plane event reaches the
/// queue through [`PlaneQueue::schedule`], so none can be missed.
#[derive(Debug, Default)]
pub(crate) struct PlaneQueue {
    q: EventQueue<PlaneEvent>,
    /// Instants of the pending non-`Machine` events, descending (a
    /// handful: the earliest is the last).
    plane_at: Vec<Time>,
    /// ME-code control ops in flight: raised when one is submitted
    /// (`Router::submit_ctl`), lowered at its `CtlApply`
    /// (`Router::apply_ctl`). The freeze at that landing is the one
    /// way a plane event reaches machine state a jump credits.
    pub(crate) me_code_ops: u32,
    /// Deadline of the `run_until` in progress (0 outside one).
    pub(crate) deadline: Time,
}

impl PlaneQueue {
    pub(crate) fn now(&self) -> Time {
        self.q.now()
    }

    pub(crate) fn schedule(&mut self, at: Time, ev: PlaneEvent) {
        if !matches!(ev, PlaneEvent::Machine(_)) {
            let at = at.max(self.q.now());
            let i = self.plane_at.partition_point(|&t| t > at);
            self.plane_at.insert(i, at);
        }
        self.q.schedule(at, ev);
    }

    pub(crate) fn schedule_in(&mut self, delay: Time, ev: PlaneEvent) {
        self.schedule(self.q.now() + delay, ev);
    }

    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.q.peek_time()
    }

    pub(crate) fn peek_key(&self) -> Option<(Time, u64)> {
        self.q.peek_key()
    }

    pub(crate) fn advance_to(&mut self, t: Time) {
        self.q.advance_to(t);
    }

    pub(crate) fn pop_if_at_or_before(&mut self, t: Time) -> Option<(Time, PlaneEvent)> {
        let popped = self.q.pop_if_at_or_before(t)?;
        if !matches!(popped.1, PlaneEvent::Machine(_)) {
            // Events pop in time order, so this is the earliest one.
            let at = self.plane_at.pop();
            debug_assert_eq!(at, Some(popped.0));
        }
        Some(popped)
    }

    /// The earliest pending non-`Machine` event (`Time::MAX` if none).
    fn next_plane_at(&self) -> Time {
        self.plane_at.last().copied().unwrap_or(Time::MAX)
    }
}

/// Adapts the shared queue to the machine's [`Sched`] trait.
pub(crate) struct IxpSched<'a> {
    pub q: &'a mut PlaneQueue,
    /// The health monitor's next epoch boundary (0 when the call is not
    /// made from the dispatch loop: the machine then skips nothing).
    pub epoch: Time,
}

impl Sched for IxpSched<'_> {
    fn now(&self) -> Time {
        self.q.now()
    }
    fn at(&mut self, t: Time, ev: IxpEv) {
        self.q.schedule(t, PlaneEvent::Machine(ev));
    }
    /// A plane reaches the machine in three ways: a DRAM access
    /// through the [`Chip`] port, which no armed ring member issues; a
    /// fault draw through it, which needs a plan, and a machine that
    /// ever had one never arms; and the freeze of a `CtlApply`, which
    /// the root applies for a counted ME-code op. So with no such op in
    /// flight only a health decision can disturb a ring, at the next
    /// epoch. With one in flight any plane event may be the one that
    /// moves it on, and the jump ends at the next of them.
    fn calm_until(&self) -> Time {
        if self.q.me_code_ops == 0 {
            self.epoch
        } else {
            self.epoch.min(self.q.next_plane_at())
        }
    }
    fn run_deadline(&self) -> Time {
        self.q.deadline
    }
    fn take_seq(&mut self) -> u64 {
        self.q.q.take_seq()
    }
}

/// What a plane may do to the IXP machine: say *what* it does to the
/// chip — a DRAM access, a fault draw — and nothing else. Machine
/// events go in through [`Bus::machine`]; the instruction-store freeze
/// is applied by the composition root alone (`Router::apply_ctl`), so
/// no plane can read or change the state an idle-ring jump credits
/// (DESIGN.md §5).
pub struct Chip<'a> {
    ixp: &'a mut Ixp<RouterWorld>,
}

impl<'a> Chip<'a> {
    pub(crate) fn new(ixp: &'a mut Ixp<RouterWorld>) -> Self {
        Self { ixp }
    }

    /// An access to IXP DRAM, whose controller the StrongARM shares
    /// with the MicroEngines; returns its completion time.
    pub fn dram_access(&mut self, now: Time, rw: Rw, bytes: usize) -> Time {
        self.ixp.dram.access(now, rw, bytes)
    }

    /// The fault plan, for injectors outside the machine to draw from.
    pub fn fault_plan(&mut self) -> Option<&mut FaultPlan> {
        self.ixp.fault_plan_mut()
    }
}

/// The hardware all levels share, borrowed for one event. Level-local
/// state stays on the level's handler (`&mut self`); everything cross-cutting —
/// packet world, PCI bus, chip port, clock, wakers, control accounting
/// — goes through here.
pub struct Bus<'a> {
    /// Shared data-plane state.
    pub world: &'a mut RouterWorld,
    /// The PCI bus + I2O buffers.
    pub pci: &'a mut Pci,
    /// The narrow port onto the IXP machine.
    pub chip: Chip<'a>,
    /// Control-plane accounting.
    pub ctl: &'a mut CtlStats,
    pub(crate) events: &'a mut PlaneQueue,
    /// The health monitor's next epoch boundary.
    pub(crate) epoch: Time,
    pub(crate) sa_waker: &'a mut Wakeup,
    pub(crate) pe_waker: &'a mut Wakeup,
}

impl Bus<'_> {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.events.now()
    }

    /// Schedules `ev` at absolute time `t`.
    pub fn send_at(&mut self, t: Time, ev: PlaneEvent) {
        self.events.schedule(t, ev);
    }

    /// Schedules `ev` `delay` after now.
    pub fn send_in(&mut self, delay: Time, ev: PlaneEvent) {
        self.events.schedule_in(delay, ev);
    }

    /// Requests a StrongARM poll at absolute time `t`, coalescing
    /// same-timestamp duplicates.
    pub fn wake_sa_at(&mut self, t: Time) {
        if self.sa_waker.request(t) {
            self.events.schedule(t, PlaneEvent::SaPoll);
        }
    }

    /// Requests a StrongARM poll `delay` after now.
    pub fn wake_sa_in(&mut self, delay: Time) {
        self.wake_sa_at(self.events.now() + delay);
    }

    /// Requests a Pentium wakeup `delay` after now, coalescing
    /// same-timestamp duplicates.
    pub fn wake_pe_in(&mut self, delay: Time) {
        let t = self.events.now() + delay;
        if self.pe_waker.request(t) {
            self.events.schedule(t, PlaneEvent::PeWake);
        }
    }

    /// Feeds a machine event into the IXP model.
    pub fn machine(&mut self, ev: IxpEv) {
        let mut s = IxpSched {
            q: &mut *self.events,
            epoch: self.epoch,
        };
        self.chip.ixp.handle(ev, &mut *self.world, &mut s);
    }

    /// Admits a packet DMA of `bytes` on the PCI bus (under the fault
    /// plane); returns its completion time.
    pub fn pci_transfer(&mut self, bytes: usize) -> Time {
        let now = self.events.now();
        self.pci.transfer_faulty(now, bytes, self.chip.fault_plan())
    }

    /// Admits a control-descriptor DMA: same shared bus, but the bytes
    /// are charged to control accounting.
    pub fn ctl_pci_transfer(&mut self, bytes: usize) -> Time {
        self.ctl.pci_bytes += bytes as u64;
        let now = self.events.now();
        self.pci.transfer(now, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(verb: ControlVerb) -> Box<ControlOp> {
        Box::new(ControlOp {
            seq: 0,
            verb,
            issued: 0,
        })
    }

    #[test]
    fn plane_event_stays_small() {
        // Every queue entry is `(at, seq, PlaneEvent)`: 24 bytes here
        // keeps it at 40. A new variant that breaks this should box
        // its payload.
        assert!(core::mem::size_of::<PlaneEvent>() <= 24);
    }

    #[test]
    fn event_kinds_are_named_after_their_variants() {
        let boxed = || op(ControlVerb::GetData { fid: 1, bytes: 4 });
        let mut all = vec![
            PlaneEvent::CtlApply(boxed()),
            PlaneEvent::SaPoll,
            PlaneEvent::SaDone { gen: 0 },
            PlaneEvent::CtlAdmit(boxed()),
            PlaneEvent::HealthPulse,
            PlaneEvent::PeWake,
            PlaneEvent::PeDone,
            PlaneEvent::PeWriteback {
                desc: 0,
                head: Box::new([0; 64]),
            },
            PlaneEvent::CtlSubmit(boxed()),
        ];
        all.extend(
            [
                IxpEv::MeDispatch(0),
                IxpEv::CtxComputeDone(0),
                IxpEv::CtxBlockDone(0),
                IxpEv::TokenAt(0),
                IxpEv::RxArrive(0),
            ]
            .map(PlaneEvent::Machine),
        );
        let mut seen = [false; EVENT_KINDS.len()];
        for ev in &all {
            let name = EVENT_KINDS[ev.kind()];
            assert!(format!("{ev:?}").contains(name), "{ev:?} counted as {name}");
            seen[ev.kind()] = true;
        }
        // `PeArrive` needs a whole `PeItem`; it is the one left.
        assert_eq!(seen.iter().filter(|s| !**s).count(), 1);
    }

    #[test]
    fn control_op_bus_sizing() {
        let ins = op(ControlVerb::Install { fid: 1, slots: 10 });
        assert_eq!(ins.pci_down_bytes(32), 32 + 40);
        assert_eq!(ins.pci_up_bytes(32), 0);
        assert_eq!(ins.istore_slots(), 10);
        let get = op(ControlVerb::GetData { fid: 1, bytes: 64 });
        assert_eq!(get.pci_down_bytes(32), 32);
        assert_eq!(get.pci_up_bytes(32), 96);
        assert_eq!(get.istore_slots(), 0);
        let set = op(ControlVerb::SetData { fid: 1, bytes: 24 });
        assert_eq!(set.pci_down_bytes(32), 56);
        assert_eq!(set.istore_slots(), 0);
    }

    #[test]
    fn ctl_stats_track_latency_and_in_flight() {
        let mut s = CtlStats {
            submitted: 2,
            ..Default::default()
        };
        assert_eq!(s.in_flight(), 2);
        let o = ControlOp {
            seq: 0,
            verb: ControlVerb::GetData { fid: 1, bytes: 0 },
            issued: 100,
        };
        s.complete(&o, 700);
        assert_eq!(s.in_flight(), 1);
        assert_eq!(s.latency_sum_ps, 600);
        assert_eq!(s.latency_max_ps, 600);
    }
}
