//! The Pentium level: installed control forwarders under proportional
//! share (paper, sections 3.7 / 4.1 / 4.6), plus the origin of the
//! control interface — `install`/`remove`/`getdata`/`setdata` are
//! marshalled here before crossing the bus, sharing the single Pentium
//! server with packet forwarders.

use std::collections::VecDeque;

use npr_packet::BufferHandle;
use npr_sim::Time;

use crate::costs::{CTL_DESC_BYTES, CTL_PE_CYCLES, PE_NULL_BASE, PE_PER_EXTRA_MP};
use crate::health::Policer;
use crate::plane::{Bus, ControlOp, PlaneEvent};
use crate::world::RouterWorld;

/// Signature of a Pentium forwarder: the lazily-fetched head bytes plus
/// world access (control forwarders update routes / read monitors).
pub type PePacketFn = Box<dyn FnMut(&mut [u8; 64], &mut RouterWorld) -> PeAction + Send>;

/// What a Pentium forwarder did with its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeAction {
    /// Write the (possibly modified) packet back to the IXP for
    /// transmission.
    Forward,
    /// Discard.
    Drop,
    /// Consume (control traffic: routing updates, monitor reports).
    Consume,
}

/// A packet as it exists on the Pentium: the lazily transferred head
/// plus retrieval metadata.
#[derive(Debug, Clone)]
pub struct PeItem {
    /// Queue descriptor on the IXP side.
    pub desc: u32,
    /// Jump-table index (`u32::MAX` = null forwarder).
    pub fwdr: u32,
    /// First 64 bytes of the packet.
    pub head: [u8; 64],
    /// Full frame length.
    pub len: u16,
    /// MP count (for write-back sizing).
    pub mps: u8,
    /// True when only the head crossed the bus.
    pub lazy: bool,
}

/// An installed Pentium forwarder.
pub struct PeForwarder {
    /// Name for reports.
    pub name: String,
    /// Cycles at 733 MHz per packet.
    pub cycles: u64,
    /// Proportional-share tickets, as admitted (never zero).
    pub tickets: u64,
    /// Admission-control declaration: expected packets per second.
    pub expected_pps: u64,
    /// The transformation (head bytes + world access for control
    /// forwarders that update routes or read monitor state).
    pub f: PePacketFn,
}

impl std::fmt::Debug for PeForwarder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeForwarder")
            .field("name", &self.name)
            .field("cycles", &self.cycles)
            .field("tickets", &self.tickets)
            .finish()
    }
}

/// Pentium state.
#[derive(Debug, Default)]
pub struct Pentium {
    /// The inbound I2O queue, served in order: the share among
    /// forwarders was decided when the StrongARM bridged each packet.
    pub inbound: VecDeque<PeItem>,
    /// Installed forwarders.
    pub forwarders: Vec<PeForwarder>,
    /// Busy flag: `Some(item)` while processing.
    pub current: Option<PeItem>,
    /// Pending control operations awaiting marshalling (served before
    /// packets; counted in control accounting, not in `done`).
    pub ctl_q: VecDeque<ControlOp>,
    /// Control op being marshalled (the server is single: never busy
    /// with a packet and a control op at once).
    pub ctl_current: Option<ControlOp>,
    /// Extra delay-loop cycles per packet (spare-cycle probing).
    delay_loop_cycles: u64,
    /// Busy picoseconds.
    pub busy_ps: Time,
    /// Packets completed.
    pub done: u64,
    /// Jobs finished since construction (packets *and* control ops) —
    /// the health monitor's progress signal.
    pub jobs_finished: u64,
    /// Runtime-budget policing of the installed forwarders: the overrun
    /// fault hook, attempted-cost accounting and the throttle rung.
    pub policer: Policer,
}

impl Pentium {
    /// Creates an idle Pentium that spins `delay_loop_cycles` extra
    /// cycles per packet (`RouterConfig::pe_delay_loop`).
    pub fn new(delay_loop_cycles: u64) -> Self {
        Self {
            delay_loop_cycles,
            ..Self::default()
        }
    }

    /// Declared per-packet cost of jump-table entry `fwdr` (0 for the
    /// null forwarder).
    fn declared(&self, fwdr: u32) -> u64 {
        self.forwarders.get(fwdr as usize).map_or(0, |f| f.cycles)
    }

    /// The next packet, in arrival order.
    pub fn pick(&mut self) -> Option<PeItem> {
        self.inbound.pop_front()
    }

    /// Cycles to process `item`.
    pub fn cycles_for(&self, item: &PeItem) -> u64 {
        let f = self.declared(item.fwdr);
        let body = if item.lazy {
            0
        } else {
            u64::from(item.mps.saturating_sub(1)) * PE_PER_EXTRA_MP
        };
        PE_NULL_BASE + f + body + self.delay_loop_cycles
    }

    /// Inbound occupancy.
    pub fn backlog(&self) -> usize {
        self.inbound.len()
    }

    /// [`PlaneEvent::PeArrive`]: a packet arrived over PCI.
    pub(crate) fn arrive(&mut self, item: PeItem, bus: &mut Bus<'_>) {
        self.inbound.push_back(item);
        bus.wake_pe_in(0);
    }

    /// [`PlaneEvent::CtlSubmit`]: the operator submitted a control op.
    pub(crate) fn submit(&mut self, op: ControlOp, bus: &mut Bus<'_>) {
        self.ctl_q.push_back(op);
        bus.wake_pe_in(0);
    }

    /// [`PlaneEvent::PeWake`]: starts the next job when idle, control
    /// ops first.
    pub(crate) fn wake(&mut self, bus: &mut Bus<'_>) {
        if self.current.is_some() || self.ctl_current.is_some() {
            return;
        }
        // Control operations first: rare, latency-bounded, and they
        // must not starve behind a packet backlog.
        if let Some(op) = self.ctl_q.pop_front() {
            let cycles = CTL_PE_CYCLES;
            bus.ctl.pe_cycles += cycles;
            let dur = cycles * npr_sim::PS_PER_PENTIUM_CYCLE;
            self.busy_ps += dur;
            self.ctl_current = Some(op);
            bus.send_in(dur, PlaneEvent::PeDone);
            return;
        }
        let Some(item) = self.pick() else { return };
        let declared = self.declared(item.fwdr);
        let cycles = self.cycles_for(&item) + self.policer.police(item.fwdr, declared);
        let dur = cycles * npr_sim::PS_PER_PENTIUM_CYCLE;
        self.busy_ps += dur;
        self.current = Some(item);
        bus.send_in(dur, PlaneEvent::PeDone);
    }

    /// [`PlaneEvent::PeDone`]: the current job finished.
    pub(crate) fn finish(&mut self, bus: &mut Bus<'_>) {
        let now = bus.now();
        // A marshalled control op heads down the bus to the StrongARM.
        // Control descriptors do not claim I2O packet buffers.
        if let Some(op) = self.ctl_current.take() {
            self.jobs_finished += 1;
            let bytes = op.pci_down_bytes(CTL_DESC_BYTES);
            let done_t = bus.ctl_pci_transfer(bytes);
            bus.send_at(done_t, PlaneEvent::CtlAdmit(Box::new(op)));
            bus.wake_pe_in(0);
            return;
        }
        let Some(mut item) = self.current.take() else {
            return;
        };
        self.jobs_finished += 1;
        self.done += 1;
        bus.world.counters.pe_done.inc();
        let action = match self.forwarders.get_mut(item.fwdr as usize) {
            Some(f) => (f.f)(&mut item.head, bus.world),
            None => PeAction::Forward,
        };
        if bus.world.traced_descs.contains(&item.desc) {
            let label = match action {
                PeAction::Forward => "forward",
                PeAction::Drop => "drop",
                PeAction::Consume => "consume",
            };
            bus.world
                .tracer
                .record(now, crate::trace::TraceStep::Pentium { action: label });
            if action != PeAction::Forward {
                bus.world.traced_descs.remove(&item.desc);
            }
        }
        match action {
            PeAction::Forward => {
                let bytes = crate::sa::bridge_bytes(usize::from(item.len), item.lazy);
                let done_t = bus.pci_transfer(bytes);
                bus.send_at(
                    done_t,
                    PlaneEvent::PeWriteback {
                        desc: item.desc,
                        head: Box::new(item.head),
                    },
                );
            }
            PeAction::Drop => {
                bus.world.counters.pe_drops.inc();
                bus.pci.release_buffer();
                bus.wake_sa_in(0);
            }
            PeAction::Consume => {
                bus.world.counters.pe_consumed.inc();
                bus.pci.release_buffer();
                bus.wake_sa_in(0);
            }
        }
        bus.wake_pe_in(0);
    }

    /// [`PlaneEvent::PeWriteback`]: a forwarded head crossed the bus
    /// back; releases its I2O buffer and queues the packet for output.
    pub(crate) fn writeback(&mut self, bus: &mut Bus<'_>, desc: u32, head: &[u8; 64]) {
        bus.pci.release_buffer();
        let h = BufferHandle::from_descriptor(desc);
        if bus.world.pool.read(h).is_some() {
            let meta = *bus.world.meta_of(h);
            let n = usize::from(meta.len).min(64);
            if n > 0 {
                bus.world.pool.write_at(h, 0, &head[..n]);
            }
            let now = bus.now();
            if bus.world.enqueue_out(desc, None, now) {
                bus.world.trace_enqueued(desc, now);
            }
        } else {
            bus.world.counters.lap_losses.inc();
        }
        bus.wake_sa_in(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> PeItem {
        PeItem {
            desc: 0,
            fwdr: u32::MAX,
            head: [0; 64],
            len: 60,
            mps: 1,
            lazy: true,
        }
    }

    #[test]
    fn null_cost_matches_calibration() {
        let pe = Pentium::new(0);
        assert_eq!(pe.cycles_for(&item()), 872);
    }

    #[test]
    fn full_body_costs_more() {
        let pe = Pentium::new(0);
        let mut it = item();
        it.mps = 24;
        it.lazy = false;
        assert!(pe.cycles_for(&it) > 872);
    }

    #[test]
    fn delay_loop_adds_cycles() {
        assert_eq!(Pentium::new(100).cycles_for(&item()), 872 + 100);
    }

    #[test]
    fn stride_serves_classes_proportionally() {
        // Two forwarders at 300:100 tickets, both backlogged at the
        // StrongARM: the share bridges their packets into the inbound
        // FIFO, and the Pentium serves them in that order.
        let mut staging = crate::sa::PeStaging::default();
        staging.add(300);
        staging.add(100);
        for desc in 0..400 {
            assert!(staging.enqueue(desc, 0));
            assert!(staging.enqueue(desc, 1));
        }
        let mut pe = Pentium::new(0);
        for _ in 0..200 {
            let queues = &staging.queues;
            let q = staging.share.pick(|q| !queues[q].is_empty()).unwrap();
            let (desc, fwdr) = staging.queues[q].dequeue().unwrap();
            pe.inbound.push_back(PeItem { desc, fwdr, ..item() });
        }
        let mut served = [0u32; 2];
        while let Some(it) = pe.pick() {
            served[it.fwdr as usize] += 1;
        }
        assert_eq!(served[0] + served[1], 200);
        assert!(served[0] > served[1] * 2, "{served:?}");
    }

    #[test]
    fn pick_on_empty_returns_none() {
        let mut pe = Pentium::new(0);
        assert!(pe.pick().is_none());
        assert_eq!(pe.backlog(), 0);
    }
}
