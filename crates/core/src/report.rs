//! Measurement: per-window reports, the packet-conservation ledger,
//! and the quiescence watchdog.
//!
//! Every additive statistic in the router is a lifetime total that
//! nothing zeroes. A measurement window is an observation: `mark`
//! keeps one snapshot of the totals and `report` differences the
//! current totals against it.

use npr_sim::{cycles_to_ps, Time, ME_HZ, PENTIUM_HZ, PS_PER_SEC};

use crate::health::HealthStats;
use crate::plane::CtlStats;
use crate::router::Router;
use crate::world::RunMode;

/// A measurement report over one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Window length in picoseconds.
    pub window_ps: Time,
    /// Packets completed by the input process, Mpps.
    pub input_mpps: f64,
    /// Packets transmitted (or stage-equivalent), Mpps.
    pub forward_mpps: f64,
    /// Measured mean register cycles per MP, input loop.
    pub input_reg_per_mp: f64,
    /// Measured mean register cycles per MP, output loop.
    pub output_reg_per_mp: f64,
    /// StrongARM completions, Kpps.
    pub sa_kpps: f64,
    /// Pentium completions, Kpps.
    pub pe_kpps: f64,
    /// Spare StrongARM cycles per StrongARM packet.
    pub sa_spare_cycles: f64,
    /// Spare Pentium cycles per Pentium packet.
    pub pe_spare_cycles: f64,
    /// Output-queue drops in the window: ring overflows, or under the
    /// per-flow queue manager every flow-queue discard (the sum of the
    /// three `qm_*_drops` below).
    pub queue_drops: u64,
    /// StrongARM/Pentium staging-queue drops.
    pub escalation_drops: u64,
    /// Port receive drops (frames).
    pub port_drops: u64,
    /// Buffer-lap losses.
    pub lap_losses: u64,
    /// VRP drops.
    pub vrp_drops: u64,
    /// Mean mutex wait per acquisition, in MicroEngine cycles
    /// (Figure 10's contention overhead).
    pub mutex_wait_cycles: f64,
    /// DRAM utilization.
    pub dram_util: f64,
    /// SRAM utilization.
    pub sram_util: f64,
    /// IX-bus DMA utilization.
    pub dma_util: f64,
    /// PCI utilization.
    pub pci_util: f64,
    /// Mean forwarding latency (arrival to wire), microseconds.
    pub latency_avg_us: f64,
    /// Median forwarding latency, microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile forwarding latency, microseconds.
    pub latency_p99_us: f64,
    /// Maximum forwarding latency in the window, microseconds.
    pub latency_max_us: f64,
    /// Control operations completed in the window.
    pub ctl_ops: u64,
    /// Pentium cycles spent marshalling control ops in the window.
    pub ctl_pe_cycles: u64,
    /// StrongARM cycles spent executing control ops in the window.
    pub ctl_sa_cycles: u64,
    /// PCI bytes moved by control descriptors in the window.
    pub ctl_pci_bytes: u64,
    /// Mean control-op latency (submit to terminal level), microseconds.
    pub ctl_latency_avg_us: f64,
    /// Health-monitor epochs sampled in the window.
    pub health_epochs: u64,
    /// Health warnings raised in the window.
    pub health_warnings: u64,
    /// Forwarders throttled in the window.
    pub health_throttles: u64,
    /// Forwarders quarantined in the window.
    pub health_quarantines: u64,
    /// StrongARM watchdog soft resets in the window.
    pub sa_resets: u64,
    /// Recovery actions completed in the window.
    pub recoveries: u64,
    /// Mean detection-to-recovery latency, microseconds.
    pub recovery_latency_avg_us: f64,
    /// PCI transactions that exhausted their retry budget in the window.
    pub pci_retry_exhausted: u64,
    /// VRP interpreter traps in the window (counted, never aborting).
    pub vrp_traps: u64,
    /// Per-flow queue manager: RED early drops at enqueue in the window.
    pub qm_early_drops: u64,
    /// Per-flow queue manager: per-flow cap (tail) drops in the window.
    pub qm_cap_drops: u64,
    /// Per-flow queue manager: CoDel sojourn drops at dequeue.
    pub qm_sojourn_drops: u64,
    /// Packets served through the per-flow plane in the window.
    pub qm_served: u64,
}

/// Packet-conservation ledger: every packet the input process admitted
/// or the router minted must be transmitted, claimed by exactly one
/// terminal drop counter, or still visibly in flight. Built by
/// [`Router::conservation`]; checked continuously by the
/// fault-injection suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Conservation {
    /// Packets admitted by the input process (`input_pkts`).
    pub admitted: u64,
    /// Packets minted past the input process: synthetic-feed packets
    /// and the extra fragments of slow-path fragmentation (`minted`).
    pub minted: u64,
    /// Packets transmitted (`tx_pkts`).
    pub transmitted: u64,
    /// Output-queue overflow drops.
    pub queue_drops: u64,
    /// StrongARM/Pentium staging-queue overflow drops.
    pub escalation_drops: u64,
    /// No-route drops (trie miss with no exception handler).
    pub no_route_drops: u64,
    /// Post-admission buffer-lap losses.
    pub lap_losses: u64,
    /// StrongARM local-path drops: forwarder rejections and DF-set
    /// datagrams over the fragment MTU.
    pub sa_fwdr_drops: u64,
    /// Pentium forwarder drops.
    pub pe_drops: u64,
    /// Pentium forwarder consumptions.
    pub pe_consumed: u64,
    /// Dead-assembly (truncation) discards.
    pub truncated_drops: u64,
    /// Packets visibly in flight: output queues, staging queues,
    /// Pentium inbound queues, and active StrongARM/Pentium jobs.
    pub in_flight: u64,
    /// Stale buffer reads observed by the pool (one-lap invariant:
    /// every counted lap loss is backed by at least one).
    pub stale_reads: u64,
}

impl Conservation {
    /// Packets that reached a terminal fate.
    pub fn terminal(&self) -> u64 {
        self.transmitted
            + self.queue_drops
            + self.escalation_drops
            + self.no_route_drops
            + self.lap_losses
            + self.sa_fwdr_drops
            + self.pe_drops
            + self.pe_consumed
            + self.truncated_drops
    }

    /// Admitted packets that were dropped: every terminal fate but
    /// transmission and a Pentium forwarder's consumption.
    pub fn drops(&self) -> u64 {
        self.terminal() - self.transmitted - self.pe_consumed
    }

    /// Terminal fates plus visible in-flight packets.
    pub fn accounted(&self) -> u64 {
        self.terminal() + self.in_flight
    }

    /// Admitted plus minted, minus accounted: positive means packets
    /// vanished without a counter; negative means something
    /// double-counted.
    pub fn deficit(&self) -> i64 {
        (self.admitted + self.minted) as i64 - self.accounted() as i64
    }

    /// The conservation and one-lap invariants together.
    pub fn holds(&self) -> bool {
        self.deficit() == 0 && self.lap_losses <= self.stale_reads
    }
}

/// The lifetime totals a [`Report`] windows, read at one instant
/// (`at`) by [`Router::totals`].
#[derive(Clone, Copy, Default)]
pub(crate) struct Totals {
    at: Time,
    input_pkts: u64,
    input_mps: u64,
    output_mps: u64,
    input_reg_cycles: u64,
    output_reg_cycles: u64,
    lap_losses: u64,
    vrp_drops: u64,
    vrp_traps: u64,
    latency_sum_ps: u64,
    latency_samples: u64,
    tx_frames: u64,
    port_drops: u64,
    queue_drops: u64,
    escalation_drops: u64,
    mutex_wait_ps: u64,
    mutex_acq: u64,
    sa_done: u64,
    pe_done: u64,
    sa_busy_ps: Time,
    pe_busy_ps: Time,
    dram_busy_ps: Time,
    sram_busy_ps: Time,
    dma_busy_ps: Time,
    pci_busy_ps: Time,
    pci_exhausted: u64,
    ctl: CtlStats,
    health: HealthStats,
    qm_early_drops: u64,
    qm_cap_drops: u64,
    qm_sojourn_drops: u64,
    qm_served: u64,
}

impl Router {
    /// StrongARM/Pentium staging-queue overflow drops.
    fn escalation_drops(&self) -> u64 {
        let pe_q = &self.world.sa_pe_q.queues;
        self.world.sa_local_q.drops()
            + self.world.sa_miss_q.drops()
            + pe_q.iter().map(|q| q.drops()).sum::<u64>()
    }

    /// Builds the packet-conservation ledger from lifetime totals.
    ///
    /// Control operations live on their own ledger
    /// ([`Router::ctl_stats`]) and never appear here — a StrongARM or
    /// Pentium server busy with a control op holds no packet.
    pub fn conservation(&self) -> Conservation {
        let c = &self.world.counters;
        let pe_q = &self.world.sa_pe_q.queues;
        let escalation_drops = self.escalation_drops();
        let sa_holds_packet = matches!(
            &self.sa.job,
            Some(j) if !matches!(j, crate::sa::SaJob::Control(_))
        );
        // The per-flow queue manager, when installed, is the output
        // queue: its occupancy is in flight and its discards (early,
        // per-flow cap, sojourn — each counted exactly once) fold into
        // the queue-drop term of the ledger.
        let (qm_drops, qm_queued) = match &self.world.qm {
            Some(qm) => (qm.total_drops(), qm.total_queued()),
            None => (0, 0),
        };
        let in_flight = self.world.queues.total_queued()
            + qm_queued
            + self.world.sa_local_q.len()
            + self.world.sa_miss_q.len()
            + pe_q.iter().map(|q| q.len()).sum::<usize>()
            + self.pe.inbound.len()
            + usize::from(sa_holds_packet)
            + usize::from(self.pe.current.is_some());
        Conservation {
            admitted: c.input_pkts.total(),
            minted: c.minted.total(),
            transmitted: c.tx_pkts.total(),
            queue_drops: self.world.queues.total_drops() + qm_drops,
            escalation_drops,
            no_route_drops: c.no_route_drops.total(),
            lap_losses: c.lap_losses.total(),
            sa_fwdr_drops: c.sa_fwdr_drops.total(),
            pe_drops: c.pe_drops.total(),
            pe_consumed: c.pe_consumed.total(),
            truncated_drops: c.truncated_drops.total(),
            in_flight: in_flight as u64,
            stale_reads: self.world.pool.stale_reads(),
        }
    }

    /// A 64-bit FNV-1a fingerprint of the router's observable outcome:
    /// clock, full conservation ledger, per-port tx/drop counts,
    /// lifetime control-plane accounting, and lifetime health decisions
    /// (including the quarantine order). Two runs of the same scenario
    /// at different delivery thread counts must agree on this exactly —
    /// it is the equality the parallel differential suites assert, one
    /// number per router instead of a field-by-field walk.
    pub fn fingerprint(&self) -> u64 {
        let mut h = npr_check::rng::Fnv1a::new();
        let mut mix = |v: u64| h.write_u64(v);
        mix(self.now());
        let c = self.conservation();
        for v in [
            c.admitted,
            c.transmitted,
            c.queue_drops,
            c.escalation_drops,
            c.no_route_drops,
            c.lap_losses,
            c.sa_fwdr_drops,
            c.pe_drops,
            c.pe_consumed,
            c.truncated_drops,
            c.in_flight,
            c.stale_reads,
        ] {
            mix(v);
        }
        for p in &self.ixp.hw.ports {
            mix(p.tx_frames);
            mix(p.rx_frames_dropped);
        }
        for v in [
            self.ctl.submitted,
            self.ctl.completed,
            self.ctl.pe_cycles,
            self.ctl.sa_cycles,
            self.ctl.pci_bytes,
            self.ctl.latency_sum_ps,
        ] {
            mix(v);
        }
        let hs = &self.health.stats;
        for v in [
            hs.epochs,
            hs.warnings,
            hs.throttles,
            hs.quarantines,
            hs.sa_resets,
            hs.recoveries,
        ] {
            mix(v);
        }
        for &(wr, id) in &self.health.quarantined {
            mix(wr as u64);
            mix(u64::from(id));
        }
        mix(self.world.counters.vrp_traps.total());
        // Per-flow queue manager outcome, mixed only when the plane is
        // installed so every fingerprint pinned before PR 10 still holds.
        if let Some(qm) = &self.world.qm {
            mix(qm.total_enqueued());
            mix(qm.early_drops());
            mix(qm.cap_drops());
            mix(qm.sojourn_drops());
            mix(qm.total_queued() as u64);
        }
        // Mixed only when non-zero, so every fingerprint pinned on a run
        // that mints nothing still holds.
        if c.minted > 0 {
            mix(c.minted);
        }
        h.finish()
    }

    /// Quiescence watchdog: after traffic ends, runs the router in
    /// `slice`-long steps until every admitted packet has reached a
    /// terminal fate (nothing visibly in flight and the conservation
    /// identity balances), giving up after `max_slices`. Returning
    /// `false` is a loud signal of a silent deadlock or livelock —
    /// some packet is stuck and no counter will ever claim it.
    pub fn drain(&mut self, slice: Time, max_slices: usize) -> bool {
        for _ in 0..max_slices {
            let c = self.conservation();
            if c.in_flight == 0 && c.holds() {
                return true;
            }
            let t = self.now() + slice;
            self.run_until(t);
        }
        let c = self.conservation();
        c.in_flight == 0 && c.holds()
    }

    /// Reads every lifetime total a [`Report`] windows.
    fn totals(&self) -> Totals {
        let c = &self.world.counters;
        let ports = &self.ixp.hw.ports;
        let (mutex_wait_ps, mutex_acq) = self
            .mutex_ids
            .iter()
            .map(|&m| self.ixp.mutex_stats(m))
            .fold((0u64, 0u64), |(a, b), (x, y)| (a + x, b + y));
        let qm = self.world.qm.as_ref();
        Totals {
            at: self.events.now(),
            input_pkts: c.input_pkts.total(),
            input_mps: c.input_mps.total(),
            output_mps: c.output_mps.total(),
            input_reg_cycles: c.input_reg_cycles.total(),
            output_reg_cycles: c.output_reg_cycles.total(),
            lap_losses: c.lap_losses.total(),
            vrp_drops: c.vrp_drops.total(),
            vrp_traps: c.vrp_traps.total(),
            latency_sum_ps: c.latency_sum_ps.total(),
            latency_samples: c.latency_samples.total(),
            tx_frames: ports.iter().map(|p| p.tx_frames).sum(),
            port_drops: ports.iter().map(|p| p.rx_frames_dropped).sum(),
            queue_drops: self.world.queues.total_drops() + qm.map_or(0, |q| q.total_drops()),
            escalation_drops: self.escalation_drops(),
            mutex_wait_ps,
            mutex_acq,
            sa_done: self.sa.done,
            pe_done: self.pe.done,
            sa_busy_ps: self.sa.busy_ps,
            pe_busy_ps: self.pe.busy_ps,
            dram_busy_ps: self.ixp.dram.busy_ps(),
            sram_busy_ps: self.ixp.sram.busy_ps(),
            dma_busy_ps: self.ixp.dma.busy_ps(),
            pci_busy_ps: self.pci.busy_ps(),
            pci_exhausted: self.pci.exhausted(),
            ctl: self.ctl,
            health: self.health.stats,
            qm_early_drops: qm.map_or(0, |q| q.early_drops()),
            qm_cap_drops: qm.map_or(0, |q| q.cap_drops()),
            qm_sojourn_drops: qm.map_or(0, |q| q.sojourn_drops()),
            qm_served: qm.map_or(0, |q| q.sojourn_samples()),
        }
    }

    /// Marks the start of a measurement window. Marking is an
    /// observation: it stores one snapshot of the lifetime totals for
    /// [`Router::report`] to difference against and re-arms the three
    /// window *gauges* — `Counters::latency_hist`,
    /// `Counters::latency_max_ps` and `QmPlane::sojourn_hist` — whose
    /// maxima and percentiles no two totals yield by subtraction. It
    /// writes nothing else, and [`Router::conservation`],
    /// [`Router::fingerprint`], [`Router::drain`] and the health
    /// monitor read none of the three, so a run is the same run however
    /// often it is marked (DESIGN.md §13).
    pub fn mark(&mut self) {
        self.mark = self.totals();
        self.world.counters.latency_hist.reset();
        self.world.counters.latency_max_ps = 0;
        if let Some(qm) = &mut self.world.qm {
            qm.sojourn_hist.reset();
        }
    }

    /// Runs `warmup`, marks, runs `window`, and reports.
    pub fn measure(&mut self, warmup: Time, window: Time) -> Report {
        self.run_until(warmup);
        self.mark();
        let t0 = self.events.now().max(warmup);
        self.run_until(t0 + window);
        self.report()
    }

    /// Builds a report over the current window: the lifetime totals
    /// now minus the totals at the last [`Router::mark`] (boot, if
    /// never marked), plus the window gauges.
    pub fn report(&self) -> Report {
        let (t, m) = (self.totals(), &self.mark);
        let w = t.at.saturating_sub(m.at).max(1);
        let secs = w as f64 / PS_PER_SEC as f64;
        let c = &self.world.counters;
        let input_pkts = (t.input_pkts - m.input_pkts) as f64;
        let forward = match self.cfg.mode {
            RunMode::InputOnly => input_pkts,
            _ => (t.tx_frames - m.tx_frames) as f64,
        };
        let mutex_wait = t.mutex_wait_ps - m.mutex_wait_ps;
        let mutex_acq = t.mutex_acq - m.mutex_acq;
        let sa_done = (t.sa_done - m.sa_done) as f64;
        let pe_done = (t.pe_done - m.pe_done) as f64;
        // A soft reset refunds the unexecuted tail of a wedged job, so
        // the StrongARM's busy total alone can fall below its mark.
        let sa_busy = t.sa_busy_ps.saturating_sub(m.sa_busy_ps);
        let sa_spare = if sa_done > 0.0 {
            (w.saturating_sub(sa_busy) as f64 / 1e12) * ME_HZ as f64 / sa_done
        } else {
            0.0
        };
        let pe_spare = if pe_done > 0.0 {
            (w.saturating_sub(t.pe_busy_ps - m.pe_busy_ps) as f64 / 1e12) * PENTIUM_HZ as f64
                / pe_done
        } else {
            0.0
        };
        let in_mps = (t.input_mps - m.input_mps) as f64;
        let out_mps = (t.output_mps - m.output_mps) as f64;
        let ctl_ops = t.ctl.completed - m.ctl.completed;
        let hs = HealthStats {
            epochs: t.health.epochs - m.health.epochs,
            warnings: t.health.warnings - m.health.warnings,
            throttles: t.health.throttles - m.health.throttles,
            quarantines: t.health.quarantines - m.health.quarantines,
            sa_resets: t.health.sa_resets - m.health.sa_resets,
            recoveries: t.health.recoveries - m.health.recoveries,
            recovery_latency_sum_ps: t.health.recovery_latency_sum_ps
                - m.health.recovery_latency_sum_ps,
        };
        Report {
            window_ps: w,
            input_mpps: input_pkts / secs / 1e6,
            forward_mpps: forward / secs / 1e6,
            input_reg_per_mp: if in_mps > 0.0 {
                (t.input_reg_cycles - m.input_reg_cycles) as f64 / in_mps
            } else {
                0.0
            },
            output_reg_per_mp: if out_mps > 0.0 {
                (t.output_reg_cycles - m.output_reg_cycles) as f64 / out_mps
            } else {
                0.0
            },
            sa_kpps: sa_done / secs / 1e3,
            pe_kpps: pe_done / secs / 1e3,
            sa_spare_cycles: sa_spare,
            pe_spare_cycles: pe_spare,
            queue_drops: t.queue_drops - m.queue_drops,
            escalation_drops: t.escalation_drops - m.escalation_drops,
            port_drops: t.port_drops - m.port_drops,
            lap_losses: t.lap_losses - m.lap_losses,
            vrp_drops: t.vrp_drops - m.vrp_drops,
            mutex_wait_cycles: if mutex_acq > 0 {
                mutex_wait as f64 / mutex_acq as f64 / cycles_to_ps(1) as f64
            } else {
                0.0
            },
            latency_avg_us: {
                let n = t.latency_samples - m.latency_samples;
                if n == 0 {
                    0.0
                } else {
                    (t.latency_sum_ps - m.latency_sum_ps) as f64 / n as f64 / 1e6
                }
            },
            latency_p50_us: c.latency_hist.percentile(50.0) as f64 / 1e6,
            latency_p99_us: c.latency_hist.percentile(99.0) as f64 / 1e6,
            latency_max_us: c.latency_max_ps as f64 / 1e6,
            dram_util: (t.dram_busy_ps - m.dram_busy_ps) as f64 / w as f64,
            sram_util: (t.sram_busy_ps - m.sram_busy_ps) as f64 / w as f64,
            dma_util: (t.dma_busy_ps - m.dma_busy_ps) as f64 / w as f64,
            pci_util: (t.pci_busy_ps - m.pci_busy_ps) as f64 / w as f64,
            ctl_ops,
            ctl_pe_cycles: t.ctl.pe_cycles - m.ctl.pe_cycles,
            ctl_sa_cycles: t.ctl.sa_cycles - m.ctl.sa_cycles,
            ctl_pci_bytes: t.ctl.pci_bytes - m.ctl.pci_bytes,
            ctl_latency_avg_us: if ctl_ops > 0 {
                (t.ctl.latency_sum_ps - m.ctl.latency_sum_ps) as f64 / ctl_ops as f64 / 1e6
            } else {
                0.0
            },
            health_epochs: hs.epochs,
            health_warnings: hs.warnings,
            health_throttles: hs.throttles,
            health_quarantines: hs.quarantines,
            sa_resets: hs.sa_resets,
            recoveries: hs.recoveries,
            recovery_latency_avg_us: hs.recovery_latency_avg_us(),
            pci_retry_exhausted: t.pci_exhausted - m.pci_exhausted,
            vrp_traps: t.vrp_traps - m.vrp_traps,
            qm_early_drops: t.qm_early_drops - m.qm_early_drops,
            qm_cap_drops: t.qm_cap_drops - m.qm_cap_drops,
            qm_sojourn_drops: t.qm_sojourn_drops - m.qm_sojourn_drops,
            qm_served: t.qm_served - m.qm_served,
        }
    }
}
