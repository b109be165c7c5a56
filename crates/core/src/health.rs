//! Runtime health monitoring and recovery (paper, section 5).
//!
//! The paper's robustness story is layered: static verification keeps
//! injected ME code inside its budget, admission control bounds the
//! slow paths, and a runtime watchdog catches everything the static
//! story cannot — a wedged StrongARM, a slow-path forwarder whose real
//! cost exceeds what it declared at install time, and interpreter traps
//! from code that reached an ME without verification. This module is
//! that watchdog.
//!
//! The [`HealthMonitor`] piggybacks on the router's event loop: after
//! every dispatched event, [`Router::health_tick`] checks whether one
//! or more [`EPOCH_PS`]-long epochs elapsed and, if so, samples
//! the planes' progress counters. It schedules exactly one kind of
//! event: when an epoch first finds the StrongARM holding a job with
//! no job finished since the previous epoch, `check_sa_wedge` arms a
//! [`crate::plane::PlaneEvent::HealthPulse`] at the detection deadline,
//! so a stall on an otherwise quiet event queue is still sampled. The
//! pulse does nothing when it fires but let the monitor sample; every
//! decision (warn, throttle, quarantine, reset) is taken inside a
//! sample. The golden-digest test pins a run with the monitor armed.
//!
//! Detectors and their escalation ladders:
//!
//! * **StrongARM wedge** — the SA holds a job but `jobs_finished` has
//!   not moved for [`WEDGE_EPOCHS`] consecutive epochs (deferral
//!   storms leave `job == None` and never trip this). Recovery is a
//!   [`crate::sa::StrongArm::soft_reset`] — the held packet re-enters
//!   its staging queue, the stale completion is fenced by a generation
//!   bump — followed by a replay of every verified install down the
//!   simulated control path, exactly as the operator's original
//!   `install` traveled.
//! * **Runtime budget overrun** — a StrongARM or Pentium forwarder's
//!   measured per-packet cycle average exceeds its declared cost by
//!   [`OVERRUN_FACTOR`] ([`npr_vrp::runtime_overrun`]). The ladder
//!   escalates one rung per offending epoch: warn, then throttle (the
//!   scheduler preempts at the declared cost), then quarantine — the
//!   forwarder is unbound from the classifier so its flows fall back to
//!   the default IP path, and its in-flight packets are re-aimed at the
//!   null forwarder so they drain cleanly. Both slow planes are policed
//!   by one [`Policer`] each, read in jump-table order, so forwarders
//!   that climb the ladder in lockstep are quarantined in a fixed order.
//! * **Interpreter traps** — [`TRAP_THRESHOLD`] traps from one ME
//!   forwarder within an epoch: warn, then quarantine (verified code
//!   cannot trap, so a trapping forwarder bypassed verification).

use std::collections::HashMap;

use npr_sim::Time;

use crate::classify::WhereRun;
use crate::install::Fid;
use crate::plane::ControlVerb;
use crate::router::Router;

/// Sampling epoch, 50 us. The monitor piggybacks on the event loop
/// rather than scheduling its own sampling events.
pub const EPOCH_PS: Time = 50_000_000;

/// Epochs of queued-work-but-no-progress before a plane is declared
/// wedged and the StrongARM is soft-reset.
pub const WEDGE_EPOCHS: u32 = 4;

/// A slow-path forwarder whose measured cycles/packet exceed its
/// declared cost by this factor starts climbing the escalation ladder
/// (warn -> throttle -> quarantine, one rung per epoch).
pub const OVERRUN_FACTOR: f64 = 1.5;

/// Interpreter traps from one ME forwarder within an epoch that start
/// its escalation ladder (warn -> quarantine). Verified code cannot
/// trap, so any sustained rate marks a forwarder that bypassed
/// verification.
pub const TRAP_THRESHOLD: u64 = 8;

/// Attempted-cost accounting for one policed forwarder: what it tried
/// to spend (declared plus overrun, pre-throttle) over how many
/// packets. The overrun detector diffs these across epochs.
#[derive(Debug, Clone, Copy, Default)]
struct FwdrStat {
    /// Packets policed.
    pkts: u64,
    /// Cycles the forwarder attempted to spend on them.
    attempted_cycles: u64,
}

/// One jump-table entry's slot in a [`Policer`].
#[derive(Debug, Clone, Copy, Default)]
struct Policed {
    /// Injected per-packet overrun cycles (0 = well-behaved).
    overrun: u64,
    /// The throttle rung: the overrun is no longer charged.
    throttled: bool,
    /// Declared per-packet cost, as of the last policed packet.
    declared: u64,
    /// Attempted-cost totals.
    stat: FwdrStat,
    /// `stat` at the last epoch boundary.
    snapshot: FwdrStat,
}

/// Runtime-budget policing for one slow plane (StrongARM or Pentium),
/// indexed by the plane's jump-table index: the fault hook that makes a
/// forwarder overrun its declared cost, the attempted-cost accounting
/// the overrun detector reads once per epoch, and the throttle rung the
/// monitor sets. The null forwarder (`u32::MAX`) is never policed.
#[derive(Debug, Default)]
pub struct Policer {
    slots: Vec<Policed>,
}

impl Policer {
    /// Fault hook: makes forwarder `fwdr` overrun its declared budget
    /// by `extra` cycles per packet (0 restores good behavior).
    ///
    /// # Panics
    ///
    /// On the null forwarder `u32::MAX`, which has no budget.
    pub fn misbehave(&mut self, fwdr: u32, extra: u64) {
        assert_ne!(fwdr, u32::MAX, "the null forwarder is never policed");
        let i = fwdr as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, Policed::default());
        }
        self.slots[i].overrun = extra;
    }

    /// True while the monitor throttles `fwdr` to its declared cost.
    pub fn throttled(&self, fwdr: u32) -> bool {
        self.slots.get(fwdr as usize).is_some_and(|s| s.throttled)
    }

    /// Polices one packet of `fwdr`, which declared `declared` cycles:
    /// returns the extra cycles to charge it (0 when well-behaved or
    /// throttled) and records the *attempted* cost for the overrun
    /// detector.
    pub(crate) fn police(&mut self, fwdr: u32, declared: u64) -> u64 {
        let slot = self.slots.get_mut(fwdr as usize);
        let Some(s) = slot.filter(|s| s.overrun > 0) else {
            return 0;
        };
        s.declared = declared;
        s.stat.pkts += 1;
        s.stat.attempted_cycles += declared + s.overrun;
        if s.throttled {
            0 // The throttle rung preempts at the declared cost.
        } else {
            s.overrun
        }
    }

    fn set_throttled(&mut self, fwdr: u32, on: bool) {
        if let Some(s) = self.slots.get_mut(fwdr as usize) {
            s.throttled = on;
        }
    }

    /// Closes an epoch: per forwarder, in jump-table order, whether its
    /// attempted per-packet average since the last call exceeded its
    /// declared cost by [`OVERRUN_FACTOR`] ([`npr_vrp::runtime_overrun`]).
    fn end_epoch(&mut self) -> Vec<bool> {
        self.slots
            .iter_mut()
            .map(|s| {
                let pkts = s.stat.pkts - s.snapshot.pkts;
                let cycles = s.stat.attempted_cycles - s.snapshot.attempted_cycles;
                s.snapshot = s.stat;
                pkts > 0
                    && npr_vrp::runtime_overrun(
                        s.declared,
                        cycles as f64 / pkts as f64,
                        OVERRUN_FACTOR,
                    )
            })
            .collect()
    }
}

/// Health accounting: totals since construction (the report
/// differences them against `Router::mark`'s snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Sampling epochs elapsed.
    pub epochs: u64,
    /// Warning rungs taken (first escalation level).
    pub warnings: u64,
    /// Forwarders throttled to their declared cost.
    pub throttles: u64,
    /// Forwarders quarantined (unbound; flows fall back to default IP).
    pub quarantines: u64,
    /// StrongARM soft resets performed by the watchdog.
    pub sa_resets: u64,
    /// Recovery actions completed (quarantines + resets).
    pub recoveries: u64,
    /// Total detection-to-recovery latency across recoveries.
    pub recovery_latency_sum_ps: u64,
}

impl HealthStats {
    /// Mean detection-to-recovery latency, microseconds.
    pub fn recovery_latency_avg_us(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_latency_sum_ps as f64 / self.recoveries as f64 / 1e6
        }
    }
}

/// One escalation ladder: consecutive offending epochs for one target.
#[derive(Debug, Clone, Copy)]
struct Ladder {
    streak: u32,
    first_at: Time,
}

/// The monitor's state: epoch cursor, per-detector snapshots, and the
/// escalation ladders.
#[derive(Debug)]
pub struct HealthMonitor {
    pub(crate) next_epoch: Time,
    /// Lifetime totals.
    pub stats: HealthStats,
    // Wedge tracking.
    sa_stalled: u32,
    sa_stall_from: Time,
    sa_jobs_snapshot: u64,
    pe_stalled: u32,
    pe_warned: bool,
    pe_jobs_snapshot: u64,
    // Per-flow queue-manager overload tracking (the last rung of the
    // qm degradation ladder: early-drop -> per-flow cap -> warn here).
    qm_cap_snapshot: u64,
    qm_overloaded: u32,
    qm_warned: bool,
    // Overrun / trap tracking (looked up by key, never iterated).
    ladders: HashMap<(WhereRun, u32), Ladder>,
    me_trap_snapshot: Vec<u64>,
    /// Targets quarantined so far, in order.
    pub quarantined: Vec<(WhereRun, u32)>,
}

impl Default for HealthMonitor {
    /// An armed monitor whose first epoch ends at [`EPOCH_PS`].
    fn default() -> Self {
        Self {
            next_epoch: EPOCH_PS,
            stats: HealthStats::default(),
            sa_stalled: 0,
            sa_stall_from: 0,
            sa_jobs_snapshot: 0,
            pe_stalled: 0,
            pe_warned: false,
            pe_jobs_snapshot: 0,
            qm_cap_snapshot: 0,
            qm_overloaded: 0,
            qm_warned: false,
            ladders: HashMap::new(),
            me_trap_snapshot: Vec::new(),
            quarantined: Vec::new(),
        }
    }
}

impl HealthMonitor {
    /// The watchdog's worst-case detection bound: a wedge is reset no
    /// later than this long after it stops making progress.
    pub fn detection_bound_ps(&self) -> Time {
        EPOCH_PS * Time::from(WEDGE_EPOCHS)
    }
}

impl Router {
    /// The per-event health hook: samples the planes once per elapsed
    /// epoch. Called by `run_until` after every dispatch; cheap when no
    /// epoch boundary passed.
    pub(crate) fn health_tick(&mut self, at: Time) {
        if at < self.health.next_epoch {
            return;
        }
        let mut crossed = 0u32;
        while self.health.next_epoch <= at {
            self.health.next_epoch += EPOCH_PS;
            self.health.stats.epochs += 1;
            crossed += 1;
        }
        self.check_sa_wedge(at, crossed);
        self.check_pe_stall(crossed);
        self.check_qm_overload(crossed);
        self.check_overruns(at);
        self.check_me_traps(at);
    }

    /// Wedge detector: the SA holds a job but finished nothing since
    /// the last epoch. Deferral storms leave `job == None`, so they
    /// never count as stall epochs.
    fn check_sa_wedge(&mut self, at: Time, crossed: u32) {
        let progressed = self.sa.jobs_finished != self.health.sa_jobs_snapshot;
        self.health.sa_jobs_snapshot = self.sa.jobs_finished;
        if progressed || self.sa.job.is_none() {
            self.health.sa_stalled = 0;
            return;
        }
        if self.health.sa_stalled == 0 {
            self.health.sa_stall_from = at;
            self.health.stats.warnings += 1;
            // Arm the watchdog deadline: without this pulse, a stall
            // with a quiet event queue would only be noticed when the
            // wedged job's own (stale) completion finally fires.
            self.events.schedule(
                at + self.health.detection_bound_ps(),
                crate::plane::PlaneEvent::HealthPulse,
            );
        }
        self.health.sa_stalled += crossed;
        if self.health.sa_stalled >= WEDGE_EPOCHS {
            self.health.stats.sa_resets += 1;
            self.health.stats.recoveries += 1;
            self.health.stats.recovery_latency_sum_ps +=
                at.saturating_sub(self.health.sa_stall_from);
            self.health.sa_stalled = 0;
            let (sa, _, mut bus) = self.planes();
            sa.soft_reset(&mut bus);
            self.replay_installs();
        }
    }

    /// The Pentium stall detector is symmetric but warn-only: the
    /// simulated Pentium has no reset path (the paper reboots the
    /// StrongARM without disturbing the MicroEngines; the Pentium *is*
    /// the control processor).
    fn check_pe_stall(&mut self, crossed: u32) {
        let progressed = self.pe.jobs_finished != self.health.pe_jobs_snapshot;
        self.health.pe_jobs_snapshot = self.pe.jobs_finished;
        let busy = self.pe.current.is_some() || self.pe.ctl_current.is_some();
        if progressed || !busy {
            self.health.pe_stalled = 0;
            self.health.pe_warned = false;
            return;
        }
        self.health.pe_stalled += crossed;
        if self.health.pe_stalled >= WEDGE_EPOCHS && !self.health.pe_warned {
            self.health.pe_warned = true;
            self.health.stats.warnings += 1;
        }
    }

    /// Overload detector for the per-flow queue manager, warn-only like
    /// the Pentium stall check: sustained per-flow *cap* drops mean AQM
    /// early-dropping has been overrun and flows are hitting their hard
    /// bounds — the last rung of the graceful-degradation ladder before
    /// an operator has to act. Inert (and digest-invisible) when the
    /// manager is not installed; schedules nothing ever.
    fn check_qm_overload(&mut self, crossed: u32) {
        let Some(qm) = &self.world.qm else { return };
        let cap = qm.cap_drops();
        let quiet = cap == self.health.qm_cap_snapshot;
        self.health.qm_cap_snapshot = cap;
        if quiet {
            self.health.qm_overloaded = 0;
            self.health.qm_warned = false;
            return;
        }
        self.health.qm_overloaded += crossed;
        if self.health.qm_overloaded >= WEDGE_EPOCHS && !self.health.qm_warned {
            self.health.qm_warned = true;
            self.health.stats.warnings += 1;
        }
    }

    /// Replays every verified install down the simulated control path
    /// (Pentium marshalling, PCI descriptor, StrongARM execution, and
    /// the ISTORE freeze window for ME code), in fid order — the
    /// post-reset StrongARM relearns exactly what the operator
    /// installed, at full simulated cost.
    fn replay_installs(&mut self) {
        let mut fids: Vec<Fid> = self.installs.keys().copied().collect();
        fids.sort_unstable();
        for fid in fids {
            let rec = &self.installs[&fid];
            let slots = if rec.where_run == WhereRun::Me {
                self.world.me_forwarders[rec.fwdr_index as usize]
                    .prog()
                    .istore_slots()
            } else {
                0
            };
            self.submit_ctl(ControlVerb::Install { fid, slots });
        }
    }

    /// Overrun detector: closes the epoch on both slow planes'
    /// policers, StrongARM then Pentium, each in jump-table order.
    fn check_overruns(&mut self, at: Time) {
        let verdicts = [
            (WhereRun::Sa, self.sa.policer.end_epoch()),
            (WhereRun::Pe, self.pe.policer.end_epoch()),
        ];
        for (wr, overs) in verdicts {
            for (fwdr, over) in overs.into_iter().enumerate() {
                self.escalate(wr, fwdr as u32, over, at);
            }
        }
    }

    /// Trap detector: an ME forwarder producing [`TRAP_THRESHOLD`]+
    /// interpreter traps in one epoch bypassed verification somehow.
    /// Unattributed traps (measurement pads) are counted in
    /// `Counters::vrp_traps` but never escalate.
    fn check_me_traps(&mut self, at: Time) {
        // `me_traps` only grows, and escalating never touches it.
        let n = self.world.me_traps.len();
        self.health.me_trap_snapshot.resize(n, 0);
        for i in 0..n {
            let delta = self.world.me_traps[i] - self.health.me_trap_snapshot[i];
            self.health.me_trap_snapshot[i] = self.world.me_traps[i];
            let over = delta >= TRAP_THRESHOLD;
            self.escalate(WhereRun::Me, i as u32, over, at);
        }
    }

    /// Advances (or clears) the escalation ladder for one target.
    /// Slow-path forwarders climb warn -> throttle -> quarantine; ME
    /// forwarders have no throttle rung (the interpreter already bounds
    /// their cycles), so they climb warn -> quarantine.
    fn escalate(&mut self, wr: WhereRun, fwdr: u32, over: bool, at: Time) {
        let key = (wr, fwdr);
        if !over {
            if self.health.ladders.remove(&key).is_some() {
                self.set_throttled(wr, fwdr, false);
            }
            return;
        }
        let ladder = self
            .health
            .ladders
            .entry(key)
            .or_insert(Ladder { streak: 0, first_at: at });
        ladder.streak += 1;
        let (streak, first_at) = (ladder.streak, ladder.first_at);
        let quarantine_rung = if wr == WhereRun::Me { 2 } else { 3 };
        if streak == 1 {
            self.health.stats.warnings += 1;
        } else if streak == 2 && wr != WhereRun::Me {
            self.health.stats.throttles += 1;
            self.set_throttled(wr, fwdr, true);
        }
        if streak == quarantine_rung {
            self.quarantine(wr, fwdr, at, first_at);
        }
    }

    /// Sets or lifts the throttle rung on a slow-path forwarder (the
    /// MicroEngines have no throttle: the interpreter bounds them).
    fn set_throttled(&mut self, wr: WhereRun, fwdr: u32, on: bool) {
        match wr {
            WhereRun::Sa => self.sa.policer.set_throttled(fwdr, on),
            WhereRun::Pe => self.pe.policer.set_throttled(fwdr, on),
            WhereRun::Me => {}
        }
    }

    /// Quarantines a forwarder: unbinds it from the classifier (its
    /// flows fall back to the default IP forwarder) and re-aims its
    /// in-flight packets at the null forwarder so they drain cleanly —
    /// the conservation ledger never sees a quarantine.
    fn quarantine(&mut self, wr: WhereRun, fwdr: u32, at: Time, first_at: Time) {
        if let Some(fid) = self
            .installs
            .iter()
            .find(|(_, r)| r.where_run == wr && r.fwdr_index == fwdr)
            .map(|(&f, _)| f)
        {
            self.world.classifier.unbind(fid);
        }
        // Re-aim the packets still tagged for it: those staged at the
        // StrongARM and, for a Pentium forwarder, those already across
        // the bus.
        let null = |tag: &mut u32| {
            if *tag == fwdr {
                *tag = u32::MAX;
            }
        };
        match wr {
            WhereRun::Pe => {
                for q in &mut self.world.sa_pe_q.queues {
                    q.iter_mut().for_each(|(_, tag)| null(tag));
                }
                for item in self.pe.inbound.iter_mut() {
                    null(&mut item.fwdr);
                }
            }
            WhereRun::Sa => {
                for (_, tag) in self.world.sa_local_q.iter_mut() {
                    null(tag);
                }
            }
            WhereRun::Me => {}
        }
        self.set_throttled(wr, fwdr, false);
        self.health.ladders.remove(&(wr, fwdr));
        self.health.stats.quarantines += 1;
        self.health.stats.recoveries += 1;
        self.health.stats.recovery_latency_sum_ps += at.saturating_sub(first_at);
        self.health.quarantined.push((wr, fwdr));
    }
}
