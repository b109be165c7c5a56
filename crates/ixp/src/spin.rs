//! Idle rotations are skipped, exactly (DESIGN.md §5).
//!
//! The paper's input loop makes every context take the token, test its
//! port and pass the token on whether or not a packet is there, so an
//! idle ring costs ~90 events per rotation for nothing. This module
//! lets the machine recognise that a ring's *closed subsystem* — the
//! ring, its member contexts and the MicroEngines only they occupy —
//! is going round a loop nothing outside can see, and advance it by
//! whole periods in O(1). It is a shortcut through [`Ixp::handle`]'s
//! own handlers, not a second model: a period is learned by watching
//! the handlers produce it, and every event at or after the landing is
//! dispatched as before.
//!
//! * **Closure.** A ring is closed when its members belong to no other
//!   ring and share their engines with no other program
//!   (`spin_find_closed_rings`, once, at `start`). Events of a closed
//!   ring touch only its own state, `reg_cycles` and its members'
//!   cycle tallies, so they commute with every other event — until a
//!   *disturbance*: a member op other than `Compute`/`Idle`/its own
//!   token ops, an `RxArrive`, `freeze_me`, `set_fault_plan`.
//!   (`reprime_port` can only move the next `RxArrive` closer, and
//!   every jump reads that instant afresh.)
//! * **The private list.** While a ring is *armed* its events go to
//!   [`Spin::list`] instead of the embedding queue, each stamped with
//!   the sequence number the queue would have given it
//!   ([`Sched::take_seq`]); the embedding loop pops whichever head has
//!   the smaller `(at, seq)`. That is exact whether or not a jump ever
//!   happens, and it is what lets a jump move the ring's pending
//!   events.
//! * **Recurrence.** At the token's arrival at member 0, with every
//!   member's [`CtxProgram::spin_key`] `Some` and no engine frozen,
//!   the subsystem's *relative* state is written down (`spin_observe`).
//!   Equal to the state one undisturbed rotation earlier, or to any
//!   orbit already learned, it fixes the period and what a period adds
//!   to `reg_cycles` and to each member's tally.
//! * **The jump.** On an orbit, any `TokenAt` may jump `n` periods:
//!   credit the counters, shift the pending events by `n * period` and
//!   re-post the arrival in front of them. It lands strictly before
//!   anything that may disturb the ring ([`Sched::calm_until`], every
//!   armed port's `RxArrive`) and at or before [`Sched::run_deadline`],
//!   so the first event at or after each of those instants is still a
//!   real event. Every event pending at the landing was, in the
//!   uncompressed run, scheduled after the jump instant (offsets are
//!   below one period), so the fresh sequence numbers order it against
//!   everything already queued exactly as before.
//! * **The embedding's events.** Whatever the embedding dispatches
//!   inside a jump's span runs against the ring's pre-jump state with
//!   its counters already credited. That is exact only if none of it
//!   reads or changes the subsystem: [`Sched::calm_until`] is the
//!   embedding's promise of the first instant something might (the
//!   router's argument is in DESIGN.md §5: its planes reach the
//!   machine through a narrow port, and only a counted control op can
//!   freeze an engine).
//!
//! Not covered, on purpose: a machine with a fault plan armed (the
//! injectors draw per event), rings that poll the world's queues (any
//! event may fill them — the output ring), rings sharing an engine.

use super::*;

/// "No ring" in the owner tables.
const NONE: u8 = u8::MAX;

/// Orbits remembered per ring. `route_churn` learns one.
const MAX_ORBITS: usize = 8;

/// Arm only when nothing outside can disturb the ring for this many
/// rotations. An armed ring needs one to settle before it can be
/// recognised, so below two there is nothing to skip and the private
/// list only costs.
const ARM_LAPS: Time = 2;

/// What compression has elided since construction (host-side
/// accounting: no simulated quantity depends on it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpinStats {
    /// Jumps taken.
    pub jumps: u64,
    /// Whole ring periods skipped.
    pub rotations: u64,
    /// Events those periods would have dispatched.
    pub events: u64,
}

/// The subsystem as seen at one arrival at member 0.
struct Lap {
    at: Time,
    snap: Vec<u64>,
    reg_cycles: u64,
    tallies: Vec<u64>,
    posted: u64,
}

/// A learned period: the state it recurs from and what one costs.
struct Orbit {
    snap: Vec<u64>,
    period: Time,
    reg_cycles: u64,
    /// Per member, in ring order.
    tallies: Vec<u64>,
    events: u64,
}

#[derive(Default)]
struct RingSpin {
    closed: bool,
    /// Events of this ring go to the private list.
    armed: bool,
    /// When the ring was armed. One rotation later every owned event
    /// posted before that has fired (see `spin_observe`).
    armed_at: Time,
    /// The latest instant an owned event was posted to the embedding
    /// queue for: the check on that argument.
    #[cfg(debug_assertions)]
    queued_until: Time,
    /// Owned events posted to the list, and `Compute` cycles issued by
    /// members, while any ring was armed (only differences are used).
    posted: u64,
    reg_cycles: u64,
    /// The last arrival at member 0 (the rotation-time estimate).
    head_at: Option<Time>,
    /// The last observation, if nothing disturbed the ring since.
    last: Option<Lap>,
    orbits: Vec<Orbit>,
    /// The orbit the ring is on, undisturbed since it was recognised.
    on: Option<usize>,
}

/// A privately held event of armed ring `ring`.
#[derive(Clone, Copy)]
struct Held {
    at: Time,
    seq: u64,
    ring: u8,
    ev: IxpEv,
}

/// Compression state of one machine.
pub(super) struct Spin {
    /// The oracle switch: `false` never arms.
    enabled: bool,
    /// A fault plan has been armed at some point. Its injectors may
    /// have left a duplicated or delayed token signal in flight, which
    /// nothing here tracks, so such a machine never arms again.
    faulted: bool,
    /// `start` has fixed the owner tables; a ring or program added
    /// afterwards leaves no ring closed.
    started: bool,
    ctx_ring: [u8; NUM_CTX],
    me_ring: [u8; NUM_MICROENGINES],
    rings: Vec<RingSpin>,
    /// Rings armed now. While it is zero nothing here has state to
    /// keep, and the per-op and per-disturbance hooks return at once.
    armed: usize,
    /// Pending events of armed rings, descending by `(at, seq)`: the
    /// next one pops off the back.
    list: Vec<Held>,
    stats: SpinStats,
    /// The earliest outstanding `RxArrive` (`Time::MAX` if none): the
    /// next instant a port can turn ready.
    ports_due: Time,
    /// Scratch for `spin_observe`.
    snap: Vec<u64>,
    tallies: Vec<u64>,
}

impl Default for Spin {
    fn default() -> Self {
        Self {
            enabled: true,
            faulted: false,
            started: false,
            ctx_ring: [NONE; NUM_CTX],
            me_ring: [NONE; NUM_MICROENGINES],
            rings: Vec::new(),
            armed: 0,
            list: Vec::new(),
            stats: SpinStats::default(),
            ports_due: Time::MAX,
            snap: Vec::new(),
            tallies: Vec::new(),
        }
    }
}

impl Spin {
    /// The closed ring whose subsystem `ev` belongs to.
    #[inline]
    fn owner(&self, ev: IxpEv) -> Option<RingId> {
        let r = match ev {
            IxpEv::MeDispatch(me) => self.me_ring[me],
            IxpEv::CtxComputeDone(c) | IxpEv::CtxBlockDone(c) => self.ctx_ring[c],
            IxpEv::TokenAt(r) if self.rings.get(r).is_some_and(|s| s.closed) => r as u8,
            IxpEv::TokenAt(_) | IxpEv::RxArrive(_) => NONE,
        };
        (r != NONE).then_some(usize::from(r))
    }

    /// A member that issues anything but `Compute`, `Idle` or its own
    /// ring's token ops has left the poll loop.
    #[inline]
    pub(super) fn note_op(&mut self, c: CtxId, op: Op) {
        if self.armed == 0 || self.ctx_ring[c] == NONE {
            return;
        }
        let own = usize::from(self.ctx_ring[c]);
        match op {
            Op::Compute(n) => self.rings[own].reg_cycles += u64::from(n),
            Op::Idle(_) => {}
            Op::TokenAcquire(t) | Op::TokenRelease(t) if t == own => {}
            _ => self.disturb(own),
        }
    }

    fn disturb(&mut self, r: RingId) {
        let st = &mut self.rings[r];
        if st.armed {
            self.armed -= 1;
            st.armed = false;
            st.on = None;
            st.last = None;
        }
    }

    /// Puts `ev` on the private list if it belongs to an armed ring.
    #[inline(never)]
    fn hold(&mut self, t: Time, ev: IxpEv, sched: &mut impl Sched) -> bool {
        let Some(r) = self.owner(ev).filter(|&r| self.rings[r].armed) else {
            return false;
        };
        debug_assert!(t >= sched.now(), "event scheduled in the past");
        self.rings[r].posted += 1;
        // The newest sequence number goes after every entry at the same
        // or an earlier instant.
        let seq = sched.take_seq();
        let i = self.list.partition_point(|e| e.at > t);
        let held = Held {
            at: t,
            seq,
            ring: r as u8,
            ev,
        };
        self.list.insert(i, held);
        true
    }

    #[inline]
    pub(super) fn disturb_all(&mut self) {
        if self.armed != 0 {
            (0..self.rings.len()).for_each(|r| self.disturb(r));
        }
    }

    /// A ring or program added after `start`: the owner tables no
    /// longer describe the machine.
    pub(super) fn topology_changed(&mut self) {
        if self.started {
            self.disturb_all();
            self.rings.iter_mut().for_each(|st| st.closed = false);
            self.ctx_ring = [NONE; NUM_CTX];
            self.me_ring = [NONE; NUM_MICROENGINES];
        }
    }
}

fn status_code(s: CtxStatus) -> u64 {
    match s {
        CtxStatus::Unused => 0,
        CtxStatus::Ready => 1,
        CtxStatus::Running => 2,
        CtxStatus::Blocked => 3,
        CtxStatus::Halted => 4,
        CtxStatus::WaitToken(r) => 5 | (r as u64) << 8,
        CtxStatus::WaitMutex(m) => 6 | (m as u64) << 8,
    }
}

fn ev_code(ev: IxpEv) -> u64 {
    let (kind, i) = match ev {
        IxpEv::MeDispatch(i) => (0, i),
        IxpEv::CtxComputeDone(i) => (1, i),
        IxpEv::CtxBlockDone(i) => (2, i),
        IxpEv::TokenAt(i) => (3, i),
        IxpEv::RxArrive(i) => (4, i),
    };
    kind << 32 | i as u64
}

impl<W> Ixp<W> {
    /// The oracle switch for the differential tests: with `false` no
    /// ring ever arms, so every event is dispatched one by one.
    #[doc(hidden)]
    pub fn set_spin_enabled(&mut self, on: bool) {
        self.spin.disturb_all();
        self.spin.enabled = on;
    }

    /// What compression has elided so far.
    pub fn spin_stats(&self) -> SpinStats {
        self.spin.stats
    }

    /// The `(at, seq)` key of the earliest privately held event. The
    /// embedding loop dispatches it (through [`Ixp::spin_pop`]) when it
    /// is smaller than its own queue's head key.
    #[inline]
    pub fn spin_head(&self) -> Option<(Time, u64)> {
        self.spin.list.last().map(|e| (e.at, e.seq))
    }

    /// Removes the earliest privately held event; hand it to
    /// [`Ixp::handle`] with the clock at its timestamp.
    pub fn spin_pop(&mut self) -> Option<(Time, IxpEv)> {
        self.spin.list.pop().map(|e| (e.at, e.ev))
    }

    /// Schedules a machine event: on the private list while its ring
    /// is armed, through `sched` otherwise.
    #[inline]
    pub(super) fn post(&mut self, t: Time, ev: IxpEv, sched: &mut impl Sched) {
        if self.spin.armed != 0 && self.spin.hold(t, ev, sched) {
            return;
        }
        #[cfg(debug_assertions)]
        if let Some(r) = self.spin.owner(ev) {
            let st = &mut self.spin.rings[r];
            st.queued_until = st.queued_until.max(t);
        }
        sched.at(t, ev);
    }

    /// A fault plan was attached or cleared.
    pub(super) fn spin_note_fault_plan(&mut self) {
        self.spin.disturb_all();
        self.spin.faulted |= self.faults.is_some();
    }

    /// Fixes which rings are closed. A ring is closed when no member
    /// sits on another ring (or twice on this one) and every program on
    /// a member's engine is a member.
    pub(super) fn spin_find_closed_rings(&mut self) {
        let spin = &mut self.spin;
        if spin.started {
            return;
        }
        spin.started = true;
        spin.rings = self.rings.iter().map(|_| RingSpin::default()).collect();
        let mut memberships = [0u8; NUM_CTX];
        for ring in &self.rings {
            for &m in &ring.members {
                memberships[m] += 1;
            }
        }
        for (r, ring) in self.rings.iter().enumerate().take(usize::from(NONE)) {
            let member = |c: CtxId| ring.members.contains(&c);
            let closed = ring.members.iter().all(|&m| {
                let me = Self::me_of(m);
                memberships[m] == 1
                    && (me * CTX_PER_ME..(me + 1) * CTX_PER_ME)
                        .all(|c| self.progs[c].is_none() || member(c))
            });
            if closed {
                spin.rings[r].closed = true;
                for &m in &ring.members {
                    spin.ctx_ring[m] = r as u8;
                    spin.me_ring[Self::me_of(m)] = r as u8;
                }
            }
        }
    }

    /// Refreshes the earliest outstanding `RxArrive` after a port's
    /// `rx_due` changed.
    pub(super) fn spin_note_ports(&mut self) {
        let due = self.hw.ports.iter().filter_map(|p| p.rx_due).min();
        self.spin.ports_due = due.unwrap_or(Time::MAX);
    }

    /// Every member is in its poll loop over a quiet input and no
    /// member engine is frozen.
    fn spin_members_quiet(&self, r: RingId, now: Time) -> bool {
        self.rings[r].members.iter().all(|&m| {
            self.me_frozen_until[Self::me_of(m)] <= now
                && self.progs[m]
                    .as_ref()
                    .is_some_and(|p| p.spin_key(&self.hw).is_some())
        })
    }

    /// Writes the relative state of ring `r`'s subsystem into
    /// `spin.snap` and the members' tallies into `spin.tallies`.
    /// Returns the largest pending offset, or `None` when the state is
    /// not one to compare: a member out of its poll loop, an engine
    /// frozen, or an owned event possibly still in the embedding queue.
    ///
    /// Nothing counts the owned events posted before the ring was
    /// armed, but a full rotation after it none is left. A context has
    /// at most one `CtxComputeDone`/`CtxBlockDone` outstanding and
    /// issues nothing until it fires, and every member has since taken
    /// and passed the token. The one `TokenAt` was the arming arrival
    /// itself (a machine that ever had a fault plan never arms). A
    /// `MeDispatch` is posted for now, for one context swap ahead, or
    /// for a thaw that had passed when the ring armed. Debug builds
    /// check it against `queued_until`.
    fn spin_observe(&mut self, r: RingId, now: Time) -> Option<Time> {
        let (mut snap, mut tallies) = (
            core::mem::take(&mut self.spin.snap),
            core::mem::take(&mut self.spin.tallies),
        );
        snap.clear();
        tallies.clear();
        let max_off = (|| {
            let st = &self.spin.rings[r];
            if now <= st.armed_at + cycles_to_ps(crate::params::CTX_SWAP_CYCLES) {
                return None;
            }
            #[cfg(debug_assertions)]
            debug_assert!(now > st.queued_until, "an owned event outlived a rotation");
            let ring = &self.rings[r];
            snap.push(ring.pos as u64 | (ring.state as u64) << 32);
            for &m in &ring.members {
                let prog = self.progs[m].as_ref()?;
                let key = prog.spin_key(&self.hw)?;
                snap.push(status_code(self.ctx_status[m]) << 32 | u64::from(key));
                tallies.push(prog.spin_cycles());
            }
            for (me, eng) in self.mes.iter().enumerate() {
                if usize::from(self.spin.me_ring[me]) != r {
                    continue;
                }
                if self.me_frozen_until[me] > now {
                    return None;
                }
                snap.push(eng.current.map_or(0, |c| c as u64 + 1) | (eng.ready.len() as u64) << 32);
                snap.extend(eng.ready.iter().map(|&c| c as u64));
            }
            let mut max_off = 0;
            for e in self
                .spin
                .list
                .iter()
                .rev()
                .filter(|e| usize::from(e.ring) == r)
            {
                max_off = e.at - now;
                snap.push(max_off);
                snap.push(ev_code(e.ev));
            }
            Some(max_off)
        })();
        self.spin.snap = snap;
        self.spin.tallies = tallies;
        max_off
    }

    /// The compression hook at the top of `token_at`. Returns `true`
    /// when the arrival was consumed by a jump (and re-posted at the
    /// landing).
    #[inline]
    pub(super) fn spin_token_at(&mut self, r: RingId, sched: &mut impl Sched) -> bool {
        match self.spin.rings.get(r) {
            Some(st) if st.on.is_some() => self.spin_jump(r, sched),
            Some(st) if st.closed && self.rings[r].pos == 0 => self.spin_at_head(r, sched),
            _ => false,
        }
    }

    /// The token reaches member 0 of a closed ring that is on no orbit:
    /// arm, or look for one.
    #[inline(never)]
    fn spin_at_head(&mut self, r: RingId, sched: &mut impl Sched) -> bool {
        let now = sched.now();
        let st = &mut self.spin.rings[r];
        let lap = st.head_at.replace(now).map(|t| now - t);
        if st.armed {
            return self.spin_recognise(r, now) && self.spin_jump(r, sched);
        }
        let arm = self.spin.enabled
            && !self.spin.faulted
            && lap.is_some_and(|lap| {
                sched.calm_until().min(self.spin.ports_due) >= now + ARM_LAPS * lap
            })
            && self.spin_members_quiet(r, now);
        let st = &mut self.spin.rings[r];
        st.armed = arm;
        st.armed_at = now;
        self.spin.armed += usize::from(arm);
        false
    }

    /// Armed, at member 0: compares the subsystem with the learned
    /// orbits and with the previous rotation. Returns `true` when the
    /// ring is now known to be on an orbit.
    fn spin_recognise(&mut self, r: RingId, now: Time) -> bool {
        let Some(max_off) = self.spin_observe(r, now) else {
            return false;
        };
        let Spin {
            rings,
            snap,
            tallies,
            ..
        } = &mut self.spin;
        let st = &mut rings[r];
        st.on = st.orbits.iter().position(|o| o.snap == *snap);
        if st.on.is_some() {
            return true;
        }
        match st.last.take().filter(|l| l.snap == *snap) {
            // One undisturbed rotation brought the same state back. A
            // pending offset of a period or more would be an event that
            // outlives a jump; the argument for fresh sequence numbers
            // does not cover it, so such an orbit is not kept.
            Some(l) if st.orbits.len() < MAX_ORBITS && max_off < now - l.at => {
                st.on = Some(st.orbits.len());
                st.orbits.push(Orbit {
                    period: now - l.at,
                    reg_cycles: st.reg_cycles - l.reg_cycles,
                    tallies: tallies.iter().zip(&l.tallies).map(|(a, b)| a - b).collect(),
                    events: st.posted - l.posted,
                    snap: l.snap,
                });
            }
            _ => {
                st.last = Some(Lap {
                    at: now,
                    snap: snap.clone(),
                    reg_cycles: st.reg_cycles,
                    tallies: tallies.clone(),
                    posted: st.posted,
                });
            }
        }
        st.on.is_some()
    }

    /// On an orbit, at a `TokenAt`: skips as many whole periods as fit
    /// before the horizon. Returns `true` if it skipped any.
    #[inline(never)]
    fn spin_jump(&mut self, r: RingId, sched: &mut impl Sched) -> bool {
        let now = sched.now();
        let Self {
            spin,
            rings,
            progs,
            reg_cycles,
            ..
        } = self;
        let st = &mut spin.rings[r];
        let orbit = &st.orbits[st.on.expect("caller checked the ring is on an orbit")];
        // Land strictly before anything that may disturb the ring, so
        // every event at that instant is still dispatched for real, and
        // no later than the loop runs to.
        let limit = (sched.calm_until().min(spin.ports_due))
            .saturating_sub(1)
            .min(sched.run_deadline());
        let n = limit.saturating_sub(now) / orbit.period;
        if n == 0 {
            return false;
        }
        debug_assert_eq!(rings[r].state, RingState::Moving);
        let dt = n * orbit.period;
        *reg_cycles += n * orbit.reg_cycles;
        for (&m, &cycles) in rings[r].members.iter().zip(&orbit.tallies) {
            if let Some(p) = progs[m].as_mut().filter(|_| cycles > 0) {
                p.spin_credit(n * cycles);
            }
        }
        spin.stats.jumps += 1;
        spin.stats.rotations += n;
        // The arrival itself is dispatched twice, here and at the landing.
        spin.stats.events += n * orbit.events - 1;
        st.head_at = st.head_at.map(|t| t + dt);
        // The arrival goes in front of the events that were pending
        // behind it, all in their old relative order under fresh
        // sequence numbers.
        let arrival = Held {
            at: now + dt,
            seq: sched.take_seq(),
            ring: r as u8,
            ev: IxpEv::TokenAt(r),
        };
        for e in spin
            .list
            .iter_mut()
            .rev()
            .filter(|e| usize::from(e.ring) == r)
        {
            e.at += dt;
            e.seq = sched.take_seq();
        }
        spin.list.push(arrival);
        spin.list
            .sort_unstable_by_key(|e| core::cmp::Reverse((e.at, e.seq)));
        true
    }
}

#[cfg(test)]
#[path = "spin_tests.rs"]
mod tests;
