//! Idle-rotation compression on the machine alone: a harness that
//! merges the private list with its queue the way `npr-core`'s router
//! does, run against the same machine stepped event by event.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use super::*;
use npr_sim::EventQueue;

/// A scheduler that tells the machine how long it will be left alone
/// and dispatches its private list merged by `(at, seq)`.
struct Merged {
    q: EventQueue<IxpEv>,
    calm: Time,
    deadline: Time,
    /// Every event dispatched, when asked for.
    log: Option<Vec<(Time, IxpEv)>>,
}

impl Sched for Merged {
    fn now(&self) -> Time {
        self.q.now()
    }
    fn at(&mut self, t: Time, ev: IxpEv) {
        self.q.schedule(t, ev);
    }
    fn calm_until(&self) -> Time {
        self.calm
    }
    fn run_deadline(&self) -> Time {
        self.deadline
    }
    fn take_seq(&mut self) -> u64 {
        self.q.take_seq()
    }
}

impl Merged {
    fn new(calm: Time) -> Self {
        Self {
            q: EventQueue::new(),
            calm,
            deadline: 0,
            log: None,
        }
    }

    fn run_until(&mut self, ixp: &mut Ixp<()>, until: Time) {
        self.deadline = until;
        loop {
            let ev = match ixp.spin_head() {
                Some(held) if self.q.peek_key().is_none_or(|queued| held < queued) => {
                    if held.0 > until {
                        break;
                    }
                    let (at, ev) = ixp.spin_pop().expect("peeked entry");
                    self.q.advance_to(at);
                    ev
                }
                _ => match self.q.pop_if_at_or_before(until) {
                    Some((_, ev)) => ev,
                    None => break,
                },
            };
            if let Some(log) = &mut self.log {
                log.push((self.q.now(), ev));
            }
            ixp.handle(ev, &mut (), self);
        }
        self.deadline = 0;
    }

    fn next_event_time(&self, ixp: &Ixp<()>) -> Option<Time> {
        let held = ixp.spin_head().map(|(at, _)| at);
        [self.q.peek_time(), held].into_iter().flatten().min()
    }
}

/// What a polling context has done, readable from outside the machine.
#[derive(Default)]
struct Tally {
    cycles: AtomicU64,
    fetched: AtomicU64,
    fetched_at: AtomicU64,
}

/// The input loop's poll, reduced: take the token, test the port, pass
/// the token on, pause; fetch an MP when one is there.
struct Poll {
    ring: RingId,
    port: PortId,
    check: u32,
    phase: u32,
    tally: Arc<Tally>,
}

impl CtxProgram<()> for Poll {
    fn resume(&mut self, env: &mut Env<'_, ()>) -> Op {
        self.phase += 1;
        match self.phase - 1 {
            0 => Op::TokenAcquire(self.ring),
            1 => {
                self.tally.cycles.fetch_add(u64::from(self.check), Relaxed);
                Op::Compute(self.check)
            }
            2 if env.hw.port_rdy(self.port) => {
                self.phase = 4;
                Op::DmaRxToFifo {
                    port: self.port,
                    slot: 0,
                }
            }
            2 => Op::TokenRelease(self.ring),
            3 => {
                self.phase = 0;
                Op::Idle(cycles_to_ps(16))
            }
            _ => {
                assert!(env.hw.in_fifo[0].pop_front().is_some());
                self.tally.fetched.fetch_add(1, Relaxed);
                self.tally.fetched_at.store(env.now, Relaxed);
                self.phase = 3;
                Op::TokenRelease(self.ring)
            }
        }
    }

    fn spin_key(&self, hw: &HwData) -> Option<u32> {
        (self.phase <= 3 && !hw.port_rdy(self.port)).then_some(self.phase)
    }

    fn spin_cycles(&self) -> u64 {
        self.tally.cycles.load(Relaxed)
    }

    fn spin_credit(&mut self, cycles: u64) {
        self.tally.cycles.fetch_add(cycles, Relaxed);
    }
}

/// A machine with real ports and one polling ring per entry of `rings`
/// (each a member list; member `i` checks its port for `4 + i` cycles,
/// so the members are not interchangeable).
fn machine(rings: &[&[CtxId]]) -> (Ixp<()>, Vec<Arc<Tally>>) {
    let mut ixp: Ixp<()> = Ixp::new(ChipConfig::default());
    let mut tallies = Vec::new();
    for members in rings {
        let ring = ixp.add_ring(members.to_vec());
        for (i, &c) in members.iter().enumerate() {
            let tally = Arc::new(Tally::default());
            tallies.push(Arc::clone(&tally));
            let prog = Poll {
                ring,
                port: 0,
                check: 4 + i as u32,
                phase: 0,
                tally,
            };
            ixp.set_program(c, Box::new(prog));
        }
    }
    (ixp, tallies)
}

/// Runs `build()` twice to each of `stops` — compressing, and stepped
/// (the switch off) — and asserts the two machines agree at every stop.
/// Returns the compressing machine's stats.
fn assert_matches_stepped(
    build: impl Fn() -> (Ixp<()>, Vec<Arc<Tally>>),
    stops: &[Time],
) -> SpinStats {
    let (mut fast, fast_tallies) = build();
    let (mut slow, slow_tallies) = build();
    slow.set_spin_enabled(false);
    let (mut fq, mut sq) = (Merged::new(Time::MAX), Merged::new(Time::MAX));
    fast.start(&mut (), &mut fq);
    slow.start(&mut (), &mut sq);
    for &stop in stops {
        fq.run_until(&mut fast, stop);
        sq.run_until(&mut slow, stop);
        assert_eq!(fq.q.now(), sq.q.now(), "clock at {stop}");
        assert_eq!(fast.reg_cycles(), slow.reg_cycles(), "reg_cycles at {stop}");
        assert_eq!(
            fq.next_event_time(&fast),
            sq.next_event_time(&slow),
            "next event at {stop}"
        );
        for (i, (f, s)) in fast_tallies.iter().zip(&slow_tallies).enumerate() {
            for (what, f, s) in [
                ("cycles", &f.cycles, &s.cycles),
                ("fetched", &f.fetched, &s.fetched),
                ("fetched_at", &f.fetched_at, &s.fetched_at),
            ] {
                assert_eq!(
                    f.load(Relaxed),
                    s.load(Relaxed),
                    "member {i} {what} at {stop}"
                );
            }
        }
    }
    assert_eq!(slow.spin_stats(), SpinStats::default(), "the oracle jumped");
    fast.spin_stats()
}

#[test]
fn two_idle_rings_jump_independently_and_match_the_stepped_machine() {
    // A four-member ring over four engines and a two-member ring on a
    // fifth: different periods, one private list.
    let stats = assert_matches_stepped(
        || machine(&[&[0, 4, 8, 12], &[16, 17]]),
        &[
            1_000_000,
            1_000_001,
            1_234_567,
            5_000_000,
            5_000_000 + cycles_to_ps(3),
            40_000_000,
        ],
    );
    assert!(stats.jumps >= 6, "{stats:?}");
    // 40 us of 5 ns cycles, a visit is about 5 + i cycles: thousands of
    // rotations, nearly all of them skipped.
    assert!(stats.rotations > 400, "{stats:?}");
}

#[test]
fn a_one_member_ring_whose_period_is_its_own_idle_still_matches() {
    let stats = assert_matches_stepped(|| machine(&[&[5]]), &[777_777, 3_000_000, 3_000_001]);
    assert!(stats.rotations > 0, "{stats:?}");
}

#[test]
fn a_ring_sharing_an_engine_with_a_non_member_never_arms() {
    // Context 1 shares MicroEngine 0 with member 0: its events reorder
    // the engine's ready queue, so the ring is not closed.
    struct Busy;
    impl CtxProgram<()> for Busy {
        fn resume(&mut self, _env: &mut Env<'_, ()>) -> Op {
            Op::Compute(7)
        }
    }
    let build = || {
        let (mut ixp, tallies) = machine(&[&[0, 4]]);
        ixp.set_program(1, Box::new(Busy));
        (ixp, tallies)
    };
    let stats = assert_matches_stepped(build, &[2_000_000]);
    assert_eq!(stats, SpinStats::default());
}

#[test]
fn poll_loop_waits_for_the_arrival_without_stepping_through_it() {
    // One frame lands at 6.72 us. Until then the ring only polls, and
    // the machine may skip the rotations — but it must hand the MP to
    // the same member at the same instant as the stepped machine.
    let build = || {
        let (mut ixp, tallies) = machine(&[&[0, 4, 8]]);
        let mut sent = false;
        ixp.set_source(
            0,
            Box::new(move || {
                let first = !sent;
                sent = true;
                first.then(|| (0, vec![1u8; 60]))
            }),
        );
        (ixp, tallies)
    };
    let stats = assert_matches_stepped(&build, &[3_000_000, 20_000_000]);
    assert!(stats.rotations > 20, "{stats:?}");
    // And it did arrive.
    let (mut ixp, tallies) = build();
    let mut q = Merged::new(Time::MAX);
    ixp.start(&mut (), &mut q);
    q.run_until(&mut ixp, 20_000_000);
    let fetched: u64 = tallies.iter().map(|t| t.fetched.load(Relaxed)).sum();
    assert_eq!(fetched, 1);
    let at = tallies.iter().map(|t| t.fetched_at.load(Relaxed)).max();
    assert!(at >= Some(6_720_000), "fetched at {at:?}");
}

#[test]
fn a_disturbance_from_outside_lands_on_the_stepped_schedule() {
    // Freeze an engine, re-prime a port and arm a fault plan between
    // runs: each must knock the ring off its orbit, and the machine
    // must come back to the stepped schedule afterwards.
    for disturb in [0, 1, 2] {
        let (mut fast, _) = machine(&[&[0, 4, 8, 12]]);
        let (mut slow, _) = machine(&[&[0, 4, 8, 12]]);
        slow.set_spin_enabled(false);
        let (mut fq, mut sq) = (Merged::new(Time::MAX), Merged::new(Time::MAX));
        fast.start(&mut (), &mut fq);
        slow.start(&mut (), &mut sq);
        for stop in [2_000_000, 2_000_000 + cycles_to_ps(7), 9_000_000] {
            fq.run_until(&mut fast, stop);
            sq.run_until(&mut slow, stop);
            assert_eq!(
                fast.reg_cycles(),
                slow.reg_cycles(),
                "disturbance {disturb}"
            );
            assert_eq!(fq.next_event_time(&fast), sq.next_event_time(&slow));
            for (ixp, q) in [(&mut fast, &mut fq), (&mut slow, &mut sq)] {
                match disturb {
                    0 => ixp.freeze_me(1, stop + cycles_to_ps(300)),
                    1 => ixp.reprime_port(0, q),
                    _ => ixp.set_fault_plan(Some(npr_sim::FaultPlan::new(3))),
                }
            }
        }
        assert!(fast.spin_stats().rotations > 0);
    }
}

#[test]
fn duplicate_token_under_the_fault_plane_is_absorbed() {
    // Every pass is duplicated. With a plan armed the ring never arms,
    // the duplicates are absorbed as before, and the schedule is the
    // stepped machine's.
    let build = || {
        let (mut ixp, tallies) = machine(&[&[0, 4, 8]]);
        ixp.set_fault_plan(Some(
            npr_sim::FaultPlan::new(12)
                .with_rate(npr_sim::FaultClass::TokenDuplicate, npr_sim::fault::PPM),
        ));
        (ixp, tallies)
    };
    let stats = assert_matches_stepped(build, &[1_000_000, 4_000_000]);
    assert_eq!(stats, SpinStats::default());
}

/// Tests its port on its own time, *outside* the token: compute, look,
/// then take and pass the token and pause. Its look can therefore fall
/// on the very instant the token arrives somewhere else.
struct Probe {
    ring: RingId,
    check: u32,
    phase: u32,
    tally: Arc<Tally>,
}

impl CtxProgram<()> for Probe {
    fn resume(&mut self, env: &mut Env<'_, ()>) -> Op {
        self.phase += 1;
        match self.phase - 1 {
            0 => {
                self.tally.cycles.fetch_add(u64::from(self.check), Relaxed);
                Op::Compute(self.check)
            }
            1 if env.hw.port_rdy(0) => {
                self.phase = 5;
                Op::DmaRxToFifo { port: 0, slot: 0 }
            }
            1 => Op::TokenAcquire(self.ring),
            2 => Op::TokenRelease(self.ring),
            3 => {
                self.phase = 0;
                Op::Idle(cycles_to_ps(16))
            }
            _ => {
                assert!(env.hw.in_fifo[0].pop_front().is_some());
                self.tally.fetched.fetch_add(1, Relaxed);
                self.tally.fetched_at.store(env.now, Relaxed);
                self.phase = 2;
                Op::TokenAcquire(self.ring)
            }
        }
    }

    fn spin_key(&self, hw: &HwData) -> Option<u32> {
        (self.phase <= 3 && !hw.port_rdy(0)).then_some(self.phase)
    }

    fn spin_cycles(&self) -> u64 {
        self.tally.cycles.load(Relaxed)
    }

    fn spin_credit(&mut self, cycles: u64) {
        self.tally.cycles.fetch_add(cycles, Relaxed);
    }
}

#[test]
fn a_jump_lands_before_the_arrival_not_on_it() {
    // Two probing members that look for `checks` cycles; one frame,
    // landing at `land`.
    let build = |checks: [u32; 2], land: Option<Time>| {
        let mut ixp: Ixp<()> = Ixp::new(ChipConfig::default());
        let ring = ixp.add_ring(vec![0, 4]);
        let mut tallies = Vec::new();
        for (i, c) in [0, 4].into_iter().enumerate() {
            let tally = Arc::new(Tally::default());
            tallies.push(Arc::clone(&tally));
            let prog = Probe {
                ring,
                check: checks[i],
                phase: 0,
                tally,
            };
            ixp.set_program(c, Box::new(prog));
        }
        let mut left = land;
        // A 60-byte frame is on the wire for 6.72 us.
        ixp.set_source(
            0,
            Box::new(move || left.take().map(|t| (t - 6_720_000, vec![1u8; 60]))),
        );
        (ixp, tallies)
    };
    // Step the idle machine and find the instants where a member looks
    // at its port and the token arrives, in that order: an event of the
    // ring that a landing on that instant would skip. Whether the idle
    // orbit has any depends on the look times, so try a few.
    let coincidences = |checks: [u32; 2]| -> Vec<Time> {
        let (mut ixp, _) = build(checks, None);
        ixp.set_spin_enabled(false);
        let mut q = Merged::new(Time::MAX);
        q.log = Some(Vec::new());
        ixp.start(&mut (), &mut q);
        q.run_until(&mut ixp, 12_000_000);
        let log = q.log.take().expect("asked for");
        log.windows(2)
            .filter(|w| {
                w[0].0 == w[1].0
                    && w[0].0 > 7_000_000
                    && matches!(w[0].1, IxpEv::CtxComputeDone(_))
                    && matches!(w[1].1, IxpEv::TokenAt(_))
            })
            .map(|w| w[0].0)
            .collect()
    };
    let (checks, before, land) = (1..12)
        .flat_map(|a| (1..12).map(move |b| [a, b]))
        .find_map(|checks| match coincidences(checks)[..] {
            [.., before, land] => Some((checks, before, land)),
            _ => None,
        })
        .expect("some pair of look times makes a look coincide with a token arrival");
    let period = land - before;
    // Resume just before such an instant three periods ahead of the
    // arrival: that token arrival is the next one dispatched, and whole
    // periods from it reach `land` exactly. The look at `land` must
    // still happen, and see the frame that landed at the same instant.
    let stats = assert_matches_stepped(
        || build(checks, Some(land)),
        &[land - 3 * period - 1, land + 40 * period],
    );
    assert!(stats.rotations > 0, "{stats:?}");
}
