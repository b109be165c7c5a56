//! Tests for the machine model, kept out-of-line so `machine.rs`
//! stays within the module-size gate. Included as a child module via
//! `#[path]`, so `super::*` resolves to the machine module itself.

use super::*;
use npr_sim::EventQueue;

/// Minimal scheduler over an `EventQueue`.
struct Q(EventQueue<IxpEv>);
impl Sched for Q {
    fn now(&self) -> Time {
        self.0.now()
    }
    fn at(&mut self, t: Time, ev: IxpEv) {
        self.0.schedule(t, ev);
    }
}

#[derive(Default)]
struct World {
    log: Vec<(Time, CtxId, &'static str)>,
}

/// A program that runs a scripted list of ops, logging each resume.
struct Script {
    ops: Vec<Op>,
    pc: usize,
}
impl CtxProgram<World> for Script {
    fn resume(&mut self, env: &mut Env<'_, World>) -> Op {
        env.world.log.push((env.now, env.ctx, "resume"));
        let op = self.ops.get(self.pc).copied().unwrap_or(Op::Halt);
        self.pc += 1;
        op
    }
}

fn run(ixp: &mut Ixp<World>, world: &mut World, limit: Time) -> Time {
    let mut q = Q(EventQueue::new());
    ixp.start(world, &mut q);
    // Atomic deadline pop: an event past `limit` must not be
    // consumed or advance the clock (the old peek-then-pop pattern
    // did both).
    while let Some((_, ev)) = q.0.pop_if_at_or_before(limit) {
        ixp.handle(ev, world, &mut q);
    }
    q.0.now()
}

#[test]
fn ixp_ev_stays_small() {
    // `IxpEv` rides inside every entry of the embedding event queue
    // (`PlaneEvent::Machine`), which budgets 24 bytes for the event.
    assert!(core::mem::size_of::<IxpEv>() <= 16);
}

#[test]
fn compute_occupies_issue_slot_exclusively() {
    // Two contexts on the same ME, each computing 100 cycles twice:
    // they serialize on the issue slot.
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    for c in 0..2 {
        ixp.set_program(
            c,
            Box::new(Script {
                ops: vec![Op::Compute(100), Op::Compute(100)],
                pc: 0,
            }),
        );
    }
    let mut w = World::default();
    run(&mut ixp, &mut w, 1_000_000_000);
    // Ctx 0 runs 0..200 cycles (it never yields: contexts run until
    // they block), ctx 1 starts only after ctx 0 halts.
    let c1_first = w.log.iter().find(|&&(_, c, _)| c == 1).unwrap().0;
    assert!(c1_first >= cycles_to_ps(200), "ctx1 started at {c1_first}");
    assert_eq!(ixp.reg_cycles(), 400);
}

#[test]
fn memory_latency_is_hidden_by_peer_context() {
    // Ctx 0: compute 10, DRAM read, compute 10. Ctx 1: compute 50.
    // Ctx 1 runs during ctx 0's memory wait.
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    ixp.set_program(
        0,
        Box::new(Script {
            ops: vec![
                Op::Compute(10),
                Op::MemRead(MemKind::Dram, 32),
                Op::Compute(10),
            ],
            pc: 0,
        }),
    );
    ixp.set_program(
        1,
        Box::new(Script {
            ops: vec![Op::Compute(50)],
            pc: 0,
        }),
    );
    let mut w = World::default();
    let end = run(&mut ixp, &mut w, 1_000_000_000);
    // Total: ctx0 10 + (52 hidden partially) ... must finish well
    // before a serial execution (10 + 52 + 10 + 50 = 122 would be
    // unhidden; hidden it is 10 + 1 + max(52, 50 + swap) + 10).
    assert!(end <= cycles_to_ps(80), "end {end}");
}

#[test]
fn contexts_on_different_mes_run_in_parallel() {
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    ixp.set_program(
        0,
        Box::new(Script {
            ops: vec![Op::Compute(100)],
            pc: 0,
        }),
    );
    ixp.set_program(
        4, // ME 1.
        Box::new(Script {
            ops: vec![Op::Compute(100)],
            pc: 0,
        }),
    );
    let mut w = World::default();
    let end = run(&mut ixp, &mut w, 1_000_000_000);
    assert_eq!(end, cycles_to_ps(100));
}

#[test]
fn token_ring_serializes_and_rotates() {
    // Three members each acquire/release twice; grants alternate in
    // ring order.
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    let members = vec![0, 4, 8]; // One per ME: true parallelism.
    let r = ixp.add_ring(members);
    for &c in &[0usize, 4, 8] {
        ixp.set_program(
            c,
            Box::new(Script {
                ops: vec![
                    Op::TokenAcquire(r),
                    Op::Compute(10),
                    Op::TokenRelease(r),
                    Op::TokenAcquire(r),
                    Op::Compute(10),
                    Op::TokenRelease(r),
                ],
                pc: 0,
            }),
        );
    }
    let mut w = World::default();
    let end = run(&mut ixp, &mut w, 1_000_000_000);
    // Six critical sections of 10 cycles + passes: ~66+ cycles, and
    // they must be serialized (>= 60 cycles).
    assert!(end >= cycles_to_ps(60), "end {end}");
    assert!(end <= cycles_to_ps(80), "end {end}");
}

#[test]
fn token_parks_until_member_asks() {
    // Member 1 of the ring acquires late; the token must wait parked
    // at it, not skip to member 0.
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    let r = ixp.add_ring(vec![0, 4]);
    ixp.set_program(
        0,
        Box::new(Script {
            ops: vec![
                Op::TokenAcquire(r),
                Op::TokenRelease(r),
                // Immediately try again: must wait a full rotation.
                Op::TokenAcquire(r),
                Op::Compute(1),
            ],
            pc: 0,
        }),
    );
    ixp.set_program(
        4,
        Box::new(Script {
            ops: vec![Op::Compute(500), Op::TokenAcquire(r), Op::TokenRelease(r)],
            pc: 0,
        }),
    );
    let mut w = World::default();
    let end = run(&mut ixp, &mut w, 1_000_000_000);
    // Ctx 0's second acquire can only be granted after ctx 4 finishes
    // its 500-cycle compute and cycles the token.
    assert!(end >= cycles_to_ps(500), "end {end}");
}

#[test]
fn mutex_contention_is_fifo_and_counted() {
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    let m = ixp.add_mutex();
    for &c in &[0usize, 4, 8] {
        ixp.set_program(
            c,
            Box::new(Script {
                ops: vec![Op::MutexAcquire(m), Op::Compute(100), Op::MutexRelease(m)],
                pc: 0,
            }),
        );
    }
    let mut w = World::default();
    let end = run(&mut ixp, &mut w, 1_000_000_000);
    // Three serialized 100-cycle critical sections.
    assert!(end >= cycles_to_ps(300), "end {end}");
    let (wait, acq) = ixp.mutex_stats(m);
    assert_eq!(acq, 3);
    assert!(wait > 0);
}

#[test]
fn ideal_port_dma_uses_template() {
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    let mp = Mp::segment(&[7u8; 60], 0, 0).pop().unwrap();
    ixp.set_rx_template(0, mp);
    ixp.set_program(
        0,
        Box::new(Script {
            ops: vec![Op::DmaRxToFifo { port: 0, slot: 0 }],
            pc: 0,
        }),
    );
    let mut w = World::default();
    run(&mut ixp, &mut w, 1_000_000_000);
    assert_eq!(ixp.hw.in_fifo[0].len(), 1);
    assert_eq!(ixp.hw.in_fifo[0].front().unwrap().data[0], 7);
    assert_eq!(ixp.dma.jobs(), 1);
}

#[test]
fn dma_is_serialized_across_contexts() {
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    let mp = Mp::segment(&[0u8; 60], 0, 0).pop().unwrap();
    for p in 0..2 {
        ixp.set_rx_template(p, mp.clone());
    }
    // Two contexts on different MEs DMA simultaneously.
    ixp.set_program(
        0,
        Box::new(Script {
            ops: vec![Op::DmaRxToFifo { port: 0, slot: 0 }],
            pc: 0,
        }),
    );
    ixp.set_program(
        4,
        Box::new(Script {
            ops: vec![Op::DmaRxToFifo { port: 1, slot: 1 }],
            pc: 0,
        }),
    );
    let mut w = World::default();
    let end = run(&mut ixp, &mut w, 1_000_000_000);
    // Each transfer occupies setup + 60 B / 4 Gbps; two must serialize.
    let one = dma_occupancy_ps(60);
    assert!(end >= 2 * one, "end {end} < {}", 2 * one);
}

#[test]
fn repriming_a_port_mid_frame_leaves_its_mps_on_schedule() {
    // One 200-byte frame on a 100 Mbps port: four MPs, due when their
    // last byte is off the wire. A fabric barrier re-primes the port
    // whenever it has delivered a frame, which may be at any instant.
    // Re-priming must not schedule a second arrival for a port that
    // has one outstanding, or the MPs behind it land early.
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::default());
    let mut sent = false;
    ixp.set_source(
        0,
        Box::new(move || {
            let first = !sent;
            sent = true;
            first.then(|| (0, vec![1u8; 200]))
        }),
    );
    let mut w = World::default();
    let mut q = Q(EventQueue::new());
    ixp.start(&mut w, &mut q);
    let mut landed = Vec::new();
    loop {
        // Several barriers before the first MP and between every two.
        for _ in 0..3 {
            ixp.reprime_port(0, &mut q);
        }
        let Some((at, ev)) = q.0.pop_if_at_or_before(100_000_000) else {
            break;
        };
        assert!(matches!(ev, IxpEv::RxArrive(0)), "unexpected {ev:?}");
        ixp.handle(ev, &mut w, &mut q);
        landed.push((at, ixp.hw.ports[0].rx_mps));
    }
    // 64, 128 and 192 bytes in, then the whole frame plus its 24 bytes
    // of wire overhead; one arrival event each.
    assert_eq!(
        landed,
        [
            (5_120_000, 1),
            (10_240_000, 2),
            (15_360_000, 3),
            (17_920_000, 4)
        ]
    );
    assert_eq!(ixp.hw.ports[0].rx_frames, 1);
}

#[test]
fn tx_path_counts_frames() {
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    let mp = Mp::segment(&[0u8; 60], 3, 0).pop().unwrap();
    ixp.hw.out_fifo[2].push_back(mp);
    ixp.set_program(
        0,
        Box::new(Script {
            ops: vec![Op::DmaTxToPort { slot: 2, port: 3 }],
            pc: 0,
        }),
    );
    let mut w = World::default();
    run(&mut ixp, &mut w, 1_000_000_000);
    assert_eq!(ixp.hw.ports[3].tx_frames, 1);
    assert!(ixp.hw.out_fifo[2].is_empty());
}

#[test]
fn frozen_me_issues_nothing_until_thaw() {
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    ixp.set_program(
        0,
        Box::new(Script {
            ops: vec![Op::Compute(10)],
            pc: 0,
        }),
    );
    ixp.freeze_me(0, cycles_to_ps(800));
    let mut w = World::default();
    let end = run(&mut ixp, &mut w, 1_000_000_000);
    // The 10-cycle compute can only start at the thaw.
    assert_eq!(end, cycles_to_ps(810));
    assert_eq!(ixp.reg_cycles(), 10);
}

#[test]
fn freeze_defers_running_context_completion() {
    // The context starts computing, then the engine is frozen: its
    // completion (and everything after) lands past the thaw.
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    ixp.set_program(
        0,
        Box::new(Script {
            ops: vec![Op::Compute(10), Op::Compute(10)],
            pc: 0,
        }),
    );
    let mut q = Q(EventQueue::new());
    let mut w = World::default();
    ixp.start(&mut w, &mut q);
    // Run the first dispatch (compute scheduled to end at 10 cyc).
    let (_, ev) = q.0.pop_if_at_or_before(0).unwrap();
    ixp.handle(ev, &mut w, &mut q);
    ixp.freeze_me(0, cycles_to_ps(500));
    while let Some((_, ev)) = q.0.pop_if_at_or_before(1_000_000_000) {
        ixp.handle(ev, &mut w, &mut q);
    }
    assert_eq!(q.0.now(), cycles_to_ps(510));
    assert_eq!(ixp.reg_cycles(), 20);
}

#[test]
fn dropped_token_recovers_by_timeout() {
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    ixp.set_fault_plan(Some(
        npr_sim::FaultPlan::new(11).with_rate(npr_sim::FaultClass::TokenDrop, npr_sim::fault::PPM),
    ));
    let r = ixp.add_ring(vec![0, 4]);
    for &c in &[0usize, 4] {
        ixp.set_program(
            c,
            Box::new(Script {
                ops: vec![Op::TokenAcquire(r), Op::Compute(5), Op::TokenRelease(r)],
                pc: 0,
            }),
        );
    }
    let mut w = World::default();
    let end = run(&mut ixp, &mut w, 1_000_000_000);
    // Every pass is lost and regenerated after >= 1000 cycles, but
    // both members still complete their critical sections.
    assert!(end >= cycles_to_ps(1_000), "end {end}");
    assert_eq!(ixp.reg_cycles(), 10);
    assert!(ixp.fault_plan().unwrap().injected(npr_sim::FaultClass::TokenDrop) >= 1);
}

#[test]
fn duplicated_token_never_double_grants() {
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    ixp.set_fault_plan(Some(
        npr_sim::FaultPlan::new(12)
            .with_rate(npr_sim::FaultClass::TokenDuplicate, npr_sim::fault::PPM),
    ));
    let r = ixp.add_ring(vec![0, 4, 8]);
    for &c in &[0usize, 4, 8] {
        ixp.set_program(
            c,
            Box::new(Script {
                ops: vec![
                    Op::TokenAcquire(r),
                    Op::Compute(10),
                    Op::TokenRelease(r),
                    Op::TokenAcquire(r),
                    Op::Compute(10),
                    Op::TokenRelease(r),
                ],
                pc: 0,
            }),
        );
    }
    let mut w = World::default();
    let end = run(&mut ixp, &mut w, 1_000_000_000);
    // Critical sections stay serialized despite a duplicate signal
    // on every pass.
    assert!(end >= cycles_to_ps(60), "end {end}");
    assert_eq!(ixp.reg_cycles(), 60);
}

#[test]
fn halt_frees_the_issue_slot() {
    let mut ixp: Ixp<World> = Ixp::new(ChipConfig::ideal());
    ixp.set_program(
        0,
        Box::new(Script {
            ops: vec![Op::Halt],
            pc: 0,
        }),
    );
    ixp.set_program(
        1,
        Box::new(Script {
            ops: vec![Op::Compute(10)],
            pc: 0,
        }),
    );
    let mut w = World::default();
    run(&mut ixp, &mut w, 1_000_000_000);
    assert_eq!(ixp.reg_cycles(), 10);
}
