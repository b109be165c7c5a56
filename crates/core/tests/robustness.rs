//! Robustness properties (paper, section 4.7 and the three goals of
//! section 1): performance isolation between the hierarchy levels.

use npr_core::{ms, InstallRequest, Key, Router, RouterConfig};
use npr_forwarders::{pad_program, PadKind};
use npr_traffic::{CbrSource, FrameSpec, SynFloodSource};

#[test]
fn exceptional_floods_do_not_slow_the_fast_path() {
    // Baseline fast-path rate.
    let mut r = Router::new(RouterConfig::table1_system());
    let base = r.measure(ms(1), ms(2)).input_mpps;
    // Now with 40% of traffic marked exceptional.
    let mut cfg = RouterConfig::table1_system();
    cfg.divert_sa_permille = 400;
    let mut r = Router::new(cfg);
    let flooded = r.measure(ms(1), ms(2)).input_mpps;
    assert!(
        flooded > base * 0.97,
        "fast path degraded: {flooded} vs {base}"
    );
}

#[test]
fn syn_flood_cannot_starve_data_traffic() {
    let mut r = Router::new(RouterConfig::line_rate());
    // Data on port 0, a large spoofed SYN flood on port 1.
    r.attach_cbr(0, 0.9, u64::MAX, 2);
    r.attach_source(
        1,
        Box::new(SynFloodSource::new(
            FrameSpec {
                dst: u32::from_be_bytes([10, 3, 0, 1]),
                dport: 80,
                ..Default::default()
            },
            130_000.0,
            9,
            u64::MAX,
        )),
    );
    // Port counters are lifetime totals: read them where the window
    // starts and compare the difference.
    r.run_until(ms(2));
    let tx0 = [2, 3].map(|p| r.ixp.hw.ports[p].tx_frames);
    let rep = r.measure(ms(2), ms(10));
    // Both streams forwarded at their offered rates; no interference.
    assert_eq!(rep.port_drops, 0);
    assert!(
        r.ixp.hw.ports[2].tx_frames - tx0[0] > 1200,
        "data stream flowed"
    );
    assert!(
        r.ixp.hw.ports[3].tx_frames - tx0[1] > 1000,
        "flood also forwarded"
    );
}

#[test]
fn vrp_budget_keeps_line_rate_at_prototype_speeds() {
    // With a full-budget suite installed, 8 x 100 Mbps must still be
    // lossless (the whole point of admission control).
    let mut r = Router::new(RouterConfig::line_rate());
    r.set_vrp_pad(pad_program(PadKind::Combo, 21));
    for p in 0..8 {
        r.attach_cbr(p, 0.95, u64::MAX, ((p + 1) % 8) as u8);
    }
    let rep = r.measure(ms(2), ms(8));
    assert_eq!(rep.port_drops + rep.queue_drops + rep.lap_losses, 0);
    assert!(
        rep.forward_mpps > 1.1,
        "line rate held: {}",
        rep.forward_mpps
    );
}

#[test]
fn over_budget_code_cannot_be_injected() {
    // The robustness goal: "it should not be possible to inject code
    // into the data plane that keeps the router from processing packets
    // at line speed."
    let mut r = Router::new(RouterConfig::line_rate());
    for blocks in [25u32, 40, 100] {
        assert!(
            r.install(
                Key::All,
                InstallRequest::Me {
                    prog: pad_program(PadKind::Combo, blocks)
                },
                None,
            )
            .is_err(),
            "{blocks} blocks must be rejected"
        );
    }
}

#[test]
fn slow_path_overload_drops_at_the_queue_not_the_router() {
    // Divert everything to the StrongARM at far beyond its capacity:
    // the SA queue fills and drops, but input keeps running and the
    // drops are visible in counters.
    let mut cfg = RouterConfig::table1_system();
    cfg.divert_sa_permille = 1000;
    let mut r = Router::new(cfg);
    let rep = r.measure(ms(1), ms(4));
    assert!(
        rep.input_mpps > 3.0,
        "input undisturbed: {}",
        rep.input_mpps
    );
    assert!(rep.sa_kpps > 400.0, "StrongARM at its limit");
    assert!(rep.escalation_drops > 0, "overload visible in drops");
}

#[test]
fn deterministic_replay() {
    // Two identical runs produce identical counters — the whole
    // simulation is a pure function of its configuration.
    let run = || {
        let mut r = Router::new(RouterConfig::line_rate());
        r.attach_cbr(0, 0.95, 2_000, 1);
        r.attach_source(
            1,
            Box::new(SynFloodSource::new(
                FrameSpec {
                    dst: u32::from_be_bytes([10, 2, 0, 1]),
                    ..Default::default()
                },
                90_000.0,
                1234,
                1_000,
            )),
        );
        r.run_until(ms(25));
        (
            r.world.counters.input_pkts.total(),
            r.ixp.hw.ports.iter().map(|p| p.tx_frames).sum::<u64>(),
            r.world.pool.allocations(),
            r.ixp.reg_cycles(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn queue_overflow_is_bounded_and_counted() {
    // Stall the output side (no output contexts) and offer a burst:
    // drops happen exactly past the queue capacity.
    let mut cfg = RouterConfig::line_rate();
    cfg.output_ctxs = 0;
    cfg.queue_cap = 32;
    let mut r = Router::new(cfg);
    r.attach_source(
        0,
        Box::new(CbrSource::new(
            100_000_000,
            0.9,
            FrameSpec {
                dst: u32::from_be_bytes([10, 1, 0, 1]),
                ..Default::default()
            },
            100,
        )),
    );
    r.run_until(ms(10));
    let q = r.world.queues.queue(r.world.queues.qid(1, 0));
    assert_eq!(q.len(), 32, "queue holds exactly its capacity");
    assert_eq!(q.drops(), 100 - 32);
}
