//! Drop-accounting audit: every site that destroys a packet must
//! increment exactly one drop counter. Each test here pins one of the
//! sites the conservation checker flagged as silent (or miscounted)
//! when the fault plane was first wired through the router.

use npr_core::{ms, us, InstallRequest, Key, Router, RouterConfig};
use npr_sim::{FaultClass, FaultPlan};

/// Runs to quiescence and asserts the conservation ledger balances.
fn drain_and_check(r: &mut Router, what: &str) -> npr_core::Conservation {
    r.run_until(ms(4));
    assert!(r.drain(us(100), 600), "{what}: failed to quiesce");
    let c = r.conservation();
    assert!(
        c.holds(),
        "{what}: conservation violated, deficit={} {c:?}",
        c.deficit()
    );
    c
}

/// Corrupted MP tags orphan continuation MPs (first MP lost) and
/// truncate assemblies (last MP lost). Both fates used to be silent;
/// now each lands in its own ledger and the packet count balances.
#[test]
fn corrupted_tags_are_counted_as_orphans_and_truncations() {
    let mut r = Router::new(RouterConfig::line_rate());
    // Corrupt every arriving MP's position tag.
    r.set_fault_plan(Some(
        FaultPlan::new(3).with_rate(FaultClass::MpCorrupt, npr_sim::fault::PPM),
    ));
    r.attach_cbr(0, 0.5, 120, 2);
    drain_and_check(&mut r, "mp-corrupt");
    let c = &r.world.counters;
    // Only->Intermediate/Last MPs find no assembly record: orphans.
    assert!(c.orphan_mp_drops.total() > 0, "expected orphaned MPs");
    // Only->First MPs are admitted but their frame never completes:
    // the successor-frame abort or the cut-through watchdog declares
    // them dead, exactly once each.
    assert!(c.truncated_drops.total() > 0, "expected truncated packets");
}

/// A StrongARM forwarder returning `false` rejects the packet; that
/// used to vanish without any counter.
#[test]
fn sa_forwarder_rejection_is_counted() {
    let mut r = Router::new(RouterConfig::line_rate());
    r.install(
        Key::All,
        InstallRequest::Sa {
            name: "reject-all".into(),
            cycles: 400,
            f: Box::new(|_bytes, _meta| false),
        },
        None,
    )
    .expect("sa forwarder admits");
    r.attach_cbr(0, 0.05, 60, 2);
    let c = drain_and_check(&mut r, "sa-reject");
    assert!(
        c.sa_fwdr_drops > 0,
        "rejected packets must hit sa_fwdr_drops: {c:?}"
    );
    assert_eq!(c.transmitted, 0, "nothing should be forwarded");
}

/// `PeAction::Drop` and `PeAction::Consume` each get their own
/// terminal counter (they used to share the generic done count and
/// leave the ledger short).
#[test]
fn pentium_drop_and_consume_are_counted() {
    for (consume, name) in [(false, "pe-drop"), (true, "pe-consume")] {
        let mut r = Router::new(RouterConfig::line_rate());
        r.install(
            Key::All,
            InstallRequest::Pe {
                name: name.into(),
                cycles: 500,
                tickets: 100,
                expected_pps: 10_000,
                f: Box::new(move |_head, _w| {
                    if consume {
                        npr_core::pe::PeAction::Consume
                    } else {
                        npr_core::pe::PeAction::Drop
                    }
                }),
            },
            None,
        )
        .expect("pe forwarder admits");
        r.attach_cbr(0, 0.05, 60, 2);
        let c = drain_and_check(&mut r, name);
        if consume {
            assert!(c.pe_consumed > 0, "{name}: expected pe_consumed, {c:?}");
            assert_eq!(c.pe_drops, 0, "{name}: {c:?}");
        } else {
            assert!(c.pe_drops > 0, "{name}: expected pe_drops, {c:?}");
            assert_eq!(c.pe_consumed, 0, "{name}: {c:?}");
        }
        assert_eq!(c.transmitted, 0, "{name}: nothing should be forwarded");
    }
}

/// Buffer laps mid-assembly: a tiny pool wraps while multi-MP frames
/// are still assembling. The teardown makes later MPs counted orphans,
/// the stale descriptor is counted once where it is dequeued, and the
/// ledger still balances — laps never double- or zero-count.
#[test]
fn mid_assembly_lap_teardown_counts_each_packet_once() {
    let mut cfg = RouterConfig::line_rate();
    cfg.pool_bufs = 32;
    cfg.queue_cap = 4096;
    let mut r = Router::new(cfg);
    // All eight ports fire 300-byte (5-MP) frames at one output port:
    // the queue backs up far beyond the pool, so descriptors outlive
    // their buffers while sibling assemblies are still in flight.
    let dst = u32::from_be_bytes([10, 1, 0, 1]);
    r.world.table.lookup_and_fill(dst);
    for p in 0..8 {
        let frames: Vec<_> = (0..120u64)
            .map(|i| {
                let spec = npr_traffic::FrameSpec {
                    len: 300,
                    dst,
                    src: 0x0A00_0002 + p as u32,
                    ..Default::default()
                };
                (i * 30_000_000, npr_traffic::udp_frame(&spec, &[]))
            })
            .collect();
        r.attach_source(p, Box::new(npr_traffic::TraceSource::new(frames)));
    }
    let c = drain_and_check(&mut r, "lap-teardown");
    assert!(c.lap_losses > 0, "expected lap losses: {c:?}");
    assert!(
        c.lap_losses <= c.stale_reads,
        "one-lap invariant: each lap loss is backed by a stale read, {c:?}"
    );
}

/// Per-flow queue-manager drops: each AQM discipline sheds packets at
/// a different site (RED at admission, the cap at admission, CoDel at
/// dequeue), and each site must land in exactly one named counter —
/// with the conservation ledger still closing, which is what proves
/// no drop was double- or zero-counted.
#[test]
fn qm_drops_land_in_exactly_one_counter() {
    use npr_core::AqmKind;
    for aqm in [AqmKind::DropTail, AqmKind::Red, AqmKind::Codel] {
        let mut r = Router::new(RouterConfig::per_flow_qos(aqm));
        // Two CBR flows (distinct sources, so distinct flow queues)
        // converge on port 2 at ~1.8x its wire capacity.
        r.attach_cbr(0, 0.9, 500, 2);
        r.attach_cbr(1, 0.9, 500, 2);
        let c = drain_and_check(&mut r, "qm-drops");
        let rep = r.report();
        let qm_total = rep.qm_early_drops + rep.qm_cap_drops + rep.qm_sojourn_drops;
        assert!(qm_total > 0, "{aqm:?}: 1.8x overload must shed packets");
        match aqm {
            // Drop-tail's only drop site is the per-flow cap.
            AqmKind::DropTail => {
                assert!(rep.qm_cap_drops > 0, "{aqm:?}: {rep:?}");
                assert_eq!(rep.qm_early_drops, 0, "{aqm:?}: {rep:?}");
                assert_eq!(rep.qm_sojourn_drops, 0, "{aqm:?}: {rep:?}");
            }
            // RED force-drops at its max threshold, which sits below
            // the hard cap: the early counter absorbs everything.
            AqmKind::Red => {
                assert!(rep.qm_early_drops > 0, "{aqm:?}: {rep:?}");
                assert_eq!(rep.qm_cap_drops, 0, "{aqm:?}: {rep:?}");
                assert_eq!(rep.qm_sojourn_drops, 0, "{aqm:?}: {rep:?}");
            }
            // CoDel sheds at head-of-line on dequeue; under this much
            // overload the tail cap engages as well. Both are counted,
            // never RED's admission counter.
            AqmKind::Codel => {
                assert!(rep.qm_sojourn_drops > 0, "{aqm:?}: {rep:?}");
                assert_eq!(rep.qm_early_drops, 0, "{aqm:?}: {rep:?}");
            }
        }
        // The qm drops are folded into the conservation queue_drops
        // term (they share it with legacy ring overflows).
        assert!(c.queue_drops >= qm_total, "{aqm:?}: {c:?} vs {qm_total}");
        assert!(rep.qm_served > 0, "{aqm:?}: port still forwards under overload");
    }
}

/// Under the per-flow queue manager the flow queues are the output
/// queues, so `Report::queue_drops` counts their discards: over a
/// window that starts at boot it equals the ledger's queue term.
#[test]
fn report_queue_drops_count_flow_queue_discards() {
    use npr_core::AqmKind;
    for aqm in [AqmKind::DropTail, AqmKind::Codel] {
        let cfg = RouterConfig {
            qm_flow_cap: 4,
            ..RouterConfig::per_flow_qos(aqm)
        };
        let mut r = Router::new(cfg);
        // Four ports at 0.9 converge on port 5: 3.6x its wire.
        for p in 0..4 {
            r.attach_cbr(p, 0.9, 2_000, 5);
        }
        r.run_until(ms(2));
        let rep = r.report();
        let ledger = r.conservation().queue_drops;
        assert!(ledger > 0, "{aqm:?}: 3.6x overload must shed packets");
        assert_eq!(rep.queue_drops, ledger, "{aqm:?}: {rep:?}");
        assert_eq!(
            rep.queue_drops,
            rep.qm_early_drops + rep.qm_cap_drops + rep.qm_sojourn_drops,
            "{aqm:?}"
        );
    }
}

/// The no-route counter still accounts packets that miss the table
/// when no exception handler is installed (regression guard for the
/// audit: this site was already correct and must stay so).
#[test]
fn no_route_packets_are_counted_once() {
    let mut r = Router::new(RouterConfig::line_rate());
    let frames: Vec<_> = (0..40u64)
        .map(|i| {
            let spec = npr_traffic::FrameSpec {
                // 172.16/12 is not in the table and never filled.
                dst: u32::from_be_bytes([172, 16, 0, 1]),
                ..Default::default()
            };
            (i * 20_000_000, npr_traffic::udp_frame(&spec, &[]))
        })
        .collect();
    r.attach_source(0, Box::new(npr_traffic::TraceSource::new(frames)));
    let c = drain_and_check(&mut r, "no-route");
    assert!(c.no_route_drops > 0, "expected no-route drops: {c:?}");
    assert_eq!(c.transmitted, 0, "{c:?}");
}

/// A route-miss packet whose buffer laps while it waits at the
/// StrongARM is a lap loss, not a no-route drop: a tiny pool wraps
/// under eight ports of minimum-size frames to destinations that miss
/// a 16-slot route cache, and every destination has a route.
#[test]
fn lapped_route_misses_are_lap_losses() {
    let mut cfg = RouterConfig::line_rate();
    cfg.pool_bufs = 32;
    cfg.route_cache_slots = 16;
    let mut r = Router::new(cfg);
    for p in 0..8u32 {
        let frames: Vec<_> = (0..200u32)
            .map(|i| {
                let spec = npr_traffic::FrameSpec {
                    dst: u32::from_be_bytes([10, ((p + 1) % 8) as u8, p as u8, i as u8]),
                    src: 0x0A00_0002 + p,
                    ..Default::default()
                };
                (u64::from(i) * 7_000_000, npr_traffic::udp_frame(&spec, &[]))
            })
            .collect();
        r.attach_source(p as usize, Box::new(npr_traffic::TraceSource::new(frames)));
    }
    let c = drain_and_check(&mut r, "lapped-route-misses");
    assert_eq!(c.no_route_drops, 0, "every destination is routable: {c:?}");
    assert!(c.lap_losses > 0, "expected lapped route misses: {c:?}");
    assert!(
        c.lap_losses <= c.stale_reads,
        "one-lap invariant: each lap loss is backed by a stale read, {c:?}"
    );
}
