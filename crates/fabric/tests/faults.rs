//! Cluster-wide fault suite: the per-chassis fault/health machinery
//! (PR 3/5) composed across a whole fabric, plus the fault class only a
//! fabric has — inter-chassis link failure.
//!
//! Properties gated here:
//!
//! * **Containment** — a fault class armed on one chassis, or a
//!   forwarder misbehaving on one chassis, stays that chassis's
//!   problem: neighbors keep clean ledgers and the fabric keeps
//!   forwarding.
//! * **Conservation** — whole-fabric packet conservation holds through
//!   every fault class, link failure/failover, and drain/re-join.
//! * **Determinism** — recovery (including a mid-run link failure and
//!   restore) is bit-identical at every lockstep thread count.
//! * **Recovery** — a drained chassis quiesces while neighbors count
//!   the re-steered loss visibly; a re-join fences the old
//!   incarnation's stale frames and replays its provisioning through
//!   the fresh control path; a drain cut at any instant leaves nothing
//!   for the re-join to lose, and the re-join forgets nothing the old
//!   incarnation forwarded or dropped.
//!
//! `scripts/verify.sh` fails if tier-1's run of this suite executes
//! zero tests, like the single-router fault gates.

use npr_check::{run_named, Config};
use npr_core::{ms, us, InstallRequest, Key, RouterConfig};
use npr_fabric::{Fabric, FabricConfig};
use npr_forwarders::slow::{full_ip_sa, FULL_IP_CYCLES};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{FaultClass, FaultPlan, Time};
use npr_traffic::{CbrSource, FrameSpec};

const HORIZON_MS: u64 = 6;
const FRAMES: u64 = 300;

fn cbr(dst_net: u8, frac: f64, frames: u64) -> Box<CbrSource> {
    Box::new(CbrSource::new(
        100_000_000,
        frac,
        FrameSpec {
            dst: u32::from_be_bytes([10, dst_net, 0, 1]),
            ..Default::default()
        },
        frames,
    ))
}

/// Soak-style compound injection rates (the corpus the single-router
/// differential uses), hot enough that every class fires in a short
/// horizon.
fn corpus_rate(class: FaultClass) -> u32 {
    match class {
        FaultClass::MemStall => 1_000,
        FaultClass::DmaSlow => 5_000,
        FaultClass::TokenDrop => 500,
        FaultClass::TokenDuplicate => 2_500,
        FaultClass::PortFlap => 1_000,
        FaultClass::MpCorrupt => 5_000,
        FaultClass::PciError => 400_000,
        FaultClass::SaWedge => 30_000,
    }
}

/// A finite burst with explicit timestamps starting at `from` — for
/// traffic attached after the fabric clock has advanced (a CBR source
/// stamps from zero, so its whole backlog would arrive as one
/// past-clamped burst and overflow queues).
fn burst(from: npr_sim::Time, dst_net: u8, frames: u64) -> Box<npr_traffic::TraceSource> {
    let spec = FrameSpec {
        dst: u32::from_be_bytes([10, dst_net, 0, 1]),
        ..Default::default()
    };
    Box::new(npr_traffic::TraceSource::new(
        (0..frames)
            .map(|i| (from + i * us(15), npr_traffic::udp_frame(&spec, &[])))
            .collect(),
    ))
}

fn assert_conserves(f: &Fabric) {
    let c = f.conservation();
    assert!(c.holds(), "fabric conservation broke: deficit={} {c:?}", c.deficit());
}

/// Cross-traffic on every member of a 3-member fabric: each sends to
/// its successor's first subnet.
fn attach_ring_traffic(f: &mut Fabric, frames: u64) {
    for k in 0..f.len() {
        let dst_net = (((k + 1) % f.len()) * 8) as u8;
        f.member_mut(k).attach_source(0, cbr(dst_net, 0.5, frames));
    }
}

#[test]
fn every_fault_class_is_contained_to_the_armed_chassis() {
    // Each class armed on exactly one chassis of a 3-member fabric,
    // cycling through all three topologies so every wiring sees faults.
    for (i, &class) in FAULT_CLASSES.iter().enumerate() {
        // Divert part of the traffic onto the SA/PE slow paths so the
        // classes that roll per-job (SaWedge) see opportunities.
        let mut base = RouterConfig::line_rate();
        base.divert_sa_permille = 200;
        base.divert_pe_permille = 100;
        let cfg = match i % 3 {
            0 => FabricConfig::single_switch(3, base),
            1 => FabricConfig::ring(3, base),
            _ => FabricConfig::spine_leaf(3, base),
        };
        let name = cfg.topology.name();
        let mut f = Fabric::new(cfg);
        attach_ring_traffic(&mut f, FRAMES);
        let mut plan = FaultPlan::new(0xFA0_17 ^ (i as u64) << 11);
        // Short horizons and per-event rolls: floor the rate high
        // enough that every class fires within the window.
        plan.set_rate(class, corpus_rate(class).max(100_000));
        f.member_mut(1).set_fault_plan(Some(plan));
        f.run_lockstep(ms(HORIZON_MS), 1);
        assert!(f.drain(us(100), 2_000), "{name}/{class:?} failed to quiesce");
        let injected = f.member(1).fault_plan().map_or(0, |p| p.injected(class));
        assert!(injected > 0, "{name}/{class:?} injected nothing");
        for k in [0usize, 2] {
            assert!(
                f.member(k).fault_plan().is_none(),
                "{name}/{class:?}: member {k} grew a fault plan"
            );
        }
        assert!(f.external_tx() > 0, "{name}/{class:?} stopped the fabric");
        assert_conserves(&f);
    }
}

#[test]
fn link_failure_drops_are_counted_and_failover_reroutes() {
    // Ring of 3: member 0 -> member 2 is one counter-clockwise hop.
    // Mid-burst the ccw link dies; traffic fails over clockwise through
    // member 1 via the control path, and anything already committed to
    // the dead link lands in its counted ledger — never silently lost.
    let mut f = Fabric::new(FabricConfig::ring(3, RouterConfig::line_rate()));
    f.member_mut(0).attach_source(0, cbr(17, 0.5, 200));
    f.run_lockstep(us(400), 1);
    assert!(f.link(0, 1).frames > 0, "ccw link carried the first burst");
    f.fail_link(0, 1);
    assert!(f.resteer_ops() > 0, "failover rode the control path");
    // Long enough for the full 200-frame burst to finish emitting.
    f.run_lockstep(ms(4), 1);
    f.restore_link(0, 1);
    assert!(f.drain(us(100), 2_000), "fabric failed to quiesce");
    let delivered = f.member(2).ixp.hw.ports[1].tx_frames;
    assert!(
        f.link(0, 0).frames > 0,
        "failover never used the clockwise path"
    );
    assert!(f.link_drops() > 0, "the dead link's ledger stayed empty");
    assert_eq!(
        delivered + f.link_drops(),
        200,
        "every frame delivered or counted on the dead link"
    );
    assert_eq!(f.switch_drops(), 0);
    assert_conserves(&f);
}

#[test]
fn quarantine_is_contained_to_the_misbehaving_chassis() {
    // Member 1 runs a StrongARM forwarder that overruns its declared
    // budget 4x; the health ladder quarantines it *there* while the
    // rest of the cluster keeps clean ledgers and cross-traffic flows.
    let mut f = Fabric::single_switch(3, RouterConfig::line_rate());
    attach_ring_traffic(&mut f, FRAMES);
    f.member_mut(1)
        .install(Key::All, full_ip_sa(), None)
        .expect("SA forwarder admitted");
    // Local traffic feeding the slow path on the misbehaving chassis.
    f.member_mut(1).attach_cbr(1, 0.5, 150, 12);
    f.member_mut(1).sa.policer.misbehave(0, FULL_IP_CYCLES * 3);
    // Long enough for every FRAMES-frame CBR stream to finish emitting
    // (drain quiesces in-flight work; it does not pump future source
    // emissions).
    f.run_lockstep(ms(HORIZON_MS.max(3)), 1);
    assert!(f.drain(us(100), 2_000), "fabric failed to quiesce");
    let s = f.member(1).health.stats;
    assert_eq!(s.quarantines, 1, "ladder must reach quarantine: {s:?}");
    for k in [0usize, 2] {
        let s = f.member(k).health.stats;
        assert_eq!(
            s.quarantines, 0,
            "quarantine leaked to member {k}: {s:?}"
        );
        assert_eq!(s.throttles, 0, "throttle leaked to member {k}: {s:?}");
    }
    // The aggregate report pins the blame on exactly one member.
    let rep = f.report();
    assert_eq!(rep.health_quarantines, 1);
    assert_eq!(rep.members[1].health_quarantines, 1);
    // Cross-chassis forwarding survived the recovery.
    assert_eq!(f.switched(), 3 * FRAMES, "cross traffic kept flowing");
    assert_conserves(&f);
}

#[test]
fn recovery_is_thread_invariant_under_compound_faults() {
    // The full compound corpus on every member of a ring, a link
    // failure and restore mid-run: fingerprints and engine stats must
    // still be bit-identical at every thread count.
    let build = || {
        let mut f = Fabric::new(FabricConfig::ring(4, RouterConfig::line_rate()));
        for k in 0..4usize {
            let near = (((k + 1) % 4) * 8) as u8;
            let far = (((k + 2) % 4) * 8 + 1) as u8;
            f.member_mut(k).attach_source(0, cbr(near, 0.5, 60));
            f.member_mut(k).attach_source(1, cbr(far, 0.4, 40));
            let mut plan = FaultPlan::new(0xFAB_50AC ^ (k as u64) << 13);
            for &c in &FAULT_CLASSES {
                plan.set_rate(c, corpus_rate(c) / 2);
            }
            f.member_mut(k).set_fault_plan(Some(plan));
        }
        f
    };
    let run = |f: &mut Fabric, threads: usize| {
        let a = f.run_lockstep(us(500), threads);
        f.fail_link(0, 0);
        let b = f.run_lockstep(ms(2), threads);
        f.restore_link(0, 0);
        let c = f.run_lockstep(ms(4), threads);
        (a, b, c)
    };
    let mut oracle = build();
    let s1 = run(&mut oracle, 1);
    assert!(oracle.switched() > 0);
    for threads in [2, 4] {
        let mut par = build();
        let sp = run(&mut par, threads);
        assert_eq!(
            par.fingerprint(),
            oracle.fingerprint(),
            "threads={threads}"
        );
        assert_eq!(sp, s1, "threads={threads}");
    }
}

#[test]
fn drain_resteers_neighbors_and_rejoin_replays_provisioning() {
    let mut f = Fabric::new(FabricConfig::spine_leaf(4, RouterConfig::line_rate()));
    // Member 1's provisioning: an ME forwarder a fresh incarnation
    // must come back with.
    f.set_provision(
        1,
        Box::new(|r| {
            r.install(
                Key::All,
                InstallRequest::Me {
                    prog: npr_forwarders::syn_monitor().unwrap(),
                },
                None,
            )
            .expect("syn-monitor admits");
        }),
    );
    assert_eq!(f.member(1).installed().len(), 1, "provisioning applied now");
    // Finite cross traffic involving the victim, then let it finish.
    f.member_mut(0).attach_source(0, cbr(9, 0.5, 60));
    f.member_mut(1).attach_source(0, cbr(17, 0.5, 60));
    f.run_lockstep(ms(2), 1);
    let ops_before = f.resteer_ops();
    assert!(
        f.drain_chassis(1, us(100), 2_000),
        "drained chassis failed to quiesce"
    );
    assert!(
        f.resteer_ops() > ops_before,
        "drain re-steered nobody's routes"
    );
    // New traffic toward the drained member's subnets is counted loss
    // at the neighbor — its route is gone, not silently blackholed.
    let before = f.member(0).conservation().no_route_drops;
    let from = f.now();
    f.member_mut(0).attach_source(1, burst(from, 10, 30));
    f.run_lockstep(from + ms(1), 1);
    assert!(
        f.member(0).conservation().no_route_drops > before,
        "re-steered loss must land in the no_route ledger"
    );
    // Re-join: fresh incarnation, replayed provisioning, traffic flows
    // again end to end.
    f.rejoin_chassis(1);
    let list = f.member(1).installed();
    assert_eq!(list.len(), 1, "provisioning not replayed: {list:?}");
    assert_eq!(list[0].name, "syn-monitor");
    let delivered_before = f.member(1).ixp.hw.ports[1].tx_frames;
    assert_eq!(delivered_before, 0, "fresh incarnation starts clean");
    let from = f.now();
    f.member_mut(0).attach_source(2, burst(from, 9, 40));
    f.run_lockstep(from + ms(2), 1);
    assert!(f.drain(us(100), 2_000), "fabric failed to quiesce");
    assert_eq!(
        f.member(1).ixp.hw.ports[1].tx_frames, 40,
        "re-joined member must forward again"
    );
    assert_conserves(&f);
}

#[test]
fn rejoin_fences_stale_generation_frames() {
    // Members 0 and 2 send 600-byte frames to member 1 in step: two
    // land on its uplink together, and while the ten MPs of one come
    // off the wire the other waits in the victim's fabric inbox
    // (pulled lazily by its rx path). A re-join must fence what waits
    // there: counted, never delivered to the new incarnation.
    let mut f = Fabric::single_switch(3, RouterConfig::line_rate());
    for k in [0, 2] {
        f.member_mut(k).attach_source(
            0,
            Box::new(CbrSource::new(
                100_000_000,
                0.9,
                FrameSpec {
                    len: 600,
                    dst: u32::from_be_bytes([10, 9, 0, 1]),
                    ..Default::default()
                },
                120,
            )),
        );
    }
    let mut t = us(500);
    f.run_lockstep(t, 1);
    while f.queued_frames() == 0 {
        t += us(1);
        assert!(t < ms(2), "no cut found a frame waiting in an inbox");
        f.run_lockstep(t, 1);
    }
    let stale = f.queued_frames();
    f.drain_chassis(1, us(100), 0);
    f.rejoin_chassis(1);
    assert_eq!(
        f.fenced_drops(),
        stale,
        "every stale frame fenced exactly once"
    );
    assert_eq!(f.queued_frames(), 0);
    // The rest of the burst flows to the new incarnation (the old
    // one's deliveries ride the carry ledgers, not its lost counters).
    f.run_lockstep(f.now() + ms(6), 1);
    assert!(f.drain(us(100), 2_000), "fabric failed to quiesce");
    let delivered = f.member(1).ixp.hw.ports[1].tx_frames;
    assert!(delivered > 0, "new incarnation received nothing");
    assert_conserves(&f);
}

/// Every member but 1 sends `frames` frames 15 us apart from 10 us on,
/// member `k` to member 1's subnet `8 + k`. The run is cut at `cut`,
/// member 1 drained (which must succeed: it has no ingress of its own)
/// and re-joined, and the fabric run past the traffic and drained.
/// Then every frame offered is forwarded out an external port or
/// counted as a drop, fenced frames included.
fn drain_rejoin_case(spine_leaf: bool, frames: u64, cut: Time) -> Result<(), String> {
    let base = RouterConfig::line_rate();
    let mut f = Fabric::new(if spine_leaf {
        FabricConfig::spine_leaf(4, base)
    } else {
        FabricConfig::single_switch(2, base)
    });
    let mut offered = 0;
    for k in (0..f.len()).filter(|&k| k != 1) {
        f.member_mut(k)
            .attach_source(0, burst(us(10), 8 + k as u8, frames));
        offered += frames;
    }
    f.run_lockstep(cut, 1);
    if !f.drain_chassis(1, us(10), 2_000) {
        return Err("member 1 failed to quiesce".into());
    }
    f.rejoin_chassis(1);
    f.run_lockstep(f.now().max(us(10) + frames * us(15)) + us(50), 1);
    if !f.drain(us(10), 2_000) {
        return Err("fabric failed to quiesce".into());
    }
    let c = f.conservation();
    if !c.holds() {
        return Err(format!(
            "fabric conservation broke: deficit={} {c:?}",
            c.deficit()
        ));
    }
    // `total_drops` counts the fenced frames.
    let (tx, drops) = (f.external_tx(), f.total_drops());
    if offered != tx + drops {
        return Err(format!(
            "{offered} frames offered, {tx} forwarded, {drops} dropped ({} fenced)",
            f.fenced_drops()
        ));
    }
    Ok(())
}

#[test]
fn drain_and_rejoin_never_lose_a_frame() {
    // Pinned: from 23.75 us to 26.25 us the one frame sits on member
    // 1's uplink wire with none of its MPs arrived. A drain that called
    // member 1 quiet then let the re-join discard it with the router,
    // counted nowhere.
    drain_rejoin_case(false, 1, us(24)).unwrap();
    run_named(
        "drain_and_rejoin_never_lose_a_frame",
        &Config::with_cases(64),
        &(npr_check::any::<bool>(), 1u64..6, 0..us(130)),
        |(spine_leaf, frames, cut)| drain_rejoin_case(spine_leaf, frames, cut),
    );
}
