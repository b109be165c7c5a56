//! Fabric differential: pinned fingerprints of the canonical
//! single-switch scenarios, and exact counts on every topology.
//!
//! The pins hold the fabric to itself across refactors (debug and
//! release produce identical values). Any divergence — route
//! programming order, switch iteration order, arrival arithmetic,
//! fingerprint fold — trips one. The two cross-traffic pins were taken
//! under the coarse-epoch stepping mode this crate once had and were
//! re-pinned under `run_lockstep` when that mode was deleted; the
//! lock-step pins date from the parallel engine.
//!
//! The second half is the unit suite of the single-switch sketch (same
//! scenarios, same exact expected counts), then the topology coverage
//! the sketch lacked: ring and spine/leaf cross-traffic, multi-hop
//! transit, link serialization visible under contention.

use npr_core::{ms, us, RouterConfig};
use npr_fabric::{Fabric, FabricConfig, Topology, UPLINK_PORT};
use npr_packet::MacAddr;
use npr_route::NextHop;
use npr_sim::EngineStats;
use npr_traffic::{CbrSource, FrameSpec};

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

// ---------------------------------------------------------------------
// Pinned fingerprints.
// ---------------------------------------------------------------------

#[test]
fn pin_two_member_cross_traffic() {
    let mut f = Fabric::single_switch(2, RouterConfig::line_rate());
    f.member_mut(0).attach_source(0, cbr(9, 0.5, 200));
    f.run_lockstep(ms(40), 1);
    assert_eq!(f.switched(), 200, "all frames crossed the switch");
    assert_eq!(
        f.member(1).ixp.hw.ports[1].tx_frames, 200,
        "delivered on the owner's external port"
    );
    assert_eq!(f.total_drops(), 0);
    assert_eq!(f.fingerprint(), 0xb78d310ba594879b);
}

#[test]
fn pin_four_member_bidirectional() {
    let mut f = Fabric::single_switch(4, RouterConfig::line_rate());
    for k in 0..4usize {
        let dst_net = (((k + 1) % 4) * 8) as u8;
        f.member_mut(k).attach_source(0, cbr(dst_net, 0.9, 300));
    }
    f.run_lockstep(ms(40), 1);
    assert_eq!(f.switched(), 1200);
    assert_eq!(f.external_tx(), 1200);
    assert_eq!(f.total_drops(), 0);
    assert_eq!(f.fingerprint(), 0x0410898ea3e7a42d);
}

#[test]
fn pin_lockstep_three_member_ring_traffic() {
    let mut f = Fabric::single_switch(3, RouterConfig::line_rate());
    for k in 0..3usize {
        let dst_net = (((k + 1) % 3) * 8) as u8;
        f.member_mut(k).attach_source(0, cbr(dst_net, 0.8, 80));
    }
    let stats = f.run_lockstep(ms(15), 1);
    assert_eq!(f.switched(), 240);
    assert_eq!(f.fingerprint(), 0x471a04ca882cb9fb);
    assert_eq!(
        stats,
        EngineStats {
            epochs: 7501,
            delivered: 240
        }
    );
}

#[test]
fn pin_lockstep_mixed_mp_sizes() {
    let mut f = Fabric::single_switch(2, RouterConfig::line_rate());
    f.member_mut(0).attach_source(
        0,
        Box::new(CbrSource::new(
            100_000_000,
            0.9,
            FrameSpec {
                len: 600,
                dst: u32::from_be_bytes([10, 9, 0, 1]),
                ..Default::default()
            },
            40,
        )),
    );
    f.member_mut(1).attach_cbr(1, 0.5, 60, 12);
    let stats = f.run_lockstep(ms(20), 1);
    assert_eq!(f.switched(), 40);
    assert_eq!(f.fingerprint(), 0xd0d282b7813cf18a);
    assert_eq!(
        stats,
        EngineStats {
            epochs: 10001,
            delivered: 40
        }
    );
}

#[test]
fn pin_lockstep_compound_faults() {
    use npr_sim::fault::FAULT_CLASSES;
    use npr_sim::{FaultClass, FaultPlan};
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 50;
    cfg.divert_pe_permille = 100;
    let mut f = Fabric::single_switch(3, cfg);
    for k in 0..3usize {
        let dst_net = (((k + 1) % 3) * 8) as u8;
        f.member_mut(k).attach_source(0, cbr(dst_net, 0.8, 120));
        f.member_mut(k).attach_cbr(1, 0.5, 60, (k * 8 + 4) as u8);
        let mut plan = FaultPlan::new(0xFAB_D1FF ^ (k as u64) << 13);
        for &c in &FAULT_CLASSES {
            plan.set_rate(
                c,
                match c {
                    FaultClass::PciError => 400_000,
                    FaultClass::SaWedge => 30_000,
                    _ => 5_000,
                },
            );
        }
        f.member_mut(k).set_fault_plan(Some(plan));
    }
    f.member_mut(0)
        .install(
            npr_core::Key::All,
            npr_core::InstallRequest::Me {
                prog: npr_forwarders::syn_monitor().unwrap(),
            },
            None,
        )
        .unwrap();
    let stats = f.run_lockstep(ms(2), 1);
    assert_eq!(f.switched(), 338);
    assert_eq!(f.fingerprint(), 0x3fc621dd100ab6cc);
    assert_eq!(
        stats,
        EngineStats {
            epochs: 999,
            delivered: 338
        }
    );
}

// ---------------------------------------------------------------------
// The single-switch unit suite (same scenarios, same counts).
// ---------------------------------------------------------------------

#[test]
fn local_traffic_never_touches_the_switch() {
    let mut f = Fabric::single_switch(2, RouterConfig::line_rate());
    f.member_mut(0).attach_source(0, cbr(3, 0.5, 100));
    f.run_lockstep(ms(20), 1);
    assert_eq!(f.switched(), 0);
    assert_eq!(f.member(0).ixp.hw.ports[3].tx_frames, 100);
}

#[test]
fn uplink_saturation_drops_visibly_not_silently() {
    // Two members; member 0's eight externals all blast traffic that
    // must cross the single gigabit uplink. The overload surfaces as
    // counted drops, never as a hang or corruption.
    let mut f = Fabric::single_switch(2, RouterConfig::line_rate());
    for p in 0..8 {
        f.member_mut(0)
            .attach_source(p, cbr(8 + p as u8, 0.95, 2_000));
    }
    f.run_lockstep(ms(60), 1);
    let delivered = f.external_tx();
    let drops = f.total_drops();
    assert!(delivered > 0);
    assert!(delivered + drops <= 16_000 + 16);
    assert!(
        delivered + drops >= 15_000,
        "unaccounted loss: {delivered} + {drops}"
    );
}

#[test]
fn multi_mp_frames_straddling_a_cut_reassemble() {
    // Large frames segment into many 64-byte MPs on the uplink; cutting
    // the run every 1.3 us, off the 2 us barrier grid, all but
    // guarantees some frames are mid-flight at a cut. The switch must
    // hold their MPs across it, deliver every frame intact, and end
    // where the uncut run ends.
    let build = || {
        let mut f = Fabric::single_switch(2, RouterConfig::line_rate());
        f.member_mut(0).attach_source(
            0,
            Box::new(CbrSource::new(
                100_000_000,
                0.9,
                FrameSpec {
                    len: 600, // ~10 MPs per frame.
                    dst: u32::from_be_bytes([10, 9, 0, 1]),
                    ..Default::default()
                },
                40,
            )),
        );
        f
    };
    let mut f = build();
    let mut saw_partial = false;
    let mut t = 0;
    while t < ms(8) {
        t = (t + us(13) / 10).min(ms(8));
        f.run_lockstep(t, 1);
        saw_partial |= f.pending_uplink_mps(0) > 0;
    }
    assert!(
        saw_partial,
        "1.3 us cuts should catch a frame mid-reassembly"
    );
    assert_eq!(f.pending_uplink_mps(0), 0, "no MPs stranded at the end");
    assert_eq!(f.switched(), 40, "every frame crossed the switch");
    assert_eq!(f.member(1).ixp.hw.ports[1].tx_frames, 40);
    assert_eq!(f.total_drops(), 0);
    let mut uncut = build();
    uncut.run_lockstep(ms(8), 1);
    assert_eq!(
        f.fingerprint(),
        uncut.fingerprint(),
        "the cuts changed the outcome"
    );
}

#[test]
fn unroutable_subnets_count_one_switch_drop_per_frame() {
    // A stale route sends traffic up the uplink for a subnet no member
    // owns; the switch discards each frame with exactly one counted
    // drop (not zero, not double).
    let mut f = Fabric::single_switch(2, RouterConfig::line_rate());
    f.member_mut(0).world.table.insert(
        u32::from_be_bytes([10, 200, 0, 0]),
        16,
        NextHop {
            port: UPLINK_PORT as u8,
            mac: MacAddr::for_port(UPLINK_PORT as u8),
        },
    );
    f.member_mut(0).attach_source(0, cbr(200, 0.5, 3));
    f.run_lockstep(ms(20), 1);
    assert_eq!(f.switch_drops(), 3, "one drop per unroutable frame");
    assert_eq!(f.switched(), 0);
    assert_eq!(f.external_tx(), 0, "nothing was delivered");
}

#[test]
fn total_drops_counts_flow_queue_drops() {
    // Three of member 0's ports converge on a fourth at 2.7x its wire:
    // the per-flow queue manager sheds the excess, and every frame is
    // either delivered or in the fabric's drop total.
    let cfg = RouterConfig::per_flow_qos(npr_core::AqmKind::DropTail);
    let mut f = Fabric::single_switch(2, cfg);
    for p in 0..3 {
        f.member_mut(0).attach_source(p, cbr(3, 0.9, 400));
    }
    f.run_lockstep(ms(30), 1);
    let qm_drops = f.member(0).world.qm.as_ref().unwrap().total_drops();
    assert!(qm_drops > 0, "no flow queue ever overflowed");
    assert!(f.total_drops() >= qm_drops);
    assert_eq!(f.external_tx() + f.total_drops(), 1_200);
}

#[test]
fn lockstep_delivers_cross_traffic_with_tight_latency() {
    let mut f = Fabric::single_switch(2, RouterConfig::line_rate());
    f.member_mut(0).attach_source(0, cbr(9, 0.5, 50));
    f.run_lockstep(ms(20), 1);
    assert_eq!(f.switched(), 50);
    assert_eq!(f.member(1).ixp.hw.ports[1].tx_frames, 50);
    assert_eq!(f.total_drops(), 0);
}

#[test]
fn lockstep_thread_counts_are_bit_identical() {
    let build = || {
        let mut f = Fabric::single_switch(3, RouterConfig::line_rate());
        for k in 0..3usize {
            let dst_net = (((k + 1) % 3) * 8) as u8;
            f.member_mut(k).attach_source(0, cbr(dst_net, 0.8, 80));
        }
        f
    };
    let mut oracle = build();
    let s1 = oracle.run_lockstep(ms(15), 1);
    for threads in [2, 4] {
        let mut par = build();
        let sp = par.run_lockstep(ms(15), threads);
        assert_eq!(par.fingerprint(), oracle.fingerprint(), "threads={threads}");
        assert_eq!(sp, s1, "threads={threads}");
    }
    assert_eq!(oracle.switched(), 240);
}

// ---------------------------------------------------------------------
// New topologies: ring and spine/leaf.
// ---------------------------------------------------------------------

/// Whole-fabric sanity used by the topology tests.
fn assert_conserves(f: &Fabric) {
    let c = f.conservation();
    assert!(c.holds(), "fabric conservation broke: {c:?}");
}

#[test]
fn ring_neighbors_forward_without_transit() {
    let mut f = Fabric::new(FabricConfig::ring(4, RouterConfig::line_rate()));
    // Member 0 → member 1 (one clockwise hop).
    f.member_mut(0).attach_source(0, cbr(9, 0.5, 100));
    f.run_lockstep(ms(20), 1);
    assert_eq!(f.switched(), 100);
    assert_eq!(f.member(1).ixp.hw.ports[1].tx_frames, 100);
    // Only member 0's clockwise link carried anything.
    assert_eq!(f.link(0, 0).frames, 100);
    assert_eq!(f.link(0, 1).frames, 0);
    assert_conserves(&f);
}

#[test]
fn ring_far_traffic_transits_intermediate_members() {
    let mut f = Fabric::new(FabricConfig::ring(4, RouterConfig::line_rate()));
    // Member 0 → member 2: two hops, tie broken clockwise, so member 1
    // carries the traffic in transit (admitted + re-transmitted there).
    f.member_mut(0).attach_source(0, cbr(17, 0.5, 100));
    f.run_lockstep(ms(30), 1);
    // Both hops count as switched frames (per-link accounting).
    assert_eq!(f.switched(), 200);
    assert_eq!(f.member(2).ixp.hw.ports[1].tx_frames, 100);
    assert_eq!(f.link(0, 0).frames, 100, "first hop on 0's cw link");
    assert_eq!(f.link(1, 0).frames, 100, "second hop on 1's cw link");
    let transit = f.member(1).conservation();
    assert_eq!(transit.admitted, 100, "member 1 carried the transit");
    assert_conserves(&f);
}

#[test]
fn ring_shortest_direction_is_taken_both_ways() {
    let mut f = Fabric::new(FabricConfig::ring(4, RouterConfig::line_rate()));
    // Member 0 → member 3 is one counter-clockwise hop, not three
    // clockwise ones.
    f.member_mut(0).attach_source(0, cbr(25, 0.5, 80));
    f.run_lockstep(ms(20), 1);
    assert_eq!(f.switched(), 80);
    assert_eq!(f.link(0, 1).frames, 80, "ccw link carried it");
    assert_eq!(f.link(0, 0).frames, 0);
    assert_eq!(f.member(3).ixp.hw.ports[1].tx_frames, 80);
    assert_conserves(&f);
}

#[test]
fn spine_leaf_spreads_subnets_across_spines() {
    let mut f = Fabric::new(FabricConfig::spine_leaf(4, RouterConfig::line_rate()));
    // Leaf 0 sends to leaf 1 and leaf 2: (j+k)%2 puts j=1 on spine 1
    // and j=2 on spine 0.
    f.member_mut(0).attach_source(0, cbr(9, 0.4, 60));
    f.member_mut(0).attach_source(1, cbr(17, 0.4, 60));
    f.run_lockstep(ms(20), 1);
    assert_eq!(f.switched(), 120);
    assert_eq!(f.link(0, 1).frames, 60, "leaf1-bound traffic on spine 1");
    assert_eq!(f.link(0, 0).frames, 60, "leaf2-bound traffic on spine 0");
    assert_eq!(f.member(1).ixp.hw.ports[1].tx_frames, 60);
    assert_eq!(f.member(2).ixp.hw.ports[1].tx_frames, 60);
    assert_conserves(&f);
}

#[test]
fn lockstep_is_thread_invariant_on_ring_and_spine_leaf() {
    for topo in [Topology::Ring, Topology::SpineLeaf { spines: 2 }] {
        let build = || {
            let cfg = match topo {
                Topology::Ring => FabricConfig::ring(4, RouterConfig::line_rate()),
                _ => FabricConfig::spine_leaf(4, RouterConfig::line_rate()),
            };
            let mut f = Fabric::new(cfg);
            for k in 0..4usize {
                // Next *and* next-next member: transit hops included.
                let near = (((k + 1) % 4) * 8) as u8;
                let far = (((k + 2) % 4) * 8 + 1) as u8;
                f.member_mut(k).attach_source(0, cbr(near, 0.5, 60));
                f.member_mut(k).attach_source(1, cbr(far, 0.4, 40));
            }
            f
        };
        let mut oracle = build();
        let s1 = oracle.run_lockstep(ms(10), 1);
        assert!(oracle.switched() > 0);
        for threads in [2, 4] {
            let mut par = build();
            let sp = par.run_lockstep(ms(10), threads);
            assert_eq!(
                par.fingerprint(),
                oracle.fingerprint(),
                "{:?} threads={threads}",
                topo
            );
            assert_eq!(sp, s1, "{topo:?} threads={threads}");
        }
        assert_conserves(&oracle);
    }
}

#[test]
fn link_serialization_contention_is_visible() {
    // Infinite-capacity links absorb any burst; a modeled finite link
    // must show queueing when four external ports oversubscribe it
    // (the uplink port itself drains at gigabit, so the internal link
    // is modeled slower to be the bottleneck).
    let mut cfg = FabricConfig::ring(2, RouterConfig::line_rate());
    cfg.link_capacity_bps = 200_000_000;
    let mut congested = Fabric::new(cfg);
    for p in 0..4 {
        congested.member_mut(0).attach_source(p, cbr(9, 0.9, 500));
    }
    congested.run_lockstep(ms(20), 1);
    assert!(
        congested.link(0, 0).max_queue_ps > 0,
        "4x100 Mbps into one gigabit link never queued?"
    );
    assert!(congested.link(0, 0).busy_ps > 0);
    assert_conserves(&congested);
}
