//! End-to-end forwarding: packets enter real ports, traverse the full
//! MicroEngine pipeline, and leave transformed and accounted for.

use npr_core::{ms, InstallRequest, Key, Router, RouterConfig};
use npr_traffic::{CbrSource, FrameSpec};

fn spec_to(dst_net: u8) -> FrameSpec {
    FrameSpec {
        dst: u32::from_be_bytes([10, dst_net, 0, 1]),
        ..Default::default()
    }
}

#[test]
fn packets_cross_the_router_at_line_rate() {
    let mut r = Router::new(RouterConfig::line_rate());
    r.attach_source(
        0,
        Box::new(CbrSource::new(100_000_000, 0.9, spec_to(3), 2000)),
    );
    r.run_until(ms(20));
    let p0 = &r.ixp.hw.ports[0];
    let p3 = &r.ixp.hw.ports[3];
    assert_eq!(p0.rx_frames, 2000, "all frames received");
    assert_eq!(p3.tx_frames, 2000, "all frames transmitted on port 3");
    assert_eq!(p0.rx_frames_dropped, 0);
    assert_eq!(r.world.queues.total_drops(), 0);
}

#[test]
fn forwarded_packets_carry_rewritten_macs() {
    // With the null fast path the destination MAC is rewritten to the
    // output port's binding; verify by inspecting the packet pool after
    // a forward.
    let mut r = Router::new(RouterConfig::line_rate());
    r.attach_source(
        0,
        Box::new(CbrSource::new(100_000_000, 0.5, spec_to(2), 10)),
    );
    r.run_until(ms(2));
    assert!(r.ixp.hw.ports[2].tx_frames > 0);
    // The most recent buffer contents carry the rewritten header.
    let mut found = false;
    for idx in 0..16u32 {
        let h = npr_packet::BufferHandle::from_descriptor(idx);
        if let Some(bytes) = r.world.pool.read(h) {
            if bytes.len() >= 14 && bytes[0..6] == [0x02, 0, 0, 0, 0, 2] {
                found = true;
            }
        }
    }
    assert!(found, "no buffer shows the port-2 MAC rewrite");
}

#[test]
fn ip_minimal_decrements_ttl_on_the_wire_path() {
    let mut r = Router::new(RouterConfig::line_rate());
    let fid = r
        .install(
            Key::All,
            InstallRequest::Me {
                prog: npr_forwarders::ip_minimal().unwrap(),
            },
            None,
        )
        .unwrap();
    // Route entry for the forwarder: MACs + queue + MTU. The queue
    // word is a global queue id: port 2's queue.
    let mut state = [0u8; 24];
    state[0..6].copy_from_slice(&[0x02, 0, 0, 0, 0, 2]);
    state[6..12].copy_from_slice(&[0x02, 0xee, 0, 0, 0, 0]);
    state[12..16].copy_from_slice(&2u32.to_be_bytes());
    state[20..24].copy_from_slice(&1514u32.to_be_bytes());
    r.setdata(fid, &state).unwrap();

    r.attach_source(
        0,
        Box::new(CbrSource::new(100_000_000, 0.5, spec_to(2), 50)),
    );
    r.run_until(ms(5));
    assert!(r.ixp.hw.ports[2].tx_frames > 40);
    // Find a forwarded buffer: TTL must be 63 with a valid checksum.
    let mut checked = 0;
    for idx in 0..64u32 {
        let h = npr_packet::BufferHandle::from_descriptor(idx);
        if let Some(bytes) = r.world.pool.read(h) {
            if bytes.len() >= 34 {
                if let Ok(ip) = npr_packet::Ipv4Header::parse(&bytes[14..]) {
                    assert_eq!(ip.ttl, 63, "TTL decremented exactly once");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "no parsed buffers");
}

#[test]
fn large_frames_are_segmented_and_reassembled() {
    let mut r = Router::new(RouterConfig::line_rate());
    r.attach_source(
        0,
        Box::new(CbrSource::new(
            100_000_000,
            0.5,
            FrameSpec {
                len: 1500,
                ..spec_to(4)
            },
            30,
        )),
    );
    r.run_until(ms(10));
    let p4 = &r.ixp.hw.ports[4];
    assert_eq!(p4.tx_frames, 30, "all large frames forwarded");
    // 1500 B = 24 MPs each.
    assert_eq!(p4.tx_mps, 30 * 24);
    assert_eq!(p4.tx_bytes, 30 * 1500);
}

#[test]
fn invalid_packets_are_dropped_with_counters() {
    let mut r = Router::new(RouterConfig::line_rate());
    // A frame with a corrupted IP checksum.
    let mut frame = npr_traffic::udp_frame(&spec_to(1), &[]);
    frame[24] ^= 0xff;
    r.attach_source(
        0,
        Box::new(npr_traffic::TraceSource::new(vec![
            (0, frame.clone()),
            (10_000_000, frame),
        ])),
    );
    r.run_until(ms(2));
    assert_eq!(r.world.counters.validation_drops.total(), 2);
    assert_eq!(r.ixp.hw.ports[1].tx_frames, 0);
}

#[test]
fn ttl_expiring_packets_take_the_slow_path() {
    let mut r = Router::new(RouterConfig::line_rate());
    let frame = npr_traffic::udp_frame(
        &FrameSpec {
            ttl: 1,
            ..spec_to(1)
        },
        &[],
    );
    r.attach_source(0, Box::new(npr_traffic::TraceSource::new(vec![(0, frame)])));
    r.run_until(ms(2));
    assert_eq!(r.world.counters.to_sa.total(), 1, "escalated to StrongARM");
}

#[test]
fn the_packet_pool_holds_what_minimum_frames_need() {
    // The headline system forwards minimum-size frames: past a full
    // lap of the 8192-buffer pool, every slot has held a frame, and
    // none needs more than one 64-byte MP of host memory (the modelled
    // layout is 8192 x 2 KB = 16 MiB).
    let mut r = Router::new(RouterConfig::table1_system());
    r.run_until(ms(4));
    let pool = &r.world.pool;
    assert!(pool.allocations() > 8192, "one lap: {}", pool.allocations());
    let bytes = pool.bytes();
    assert!(bytes > 0 && bytes <= 8192 * 64, "pool holds {bytes} bytes");
}
