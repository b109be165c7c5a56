//! The three-level processor hierarchy: paths A (MicroEngines only),
//! B (StrongARM), and C (Pentium), and their interactions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use npr_core::pe::PeAction;
use npr_core::{ms, us, FlowKey, InstallRequest, Key, Router, RouterConfig};
use npr_traffic::{udp_frame, CbrSource, FrameSpec, TraceSource};

#[test]
fn route_cache_misses_are_resolved_by_the_strongarm() {
    let mut r = Router::new(RouterConfig::line_rate());
    // Destination 10.5.0.1 is routed but never prefilled in the cache.
    let spec = FrameSpec {
        dst: u32::from_be_bytes([10, 5, 0, 1]),
        ..Default::default()
    };
    r.attach_source(0, Box::new(CbrSource::new(100_000_000, 0.3, spec, 100)));
    r.run_until(ms(10));
    // The first packet missed, went to the StrongARM, and filled the
    // cache; everything was eventually forwarded out port 5.
    assert_eq!(r.ixp.hw.ports[5].tx_frames, 100);
    let (hits, misses) = r.world.table.cache_stats();
    assert!(misses >= 1, "at least the first lookup missed");
    assert!(hits >= 99, "subsequent lookups hit: {hits}");
    assert!(r.world.counters.sa_local_done.total() >= 1);
}

#[test]
fn unroutable_packets_die_at_the_strongarm() {
    let mut r = Router::new(RouterConfig::line_rate());
    let spec = FrameSpec {
        dst: u32::from_be_bytes([192, 168, 1, 1]), // No route.
        ..Default::default()
    };
    r.attach_source(0, Box::new(CbrSource::new(100_000_000, 0.3, spec, 10)));
    r.run_until(ms(5));
    let tx: u64 = r.ixp.hw.ports.iter().map(|p| p.tx_frames).sum();
    assert_eq!(tx, 0, "nothing forwarded");
    assert_eq!(r.world.counters.no_route_drops.total(), 10);
}

#[test]
fn pentium_forwarders_see_and_mutate_packets() {
    let mut r = Router::new(RouterConfig::line_rate());
    let key = FlowKey {
        src: u32::from_be_bytes([10, 0, 0, 2]),
        dst: u32::from_be_bytes([10, 1, 0, 1]),
        sport: 5000,
        dport: 9000,
    };
    // A Pentium forwarder that stamps a marker into the payload.
    r.install(
        Key::Flow(key),
        InstallRequest::Pe {
            name: "stamper".into(),
            cycles: 500,
            tickets: 10,
            expected_pps: 1000,
            f: Box::new(|head, _| {
                head[42] = 0xEE;
                PeAction::Forward
            }),
        },
        None,
    )
    .unwrap();
    let frame = udp_frame(
        &FrameSpec {
            src: key.src,
            dst: key.dst,
            sport: key.sport,
            dport: key.dport,
            ..Default::default()
        },
        &[0u8; 4],
    );
    r.attach_source(
        0,
        Box::new(TraceSource::new(
            (0..20).map(|i| (i * 50_000_000, frame.clone())).collect(),
        )),
    );
    r.run_until(ms(10));
    assert_eq!(r.world.counters.pe_done.total(), 20);
    // Written-back packets were transmitted with the stamp.
    assert_eq!(r.ixp.hw.ports[1].tx_frames, 20);
    let mut stamped = false;
    for idx in 0..32u32 {
        if let Some(b) = r
            .world
            .pool
            .read(npr_packet::BufferHandle::from_descriptor(idx))
        {
            if b.len() > 42 && b[42] == 0xEE {
                stamped = true;
            }
        }
    }
    assert!(stamped, "the Pentium's mutation reached DRAM");
}

#[test]
fn pentium_drop_and_consume_release_buffers() {
    let mut r = Router::new(RouterConfig::line_rate());
    let key = FlowKey {
        src: u32::from_be_bytes([10, 0, 0, 2]),
        dst: u32::from_be_bytes([10, 1, 0, 1]),
        sport: 5000,
        dport: 9001,
    };
    r.install(
        Key::Flow(key),
        InstallRequest::Pe {
            name: "sink".into(),
            cycles: 100,
            tickets: 10,
            expected_pps: 1000,
            f: Box::new(|_, _| PeAction::Consume),
        },
        None,
    )
    .unwrap();
    let frame = udp_frame(
        &FrameSpec {
            src: key.src,
            dst: key.dst,
            sport: key.sport,
            dport: key.dport,
            ..Default::default()
        },
        &[],
    );
    let free0 = r.pci.free_buffers();
    r.attach_source(
        0,
        Box::new(TraceSource::new(
            (0..50).map(|i| (i * 20_000_000, frame.clone())).collect(),
        )),
    );
    r.run_until(ms(5));
    assert_eq!(r.world.counters.pe_done.total(), 50);
    assert_eq!(r.pci.free_buffers(), free0, "no I2O buffer leak");
    // Consumed: never transmitted.
    assert_eq!(r.ixp.hw.ports[1].tx_frames, 0);
}

/// Two Pentium forwarders of equal cost, holding `tickets`, each bound
/// to its own flow and offered the same saturating CBR: returns their
/// completions, counted in the forwarders themselves.
fn pentium_completions(tickets: [u64; 2]) -> [u64; 2] {
    let mut r = Router::new(RouterConfig::line_rate());
    let done = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
    for (i, (dport, port)) in [(9000u16, 0usize), (9001, 2)].into_iter().enumerate() {
        let spec = FrameSpec {
            src: u32::from_be_bytes([10, 0, 0, 2]),
            dst: u32::from_be_bytes([10, 1, 0, 1]),
            sport: 5000,
            dport,
            ..Default::default()
        };
        let key = FlowKey {
            src: spec.src,
            dst: spec.dst,
            sport: spec.sport,
            dport: spec.dport,
        };
        let n = Arc::clone(&done[i]);
        r.install(
            Key::Flow(key),
            InstallRequest::Pe {
                name: format!("share{i}"),
                cycles: 15_000, // Expensive: saturate the Pentium.
                tickets: tickets[i],
                expected_pps: 20_000,
                f: Box::new(move |_, _| {
                    n.fetch_add(1, Ordering::Relaxed);
                    PeAction::Consume
                }),
            },
            None,
        )
        .unwrap();
        r.attach_source(
            port,
            Box::new(CbrSource::new(100_000_000, 0.9, spec, u64::MAX)),
        );
    }
    r.run_until(ms(30));
    done.map(|n| n.load(Ordering::Relaxed))
}

#[test]
fn stride_scheduler_divides_pentium_between_classes() {
    // Both flows overload the Pentium ~6x over, so every I2O buffer it
    // frees finds both staging queues backlogged: the share decides.
    for (tickets, lo, hi) in [
        ([400, 100], 3.0, 5.0),
        ([100, 400], 0.2, 0.33),
        ([100, 100], 0.8, 1.25),
    ] {
        let [a, b] = pentium_completions(tickets);
        assert!(a + b > 500, "the Pentium barely ran: {a} + {b}");
        let ratio = a as f64 / b as f64;
        assert!(
            (lo..=hi).contains(&ratio),
            "tickets {tickets:?}: completions {a}:{b} = {ratio:.2}, want [{lo}, {hi}]"
        );
    }
}

#[test]
fn zero_ticket_pentium_install_is_admitted_with_weight_one() {
    let mut r = Router::new(RouterConfig::line_rate());
    let key = FlowKey {
        src: u32::from_be_bytes([10, 0, 0, 2]),
        dst: u32::from_be_bytes([10, 1, 0, 1]),
        sport: 5000,
        dport: 9002,
    };
    r.install(
        Key::Flow(key),
        InstallRequest::Pe {
            name: "no-tickets".into(),
            cycles: 100,
            tickets: 0,
            expected_pps: 1000,
            f: Box::new(|_, _| PeAction::Consume),
        },
        None,
    )
    .unwrap();
    assert_eq!(r.pe.forwarders[0].tickets, 1);
    let spec = FrameSpec {
        src: key.src,
        dst: key.dst,
        sport: key.sport,
        dport: key.dport,
        ..Default::default()
    };
    r.attach_source(0, Box::new(CbrSource::new(100_000_000, 0.3, spec, 20)));
    r.run_until(ms(3));
    assert_eq!(r.world.counters.pe_done.total(), 20);
}

#[test]
fn buffer_lap_overrun_loses_packets_gracefully() {
    // A tiny pool plus a stalled output port: descriptors outlive their
    // buffers and the router counts lap losses instead of corrupting.
    let mut cfg = RouterConfig::line_rate();
    cfg.pool_bufs = 16;
    cfg.queue_cap = 4096;
    // No output contexts: queues never drain.
    cfg.output_ctxs = 0;
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
            200,
        )),
    );
    r.run_until(ms(5));
    // All 200 were enqueued but only 16 buffers exist; the pool wrapped.
    assert!(r.world.pool.allocations() >= 200);
    assert_eq!(r.world.queues.total_enqueued(), 200);
}

#[test]
fn ttl_expiry_generates_icmp_time_exceeded() {
    let router_addr = u32::from_be_bytes([10, 0, 0, 254]);
    let mut r = Router::new(RouterConfig::line_rate());
    r.install_exception_handler(npr_forwarders::slow::icmp_responder_sa(router_addr))
        .unwrap();
    // A TTL-1 packet arrives on port 2.
    let frame = udp_frame(
        &FrameSpec {
            src: u32::from_be_bytes([10, 2, 0, 44]),
            dst: u32::from_be_bytes([10, 5, 0, 1]),
            ttl: 1,
            ..Default::default()
        },
        &[],
    );
    r.attach_source(2, Box::new(TraceSource::new(vec![(0, frame)])));
    r.run_until(ms(3));
    // The reply leaves on the ingress port.
    assert_eq!(r.ixp.hw.ports[2].tx_frames, 1, "reply out the ingress port");
    // And it is a well-formed Time Exceeded aimed at the sender.
    let mut verified = false;
    for idx in 0..16u32 {
        if let Some(b) = r
            .world
            .pool
            .read(npr_packet::BufferHandle::from_descriptor(idx))
        {
            if b.len() > 34 {
                if let Ok(ip) = npr_packet::Ipv4Header::parse(&b[14..]) {
                    if ip.proto == npr_packet::Ipv4Proto::Icmp {
                        assert_eq!(ip.src, router_addr);
                        assert_eq!(ip.dst, u32::from_be_bytes([10, 2, 0, 44]));
                        assert_eq!(b[34], npr_packet::icmp::ICMP_TIME_EXCEEDED);
                        verified = true;
                    }
                }
            }
        }
    }
    assert!(verified, "no ICMP reply found in DRAM");
}

#[test]
fn a_shorter_reply_leaves_at_its_own_length() {
    // The responder replaces a 1000-byte TTL-1 frame with a 70-byte
    // Time Exceeded in the same buffer: the wire must carry the reply
    // alone, not the reply followed by the original frame's tail.
    let router_addr = u32::from_be_bytes([10, 0, 0, 254]);
    let mut r = Router::new(RouterConfig::line_rate());
    r.install_exception_handler(npr_forwarders::slow::icmp_responder_sa(router_addr))
        .unwrap();
    r.ixp.hw.ports[2].tx_capture = Some(Vec::new());
    let frame = udp_frame(
        &FrameSpec {
            len: 1000,
            src: u32::from_be_bytes([10, 2, 0, 44]),
            dst: u32::from_be_bytes([10, 5, 0, 1]),
            ttl: 1,
            ..Default::default()
        },
        &[],
    );
    assert_eq!(frame.len(), 1000);
    r.attach_source(2, Box::new(TraceSource::new(vec![(0, frame)])));
    r.run_until(ms(3));
    assert_eq!(r.ixp.hw.ports[2].tx_frames, 1, "reply out the ingress port");
    let mps: Vec<npr_packet::Mp> = r.ixp.hw.ports[2]
        .tx_capture
        .take()
        .unwrap()
        .into_iter()
        .map(|(_, mp)| mp)
        .collect();
    let reply = npr_packet::Mp::reassemble(&mps);
    let ip = npr_packet::Ipv4Header::parse(&reply[14..]).unwrap();
    assert_eq!(ip.proto, npr_packet::Ipv4Proto::Icmp);
    assert_eq!(reply[34], npr_packet::icmp::ICMP_TIME_EXCEEDED);
    assert_eq!(reply.len(), 14 + usize::from(ip.total_len));
}

#[test]
fn router_answers_pings() {
    // An address outside every routed subnet: the router's loopback.
    let router_addr = u32::from_be_bytes([172, 16, 0, 1]);
    let mut r = Router::new(RouterConfig::line_rate());
    r.install_exception_handler(npr_forwarders::slow::icmp_responder_sa(router_addr))
        .unwrap();
    // An echo request to the router itself: it has no route (the
    // router's own address is not in the table), so it escalates, and
    // the responder answers it.
    let mut f = vec![0u8; 74];
    npr_packet::EthernetFrame::write_header(
        &mut f,
        npr_packet::MacAddr::for_port(0),
        npr_packet::MacAddr([7; 6]),
        npr_packet::EtherType::Ipv4,
    );
    npr_packet::Ipv4Header {
        header_len: 20,
        dscp_ecn: 0,
        total_len: 60,
        ident: 3,
        flags_frag: 0,
        ttl: 9,
        proto: npr_packet::Ipv4Proto::Icmp,
        checksum: 0,
        src: u32::from_be_bytes([10, 3, 0, 9]),
        dst: router_addr,
    }
    .write(&mut f[14..]);
    f[34] = npr_packet::icmp::ICMP_ECHO_REQUEST;
    let sum = npr_packet::checksum16(&f[34..]);
    f[36..38].copy_from_slice(&sum.to_be_bytes());

    r.attach_source(3, Box::new(TraceSource::new(vec![(0, f)])));
    r.run_until(ms(3));
    assert_eq!(r.ixp.hw.ports[3].tx_frames, 1, "echo reply out the ingress");
}

#[test]
fn tracer_follows_a_packet_through_the_fast_path() {
    use npr_core::TraceStep;
    let mut r = Router::new(RouterConfig::line_rate());
    let dst = u32::from_be_bytes([10, 4, 0, 77]);
    r.trace_destination(dst, 16);
    r.attach_source(
        0,
        Box::new(TraceSource::new(vec![(
            0,
            udp_frame(
                &FrameSpec {
                    dst,
                    ..Default::default()
                },
                &[],
            ),
        )])),
    );
    r.run_until(ms(2));
    let steps: Vec<_> = r.trace().events.iter().map(|e| e.step.clone()).collect();
    // Classified (route miss: the cache is cold), StrongARM resolution,
    // then transmission on port 4.
    assert!(
        matches!(
            steps[0],
            TraceStep::Classified {
                in_port: 0,
                verdict: "route-miss",
                ..
            }
        ),
        "{steps:?}"
    );
    assert!(steps
        .iter()
        .any(|s| matches!(s, TraceStep::Transmitted { port: 4 })));
    // Timestamps are monotone.
    let times: Vec<_> = r.trace().events.iter().map(|e| e.at).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn tracer_follows_the_pentium_path() {
    use npr_core::TraceStep;
    let mut r = Router::new(RouterConfig::line_rate());
    let key = FlowKey {
        src: u32::from_be_bytes([10, 0, 0, 2]),
        dst: u32::from_be_bytes([10, 1, 0, 88]),
        sport: 5000,
        dport: 9100,
    };
    r.install(
        Key::Flow(key),
        InstallRequest::Pe {
            name: "traced".into(),
            cycles: 400,
            tickets: 10,
            expected_pps: 100,
            f: Box::new(|_, _| PeAction::Forward),
        },
        None,
    )
    .unwrap();
    r.trace_destination(key.dst, 16);
    r.attach_source(
        0,
        Box::new(TraceSource::new(vec![(
            0,
            udp_frame(
                &FrameSpec {
                    src: key.src,
                    dst: key.dst,
                    sport: key.sport,
                    dport: key.dport,
                    ..Default::default()
                },
                &[],
            ),
        )])),
    );
    r.run_until(ms(3));
    let steps: Vec<_> = r.trace().events.iter().map(|e| e.step.clone()).collect();
    assert!(
        steps
            .iter()
            .any(|s| matches!(s, TraceStep::StrongArm { kind: "bridge" })),
        "{steps:?}"
    );
    // The Pentium's write-back enters the output queue through the same
    // path as a fast-path packet, and the trace says so, in order.
    let pe = steps
        .iter()
        .position(|s| matches!(s, TraceStep::Pentium { action: "forward" }))
        .expect("the Pentium forwarded the packet");
    assert!(
        matches!(
            steps[pe + 1..],
            [TraceStep::Enqueued { .. }, TraceStep::Transmitted { port: 1 }, ..]
        ),
        "{steps:?}"
    );
}

/// MTU 576 on the egress and one 1420-byte datagram offered, DF set
/// or clear, run for 3 ms: the datagram escalates via the IP-- MTU
/// check and the StrongARM fragments it, or drops it if DF is set.
fn one_oversized_datagram(df: bool) -> Router {
    let mut r = Router::new(RouterConfig::line_rate());
    r.world.fragment_mtu = Some(576);
    let fid = r
        .install(
            Key::All,
            InstallRequest::Me {
                prog: npr_forwarders::ip_minimal().unwrap(),
            },
            None,
        )
        .unwrap();
    let mut state = [0u8; 24];
    state[0..6].copy_from_slice(&[0x02, 0, 0, 0, 0, 3]);
    state[6..12].copy_from_slice(&[0x02, 0xee, 0, 0, 0, 0]);
    state[12..16].copy_from_slice(&3u32.to_be_bytes()); // Queue = port 3.
    state[20..24].copy_from_slice(&576u32.to_be_bytes()); // MTU.
    r.setdata(fid, &state).unwrap();

    let mut frame = udp_frame(
        &FrameSpec {
            len: 1434, // 1420-byte IP datagram.
            dst: u32::from_be_bytes([10, 3, 0, 1]),
            ..Default::default()
        },
        &[],
    );
    let mut ip = npr_packet::Ipv4Header::parse(&frame[14..]).unwrap();
    ip.flags_frag = if df { 0x4000 } else { 0 };
    ip.write(&mut frame[14..]);

    r.attach_source(0, Box::new(TraceSource::new(vec![(0, frame)])));
    r.run_until(ms(3));
    r
}

#[test]
fn slow_path_fragments_oversized_packets() {
    let mut r = one_oversized_datagram(false);

    // Three fragments of <= 576 bytes each left on port 3.
    let tx = r.ixp.hw.ports[3].tx_frames;
    assert_eq!(tx, 3, "expected 3 fragments");
    // Collect them from the pool and reassemble.
    let mut frags = Vec::new();
    for idx in 0..32u32 {
        if let Some(b) = r
            .world
            .pool
            .read(npr_packet::BufferHandle::from_descriptor(idx))
        {
            if b.len() > 34 {
                if let Ok(ip) = npr_packet::Ipv4Header::parse(&b[14..]) {
                    if ip.ident == 7
                        && (ip.flags_frag & 0x2000 != 0
                            || ip.flags_frag & 0x1fff != 0
                            || usize::from(ip.total_len) < 1420)
                    {
                        frags.push(b.to_vec());
                    }
                }
            }
        }
    }
    assert_eq!(frags.len(), 3);
    let whole = npr_packet::ipv4::reassemble(&frags).unwrap();
    assert_eq!(whole.len(), 1400, "payload reassembles completely");
    // The ledger counts the two extra fragments as minted packets.
    assert!(r.drain(us(100), 600), "failed to quiesce");
    let c = r.conservation();
    assert!(c.holds(), "deficit={} {c:?}", c.deficit());
    assert_eq!((c.admitted, c.minted, c.transmitted), (1, 2, 3), "{c:?}");

    // DF set: the StrongARM may not cut it, and the drop is on the
    // ledger like any other fate of an admitted packet.
    let mut r = one_oversized_datagram(true);
    assert!(r.drain(us(100), 600), "DF-set datagram: failed to quiesce");
    let c = r.conservation();
    assert!(c.holds(), "deficit={} {c:?}", c.deficit());
    assert_eq!(
        (c.admitted, c.minted, c.transmitted, c.drops()),
        (1, 0, 0, 1),
        "{c:?}"
    );
}
