//! Scenario shared by the `determinism` and `mark_invariance` suites.

use npr_core::{FlowKey, Key, Router, RouterConfig};
use npr_forwarders::slow::route_updater_pe;
use npr_traffic::{udp_frame, CbrSource, FrameSpec, MixSource, TraceSource};
use npr_vrp::VrpBackend;

/// The scaled-down `robust_router` example scenario (section 4.7): a
/// flood on seven ports, a traced control stream installing routes via
/// the Pentium on the eighth. Built and armed, not yet run.
pub fn robust_router(backend: VrpBackend) -> Router {
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 333;
    cfg.vrp_backend = backend;
    let mut router = Router::new(cfg);

    let ctl_key = FlowKey {
        src: u32::from_be_bytes([10, 0, 0, 9]),
        dst: u32::from_be_bytes([10, 1, 0, 1]),
        sport: 2600,
        dport: 89,
    };
    router
        .install(Key::Flow(ctl_key), route_updater_pe(1_000), None)
        .expect("route updater admitted");

    for p in 0..8 {
        if p == 1 {
            continue;
        }
        router.attach_cbr(p, 0.95, u64::MAX, ((p + 1) % 8) as u8);
    }
    // 40 route updates, one every 50 us, mixed with background load.
    let updates: Vec<(npr_sim::Time, Vec<u8>)> = (0..40u32)
        .map(|i| {
            let mut payload = [0u8; 6];
            payload[0..4].copy_from_slice(&u32::from_be_bytes([11, i as u8, 0, 0]).to_be_bytes());
            payload[4] = 16;
            payload[5] = (i % 8) as u8;
            let frame = udp_frame(
                &FrameSpec {
                    src: ctl_key.src,
                    dst: ctl_key.dst,
                    sport: ctl_key.sport,
                    dport: ctl_key.dport,
                    ..Default::default()
                },
                &payload,
            );
            (u64::from(i) * 50_000_000, frame)
        })
        .collect();
    let bg = CbrSource::new(
        100_000_000,
        0.8,
        FrameSpec {
            dst: u32::from_be_bytes([10, 2, 0, 1]),
            ..Default::default()
        },
        u64::MAX,
    );
    router.attach_source(
        1,
        Box::new(MixSource::new(vec![
            Box::new(TraceSource::new(updates)),
            Box::new(bg),
        ])),
    );
    // Trace the background flow end to end: the recorded steps (and
    // their picosecond timestamps) go into the digest, so the trace
    // output is covered by the bit-identical requirement too.
    router.trace_destination(u32::from_be_bytes([10, 2, 0, 1]), 64);
    router
}
