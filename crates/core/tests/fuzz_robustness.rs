//! Failure injection: the router must survive arbitrary garbage on the
//! wire — malformed headers, truncated frames, random bytes — without
//! panicking, leaking buffers, or corrupting its counters.
//!
//! The property bodies live in plain `fn(seed) -> Result` helpers so
//! the randomized sweep and the pinned regression seeds (cases proptest
//! shrank to before the harness moved in-repo) share one code path.

use npr_check::prelude::*;
use npr_core::{ms, InstallRequest, Key, Router, RouterConfig};
use npr_sim::XorShift64;

/// Fuzzed routers per property, and frames per router.
const CASES: u32 = 64;
const FRAMES: u64 = 300;

fn random_frame(rng: &mut XorShift64) -> Vec<u8> {
    let class = rng.below(4);
    let len = (60 + rng.below(200) as usize).min(1514);
    let mut f = vec![0u8; len];
    for b in f.iter_mut() {
        *b = rng.next_u32() as u8;
    }
    match class {
        0 => { /* Pure noise. */ }
        1 => {
            // Plausible EtherType, garbage payload.
            f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        }
        2 => {
            // Valid IP header over random payload.
            let spec = npr_traffic::FrameSpec {
                len,
                dst: rng.next_u32(),
                src: rng.next_u32(),
                ..Default::default()
            };
            let good = npr_traffic::udp_frame(&spec, &[]);
            f[..42.min(len)].copy_from_slice(&good[..42.min(len)]);
        }
        _ => {
            // MPLS with a random label.
            f[12..14].copy_from_slice(&0x8847u16.to_be_bytes());
        }
    }
    f
}

/// One garbage-traffic case; `Err` carries the violated invariant.
fn garbage_traffic_case(seed: u64) -> Result<(), String> {
    let mut rng = XorShift64::new(seed);
    let mut r = Router::new(RouterConfig::line_rate());
    // With the full Table 5 suite installed, so VRP code also sees
    // the garbage.
    r.install(
        Key::All,
        InstallRequest::Me {
            prog: npr_forwarders::syn_monitor().unwrap(),
        },
        None,
    )
    .unwrap();
    r.install(
        Key::All,
        InstallRequest::Me {
            prog: npr_forwarders::port_filter().unwrap(),
        },
        None,
    )
    .unwrap();
    let frames: Vec<_> = (0..FRAMES)
        .map(|i| (i * 5_000_000, random_frame(&mut rng)))
        .collect();
    r.attach_source(0, Box::new(npr_traffic::TraceSource::new(frames)));
    r.run_until(ms(60));

    // Conservation: every frame that reached the input process is
    // accounted for exactly once — forwarded, escalated, or dropped
    // with a counter (wire serialization may still be delivering
    // the tail, so the MAC's receive counter is the ground truth).
    let received = r.ixp.hw.ports[0].rx_frames;
    let c = &r.world.counters;
    let accounted = c.input_pkts.total() + c.validation_drops.total() + c.vrp_drops.total();
    prop_assert_eq!(accounted, received, "every frame accounted for");
    // Escalations either completed, dropped with a counter, or are
    // still queued/in flight somewhere bounded; none vanish. The
    // PCI pipeline holds at most the I2O buffer count.
    let pe_q = r.world.sa_pe_q.queues();
    let esc_out = c.sa_local_done.total()
        + c.pe_done.total()
        + c.no_route_drops.total()
        + c.lap_losses.total()
        + (r.world.sa_local_q.len() + r.world.sa_miss_q.len()) as u64
        + pe_q.iter().map(|q| q.len() as u64).sum::<u64>()
        + r.world.sa_local_q.drops()
        + r.world.sa_miss_q.drops()
        + pe_q.iter().map(|q| q.drops()).sum::<u64>()
        + r.pe.backlog() as u64;
    let in_flight_bound = 64 + 2;
    prop_assert!(
        esc_out + in_flight_bound >= c.to_sa.total() + c.to_pe.total(),
        "escalation leak: out {} vs in {}",
        esc_out,
        c.to_sa.total() + c.to_pe.total()
    );
    // No I2O buffer leaks.
    prop_assert!(r.pci.free_buffers() <= 64);
    Ok(())
}

/// One runt/oversize case; `Err` carries the violated invariant.
fn truncated_and_oversized_case(seed: u64) -> Result<(), String> {
    let mut rng = XorShift64::new(seed.wrapping_add(1));
    let mut r = Router::new(RouterConfig::line_rate());
    let frames: Vec<_> = (0..100u64)
        .map(|i| {
            // Lengths from 1 byte to max; the MAC model floors at
            // nothing — the router must tolerate runts.
            let len = 1 + rng.below(1514) as usize;
            let mut f = vec![0u8; len];
            if len > 14 {
                f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
            }
            (i * 8_000_000, f)
        })
        .collect();
    r.attach_source(0, Box::new(npr_traffic::TraceSource::new(frames)));
    // 100 frames finish arriving within ~13 ms of wire time.
    r.run_until(ms(30));
    // Nothing forwarded (all invalid), everything counted.
    let received = r.ixp.hw.ports[0].rx_frames;
    let c = &r.world.counters;
    prop_assert_eq!(c.validation_drops.total() + c.input_pkts.total(), received);
    prop_assert_eq!(received, 100);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]
    #[test]
    fn garbage_traffic_never_breaks_the_router(seed: u64) {
        garbage_traffic_case(seed)?;
    }

    #[test]
    fn truncated_and_oversized_frames_are_handled(seed: u64) {
        truncated_and_oversized_case(seed)?;
    }
}

// Pinned regression seeds, converted from the retired
// `fuzz_robustness.proptest-regressions` file so the shrunken failure
// cases proptest once found keep running verbatim under npr-check.

#[test]
fn regression_seed_59881() {
    garbage_traffic_case(59881).unwrap();
    truncated_and_oversized_case(59881).unwrap();
}

#[test]
fn regression_seed_1565955748845117530() {
    garbage_traffic_case(1565955748845117530).unwrap();
    truncated_and_oversized_case(1565955748845117530).unwrap();
}
