//! A label-switched router (LSR) built from the generic infrastructure.
//!
//! "Note that the architecture does not distinguish between forwarders
//! that implement traditional control protocols and forwarders that
//! would normally be considered on the data plane" — here the *entire*
//! MPLS data plane is one installed forwarder, and label bindings are
//! managed through `setdata`, standing in for LDP.
//!
//! ```text
//! cargo run --release --example mpls_lsr
//! ```

use npr_core::{ms, InstallRequest, Key, Router, RouterConfig};
use npr_forwarders::{encode_entry, mpls_swap};
use npr_traffic::{mpls_frame, TraceSource};

fn main() {
    let mut router = Router::new(RouterConfig::line_rate());

    // Install the label-swap forwarder; admission control verifies it
    // fits the VRP budget alongside the default IP path.
    let fid = router
        .install(Key::All, InstallRequest::Me { prog: mpls_swap() }, None)
        .expect("swap forwarder fits the budget");

    // "LDP" binds three label-switched paths.
    let mut table = vec![0u8; 32];
    encode_entry(&mut table, 0, 100, 6100, 4); // LSP A: 100 -> 6100, port 4.
    encode_entry(&mut table, 1, 101, 6101, 5); // LSP B.
    encode_entry(&mut table, 2, 102, 6102, 6); // LSP C.
    router.setdata(fid, &table).unwrap();
    println!("installed mpls-swap (fid {fid}) with 3 LSPs");

    // 30k labeled packets over 3 LSPs at ~100 Kpps aggregate.
    let frames: Vec<_> = (0..30_000u64)
        .map(|i| (i * 10_000_000, mpls_frame(100 + (i % 3) as u32, 0, 64, 60)))
        .collect();
    router.attach_source(0, Box::new(TraceSource::new(frames)));
    let report = router.measure(ms(2), ms(300));

    println!(
        "forwarded : {:.1} Kpps of labeled traffic",
        report.forward_mpps * 1e3
    );
    for p in [4usize, 5, 6] {
        println!(
            "LSP via port {p}: {} frames since boot",
            router.ixp.hw.ports[p].tx_frames
        );
    }
    println!("label misses to control plane: {}", report.escalation_drops);

    // Re-bind LSP A mid-flight, as LDP would on a path change.
    encode_entry(&mut table, 0, 100, 7100, 7);
    router.setdata(fid, &table).unwrap();
    let frames: Vec<_> = (0..1000u64)
        .map(|i| (router.now() + i * 10_000_000, mpls_frame(100, 0, 64, 60)))
        .collect();
    router.attach_source(0, Box::new(TraceSource::new(frames)));
    let before = router.ixp.hw.ports[7].tx_frames;
    router.run_until(router.now() + ms(15));
    let moved = router.ixp.hw.ports[7].tx_frames - before;
    println!("after re-binding: {moved} packets took the new path via port 7");
    assert!(moved >= 999);
    println!("OK: a pure label switch, zero IP code in the path.");
}
