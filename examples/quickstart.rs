//! Quickstart: build the router, drive two ports with real traffic,
//! and watch packets flow through the MicroEngine fast path.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use npr_core::{ms, Router, RouterConfig};

fn main() {
    // The paper's full configuration: 16 input contexts on 4
    // MicroEngines, 8 output contexts on 2, with real 100 Mbps ports.
    let mut router = Router::new(RouterConfig::line_rate());

    // Drive ports 0 and 1 at 95% of line rate (the paper's 141 Kpps
    // tulip sources); traffic from port 0 routes to port 1's subnet
    // (10.1.0.0/16) and vice versa.
    router.attach_cbr(0, 0.95, u64::MAX, 1);
    router.attach_cbr(1, 0.95, u64::MAX, 0);

    // Warm up, then measure 10 ms of simulated time.
    let report = router.measure(ms(2), ms(10));

    println!("=== npr quickstart ===");
    println!("forwarded : {:.1} Kpps", report.forward_mpps * 1e3);
    println!("offered   : 2 ports x 141.4 Kpps = 282.7 Kpps");
    println!(
        "drops     : {} (port) + {} (queue)",
        report.port_drops, report.queue_drops
    );
    println!("DRAM util : {:.1}%", report.dram_util * 100.0);
    println!("IX-bus    : {:.1}%", report.dma_util * 100.0);

    // The transmitted packets really crossed the router: look at the
    // per-port counters (lifetime totals, warm-up included — only the
    // report above is windowed).
    for (i, p) in router.ixp.hw.ports.iter().enumerate().take(2) {
        println!(
            "port {i}: rx {} frames, tx {} frames since boot",
            p.rx_frames, p.tx_frames
        );
    }
    assert!(report.forward_mpps * 1e3 > 280.0, "router kept line rate");
    assert_eq!(report.port_drops + report.queue_drops, 0);
    println!("OK: line rate sustained with zero loss.");
}
