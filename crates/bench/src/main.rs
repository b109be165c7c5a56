//! `experiments`: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments <subcommand>
//!   table1 table2 table3 table4 table5
//!   fig7 fig9 fig10
//!   linerate strongarm robustness flood budget slowpath baseline
//!   faults [--out PATH]
//!   control [--out PATH]
//!   recovery [--out PATH]
//!   route [--out PATH]
//!   qos [--out PATH]
//!   fabric [--out PATH]
//!   all
//! ```

use npr_bench::fmt;
use npr_bench::{
    baseline, budget, control_json, control_storm, curves_json, fabric_experiment, fabric_json,
    fault_curves, fig10, fig7, fig9, flood, linerate, recovery, recovery_json, robustness,
    qos_experiment, qos_json, route_experiment, route_json, slowpath, strongarm, table1, table2,
    table3, table4, table5_rows, DEGRADE_RATES, WARMUP, WINDOW,
};
use npr_forwarders::PadKind;

/// Writes `json` to the path following `--out`, when one was given.
fn write_out(args: &[String], json: String) {
    if let Some(p) = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
    {
        std::fs::write(p, json).unwrap_or_else(|e| panic!("write {p}: {e}"));
        eprintln!("wrote {p}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    if matches!(which, "-h" | "--help" | "help") {
        println!(
            "usage: experiments [SUBCOMMAND]\n\
             \n  table1 table2 table3 table4 table5   the paper's tables\
             \n  fig7 fig9 fig10                      the paper's figures\
             \n  linerate strongarm robustness flood  section 3.5/3.6/4.7\
             \n  budget slowpath baseline             section 4.3/4.4 + baselines\
             \n  faults [--out PATH]                  graceful degradation under the\
             \n                                       fault plane (PATH gets the JSON)\
             \n  control [--out PATH]                 fast path under a control storm\
             \n                                       (PATH gets the JSON)\
             \n  recovery [--out PATH]                health-monitor fault detection and\
             \n                                       recovery episodes (PATH gets the JSON)\
             \n  route [--out PATH]                   internet-scale lookup, Zipf cache\
             \n                                       hit rate, churn storms (PATH gets JSON)\
             \n  qos [--out PATH]                     per-flow queue manager: AQM sojourn\
             \n                                       tails + flow isolation (PATH gets JSON)\
             \n  fabric [--out PATH]                  multi-chassis Mpps scaling per topology\
             \n                                       + fault soak (PATH gets the JSON)\
             \n  all                                  everything (default)\n\
             \nSee also the `ablations` binary for beyond-the-paper studies."
        );
        return;
    }
    let all = which == "all";

    if all || which == "table1" {
        println!(
            "{}",
            fmt::rows(
                "Table 1: maximum packet rates by queueing discipline",
                &table1(WARMUP, WINDOW)
            )
        );
    }
    if all || which == "table2" {
        println!(
            "{}",
            fmt::rows(
                "Table 2: per-MP instruction and memory-op counts (I.2 + O.1)",
                &table2(WARMUP, WINDOW)
            )
        );
    }
    if all || which == "table3" {
        println!("{}", fmt::rows("Table 3: memory latencies", &table3()));
    }
    if all || which == "table4" {
        println!(
            "{}",
            fmt::rows(
                "Table 4: Pentium-path rate and spare cycles",
                &table4(WARMUP, WINDOW)
            )
        );
    }
    if all || which == "table5" {
        println!("\n== Table 5: forwarder requirements ==");
        println!(
            "{:<18} {:>14} {:>14} {:>14} {:>14}",
            "forwarder", "paper SRAM B", "ours SRAM B", "paper reg ops", "ours reg ops"
        );
        for (name, sram, regs) in table5_rows() {
            println!(
                "{:<18} {:>14.0} {:>14.0} {:>14.0} {:>14.0}",
                name, sram.paper, sram.measured, regs.paper, regs.measured
            );
        }
    }
    if all || which == "fig7" {
        let pts = [1usize, 2, 4, 8, 12, 16, 20, 24];
        let r = fig7(&pts, WARMUP, WINDOW);
        let input: Vec<(f64, f64)> = r
            .contexts
            .iter()
            .zip(&r.input_mpps)
            .map(|(&c, &m)| (c as f64, m))
            .collect();
        let output: Vec<(f64, f64)> = r
            .contexts
            .iter()
            .zip(&r.output_mpps)
            .map(|(&c, &m)| (c as f64, m))
            .collect();
        println!(
            "{}",
            fmt::series("Figure 7: input-only scaling", "contexts", &input, "Mpps")
        );
        println!(
            "{}",
            fmt::series("Figure 7: output-only scaling", "contexts", &output, "Mpps")
        );
        println!("(paper: input knees at 16 contexts near 3.7 Mpps; output scales to ~8 Mpps)");
    }
    if all || which == "fig9" {
        let blocks = [0u32, 4, 8, 16, 24, 32, 48, 64];
        for (kind, name) in [
            (PadKind::Reg10, "block = 10 register instr"),
            (PadKind::SramRead, "block = 4 B SRAM read"),
            (PadKind::Combo, "block = 10 reg + 4 B SRAM read"),
        ] {
            let s = fig9(kind, &blocks, WARMUP, WINDOW);
            let pts: Vec<(f64, f64)> = s
                .blocks
                .iter()
                .zip(&s.mpps)
                .map(|(&b, &m)| (f64::from(b), m))
                .collect();
            println!(
                "{}",
                fmt::series(&format!("Figure 9: {name}"), "blocks", &pts, "Mpps")
            );
        }
        println!("(paper: at 1 Mpps the budget is 32 combo blocks)");
    }
    if all || which == "fig10" {
        let pts = fig10(&[0, 8, 16, 32, 48, 64], WARMUP, WINDOW);
        println!("\n== Figure 10: forwarding time under maximal contention ==");
        println!(
            "{:>7} {:>12} {:>14} {:>14} {:>8}",
            "blocks", "total ns", "no-contention", "overhead ns", "Mpps"
        );
        for p in &pts {
            println!(
                "{:>7} {:>12.0} {:>14.0} {:>14.0} {:>8.2}",
                p.blocks, p.total_ns, p.base_ns, p.overhead_ns, p.mpps
            );
        }
        println!("(paper: overhead at 0 blocks ~312 ns, reclaimed by VRP work)");
    }
    if all || which == "linerate" {
        let (row, drops) = linerate(WARMUP, WINDOW);
        println!(
            "{}",
            fmt::rows("Section 3.5.1: line-rate forwarding", &[row])
        );
        println!("drops in window: {drops} (paper: none)");
    }
    if all || which == "strongarm" {
        println!(
            "{}",
            fmt::rows(
                "Section 3.6: StrongARM forwarding",
                &strongarm(WARMUP, WINDOW)
            )
        );
    }
    if all || which == "robustness" {
        let r = robustness(WARMUP, WINDOW, 20);
        println!(
            "{}",
            fmt::rows(
                "Section 4.7: full-VRP suite + Pentium diversion",
                &[r.max_diverted, r.pe_cycles]
            )
        );
        println!(
            "offered fast-path load: {:.3} Mpps (paper: 1.128)",
            r.offered_mpps
        );
    }
    if all || which == "flood" {
        let pts = flood(WARMUP, WINDOW);
        println!("\n== Section 4.7: exceptional-packet flood ==");
        println!("{:>10} {:>14}", "permille", "fast-path Mpps");
        for (pm, mpps) in pts {
            println!("{pm:>10} {mpps:>14.3}");
        }
        println!("(paper: exceptional packets have no effect on the 3.47 Mpps fast path)");
    }
    if all || which == "budget" {
        println!(
            "{}",
            fmt::rows("Section 4.3: prototype VRP budget", &budget(WARMUP, WINDOW))
        );
    }
    if all || which == "slowpath" {
        println!(
            "{}",
            fmt::rows("Section 4.4: slow-path forwarder costs", &slowpath())
        );
    }
    if all || which == "faults" {
        let curves = fault_curves(DEGRADE_RATES, WARMUP, WINDOW);
        println!("\n== Fault plane: graceful degradation (seed-fixed sweeps) ==");
        for c in &curves {
            let pts: Vec<(f64, f64)> = c
                .rates_ppm
                .iter()
                .zip(&c.mpps)
                .map(|(&r, &m)| (f64::from(r), m))
                .collect();
            println!(
                "{}",
                fmt::series(&format!("{:?}", c.class), "fault ppm", &pts, "Mpps")
            );
        }
        println!("(degradation must be monotone with no cliff; see crates/sim/src/fault.rs)");
        write_out(&args, curves_json(&curves));
    }
    if all || which == "control" {
        let r = control_storm(WARMUP, WINDOW);
        println!("\n== Control plane: route-update/install storm vs fast path ==");
        println!(
            "baseline {:.3} Mpps | storm {:.3} Mpps | ratio {:.4}",
            r.baseline_mpps, r.storm_mpps, r.ratio
        );
        println!(
            "control ops {} ({} ISTORE churns) | PCI {} B | avg latency {:.1} us",
            r.ctl_ops, r.me_churns, r.ctl_pci_bytes, r.ctl_latency_avg_us
        );
        println!("(design point: control churn must cost the fast path only noise)");
        write_out(&args, control_json(&r));
    }
    if all || which == "recovery" {
        let results = recovery(WARMUP, WINDOW);
        println!("\n== Health monitor: fault detection and recovery ==");
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>8} {:>12} {:>18}",
            "class", "base Mpps", "fault", "recovered", "ratio", "evidence", "latency/bound us"
        );
        for r in &results {
            let evidence = match r.class {
                "sa-wedge" => format!("{} resets", r.sa_resets),
                "overrun-quarantine" => format!("{} quar", r.quarantines),
                _ => format!("{} exhaust", r.pci_exhausted),
            };
            println!(
                "{:<22} {:>10.3} {:>10.3} {:>10.3} {:>8.4} {:>12} {:>9.1}/{:<8.1}",
                r.class,
                r.baseline_mpps,
                r.faulted_mpps,
                r.recovered_mpps,
                r.recovered_ratio(),
                evidence,
                r.recovery_latency_avg_us,
                r.detection_bound_us
            );
        }
        println!("(post-recovery throughput must be >= 99% of the fault-free baseline)");
        write_out(&args, recovery_json(&results));
    }
    if all || which == "route" {
        let r = route_experiment();
        println!("\n== Internet-scale routing: trie scaling, Zipf cache, churn ==");
        println!(
            "{:>10} {:>10} {:>12} {:>10} {:>10} {:>12} {:>8}",
            "prefixes", "routes", "lookup Mpps", "build ms", "update ns", "trie MiB", "levels"
        );
        for p in &r.scaling {
            println!(
                "{:>10} {:>10} {:>12.1} {:>10.1} {:>10.0} {:>12.2} {:>8.3}",
                p.prefixes,
                p.routes,
                p.lookup_mpps,
                p.build_ms,
                p.update_ns,
                p.trie_bytes as f64 / (1024.0 * 1024.0),
                p.mean_levels
            );
        }
        for p in &r.zipf {
            println!(
                "zipf alpha {:.2}: hit rate {:.4} at {:.3} Mpps",
                p.alpha, p.hit_rate, p.forward_mpps
            );
        }
        for p in &r.churn {
            println!(
                "churn {:>6}/s {:<10}: hit rate {:.4} at {:.3} Mpps ({} ctl ops)",
                p.updates_per_s,
                if p.targeted { "targeted" } else { "full-flush" },
                p.hit_rate,
                p.forward_mpps,
                p.ctl_ops
            );
        }
        println!("(targeted invalidation must hold the hit rate full flushes forfeit)");
        write_out(&args, route_json(&r));
    }
    if all || which == "qos" {
        let r = qos_experiment();
        println!("\n== Per-flow queue manager: AQM sojourn tails + isolation ==");
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>9} {:>8}",
            "aqm", "p50 us", "p99 us", "max us", "served", "early", "cap", "sojourn", "victim"
        );
        for p in &r.sojourn {
            println!(
                "{:<10} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>7} {:>7} {:>9} {:>8.4}",
                p.aqm,
                p.p50_us,
                p.p99_us,
                p.max_us,
                p.served,
                p.early_drops,
                p.cap_drops,
                p.sojourn_drops,
                p.victim_goodput
            );
        }
        for p in &r.isolation {
            println!(
                "isolation {:<10} elephant {:>7.0} pps: victim {:.4} elephant {:.4} (p99 {:.1} us)",
                p.aqm, p.elephant_pps, p.victim_goodput, p.elephant_goodput, p.p99_us
            );
        }
        println!("(CoDel must hold p99 sojourn ≥2x below drop-tail; victims keep ≥90% goodput)");
        write_out(&args, qos_json(&r));
    }
    if all || which == "fabric" {
        let r = fabric_experiment();
        println!("\n== Multi-chassis fabric: aggregate Mpps vs cluster size ==");
        println!(
            "{:<14} {:>8} {:>8} {:>13} {:>14} {:>10} {:>11}",
            "topology", "chassis", "threads", "offered Mpps", "external Mpps", "switched", "link drops"
        );
        for p in &r.scaling {
            println!(
                "{:<14} {:>8} {:>8} {:>13.3} {:>14.3} {:>10} {:>11}",
                p.topology, p.chassis, p.threads, p.offered_mpps, p.external_mpps, p.switched, p.link_drops
            );
        }
        println!("\n-- compound-fault conservation soak (4 chassis per topology) --");
        for p in &r.soak {
            println!(
                "{:<14} injected {:>6} | sa resets {:>3} | fabric drops {:>5} | conservation {}",
                p.topology,
                p.injected,
                p.sa_resets,
                p.fabric_drops,
                if p.conservation_holds { "HOLDS" } else { "BROKEN" }
            );
        }
        println!("(the ring flattens as transit hops contend; spine/leaf holds its slope)");
        write_out(&args, fabric_json(&r));
    }
    if all || which == "baseline" {
        let b = baseline(WARMUP, WINDOW);
        println!("{}", fmt::rows("Baselines", &b.rows));
        println!(
            "speedup over pure PC: {:.1}x (paper: ~an order of magnitude)",
            b.speedup
        );
        println!(
            "{}",
            fmt::series(
                "Pure-PC receive livelock",
                "offered Kpps",
                &b.livelock_curve,
                "goodput Kpps"
            )
        );
    }
}
