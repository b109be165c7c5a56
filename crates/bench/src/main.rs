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
//!
//! The six subcommands that take `--out` print their BENCH value as
//! text, write it to `PATH`, and exit nonzero when one of their gates
//! fails.

use npr_bench::fmt;
use npr_bench::{
    baseline, budget, control_json, control_storm, curves_json, fabric_experiment, fabric_json,
    fault_curves, fig10, fig7, fig9, flood, gate, linerate, qos_experiment, qos_json, recovery,
    recovery_json, robustness, route_experiment, route_json, slowpath, strongarm, table1, table2,
    table3, table4, table5_rows, write_out, DEGRADE_RATES, WARMUP, WINDOW,
};
use npr_check::json::Value;
use npr_forwarders::PadKind;

/// Prints a BENCH value as text under `title`, then the `note` on what
/// it must show, and writes it to `--out` when one was given.
fn publish(args: &[String], title: &str, v: &Value, note: &str) {
    print!("{}", fmt::value(title, v));
    println!("{note}");
    write_out(args, v);
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
        publish(
            &args,
            "Fault plane: graceful degradation (seed-fixed sweeps)",
            &curves_json(&fault_curves(DEGRADE_RATES, WARMUP, WINDOW)),
            "(degradation must be monotone with no cliff; see crates/sim/src/fault.rs)",
        );
    }
    if all || which == "control" {
        publish(
            &args,
            "Control plane: route-update/install storm vs fast path",
            &control_json(&control_storm(WARMUP, WINDOW)),
            "(design point: control churn must cost the fast path only noise)",
        );
    }
    if all || which == "recovery" {
        publish(
            &args,
            "Health monitor: fault detection and recovery",
            &recovery_json(&recovery(WARMUP, WINDOW)),
            "(post-recovery throughput must be >= 99% of the fault-free baseline)",
        );
    }
    if all || which == "route" {
        let r = route_experiment();
        publish(
            &args,
            "Internet-scale routing: trie scaling, Zipf cache, churn",
            &route_json(&r),
            "(targeted invalidation must hold the hit rate full flushes forfeit)",
        );
        println!("{}", r.tracked());
        gate(r.gate());
    }
    if all || which == "qos" {
        let r = qos_experiment();
        publish(
            &args,
            "Per-flow queue manager: AQM sojourn tails + isolation",
            &qos_json(&r),
            "(CoDel must hold p99 sojourn ≥2x below drop-tail; victims keep ≥90% goodput)",
        );
        gate(r.gate());
    }
    if all || which == "fabric" {
        let r = fabric_experiment();
        publish(
            &args,
            "Multi-chassis fabric: aggregate Mpps vs cluster size",
            &fabric_json(&r),
            "(the ring flattens as transit hops contend; spine/leaf holds its slope)",
        );
        gate(r.gate());
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
