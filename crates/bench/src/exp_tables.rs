//! Tables 1–5 of the paper.

use npr_core::{
    ms, InputDiscipline, OutputDiscipline, Router, RouterConfig, INPUT_MEM_OPS, OUTPUT_MEM_OPS,
};
use npr_ixp::params::{
    DRAM_BPS, DRAM_READ_CYCLES, DRAM_WRITE_CYCLES, SCRATCH_BPS, SCRATCH_READ_CYCLES,
    SCRATCH_WRITE_CYCLES, SRAM_BPS, SRAM_READ_CYCLES, SRAM_WRITE_CYCLES,
};
use npr_ixp::{MemCtl, Rw};
use npr_sim::{ps_to_cycles, Time};

/// A paper-vs-measured pair.
#[derive(Debug, Clone)]
pub struct PaperVsMeasured {
    /// Row label.
    pub label: String,
    /// The paper's value.
    pub paper: f64,
    /// Our measurement.
    pub measured: f64,
    /// Unit for display.
    pub unit: &'static str,
}

impl PaperVsMeasured {
    /// Relative deviation from the paper, in percent.
    pub fn deviation_pct(&self) -> f64 {
        if self.paper == 0.0 {
            0.0
        } else {
            (self.measured - self.paper) / self.paper * 100.0
        }
    }
}

/// Table 1: maximum packet rates by queueing discipline.
pub fn table1(warmup: Time, window: Time) -> Vec<PaperVsMeasured> {
    let configs: Vec<(&str, f64, RouterConfig)> = vec![
        (
            "(I.1) private queues in regs",
            3.75,
            RouterConfig::table1_input(InputDiscipline::PrivatePerCtx, false),
        ),
        (
            "(I.2) protected public queues, no contention",
            3.47,
            RouterConfig::table1_input(InputDiscipline::ProtectedShared, false),
        ),
        (
            "(I.3) protected public queues, max contention",
            1.67,
            RouterConfig::table1_input(InputDiscipline::ProtectedShared, true),
        ),
        (
            "(O.1) single queue with batching",
            3.78,
            RouterConfig::table1_output(OutputDiscipline::SingleBatched),
        ),
        (
            "(O.2) single queue without batching",
            3.41,
            RouterConfig::table1_output(OutputDiscipline::SingleUnbatched),
        ),
        (
            "(O.3) multiple queues with indirection",
            3.29,
            RouterConfig::table1_output(OutputDiscipline::MultiIndirect),
        ),
        (
            "fastest feasible system (I.2 + O.1)",
            3.47,
            RouterConfig::table1_system(),
        ),
    ];
    configs
        .into_iter()
        .map(|(label, paper, cfg)| {
            let mut r = Router::new(cfg);
            let rep = r.measure(warmup, window);
            PaperVsMeasured {
                label: label.to_string(),
                paper,
                measured: rep.forward_mpps,
                unit: "Mpps",
            }
        })
        .collect()
}

/// Table 2: per-MP instruction and memory-operation counts for the
/// I.2 + O.1 system, measured from the running loops.
pub fn table2(warmup: Time, window: Time) -> Vec<PaperVsMeasured> {
    let mut r = Router::new(RouterConfig::table1_system());
    let rep = r.measure(warmup, window);
    vec![
        PaperVsMeasured {
            label: "input reg ops / MP".into(),
            paper: 171.0,
            measured: rep.input_reg_per_mp,
            unit: "cycles",
        },
        PaperVsMeasured {
            label: "output reg ops / MP".into(),
            paper: 109.0,
            measured: rep.output_reg_per_mp,
            unit: "cycles",
        },
        PaperVsMeasured {
            label: "input DRAM writes / MP".into(),
            paper: 2.0,
            measured: f64::from(INPUT_MEM_OPS.dram_w),
            unit: "ops",
        },
        PaperVsMeasured {
            label: "input SRAM (r+w) / MP".into(),
            paper: 3.0,
            measured: f64::from(INPUT_MEM_OPS.sram_r + INPUT_MEM_OPS.sram_w),
            unit: "ops",
        },
        PaperVsMeasured {
            label: "input Scratch (r+w) / MP".into(),
            paper: 6.0,
            measured: f64::from(INPUT_MEM_OPS.scratch_r + INPUT_MEM_OPS.scratch_w),
            unit: "ops",
        },
        PaperVsMeasured {
            label: "output DRAM reads / MP".into(),
            paper: 2.0,
            measured: f64::from(OUTPUT_MEM_OPS.dram_r),
            unit: "ops",
        },
        PaperVsMeasured {
            label: "output SRAM (r+w) / MP".into(),
            paper: 1.0,
            measured: f64::from(OUTPUT_MEM_OPS.sram_r + OUTPUT_MEM_OPS.sram_w),
            unit: "ops",
        },
        PaperVsMeasured {
            label: "output Scratch (r+w) / MP".into(),
            paper: 8.0,
            measured: f64::from(OUTPUT_MEM_OPS.scratch_r + OUTPUT_MEM_OPS.scratch_w),
            unit: "ops",
        },
    ]
}

/// Table 3: uncontended memory latencies in MicroEngine cycles,
/// measured by round-tripping the modeled controllers.
pub fn table3() -> Vec<PaperVsMeasured> {
    let mk = |name: &str, ctl: &mut MemCtl, bytes: usize, paper_r: f64, paper_w: f64| {
        let r = ps_to_cycles(ctl.access(0, Rw::Read, bytes)) as f64;
        // Measure the write at an idle instant far in the future to
        // avoid pipeline occupancy from the read probe.
        let t0 = 1_000_000_000;
        let w = ps_to_cycles(ctl.access(t0, Rw::Write, bytes) - t0) as f64;
        vec![
            PaperVsMeasured {
                label: format!("{name} read ({bytes} B)"),
                paper: paper_r,
                measured: r,
                unit: "cycles",
            },
            PaperVsMeasured {
                label: format!("{name} write ({bytes} B)"),
                paper: paper_w,
                measured: w,
                unit: "cycles",
            },
        ]
    };
    let mut out = Vec::new();
    let mut dram = MemCtl::new("dram", DRAM_READ_CYCLES, DRAM_WRITE_CYCLES, DRAM_BPS);
    out.extend(mk("DRAM", &mut dram, 32, 52.0, 40.0));
    let mut sram = MemCtl::new("sram", SRAM_READ_CYCLES, SRAM_WRITE_CYCLES, SRAM_BPS);
    out.extend(mk("SRAM", &mut sram, 4, 22.0, 22.0));
    let mut scratch = MemCtl::new(
        "scratch",
        SCRATCH_READ_CYCLES,
        SCRATCH_WRITE_CYCLES,
        SCRATCH_BPS,
    );
    out.extend(mk("Scratch", &mut scratch, 4, 16.0, 20.0));
    out
}

/// Table 4: maximum Pentium-path forwarding rate and spare cycles.
pub fn table4(warmup: Time, window: Time) -> Vec<PaperVsMeasured> {
    let mut out = Vec::new();
    // 64-byte packets, full transfer (the paper's measurement loop
    // reads the whole packet and writes it back).
    let mut r = Router::new(RouterConfig::pentium_path(60));
    let rep = r.measure(warmup, window);
    out.push(PaperVsMeasured {
        label: "64 B rate".into(),
        paper: 534.0,
        measured: rep.pe_kpps,
        unit: "Kpps",
    });
    out.push(PaperVsMeasured {
        label: "64 B spare Pentium cycles".into(),
        paper: 500.0,
        measured: rep.pe_spare_cycles,
        unit: "cycles",
    });
    out.push(PaperVsMeasured {
        label: "64 B spare StrongARM cycles".into(),
        paper: 0.0,
        measured: rep.sa_spare_cycles,
        unit: "cycles",
    });
    // 1500-byte packets.
    let mut r = Router::new(RouterConfig::pentium_path(1500));
    let rep = r.measure(warmup, window.max(ms(8)));
    out.push(PaperVsMeasured {
        label: "1500 B rate".into(),
        paper: 43.6,
        measured: rep.pe_kpps,
        unit: "Kpps",
    });
    out.push(PaperVsMeasured {
        label: "1500 B spare Pentium cycles".into(),
        paper: 800.0,
        measured: rep.pe_spare_cycles,
        unit: "cycles",
    });
    out
}

/// Table 5: forwarder costs (static analysis of the bytecode).
pub fn table5_rows() -> Vec<(String, PaperVsMeasured, PaperVsMeasured)> {
    npr_forwarders::table5()
        .expect("builtin rows assemble")
        .into_iter()
        .map(|row| {
            (
                row.name.to_string(),
                PaperVsMeasured {
                    label: format!("{} SRAM bytes", row.name),
                    paper: f64::from(row.paper_sram_bytes),
                    measured: f64::from(row.sram_bytes),
                    unit: "bytes",
                },
                PaperVsMeasured {
                    label: format!("{} register ops", row.name),
                    paper: f64::from(row.paper_reg_ops),
                    measured: f64::from(row.reg_ops),
                    unit: "instrs",
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_orderings_hold() {
        let rows = table1(npr_core::ms(1), npr_core::ms(2));
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label.contains(label))
                .unwrap()
                .measured
        };
        // I.1 > I.2 > I.3 and O.1 > O.2 > O.3 — the paper's orderings.
        assert!(get("I.1") > get("I.2"));
        assert!(get("I.2") > get("I.3"));
        assert!(get("O.1") > get("O.2"));
        assert!(get("O.2") > get("O.3"));
        // Every row within 12% of the paper.
        for r in &rows {
            assert!(
                r.deviation_pct().abs() < 12.0,
                "{}: {:.2} vs {:.2}",
                r.label,
                r.measured,
                r.paper
            );
        }
    }

    #[test]
    fn table3_is_exact() {
        for r in table3() {
            assert_eq!(r.measured, r.paper, "{}", r.label);
        }
    }

    #[test]
    fn table4_64b_matches() {
        let rows = table4(npr_core::ms(1), npr_core::ms(4));
        let rate = &rows[0];
        assert!(rate.deviation_pct().abs() < 5.0, "{rate:?}");
    }
}
