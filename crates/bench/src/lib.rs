//! `npr-bench`: the experiment harness.
//!
//! One function per table and figure of the paper's evaluation. Each
//! returns structured results carrying both the paper's published value
//! and our measured value; the `experiments` binary formats them. The
//! experiments that record a `BENCH_*.json` file build it as one
//! [`npr_check::json::Value`], which is both the file and, through
//! [`fmt::value`], the text the binary prints.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p npr-bench --bin experiments -- all
//! ```

/// Declares one row of a BENCH file: the struct as written, plus its
/// `npr_check::json::Value` with one member per field, keyed by the
/// field's name, in field order. A float field names the decimals it
/// is published at after `=`; every other field converts as is.
macro_rules! bench_row {
    ($(#[$m:meta])* pub struct $name:ident {
        $($(#[$fm:meta])* pub $f:ident: $t:ty $(= $d:literal)?,)*
    }) => {
        $(#[$m])*
        pub struct $name {
            $($(#[$fm])* pub $f: $t,)*
        }

        impl From<&$name> for npr_check::json::Value {
            fn from(r: &$name) -> Self {
                npr_check::obj! { $(stringify!($f) => bench_row!(@value r.$f $(, $d)?)),* }
            }
        }
    };
    (@value $x:expr) => { npr_check::json::Value::from($x) };
    (@value $x:expr, $d:literal) => { npr_check::json::fixed($x, $d) };
}

pub mod exp_ablations;
pub mod exp_backend;
pub mod exp_baseline;
pub mod exp_control;
pub mod exp_fabric;
pub mod exp_faults;
pub mod exp_figures;
pub mod exp_qos;
pub mod exp_recovery;
pub mod exp_robustness;
pub mod exp_route;
pub mod exp_tables;
pub mod fmt;

pub use exp_backend::{backend_axis, BackendAxis};
pub use exp_baseline::{baseline, BaselineResult};
pub use exp_control::{control_json, control_storm, ControlResult};
pub use exp_fabric::{
    fabric_experiment, fabric_json, fabric_scaling, fabric_soak, FabricResult, FABRIC_SIZES,
};
pub use exp_faults::{
    curves_json, fault_curve, fault_curves, fault_curves_threaded, FaultCurve, DEGRADE_RATES,
};
pub use exp_figures::{fig10, fig7, fig9, Fig10Point, Fig7Result, Fig9Series};
pub use exp_qos::{qos_experiment, qos_json, QosResult};
pub use exp_recovery::{recovery, recovery_json, RecoveryResult, RECOVERY_SEED};
pub use exp_robustness::{budget, flood, linerate, robustness, slowpath, strongarm};
pub use exp_route::{route_experiment, route_json, RouteResult};
pub use exp_tables::{table1, table2, table3, table4, table5_rows, PaperVsMeasured};

/// Default warmup for measurement windows (simulated time).
pub const WARMUP: npr_sim::Time = npr_core::ms(1);

/// Default measurement window (simulated time).
pub const WINDOW: npr_sim::Time = npr_core::ms(4);

/// Short window for `simbench`'s per-experiment wall-clocks and the
/// control-storm unit test.
pub const BENCH_WINDOW: npr_sim::Time = npr_core::ms(1);

/// Writes `v` as a BENCH file to the path following `--out`, when one
/// was given. Panics with the path when the write fails.
pub fn write_out(args: &[String], v: &npr_check::json::Value) {
    if let Some(p) = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)) {
        std::fs::write(p, v.document()).unwrap_or_else(|e| panic!("write {p}: {e}"));
        eprintln!("wrote {p}");
    }
}

/// Applies one gate's verdict: prints the `Ok` line, or prints the
/// `Err` as an `ERROR:` line on stderr and exits nonzero.
pub fn gate(verdict: Result<String, String>) {
    match verdict {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ERROR: {e}");
            std::process::exit(1);
        }
    }
}
