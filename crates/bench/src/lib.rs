//! `npr-bench`: the experiment harness.
//!
//! One function per table and figure of the paper's evaluation. Each
//! returns structured results carrying both the paper's published value
//! and our measured value; the `experiments` binary formats them.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p npr-bench --bin experiments -- all
//! ```

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
