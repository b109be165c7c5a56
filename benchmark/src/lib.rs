//! `npr-benchmark`: the repository's two-clock benchmark.
//!
//! The simulator has two clocks. *Simulated* metrics say what the
//! modelled router does (Mpps, latency, loss) and repeat exactly for a
//! seed; *host* metrics say what the simulator costs to run (simulated
//! microseconds per host second, set-up, memory). A host-only
//! optimisation must move the second kind and leave the first
//! bit-identical; a model change does the reverse. See `README.md`.

use std::collections::BTreeMap;

pub mod counts;
pub mod kernels;
pub mod report;
pub mod run;
pub mod spec;
pub mod trace;
pub mod workload;

/// Metric values by name, filled by a run and read back against the
/// tables in [`spec`].
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}
