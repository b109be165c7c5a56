//! Multi-chassis scaling: aggregate forwarding rate vs chassis count
//! per fabric topology, plus a compound-fault conservation soak.
//!
//! The paper stops at one Pentium/IXP pair and sketches "multiple
//! network processors behind a switch" as future work. These sweeps
//! quantify that sketch under the [`npr_fabric`] topologies:
//!
//! 1. **Scaling** — aggregate external Mpps as the cluster grows
//!    (1/2/4/8 chassis), per topology, under Zipf-ranked destinations
//!    spanning every member's subnets (so `(n-1)/n` of the offered
//!    load crosses the fabric). The single-switch topology keeps ideal
//!    links; ring and spine/leaf pay modeled gigabit serialization, so
//!    transit contention is visible — the ring flattens as hop counts
//!    grow while spine/leaf holds its slope.
//! 2. **Soak** — every fault class armed on every member of a 4-chassis
//!    fabric, one run per topology, drained to quiescence and audited
//!    against whole-fabric packet conservation. Each run records
//!    `conservation_holds`; [`FabricResult::gate`] fails on any `false`.

use npr_check::json::Value;
use npr_check::obj;
use npr_core::{ms, us, RouterConfig};
use npr_fabric::{Fabric, FabricConfig, Topology};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{FaultClass, FaultPlan, Time};
use npr_traffic::{CbrSource, FrameSpec, ZipfSource};

/// Chassis counts for the scaling sweep (1 = plain-router baseline).
pub const FABRIC_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Per-port offered rate for the scaling sweep (the paper's 95% tulip
/// source), packets per second.
pub const FABRIC_PPS: f64 = 141_000.0;

/// Zipf exponent for the destination popularity ranking.
pub const FABRIC_ALPHA: f64 = 1.0;

bench_row! {
    /// One point of the scaling sweep.
    #[derive(Debug, Clone)]
    pub struct FabricScalePoint {
        /// Topology name (`single_switch`, `ring`, `spine_leaf`).
        pub topology: &'static str,
        /// Cluster size.
        pub chassis: usize,
        /// Lockstep threads the run used.
        pub threads: usize,
        /// Aggregate offered load (all external ports), Mpps.
        pub offered_mpps: f64 = 4,
        /// Aggregate delivered external rate over the window, Mpps.
        pub external_mpps: f64 = 4,
        /// Frames carried across the fabric during the whole run.
        pub switched: u64,
        /// Frames dropped at modeled inter-chassis links (serialization
        /// queue overflow) during the whole run.
        pub link_drops: u64,
    }
}

bench_row! {
    /// One compound-fault soak run.
    #[derive(Debug, Clone)]
    pub struct FabricSoakPoint {
        /// Topology name.
        pub topology: &'static str,
        /// Cluster size.
        pub chassis: usize,
        /// Faults injected across all members.
        pub injected: u64,
        /// Watchdog resets across all members.
        pub sa_resets: u64,
        /// Fabric-level drops (switch + link + fenced + assembly).
        pub fabric_drops: u64,
        /// Whether whole-fabric packet conservation held after the drain.
        pub conservation_holds: bool,
    }
}

/// Both sweeps.
#[derive(Debug, Clone)]
pub struct FabricResult {
    /// Aggregate Mpps vs chassis count, per topology.
    pub scaling: Vec<FabricScalePoint>,
    /// Compound-fault conservation soaks, per topology.
    pub soak: Vec<FabricSoakPoint>,
}

fn config(topology: Topology, n: usize, base: RouterConfig) -> FabricConfig {
    match topology {
        Topology::SingleSwitch => FabricConfig::single_switch(n, base),
        Topology::Ring => FabricConfig::ring(n, base),
        Topology::SpineLeaf { .. } => FabricConfig::spine_leaf(n, base),
    }
}

/// Destination universe spanning every member's subnets: 16 hosts per
/// /16, Zipf-ranked by the sources. With `n` members a uniform pick
/// crosses the fabric with probability `(n-1)/n`.
fn fabric_dsts(n: usize) -> Vec<u32> {
    (0..n * 8)
        .flat_map(|net| (1..=16u8).map(move |h| u32::from_be_bytes([10, net as u8, 0, h])))
        .collect()
}

/// The fabric `cfg` describes with a Zipf mix on every external port of
/// every member, addressed across every member's subnets.
pub fn zipf_fabric(cfg: FabricConfig) -> Fabric {
    let n = cfg.members.len();
    let mut f = Fabric::new(cfg);
    let dsts = fabric_dsts(n);
    for k in 0..n {
        for p in 0..8 {
            f.member_mut(k).attach_source(
                p,
                Box::new(ZipfSource::new(
                    FrameSpec::default(),
                    FABRIC_PPS,
                    dsts.clone(),
                    FABRIC_ALPHA,
                    0xFA_B00 + (k * 8 + p) as u64,
                    u64::MAX,
                )),
            );
        }
    }
    f
}

/// One scaling measurement: Zipf mixes on every external port of every
/// member, warmup, then a marked window under the lockstep engine.
pub fn fabric_scale_point(
    topology: Topology,
    n: usize,
    warmup: Time,
    window: Time,
) -> FabricScalePoint {
    let mut f = zipf_fabric(config(topology, n, RouterConfig::line_rate()));
    let threads = n.min(8);
    f.run_lockstep(warmup, threads);
    f.mark();
    f.run_lockstep(warmup + window, threads);
    let rep = f.report();
    FabricScalePoint {
        topology: topology.name(),
        chassis: n,
        threads,
        offered_mpps: FABRIC_PPS * 8.0 * n as f64 / 1e6,
        external_mpps: rep.external_mpps,
        switched: rep.switched,
        link_drops: rep.link_drops,
    }
}

/// The scaling sweep: every topology at every size it supports (ring
/// and spine/leaf need at least 2 members; the 1-chassis baseline is
/// measured once, under the single-switch config where the lone member
/// is a plain router).
pub fn fabric_scaling(warmup: Time, window: Time, sizes: &[usize]) -> Vec<FabricScalePoint> {
    let mut out = Vec::new();
    for &topology in &[
        Topology::SingleSwitch,
        Topology::Ring,
        Topology::SpineLeaf { spines: 2 },
    ] {
        for &n in sizes {
            if n < 2 && topology != Topology::SingleSwitch {
                continue;
            }
            out.push(fabric_scale_point(topology, n, warmup, window));
        }
    }
    out
}

/// Compound rates for the soak — the fault suite's corpus, halved
/// (every member runs the whole plan at once).
fn soak_rate(class: FaultClass) -> u32 {
    match class {
        FaultClass::MemStall => 500,
        FaultClass::DmaSlow => 2_500,
        FaultClass::TokenDrop => 250,
        FaultClass::TokenDuplicate => 1_250,
        FaultClass::PortFlap => 500,
        FaultClass::MpCorrupt => 2_500,
        FaultClass::PciError => 25_000,
        FaultClass::SaWedge => 15_000,
    }
}

/// One conservation soak: finite ring cross-traffic plus a local
/// stream per member, the full compound plan on every member, run then
/// drained to quiescence and audited.
pub fn fabric_soak_point(topology: Topology, n: usize, horizon: Time) -> FabricSoakPoint {
    let mut base = RouterConfig::line_rate();
    // Keep the StrongARM and PCI bus busy so the wedge and PCI
    // injectors have real targets (same diversion as the soak tests).
    base.divert_sa_permille = 100;
    base.divert_pe_permille = 30;
    let mut f = Fabric::new(config(topology, n, base));
    for k in 0..n {
        let dst_net = (((k + 1) % n) * 8) as u8;
        f.member_mut(k).attach_source(
            0,
            Box::new(CbrSource::new(
                100_000_000,
                0.5,
                FrameSpec {
                    dst: u32::from_be_bytes([10, dst_net, 0, 1]),
                    ..Default::default()
                },
                200,
            )),
        );
        f.member_mut(k).attach_cbr(1, 0.4, 100, (k * 8 + 4) as u8);
        let mut plan = FaultPlan::new(0xFAB_50AC ^ ((k as u64) << 13));
        for &c in &FAULT_CLASSES {
            plan.set_rate(c, soak_rate(c));
        }
        f.member_mut(k).set_fault_plan(Some(plan));
    }
    f.run_lockstep(horizon, n.min(8));
    let drained = f.drain(us(100), 4_000);
    let c = f.conservation();
    FabricSoakPoint {
        topology: topology.name(),
        chassis: n,
        injected: f
            .members()
            .map(|r| r.fault_plan().map_or(0, |p| p.total_injected()))
            .sum(),
        sa_resets: f.members().map(|r| r.health.stats.sa_resets).sum(),
        fabric_drops: f.total_drops(),
        conservation_holds: drained && c.holds(),
    }
}

/// The soak sweep: one compound run per topology at 4 chassis.
pub fn fabric_soak(horizon: Time) -> Vec<FabricSoakPoint> {
    [
        Topology::SingleSwitch,
        Topology::Ring,
        Topology::SpineLeaf { spines: 2 },
    ]
    .iter()
    .map(|&t| fabric_soak_point(t, 4, horizon))
    .collect()
}

/// Runs both sweeps at experiment durations.
pub fn fabric_experiment() -> FabricResult {
    FabricResult {
        scaling: fabric_scaling(ms(1), ms(4), &FABRIC_SIZES),
        soak: fabric_soak(ms(6)),
    }
}

/// Both sweeps as `BENCH_fabric.json`'s value.
pub fn fabric_json(r: &FabricResult) -> Value {
    let scaling: Value = r.scaling.iter().map(Value::from).collect();
    let soak: Value = r.soak.iter().map(Value::from).collect();
    obj! {"schema" => 1, "scaling" => scaling, "soak" => soak}
}

impl FabricResult {
    /// The conservation gate: every compound-fault soak must report
    /// whole-fabric packet conservation holding, and there must be at
    /// least one. `Ok` carries the line to print, `Err` the failure.
    pub fn gate(&self) -> Result<String, String> {
        if !self.soak.iter().any(|p| p.conservation_holds) {
            return Err("BENCH_fabric.json carries no conservation results".into());
        }
        if self.soak.iter().any(|p| !p.conservation_holds) {
            return Err("whole-fabric conservation broke in a BENCH_fabric.json soak".into());
        }
        Ok("fabric: conservation holds in every compound-fault soak".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_points_deliver_and_switch() {
        let pts = fabric_scaling(ms(1), ms(2), &[1, 2]);
        // single_switch {1,2} + ring {2} + spine_leaf {2}.
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.external_mpps > 0.0, "{p:?}");
            if p.chassis > 1 {
                assert!(p.switched > 0, "no cross-chassis traffic: {p:?}");
            }
        }
        // Two chassis must out-forward one in aggregate.
        assert!(pts[1].external_mpps > pts[0].external_mpps);
    }

    #[test]
    fn soak_conserves_on_every_topology() {
        let horizon = ms(6);
        for t in [
            Topology::SingleSwitch,
            Topology::Ring,
            Topology::SpineLeaf { spines: 2 },
        ] {
            let p = fabric_soak_point(t, 3, horizon);
            assert!(p.injected > 0, "{p:?}");
            assert!(p.conservation_holds, "{p:?}");
        }
    }

    fn soak(conservation_holds: bool) -> FabricSoakPoint {
        FabricSoakPoint {
            topology: "spine_leaf",
            chassis: 4,
            injected: 99,
            sa_resets: 3,
            fabric_drops: 7,
            conservation_holds,
        }
    }

    #[test]
    fn fabric_json_is_well_formed() {
        let j = fabric_json(&FabricResult {
            scaling: vec![FabricScalePoint {
                topology: "ring",
                chassis: 4,
                threads: 4,
                offered_mpps: 4.512,
                external_mpps: 3.9,
                switched: 1000,
                link_drops: 2,
            }],
            soak: vec![soak(true)],
        });
        assert_eq!(j["soak"][0]["conservation_holds"], Value::Bool(true));
        assert_eq!(j["scaling"][0]["topology"], Value::from("ring"));
    }

    #[test]
    fn gate_trips_on_a_broken_or_missing_soak() {
        let gate = |soak| {
            FabricResult {
                scaling: Vec::new(),
                soak,
            }
            .gate()
        };
        let ok = "fabric: conservation holds in every compound-fault soak";
        assert_eq!(gate(vec![soak(true), soak(true)]).unwrap(), ok);
        let broken = "whole-fabric conservation broke in a BENCH_fabric.json soak";
        assert_eq!(gate(vec![soak(true), soak(false)]).unwrap_err(), broken);
        let missing = "BENCH_fabric.json carries no conservation results";
        assert_eq!(gate(Vec::new()).unwrap_err(), missing);
    }
}
