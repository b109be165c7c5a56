//! Queue management under overload: per-discipline sojourn-time
//! distributions and the flow-isolation curve.
//!
//! Two questions decide whether the per-flow queue manager earns its
//! memory budget:
//!
//! 1. **Tail latency** — with a standing overload, what sojourn time
//!    does each AQM discipline hand the packets it does deliver?
//!    Drop-tail lets the elephant's queue sit at its cap (bufferbloat);
//!    RED sheds early by occupancy; CoDel sheds by sojourn on the
//!    simulated clock. [`QosResult::gate`] holds CoDel's p99 to ≥2x
//!    better than drop-tail's.
//! 2. **Isolation** — as an unresponsive elephant ramps its offered
//!    load, do the paced victim flows keep their goodput? The per-flow
//!    hash gives the elephant its own queue, so its losses stay its
//!    own; the same gate holds victim goodput to ≥90% of offered.
//!
//! The scenario is the bufferbloat regime (~1.1x overload of one output
//! port at the top of the sweep), not a 2x slam: under extreme overload
//! no dequeue-side AQM can absorb the excess — drops are dominated by
//! the cap for every discipline and the disciplines converge. The
//! interesting, deployable regime is mild persistent overload, which is
//! where the curves separate.

use npr_check::json::Value;
use npr_check::obj;
use npr_core::{ms, AqmKind, Router, RouterConfig};
use npr_sim::Time;
use npr_traffic::{FrameSpec, TcpMixSource};

/// Paced victim flows sharing the contended port.
pub const VICTIMS: usize = 4;

/// Offered rate of each victim (packets per second) — far below fair
/// share, so goodput ≈ offered when isolation works.
pub const VICTIM_PPS: f64 = 5_000.0;

/// Elephant offered load for the sojourn comparison: with the victims
/// and the 0.3-fraction CBR aggressor, ~1.1x total overload of the
/// 148.8 Kpps output port.
pub const ELEPHANT_PPS: f64 = 100_000.0;

/// Elephant offered loads for the isolation curve (packets per second).
/// With the victims and the heavier 0.45-fraction aggressor these span
/// ~0.85x to ~1.26x of the output port's wire capacity. The cap of
/// 100 Kpps keeps the *input* port at ≤120 Kpps — within the paper's
/// 141 Kpps input budget — so the overload is genuinely contested at
/// the flow queues, not clipped upstream at packet reception.
pub const ELEPHANT_LOADS: [f64; 4] = [40_000.0, 60_000.0, 80_000.0, 100_000.0];

/// The three installable disciplines, in fixed report order.
pub const DISCIPLINES: [AqmKind; 3] = [AqmKind::DropTail, AqmKind::Red, AqmKind::Codel];

bench_row! {
    /// One discipline's sojourn distribution under the standard overload.
    #[derive(Debug, Clone)]
    pub struct SojournPoint {
        /// Discipline name (`drop_tail`, `red`, `codel`).
        pub aqm: &'static str,
        /// Median sojourn of delivered packets, microseconds.
        pub p50_us: f64 = 2,
        /// 99th-percentile sojourn, microseconds (gated).
        pub p99_us: f64 = 2,
        /// Worst delivered sojourn, microseconds.
        pub max_us: f64 = 2,
        /// Packets delivered from the flow queues.
        pub served: u64,
        /// RED admission drops.
        pub early_drops: u64,
        /// Per-flow cap drops.
        pub cap_drops: u64,
        /// CoDel sojourn drops.
        pub sojourn_drops: u64,
        /// Worst victim's delivered/offered ratio (gated).
        pub victim_goodput: f64 = 4,
    }
}

bench_row! {
    /// One point of the isolation curve.
    #[derive(Debug, Clone)]
    pub struct IsolationPoint {
        /// Discipline name.
        pub aqm: &'static str,
        /// Elephant offered load, packets per second.
        pub elephant_pps: f64 = 0,
        /// Worst victim's delivered/offered ratio (gated).
        pub victim_goodput: f64 = 4,
        /// Elephant's delivered/offered ratio (how hard it was shed).
        pub elephant_goodput: f64 = 4,
        /// Overall p99 sojourn at this load, microseconds.
        pub p99_us: f64 = 2,
    }
}

/// Both sweeps.
#[derive(Debug, Clone)]
pub struct QosResult {
    /// Sojourn distribution per discipline at the standard overload.
    pub sojourn: Vec<SojournPoint>,
    /// Victim/elephant goodput vs elephant offered load.
    pub isolation: Vec<IsolationPoint>,
}

fn aqm_name(aqm: AqmKind) -> &'static str {
    match aqm {
        AqmKind::DropTail => "drop_tail",
        AqmKind::Red => "red",
        AqmKind::Codel => "codel",
    }
}

/// Destination net 2 → the contended output port 2.
fn mix_spec() -> FrameSpec {
    FrameSpec {
        dst: u32::from_be_bytes([10, 2, 0, 1]),
        ..Default::default()
    }
}

fn victim_key(i: u16) -> npr_core::FlowKey {
    let spec = mix_spec();
    npr_core::FlowKey {
        src: spec.src,
        dst: spec.dst,
        sport: TcpMixSource::VICTIM_SPORT0 + i,
        dport: spec.dport,
    }
}

fn elephant_key() -> npr_core::FlowKey {
    npr_core::FlowKey {
        sport: TcpMixSource::ELEPHANT_SPORT,
        ..victim_key(0)
    }
}

/// The bufferbloat router: victims + elephant from port 0, a CBR
/// aggressor from port 1, all converging on port 2. The deeper 64-packet
/// cap (with the budget raised to keep 256 flows) is what lets drop-tail
/// bloat visibly; 32 packets would mute the comparison, not change it.
fn qos_router(aqm: AqmKind, elephant_pps: f64, cbr_fraction: f64) -> Router {
    let mut cfg = RouterConfig::per_flow_qos(aqm);
    cfg.qm_flow_cap = 64;
    cfg.qm_mem_budget_bytes = 8 << 20;
    let mut r = Router::new(cfg);
    r.attach_source(
        0,
        Box::new(TcpMixSource::new(mix_spec(), VICTIMS, VICTIM_PPS, elephant_pps, u64::MAX)),
    );
    r.attach_cbr(1, cbr_fraction, u64::MAX, 2);
    r
}

/// Runs one scenario and reduces it to (worst-victim goodput, elephant
/// goodput, qm stats). Measured over the whole run: the sources are
/// steady-state from t=0, so a warmup window would only shrink the
/// sample. Goodput is delivered/offered per flow queue, where offered
/// counts every arrival (admitted or shed at any of the three AQM drop
/// sites) and delivered excludes CoDel's dequeue-time discards.
fn run_scenario(aqm: AqmKind, elephant_pps: f64, cbr_fraction: f64, horizon: Time) -> (Router, f64, f64) {
    let mut r = qos_router(aqm, elephant_pps, cbr_fraction);
    r.run_until(horizon);
    let qm = r.world.qm.as_ref().expect("per_flow_qos installs the plane");
    let mut victim = 1.0f64;
    for i in 0..VICTIMS as u16 {
        let (offered, delivered, _) = qm.flow_stats(2, &victim_key(i));
        victim = victim.min(delivered as f64 / offered.max(1) as f64);
    }
    let (e_offered, e_delivered, _) = qm.flow_stats(2, &elephant_key());
    let elephant = e_delivered as f64 / e_offered.max(1) as f64;
    (r, victim, elephant)
}

/// Sojourn distribution per discipline at the standard overload.
pub fn sojourn_sweep(horizon: Time) -> Vec<SojournPoint> {
    DISCIPLINES
        .iter()
        .map(|&aqm| {
            let (r, victim, _) = run_scenario(aqm, ELEPHANT_PPS, 0.3, horizon);
            let qm = r.world.qm.as_ref().unwrap();
            let h = qm.sojourn_hist();
            SojournPoint {
                aqm: aqm_name(aqm),
                p50_us: h.percentile(50.0) as f64 / 1e6,
                p99_us: h.percentile(99.0) as f64 / 1e6,
                max_us: h.max() as f64 / 1e6,
                served: qm.sojourn_samples(),
                early_drops: qm.early_drops(),
                cap_drops: qm.cap_drops(),
                sojourn_drops: qm.sojourn_drops(),
                victim_goodput: victim,
            }
        })
        .collect()
}

/// Victim and elephant goodput vs elephant offered load, for the two
/// disciplines that bracket the design space (drop-tail and CoDel).
pub fn isolation_curve(horizon: Time) -> Vec<IsolationPoint> {
    let mut out = Vec::new();
    for &aqm in &[AqmKind::DropTail, AqmKind::Codel] {
        for &pps in &ELEPHANT_LOADS {
            let (r, victim, elephant) = run_scenario(aqm, pps, 0.45, horizon);
            let qm = r.world.qm.as_ref().unwrap();
            out.push(IsolationPoint {
                aqm: aqm_name(aqm),
                elephant_pps: pps,
                victim_goodput: victim,
                elephant_goodput: elephant,
                p99_us: qm.sojourn_hist().percentile(99.0) as f64 / 1e6,
            });
        }
    }
    out
}

/// Runs both sweeps at the standard 20 ms horizon (~3000 delivered
/// packets per point — enough for a stable p99 on the log histogram).
pub fn qos_experiment() -> QosResult {
    QosResult {
        sojourn: sojourn_sweep(ms(20)),
        isolation: isolation_curve(ms(20)),
    }
}

/// Both sweeps as `BENCH_qos.json`'s value.
pub fn qos_json(r: &QosResult) -> Value {
    let sojourn: Value = r.sojourn.iter().map(Value::from).collect();
    let isolation: Value = r.isolation.iter().map(Value::from).collect();
    obj! {"schema" => 1, "sojourn" => sojourn, "isolation" => isolation}
}

impl QosResult {
    /// The two QoS gates: CoDel holds p99 sojourn to at most half of
    /// drop-tail's (the point of a dequeue-time AQM), and no scenario
    /// pushes any victim flow's goodput below 90% (the point of per-flow
    /// queues). Judged on the figures as published; `Ok` carries the
    /// line to print.
    pub fn gate(&self) -> Result<String, String> {
        let p99 = |aqm| {
            let p = self.sojourn.iter().find(|p| p.aqm == aqm);
            Value::from(p.expect("the sweep runs every discipline"))["p99_us"].clone()
        };
        let (dt, cd) = (p99("drop_tail"), p99("codel"));
        if cd.as_f64() * 2.0 > dt.as_f64() {
            return Err(format!(
                "CoDel p99 sojourn {cd}us not 2x better than drop-tail {dt}us"
            ));
        }
        let rows = self.sojourn.iter().map(Value::from);
        let rows = rows.chain(self.isolation.iter().map(Value::from));
        let victims = rows.map(|r| r["victim_goodput"].clone());
        let starved: Vec<String> = victims
            .filter(|g| g.as_f64() < 0.9)
            .map(|g| g.to_string())
            .collect();
        if !starved.is_empty() {
            return Err(format!(
                "victim goodput under 0.9 in BENCH_qos.json: {}",
                starved.join("\n")
            ));
        }
        Ok(format!(
            "qos: codel p99 {cd}us vs drop-tail {dt}us; all victim goodputs >= 0.9"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codel_beats_drop_tail_by_2x_and_victims_keep_goodput() {
        let pts = sojourn_sweep(ms(10));
        assert_eq!(pts.len(), DISCIPLINES.len());
        let dt = &pts[0];
        let cd = &pts[2];
        assert_eq!((dt.aqm, cd.aqm), ("drop_tail", "codel"));
        for p in &pts {
            assert!(p.served > 500, "{}: {} served", p.aqm, p.served);
            assert!(
                p.victim_goodput >= 0.9,
                "{}: victim goodput {:.3}",
                p.aqm,
                p.victim_goodput
            );
        }
        // The same bar `QosResult::gate` holds the shipped run to.
        assert!(
            cd.p99_us * 2.0 <= dt.p99_us,
            "codel p99 {:.1}us vs drop-tail {:.1}us",
            cd.p99_us,
            dt.p99_us
        );
        // Each discipline sheds at its own site.
        assert!(dt.cap_drops > 0 && dt.early_drops == 0 && dt.sojourn_drops == 0);
        assert!(pts[1].early_drops > 0 && pts[1].cap_drops == 0);
        assert!(cd.sojourn_drops > 0 && cd.early_drops == 0);
    }

    #[test]
    fn isolation_holds_as_the_elephant_ramps() {
        let pts = isolation_curve(ms(10));
        assert_eq!(pts.len(), 2 * ELEPHANT_LOADS.len());
        for p in &pts {
            assert!(
                p.victim_goodput >= 0.9,
                "{} at {} pps: victim goodput {:.3}",
                p.aqm,
                p.elephant_pps,
                p.victim_goodput
            );
        }
        // At the top of the ramp the elephant is being shed hard while
        // the victims are untouched — that asymmetry is the isolation.
        let top = pts.iter().filter(|p| p.elephant_pps == ELEPHANT_LOADS[ELEPHANT_LOADS.len() - 1]);
        for p in top {
            assert!(
                p.elephant_goodput < 0.9,
                "{}: elephant goodput {:.3} at 1.27x overload",
                p.aqm,
                p.elephant_goodput
            );
        }
    }

    fn sojourn(aqm: &'static str, p99_us: f64) -> SojournPoint {
        SojournPoint {
            aqm,
            p50_us: 400.0,
            p99_us,
            max_us: 900.0,
            served: 3000,
            early_drops: 0,
            cap_drops: 120,
            sojourn_drops: 0,
            victim_goodput: 1.0,
        }
    }

    /// Drop-tail at 400 us p99, CoDel at `codel_p99`, one isolation
    /// point with `victim` goodput.
    fn result(codel_p99: f64, victim: f64) -> QosResult {
        QosResult {
            sojourn: vec![sojourn("drop_tail", 400.0), sojourn("codel", codel_p99)],
            isolation: vec![IsolationPoint {
                aqm: "codel",
                elephant_pps: 100_000.0,
                victim_goodput: victim,
                elephant_goodput: 0.62,
                p99_us: 130.0,
            }],
        }
    }

    #[test]
    fn qos_json_is_well_formed() {
        let j = qos_json(&result(760.5, 0.99));
        assert_eq!(j["sojourn"][1]["p99_us"].to_string(), "760.50");
        assert_eq!(j["isolation"][0]["victim_goodput"].to_string(), "0.9900");
        assert_eq!(j["isolation"][0]["elephant_pps"].to_string(), "100000");
    }

    #[test]
    fn gate_trips_on_a_codel_tail_or_a_starved_victim() {
        let ok = "qos: codel p99 200.00us vs drop-tail 400.00us; all victim goodputs >= 0.9";
        assert_eq!(result(200.0, 0.9).gate().unwrap(), ok);
        let tail = "CoDel p99 sojourn 200.01us not 2x better than drop-tail 400.00us";
        assert_eq!(result(200.01, 1.0).gate().unwrap_err(), tail);
        assert!(
            result(200.004, 1.0).gate().is_ok(),
            "judged as printed: 200.00"
        );
        let starved = "victim goodput under 0.9 in BENCH_qos.json: 0.8900";
        assert_eq!(result(100.0, 0.89).gate().unwrap_err(), starved);
    }
}

