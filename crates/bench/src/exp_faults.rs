//! Graceful degradation under the deterministic fault plane.
//!
//! The paper's robustness argument (section 4.7) is qualitative:
//! a robust router keeps forwarding when parts of it misbehave. The
//! fault plane makes that measurable — this experiment sweeps each
//! injector class's rate from zero to heavy and records the sustained
//! forwarding rate. The curves must degrade *gracefully*: monotone in
//! the fault rate, with no cliff where a marginally higher rate
//! collapses the router (livelock, deadlock, or counter blow-up would
//! all show up as a cliff or as a conservation failure in the fault
//! suite).
//!
//! Every point is a fresh router with a fixed-seed [`FaultPlan`], so
//! the whole sweep is reproducible bit-for-bit.

use npr_check::json::{fixed, Value};
use npr_check::obj;
use npr_core::{Router, RouterConfig};
use npr_sim::{scatter, FaultClass, FaultPlan, Time};

/// Seed for every curve's fault plan; per-class streams diverge inside
/// the plan, so one constant keeps the sweep reproducible.
pub const DEGRADE_SEED: u64 = 0xDE6_0ADE;

/// Injection rates swept, in parts-per-million per injector roll.
pub const DEGRADE_RATES: &[u32] = &[0, 5_000, 20_000, 80_000, 320_000];

/// Classes with a per-packet (or per-access) cost model that should
/// degrade throughput smoothly. Token faults recover via the ring's
/// re-issue path and PCI errors only touch diverted traffic, so their
/// rate response is a step, not a curve — the fault *suite* covers
/// them; the degradation *experiment* sweeps these four.
pub const DEGRADE_CLASSES: &[FaultClass] = &[
    FaultClass::MemStall,
    FaultClass::DmaSlow,
    FaultClass::MpCorrupt,
    FaultClass::PortFlap,
];

/// One class's degradation curve.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCurve {
    /// Injector class swept.
    pub class: FaultClass,
    /// Injection rates, ppm.
    pub rates_ppm: Vec<u32>,
    /// Sustained forwarding rate at each point.
    pub mpps: Vec<f64>,
    /// Faults actually injected at each point (schedule evidence).
    pub injected: Vec<u64>,
}

/// Human-readable scenario tag per class (recorded in the JSON).
pub fn scenario_name(class: FaultClass) -> &'static str {
    match class {
        FaultClass::MemStall | FaultClass::DmaSlow => "saturated table1 system",
        _ => "line rate, 8 ports at 0.9 load",
    }
}

/// Each class measures on the scenario where its cost is throughput,
/// not just latency. Stall-type faults (memory, DMA) consume
/// processing capacity: visible only on the saturated, processing-
/// bound Table 1 system — at sub-capacity load the slack absorbs them
/// as latency. Loss-type faults (corruption, flaps) destroy delivered
/// packets: cleanest on the port-bound line-rate system, where a
/// single lost MP costs exactly one packet instead of stalling the
/// saturated shared pipeline.
fn loaded_router(class: FaultClass) -> Router {
    match class {
        FaultClass::MemStall | FaultClass::DmaSlow => {
            Router::new(RouterConfig::table1_system())
        }
        _ => {
            let mut r = Router::new(RouterConfig::line_rate());
            for p in 0..8 {
                r.attach_cbr(p, 0.9, u64::MAX, ((p + 1) % 8) as u8);
            }
            r
        }
    }
}

/// Sweeps one class across `rates`.
pub fn fault_curve(class: FaultClass, rates: &[u32], warmup: Time, window: Time) -> FaultCurve {
    let mut mpps = Vec::new();
    let mut injected = Vec::new();
    for &ppm in rates {
        let mut r = loaded_router(class);
        r.set_fault_plan(Some(FaultPlan::new(DEGRADE_SEED).with_rate(class, ppm)));
        mpps.push(r.measure(warmup, window).forward_mpps);
        injected.push(r.fault_plan().map_or(0, |p| p.injected(class)));
    }
    FaultCurve {
        class,
        rates_ppm: rates.to_vec(),
        mpps,
        injected,
    }
}

/// Sweeps every class in [`DEGRADE_CLASSES`] sequentially.
pub fn fault_curves(rates: &[u32], warmup: Time, window: Time) -> Vec<FaultCurve> {
    DEGRADE_CLASSES
        .iter()
        .map(|&c| fault_curve(c, rates, warmup, window))
        .collect()
}

/// The same sweep with the independent `(class, rate)` points fanned
/// across `threads` worker threads ([`npr_sim::scatter`]). Every point
/// is a fresh router with a fixed-seed plan, so the result is
/// bit-identical to [`fault_curves`] at every thread count — pinned by
/// `threaded_sweep_matches_the_sequential_sweep` below, and the
/// equality the simbench `threads` axis refuses to publish without.
pub fn fault_curves_threaded(
    rates: &[u32],
    warmup: Time,
    window: Time,
    threads: usize,
) -> Vec<FaultCurve> {
    let per = rates.len();
    let points = scatter(DEGRADE_CLASSES.len() * per, threads, |i| {
        let class = DEGRADE_CLASSES[i / per];
        let ppm = rates[i % per];
        let mut r = loaded_router(class);
        r.set_fault_plan(Some(FaultPlan::new(DEGRADE_SEED).with_rate(class, ppm)));
        let mpps = r.measure(warmup, window).forward_mpps;
        (mpps, r.fault_plan().map_or(0, |p| p.injected(class)))
    });
    DEGRADE_CLASSES
        .iter()
        .enumerate()
        .map(|(ci, &class)| {
            let chunk = &points[ci * per..(ci + 1) * per];
            FaultCurve {
                class,
                rates_ppm: rates.to_vec(),
                mpps: chunk.iter().map(|p| p.0).collect(),
                injected: chunk.iter().map(|p| p.1).collect(),
            }
        })
        .collect()
}

/// The sweep as `BENCH_faults.json`'s value.
pub fn curves_json(curves: &[FaultCurve]) -> Value {
    let curve = |c: &FaultCurve| {
        let rows = c.rates_ppm.iter().zip(&c.mpps).zip(&c.injected);
        let points = rows.map(|((&ppm, &mpps), &inj)| {
            obj! {"rate_ppm" => ppm, "mpps" => fixed(mpps, 4), "injected" => inj}
        });
        let (class, scenario) = (format!("{:?}", c.class), scenario_name(c.class));
        obj! {"class" => class, "scenario" => scenario, "points" => points.collect::<Value>()}
    };
    let curves: Value = curves.iter().map(curve).collect();
    obj! {"schema" => 1, "seed" => DEGRADE_SEED, "curves" => curves}
}

#[cfg(test)]
mod tests {
    use super::*;
    use npr_core::ms;

    /// The headline property: more faults never means *more*
    /// throughput, heavy fault rates never collapse the router, and
    /// the injectors really fired.
    #[test]
    fn degradation_is_graceful_monotone_and_cliff_free() {
        for c in fault_curves(DEGRADE_RATES, ms(1), ms(1)) {
            let name = format!("{:?}", c.class);
            assert!(c.mpps[0] > 0.9, "{name}: fault-free baseline {:.3}", c.mpps[0]);
            assert_eq!(c.injected[0], 0, "{name}: rate 0 must inject nothing");
            assert!(
                c.injected.last().unwrap() > &0,
                "{name}: heaviest point injected nothing — the sweep is vacuous"
            );
            for i in 1..c.mpps.len() {
                // Monotone: a higher rate may only cost throughput
                // (2% tolerance for schedule-level ripple).
                assert!(
                    c.mpps[i] <= c.mpps[i - 1] * 1.02,
                    "{name}: rate {} ppm gained throughput: {:.3} -> {:.3}",
                    c.rates_ppm[i],
                    c.mpps[i - 1],
                    c.mpps[i]
                );
                // No cliff: each 4x rate step keeps at least a fifth
                // of the previous point's throughput. Degradation may
                // be steep (PortFlap's down-windows compound) but
                // never a collapse where one step livelocks the
                // router or zeroes the fast path.
                assert!(
                    c.mpps[i] >= c.mpps[i - 1] * 0.2,
                    "{name}: cliff at {} ppm: {:.3} -> {:.3}",
                    c.rates_ppm[i],
                    c.mpps[i - 1],
                    c.mpps[i]
                );
            }
            // And even the heaviest rate keeps the router forwarding.
            let floor = c.mpps.last().unwrap() / c.mpps[0];
            assert!(
                floor > 0.1,
                "{name}: heaviest rate collapsed throughput to {:.1}% of baseline",
                floor * 100.0
            );
        }
    }

    /// The parallel sweep is the sequential sweep, bit for bit, at
    /// every thread count (including oversubscription of a small
    /// host). `f64` equality is exact here by design: identical inputs
    /// through an identical deterministic simulation.
    #[test]
    fn threaded_sweep_matches_the_sequential_sweep() {
        let rates = &[0, 20_000];
        let (warmup, window) = (ms(1) / 5, ms(1) / 2);
        let oracle = fault_curves(rates, warmup, window);
        for threads in [2, 4, 8] {
            assert_eq!(
                fault_curves_threaded(rates, warmup, window, threads),
                oracle,
                "threads={threads} moved the sweep"
            );
        }
    }

    #[test]
    fn curves_json_is_well_formed() {
        let c = FaultCurve {
            class: npr_sim::FaultClass::MemStall,
            rates_ppm: vec![0, 10],
            mpps: vec![1.0, 0.5],
            injected: vec![0, 3],
        };
        let curve = &curves_json(&[c])["curves"][0];
        assert_eq!(curve["class"], Value::from("MemStall"));
        let point = obj! {"rate_ppm" => 10, "mpps" => fixed(0.5, 4), "injected" => 3};
        assert_eq!(curve["points"][1], point);
    }
}
