//! Recovery benchmark: for each fault class, measure a fault-free
//! baseline, let the health monitor detect and recover from an injected
//! fault episode, then measure again — post-recovery throughput must
//! return to within 1% of the baseline, and the `Report` must carry the
//! recovery evidence (resets, quarantines, retry exhaustion, latency).
//!
//! Three fault classes, three recovery mechanisms:
//!
//! * **StrongARM wedge** — the watchdog soft-resets the SA and replays
//!   every verified install down the control path.
//! * **Forwarder budget overrun** — the escalation ladder quarantines
//!   the offender; its flows fall back to the default IP path.
//! * **PCI retry exhaustion** — bounded retries abandon poisoned
//!   transactions instead of spinning forever; removing the fault
//!   restores the diverted path.

use npr_check::json::Value;
use npr_check::obj;
use npr_core::Key;
use npr_core::{Report, Router, RouterConfig};
use npr_forwarders::slow::{full_ip_sa, FULL_IP_CYCLES};
use npr_sim::{FaultClass, FaultPlan, Time};

/// Seed for every fault episode (reproducible evidence).
pub const RECOVERY_SEED: u64 = 2001;

bench_row! {
    /// One fault class's baseline / fault / recovery triplet.
    #[derive(Debug, Clone)]
    pub struct RecoveryResult {
        /// Fault class label.
        pub class: &'static str,
        /// Fault-free throughput, Mpps.
        pub baseline_mpps: f64 = 6,
        /// Throughput while the fault raged, Mpps.
        pub faulted_mpps: f64 = 6,
        /// Throughput after detection + recovery, Mpps.
        pub recovered_mpps: f64 = 6,
        /// Post-recovery throughput as a fraction of baseline.
        pub recovered_ratio: f64 = 6,
        /// The health monitor's worst-case detection bound, us.
        pub detection_bound_us: f64 = 3,
        /// Mean detection-to-recovery latency observed in the fault
        /// window, us (0 when the mechanism is not latency-tracked).
        pub recovery_latency_avg_us: f64 = 3,
        /// StrongARM soft resets recorded in the fault window.
        pub sa_resets: u64,
        /// Quarantines recorded in the fault window.
        pub quarantines: u64,
        /// PCI transactions abandoned after retry exhaustion.
        pub pci_exhausted: u64,
    }
}

/// Three back-to-back measurement windows on one router: baseline,
/// fault (with `arm` applied at its start), recovery (with `disarm`
/// applied at its start).
fn episode(
    mut r: Router,
    warmup: Time,
    window: Time,
    arm: impl FnOnce(&mut Router),
    disarm: impl FnOnce(&mut Router),
) -> (Report, Report, Report) {
    r.run_until(warmup);
    r.mark();
    r.run_until(warmup + window);
    let base = r.report();
    arm(&mut r);
    r.mark();
    r.run_until(warmup + 2 * window);
    let faulted = r.report();
    disarm(&mut r);
    r.mark();
    r.run_until(warmup + 3 * window);
    let recovered = r.report();
    (base, faulted, recovered)
}

fn result(
    class: &'static str,
    bound_us: f64,
    base: &Report,
    faulted: &Report,
    recovered: &Report,
) -> RecoveryResult {
    RecoveryResult {
        class,
        baseline_mpps: base.forward_mpps,
        faulted_mpps: faulted.forward_mpps,
        recovered_mpps: recovered.forward_mpps,
        recovered_ratio: if base.forward_mpps == 0.0 {
            0.0
        } else {
            recovered.forward_mpps / base.forward_mpps
        },
        detection_bound_us: bound_us,
        recovery_latency_avg_us: faulted.recovery_latency_avg_us,
        sa_resets: faulted.sa_resets,
        quarantines: faulted.health_quarantines,
        pci_exhausted: faulted.pci_retry_exhausted,
    }
}

/// StrongARM wedge: a slice of traffic bridges through the SA; wedge
/// faults hang it mid-job until the watchdog resets it.
fn sa_wedge(warmup: Time, window: Time) -> RecoveryResult {
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 100;
    let mut r = Router::new(cfg);
    for p in 0..4 {
        r.attach_cbr(p, 0.5, u64::MAX, ((p + 1) % 8) as u8);
    }
    let bound_us = r.health.detection_bound_ps() as f64 / 1e6;
    let (base, faulted, recovered) = episode(
        r,
        warmup,
        window,
        |r| {
            r.set_fault_plan(Some(
                FaultPlan::new(RECOVERY_SEED).with_rate(FaultClass::SaWedge, 50_000),
            ));
        },
        |r| r.set_fault_plan(None),
    );
    result("sa-wedge", bound_us, &base, &faulted, &recovered)
}

/// Runtime budget overrun: an installed StrongARM forwarder attempts
/// ~4x its declared cycles; the ladder throttles, then quarantines it,
/// and its flows fall back to the default IP path. The fault source is
/// never cleared — isolation alone restores throughput.
fn overrun(warmup: Time, window: Time) -> RecoveryResult {
    let mut r = Router::new(RouterConfig::line_rate());
    r.install(Key::All, full_ip_sa(), None)
        .expect("SA forwarder admitted");
    for p in 0..2 {
        r.attach_cbr(p, 0.35, u64::MAX, ((p + 1) % 8) as u8);
    }
    let bound_us = r.health.detection_bound_ps() as f64 / 1e6;
    let (base, faulted, recovered) = episode(
        r,
        warmup,
        window,
        |r| r.sa.policer.misbehave(0, FULL_IP_CYCLES * 3),
        |_| {},
    );
    result("overrun-quarantine", bound_us, &base, &faulted, &recovered)
}

/// PCI retry exhaustion: corrupted transactions on the Pentium path
/// are retried a bounded number of times, then abandoned and counted;
/// the diverted path recovers fully once the fault clears.
fn pci_exhaustion(warmup: Time, window: Time) -> RecoveryResult {
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_pe_permille = 50;
    let mut r = Router::new(cfg);
    for p in 0..4 {
        r.attach_cbr(p, 0.5, u64::MAX, ((p + 1) % 8) as u8);
    }
    let bound_us = r.health.detection_bound_ps() as f64 / 1e6;
    let (base, faulted, recovered) = episode(
        r,
        warmup,
        window,
        |r| {
            r.set_fault_plan(Some(
                FaultPlan::new(RECOVERY_SEED).with_rate(FaultClass::PciError, 400_000),
            ));
        },
        |r| r.set_fault_plan(None),
    );
    result("pci-exhaustion", bound_us, &base, &faulted, &recovered)
}

/// Runs all three fault-class episodes.
pub fn recovery(warmup: Time, window: Time) -> Vec<RecoveryResult> {
    vec![
        sa_wedge(warmup, window),
        overrun(warmup, window),
        pci_exhaustion(warmup, window),
    ]
}

/// The episodes as `BENCH_recovery.json`'s value.
pub fn recovery_json(results: &[RecoveryResult]) -> Value {
    let episodes: Value = results.iter().map(Value::from).collect();
    obj! {"schema" => 1, "seed" => RECOVERY_SEED, "episodes" => episodes}
}

#[cfg(test)]
mod tests {
    use super::*;
    use npr_core::ms;

    #[test]
    fn every_class_recovers_to_within_one_percent() {
        let results = recovery(ms(1), ms(2));
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(
                r.recovered_ratio >= 0.99,
                "{}: recovered {:.4} of baseline ({:.4} -> {:.4} Mpps)",
                r.class,
                r.recovered_ratio,
                r.baseline_mpps,
                r.recovered_mpps
            );
            assert!(r.baseline_mpps > 0.0, "{}: dead baseline", r.class);
        }
    }

    #[test]
    fn every_class_records_its_recovery_evidence() {
        let results = recovery(ms(1), ms(2));
        let by = |c: &str| results.iter().find(|r| r.class == c).unwrap();
        let wedge = by("sa-wedge");
        assert!(wedge.sa_resets > 0, "{wedge:?}");
        assert!(
            wedge.recovery_latency_avg_us > 0.0
                && wedge.recovery_latency_avg_us <= wedge.detection_bound_us + 1.0,
            "{wedge:?}"
        );
        let over = by("overrun-quarantine");
        assert!(over.quarantines > 0, "{over:?}");
        let pci = by("pci-exhaustion");
        assert!(pci.pci_exhausted > 0, "{pci:?}");
    }

    #[test]
    fn json_is_well_formed_and_carries_all_classes() {
        let json = recovery_json(&recovery(ms(1), ms(1)));
        let classes = ["sa-wedge", "overrun-quarantine", "pci-exhaustion"];
        for (i, class) in classes.into_iter().enumerate() {
            let e = &json["episodes"][i];
            assert_eq!(e["class"], Value::from(class));
            assert!(e["recovered_ratio"].as_f64() > 0.0 && e["detection_bound_us"].as_f64() > 0.0);
        }
    }
}
