//! Control-plane churn vs. the fast path.
//!
//! The paper's design point (section 4.5) is that the control
//! interface runs *on* the processor hierarchy — installs cross the
//! PCI bus, execute on the StrongARM, and ME code writes freeze the
//! input engines — yet an operator updating routes and swapping
//! services must not dent line-rate forwarding. This experiment
//! measures exactly that: a no-churn baseline against an identical
//! system under a control storm (a stream of `setdata` route updates
//! plus periodic ME install/remove pairs), both at 95% offered load on
//! all eight ports.

use npr_check::json::Value;
use npr_core::pe::PeAction;
use npr_core::{us, InstallRequest, Key, Router, RouterConfig};
use npr_sim::Time;

/// `setdata` route-update interval during the storm.
pub const UPDATE_EVERY: Time = us(100);

/// ME install/remove pair interval during the storm (each side of the
/// pair freezes the input engines for its store-write window).
pub const CHURN_EVERY: Time = us(1000);

bench_row! {
    /// Result of the control-storm experiment.
    #[derive(Debug, Clone)]
    pub struct ControlResult {
        /// Fast-path throughput with a quiet control plane, Mpps.
        pub baseline_mpps: f64 = 4,
        /// Fast-path throughput under the control storm, Mpps.
        pub storm_mpps: f64 = 4,
        /// `storm / baseline`.
        pub ratio: f64 = 4,
        /// Control operations completed inside the storm window.
        pub ctl_ops: u64,
        /// ME install/remove pairs among them (each wrote the ISTORE).
        pub me_churns: u64,
        /// PCI bytes moved by control descriptors in the window.
        pub ctl_pci_bytes: u64,
        /// Mean control-op latency (submit to terminal level), us.
        pub ctl_latency_avg_us: f64 = 3,
    }
}

fn loaded_router() -> Router {
    let mut r = Router::new(RouterConfig::line_rate());
    for p in 0..8 {
        r.attach_cbr(p, 0.95, u64::MAX, ((p + 1) % 8) as u8);
    }
    r
}

/// A flow key no CBR packet matches: installs cost ISTORE space and
/// stall time but zero per-packet budget, isolating the control
/// plane's own overhead.
fn unused_flow(n: u16) -> Key {
    Key::Flow(npr_core::FlowKey {
        src: 0x0909_0909,
        dst: 0x0909_0909,
        sport: n,
        dport: 9,
    })
}

/// Runs the no-churn baseline and the storm, returning both rates.
pub fn control_storm(warmup: Time, window: Time) -> ControlResult {
    // Baseline: same system, untouched control plane.
    let mut r = loaded_router();
    let baseline_mpps = r.measure(warmup, window).forward_mpps;

    // Storm: a PE monitor receives continuous route updates while a
    // splicer-sized ME program churns in and out of the ISTORE.
    let mut r = loaded_router();
    let updater = r
        .install(
            // An unused flow: the updater exists to *receive* route
            // state, not to divert fast-path traffic.
            unused_flow(0),
            InstallRequest::Pe {
                name: "route-updater".into(),
                cycles: 1_000,
                tickets: 100,
                expected_pps: 1_000,
                f: Box::new(|_, _| PeAction::Consume),
            },
            None,
        )
        .expect("updater admits");
    r.run_until(warmup);
    r.mark();
    // Drive an explicit time cursor: `Router::now` is the clock of the
    // last event popped, which can sit short of the deadline passed to
    // `run_until`, so stepping by `now()` would never terminate.
    let t_end = warmup + window;
    let mut t = warmup;
    let mut next_update = t;
    let mut next_churn = t;
    let mut resident: Option<npr_core::Fid> = None;
    let mut key_seq = 0u16;
    let mut me_churns = 0u64;
    while t < t_end {
        if t >= next_update {
            next_update = t + UPDATE_EVERY;
            // A 32-byte "route entry" rides the control path down.
            r.setdata(updater, &[0xA5; 32]).expect("updater is installed");
        }
        if t >= next_churn {
            next_churn = t + CHURN_EVERY;
            if let Some(fid) = resident.take() {
                r.remove(fid).expect("resident forwarder exists");
            }
            key_seq += 1;
            resident = Some(
                r.install(
                    unused_flow(key_seq),
                    InstallRequest::Me {
                        prog: npr_forwarders::syn_monitor().expect("builtin assembles"),
                    },
                    None,
                )
                .expect("per-flow monitor admits"),
            );
            me_churns += 1;
        }
        t = next_update.min(next_churn).min(t_end);
        r.run_until(t);
    }
    let rep = r.report();
    ControlResult {
        baseline_mpps,
        storm_mpps: rep.forward_mpps,
        ratio: rep.forward_mpps / baseline_mpps,
        ctl_ops: rep.ctl_ops,
        me_churns,
        ctl_pci_bytes: rep.ctl_pci_bytes,
        ctl_latency_avg_us: rep.ctl_latency_avg_us,
    }
}

/// The result as `BENCH_control.json`'s value: the schema, then the
/// result's own row.
pub fn control_json(r: &ControlResult) -> Value {
    let Value::Obj(mut members) = Value::from(r) else {
        unreachable!("a bench row is an object")
    };
    members.insert(0, ("schema".into(), Value::from(1)));
    Value::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BENCH_WINDOW;
    use npr_core::ms;

    /// The headline property: a control storm — route updates every
    /// 100 us, an ISTORE rewrite every 500 us — costs the fast path at
    /// most measurement noise.
    #[test]
    fn control_storm_stays_within_noise_of_baseline() {
        let r = control_storm(ms(1), BENCH_WINDOW);
        assert!(
            r.baseline_mpps > 0.9,
            "line-rate baseline: {:.3}",
            r.baseline_mpps
        );
        assert!(r.ctl_ops > 0, "the storm must exercise the control path");
        assert!(r.me_churns > 0, "the storm must rewrite the ISTORE");
        assert!(
            r.ratio >= 0.98,
            "control churn dented the fast path: {:.4} ({:.4} vs {:.4} Mpps)",
            r.ratio,
            r.storm_mpps,
            r.baseline_mpps
        );
    }

    #[test]
    fn control_json_is_well_formed() {
        let j = control_json(&ControlResult {
            baseline_mpps: 1.0,
            storm_mpps: 0.99,
            ratio: 0.99,
            ctl_ops: 42,
            me_churns: 4,
            ctl_pci_bytes: 4096,
            ctl_latency_avg_us: 12.5,
        });
        assert_eq!(j["ratio"].to_string(), "0.9900");
        assert_eq!(j["ctl_ops"], Value::from(42));
    }
}
