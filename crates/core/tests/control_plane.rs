//! The simulated control plane: error paths at every level of the
//! hierarchy, and the visibility of control costs in the report.
//!
//! `install / remove / getdata / setdata` admit synchronously but
//! execute as [`npr_core::ControlOp`]s descending the Pentium → PCI →
//! StrongARM → MicroEngine path. Refusals must not launch an op;
//! accepted ops must consume simulated cycles at each level.

use npr_core::pe::PeAction;
use npr_core::{us, AdmitError, InstallRequest, Key, Router, RouterConfig};
use npr_forwarders::{pad_program, syn_monitor, PadKind};
use npr_ixp::IStore;
use npr_sim::cycles_to_ps;

fn pe_fwdr(name: &str, cycles: u64, expected_pps: u64) -> InstallRequest {
    InstallRequest::Pe {
        name: name.to_string(),
        cycles,
        tickets: 100,
        expected_pps,
        f: Box::new(|_, _| PeAction::Consume),
    }
}

fn sa_fwdr(name: &str) -> InstallRequest {
    InstallRequest::Sa {
        name: name.to_string(),
        cycles: 500,
        f: Box::new(|_, _| true),
    }
}

/// Runs until every submitted control op has landed.
fn settle(r: &mut Router) {
    while r.ctl_in_flight() > 0 {
        let t = r.now() + us(5);
        r.run_until(t);
    }
}

#[test]
fn over_budget_installs_are_refused_at_each_level() {
    let mut r = Router::new(RouterConfig::line_rate());
    let submitted0 = r.ctl_stats().submitted;

    // MicroEngine level: a pad program far past the VRP cycle budget.
    let err = r
        .install(
            Key::All,
            InstallRequest::Me {
                prog: pad_program(PadKind::Reg10, 10_000),
            },
            None,
        )
        .unwrap_err();
    assert!(matches!(err, AdmitError::Vrp(_)), "got {err}");

    // StrongARM level: capacity reserved for Pentium bridging.
    r.sa_reserved_for_pe = true;
    assert_eq!(
        r.install(Key::All, sa_fwdr("late"), None).unwrap_err(),
        AdmitError::SaReserved
    );
    r.sa_reserved_for_pe = false;

    // Pentium level: both the packet-rate and the cycle budget.
    let err = r
        .install(Key::All, pe_fwdr("flood", 100, 600_000), None)
        .unwrap_err();
    assert!(matches!(err, AdmitError::PeRate { .. }), "got {err}");
    let err = r
        .install(Key::All, pe_fwdr("hog", 10_000_000, 500_000), None)
        .unwrap_err();
    assert!(matches!(err, AdmitError::PeCycles { .. }), "got {err}");

    // A refusal never launches a control op down the hierarchy.
    assert_eq!(r.ctl_stats().submitted, submitted0);
    assert_eq!(r.ctl_in_flight(), 0);
}

#[test]
fn double_remove_errors_the_second_time() {
    let mut r = Router::new(RouterConfig::line_rate());
    let fid = r.install(Key::All, sa_fwdr("once"), None).unwrap();
    r.remove(fid).unwrap();
    assert_eq!(r.remove(fid).unwrap_err(), AdmitError::NoSuchFid);
    settle(&mut r);
    // Exactly two ops traversed the hierarchy: install + remove.
    assert_eq!(r.ctl_stats().completed, 2);
}

#[test]
fn data_ops_on_unknown_or_removed_fids_are_refused_without_an_op() {
    let mut r = Router::new(RouterConfig::line_rate());
    assert_eq!(r.getdata(999).unwrap_err(), AdmitError::NoSuchFid);
    assert_eq!(r.setdata(999, &[0]).unwrap_err(), AdmitError::NoSuchFid);
    let fid = r.install(Key::All, sa_fwdr("gone"), None).unwrap();
    r.remove(fid).unwrap();
    assert_eq!(r.getdata(fid).unwrap_err(), AdmitError::NoSuchFid);
    assert_eq!(r.setdata(fid, &[0]).unwrap_err(), AdmitError::NoSuchFid);
    // Only install + remove were ever submitted.
    assert_eq!(r.ctl_stats().submitted, 2);
}

#[test]
fn setdata_larger_than_the_state_is_refused() {
    let mut r = Router::new(RouterConfig::line_rate());
    // The SYN monitor allocates 4 bytes of flow state.
    let fid = r
        .install(
            Key::All,
            InstallRequest::Me {
                prog: syn_monitor().unwrap(),
            },
            None,
        )
        .unwrap();
    let submitted = r.ctl_stats().submitted;
    assert_eq!(
        r.setdata(fid, &[0u8; 8]).unwrap_err(),
        AdmitError::StateSize {
            given: 8,
            capacity: 4
        }
    );
    assert_eq!(r.ctl_stats().submitted, submitted, "no op for a refusal");
    // A prefix write is legal and leaves the tail untouched.
    r.setdata(fid, &[0xAB, 0xCD]).unwrap();
    assert_eq!(r.getdata(fid).unwrap(), vec![0xAB, 0xCD, 0, 0]);
}

#[test]
fn control_ops_consume_cycles_at_every_level() {
    let mut r = Router::new(RouterConfig::line_rate());
    r.run_until(us(50));
    r.mark();
    let fid = r.install(Key::All, pe_fwdr("monitor", 1_000, 10_000), None).unwrap();
    r.setdata(fid, &[1, 2, 3, 4]).unwrap();
    let _ = r.getdata(fid).unwrap();
    settle(&mut r);
    let rep = r.report();
    assert_eq!(rep.ctl_ops, 3, "install + setdata + getdata completed");
    assert!(rep.ctl_pe_cycles > 0, "Pentium marshalling was charged");
    assert!(rep.ctl_sa_cycles > 0, "StrongARM execution was charged");
    assert!(
        rep.ctl_pci_bytes > 0,
        "descriptors crossed the PCI bus: {}",
        rep.ctl_pci_bytes
    );
    assert!(rep.ctl_latency_avg_us > 0.0);
    // getdata's reply crossed the bus upward too: more bytes than the
    // down descriptors alone.
    let desc = npr_core::costs::CTL_DESC_BYTES as u64;
    assert!(rep.ctl_pci_bytes > 3 * desc);
}

#[test]
fn me_install_latency_covers_the_freeze_window() {
    let mut r = Router::new(RouterConfig::line_rate());
    let prog = syn_monitor().unwrap();
    let slots = prog.istore_slots();
    let window = cycles_to_ps(IStore::install_cycles(slots));
    r.install(Key::All, InstallRequest::Me { prog }, None)
        .unwrap();
    settle(&mut r);
    // The op completes when the instruction-store write does, so its
    // recorded latency includes marshalling, the bus crossing, the
    // StrongARM execution, AND the freeze window.
    let stats = r.ctl_stats();
    assert_eq!(stats.completed, 1);
    assert!(
        stats.latency_max_ps >= window,
        "latency {} must cover the {window}-ps write window",
        stats.latency_max_ps
    );
}
