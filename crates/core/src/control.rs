//! The operator's control interface (paper, section 4.5): `install /
//! remove / getdata / setdata`, plus the listing view.
//!
//! Admission control and bookkeeping are synchronous — the operator
//! learns immediately whether a request is admissible — but every
//! accepted operation also becomes a [`ControlOp`] that traverses the
//! processor hierarchy with real costs: Pentium marshalling, a PCI
//! descriptor transaction, StrongARM execution, and (for ME code) the
//! instruction-store freeze window. Use [`Router::ctl_in_flight`] to
//! wait for propagation; the costs appear in the `Report`'s `ctl_*`
//! fields.

use crate::classify::{Key, WhereRun};
use crate::install::{
    admit_me, admit_pe, admit_sa, AdmitError, Fid, InstallRecord, InstallRequest,
};
use crate::pe::PeForwarder;
use crate::plane::{ControlOp, ControlVerb, CtlStats, PlaneEvent};
use crate::router::Router;
use crate::sa::SaForwarder;
use crate::world::MeForwarder;

/// One row of the operator's view of the extension plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstalledEntry {
    /// Forwarder id.
    pub fid: Fid,
    /// Report name.
    pub name: String,
    /// The processor level it runs on.
    pub where_run: WhereRun,
    /// Instruction-store slots its code occupies (ME only; 0 elsewhere).
    pub istore_slots: usize,
}

impl Router {
    /// Installs a StrongARM forwarder as the handler for exceptional
    /// packets (TTL expiry, IP options) that no other forwarder claims.
    pub fn install_exception_handler(&mut self, req: InstallRequest) -> Result<Fid, AdmitError> {
        let fid = self.install(Key::All, req, None)?;
        // The handler must not run on every packet as a general
        // forwarder — it only serves escalations.
        self.world.classifier.unbind(fid);
        let rec = &self.installs[&fid];
        debug_assert_eq!(
            rec.where_run,
            WhereRun::Sa,
            "exception handlers run on the SA"
        );
        self.world.exception_sa_fwdr = rec.fwdr_index;
        Ok(fid)
    }

    /// Installs a forwarder for `key` with `state_bytes` of flow state.
    ///
    /// Admission is immediate; activation is not. The operation crosses
    /// the hierarchy with simulated costs, and for ME code the
    /// instruction-store write (with its input-engine freeze window)
    /// lands only when the op reaches the fast path.
    pub fn install(
        &mut self,
        key: Key,
        req: InstallRequest,
        out_port: Option<u8>,
    ) -> Result<Fid, AdmitError> {
        let fid = self.next_fid;
        let (where_run, fwdr_index, istore_id, state_bytes, slots) = match req {
            InstallRequest::Me { prog } => {
                let cost = admit_me(
                    &self.world,
                    &prog,
                    &key,
                    &self.vrp_budget,
                    self.istore.free_slots(),
                )?;
                let slots = prog.istore_slots();
                let id = self.istore.install(slots).map_err(AdmitError::IStore)?;
                let state_bytes = usize::from(prog.state_bytes);
                // Compile-on-verify: admission just proved the program
                // sound, so lower it for the configured backend now —
                // once per install, never per packet.
                let exec = npr_vrp::Executable::new(prog, self.cfg.vrp_backend);
                self.world.me_forwarders.push(MeForwarder { exec, cost });
                (
                    WhereRun::Me,
                    (self.world.me_forwarders.len() - 1) as u32,
                    Some(id),
                    state_bytes,
                    slots,
                )
            }
            InstallRequest::Sa { name, cycles, f } => {
                admit_sa(self.sa_reserved_for_pe)?;
                self.sa.forwarders.push(SaForwarder { name, cycles, f });
                (
                    WhereRun::Sa,
                    (self.sa.forwarders.len() - 1) as u32,
                    None,
                    64,
                    0,
                )
            }
            InstallRequest::Pe {
                name,
                cycles,
                tickets,
                expected_pps,
                f,
            } => {
                admit_pe(&self.pe.forwarders, cycles, expected_pps)?;
                // The share's stride is 1/tickets: a zero is admitted
                // as 1, as `WfqMapper::add_flow` clamps a zero weight.
                let tickets = tickets.max(1);
                self.world.sa_pe_q.add(tickets);
                self.pe.forwarders.push(PeForwarder {
                    name,
                    cycles,
                    tickets,
                    expected_pps,
                    f,
                });
                (
                    WhereRun::Pe,
                    (self.pe.forwarders.len() - 1) as u32,
                    None,
                    64,
                    0,
                )
            }
        };
        // Allocate and zero the flow state ("allocates size bytes of
        // SRAM memory to hold the flow state, and initializes it to
        // zero").
        self.world.flow_state.push(vec![0u8; state_bytes]);
        let state_idx = (self.world.flow_state.len() - 1) as u32;
        let entry = crate::install::flow_entry(fid, where_run, fwdr_index, state_idx, out_port);
        match key {
            Key::All => self.world.classifier.bind_general(entry),
            Key::Flow(k) => self.world.classifier.bind_flow(k, entry),
        }
        self.installs.insert(
            fid,
            InstallRecord {
                key,
                where_run,
                fwdr_index,
                state_idx,
                istore_id,
            },
        );
        self.next_fid += 1;
        self.submit_ctl(ControlVerb::Install { fid, slots });
        Ok(fid)
    }

    /// Removes an installed forwarder. ME removals rewrite the
    /// instruction store under the same freeze window as installs.
    pub fn remove(&mut self, fid: Fid) -> Result<(), AdmitError> {
        let rec = self.installs.remove(&fid).ok_or(AdmitError::NoSuchFid)?;
        self.world.classifier.unbind(fid);
        let mut slots = 0;
        if let Some(id) = rec.istore_id {
            slots = self.world.me_forwarders[rec.fwdr_index as usize]
                .prog()
                .istore_slots();
            let _ = self.istore.remove(id);
        }
        self.submit_ctl(ControlVerb::Remove { fid, slots });
        Ok(())
    }

    /// Lists installed forwarders — the operator's view of the
    /// extension plane, sorted by fid.
    pub fn installed(&self) -> Vec<InstalledEntry> {
        let mut out: Vec<InstalledEntry> = self
            .installs
            .iter()
            .map(|(&fid, rec)| {
                let (name, istore_slots) = match rec.where_run {
                    WhereRun::Me => {
                        let f = &self.world.me_forwarders[rec.fwdr_index as usize];
                        (f.prog().name.clone(), f.prog().istore_slots())
                    }
                    WhereRun::Sa => (self.sa.forwarders[rec.fwdr_index as usize].name.clone(), 0),
                    WhereRun::Pe => (self.pe.forwarders[rec.fwdr_index as usize].name.clone(), 0),
                };
                InstalledEntry {
                    fid,
                    name,
                    where_run: rec.where_run,
                    istore_slots,
                }
            })
            .collect();
        out.sort_by_key(|e| e.fid);
        out
    }

    /// Reads a forwarder's flow state (control/data communication). The
    /// reply descriptor crosses the bus upward with simulated cost.
    pub fn getdata(&mut self, fid: Fid) -> Result<Vec<u8>, AdmitError> {
        let rec = self.installs.get(&fid).ok_or(AdmitError::NoSuchFid)?;
        let data = self.world.flow_state[rec.state_idx as usize].clone();
        self.submit_ctl(ControlVerb::GetData {
            fid,
            bytes: data.len(),
        });
        Ok(data)
    }

    /// Writes a forwarder's flow state. Payloads larger than the state
    /// allocated at install time are refused; shorter writes update a
    /// prefix.
    pub fn setdata(&mut self, fid: Fid, data: &[u8]) -> Result<(), AdmitError> {
        let rec = self.installs.get(&fid).ok_or(AdmitError::NoSuchFid)?;
        let state = &mut self.world.flow_state[rec.state_idx as usize];
        if data.len() > state.len() {
            return Err(AdmitError::StateSize {
                given: data.len(),
                capacity: state.len(),
            });
        }
        state[..data.len()].copy_from_slice(data);
        self.submit_ctl(ControlVerb::SetData {
            fid,
            bytes: data.len(),
        });
        Ok(())
    }

    /// Control operations submitted but not yet landed at their
    /// terminal level. Run the simulation forward until this reaches
    /// zero to observe fully propagated state.
    pub fn ctl_in_flight(&self) -> u64 {
        self.ctl.in_flight()
    }

    /// Lifetime control-plane accounting.
    pub fn ctl_stats(&self) -> CtlStats {
        self.ctl
    }

    /// Enqueues an admitted operation at the Pentium, where it begins
    /// its descent through the hierarchy. Also used by the health
    /// monitor to replay installs after a StrongARM soft reset. An
    /// ME-code op is counted until its `CtlApply` lands: while one is
    /// in flight, idle-ring jumps stop at every plane event.
    pub(crate) fn submit_ctl(&mut self, verb: ControlVerb) {
        let now = self.events.now();
        let op = ControlOp {
            seq: self.ctl.submitted,
            verb,
            issued: now,
        };
        self.ctl.submitted += 1;
        if op.istore_slots() > 0 {
            self.events.me_code_ops += 1;
        }
        self.events
            .schedule(now, PlaneEvent::CtlSubmit(Box::new(op)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::FlowKey;
    use crate::config::RouterConfig;
    use crate::router::{ms, us};
    use npr_sim::{FaultClass, FaultPlan};

    /// An ME forwarder for a flow no packet belongs to: its ISTORE
    /// writes are all that shows.
    fn me_code() -> InstallRequest {
        let mut a = npr_vrp::Asm::new("noop");
        a.done();
        InstallRequest::Me {
            prog: a.finish(4).expect("assembles"),
        }
    }

    fn sa_code() -> InstallRequest {
        InstallRequest::Sa {
            name: "pass".into(),
            cycles: 100,
            f: Box::new(|_: &mut Vec<u8>, _| true),
        }
    }

    fn unused_flow() -> Key {
        Key::Flow(FlowKey {
            src: 0x0909_0909,
            dst: 0x0909_0909,
            sport: 9,
            dport: 9,
        })
    }

    /// `CtlApply`s dispatched so far.
    fn applied(r: &Router) -> u64 {
        r.events_by_kind()[5]
    }

    /// Steps `r` one timestamp at a time until every control op has
    /// landed, checking at each step that the ME-code ops counted are
    /// the `submitted` ones whose `CtlApply` has not been dispatched.
    fn drain_counting(r: &mut Router, submitted: u64) {
        while r.ctl_in_flight() > 0 {
            let t = r
                .next_event_time()
                .expect("an op in flight has an event pending");
            r.run_until(t);
            assert_eq!(u64::from(r.events.me_code_ops), submitted - applied(r));
        }
    }

    #[test]
    fn me_code_ops_count_until_their_apply() {
        let mut r = Router::new(RouterConfig::line_rate());
        let fid = r.install(unused_flow(), me_code(), None).unwrap();
        assert_eq!(r.events.me_code_ops, 1);
        r.run_until(us(1));
        r.remove(fid).unwrap();
        assert_eq!(r.events.me_code_ops, 2);
        drain_counting(&mut r, 2);
        assert_eq!(r.events.me_code_ops, 0);
        assert_eq!(applied(&r), 2);
    }

    #[test]
    fn data_ops_are_not_counted() {
        let mut r = Router::new(RouterConfig::line_rate());
        let fid = r.install(unused_flow(), sa_code(), None).unwrap();
        drain_counting(&mut r, 0);
        r.setdata(fid, &[7; 4]).unwrap();
        r.getdata(fid).unwrap();
        assert_eq!(r.ctl_in_flight(), 2);
        drain_counting(&mut r, 0);
        assert_eq!(applied(&r), 0);
    }

    #[test]
    fn a_replayed_me_install_counts_until_its_apply() {
        // A wedging StrongARM is soft-reset by the health monitor, which
        // replays every install down the control path at an epoch.
        let mut cfg = RouterConfig::line_rate();
        cfg.divert_sa_permille = 333;
        let mut r = Router::new(cfg);
        r.install(unused_flow(), me_code(), None).unwrap();
        r.install(Key::All, sa_code(), None).unwrap();
        r.attach_cbr(0, 0.5, 150, 1);
        r.set_fault_plan(Some(
            FaultPlan::new(9).with_rate(FaultClass::SaWedge, 100_000),
        ));
        let mut replay_seen = false;
        while r.now() < ms(3) || r.ctl_in_flight() > 0 {
            assert!(r.now() < ms(20), "the control ops never landed");
            let t = r.now() + us(1);
            r.run_until(t);
            // One ME install, replayed once per reset.
            let submitted = 1 + r.health.stats.sa_resets;
            assert_eq!(u64::from(r.events.me_code_ops), submitted - applied(&r));
            replay_seen |= r.health.stats.sa_resets > 0 && r.events.me_code_ops > 0;
        }
        assert!(replay_seen, "no replayed install was seen in flight");
        assert_eq!(r.events.me_code_ops, 0);
    }
}
