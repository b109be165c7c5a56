//! Cluster-wide recovery: link failover, chassis drain and re-join.
//!
//! The per-chassis fault/health machinery (PR 3/5) already detects,
//! quarantines, and recovers *inside* one router. This module composes
//! it cluster-wide:
//!
//! * **Link failover** — [`Fabric::fail_link`] downs one directed
//!   inter-chassis link; every member whose steering depended on it is
//!   re-routed onto a surviving path *via the simulated control path*
//!   (each change rides a `setdata` descriptor to a resident
//!   route-updater on that member's Pentium, paying real control-plane
//!   cost that contends with data traffic).
//! * **Chassis drain** — [`Fabric::drain_chassis`] re-steers every
//!   other member's routes away from the victim, then steps the fabric
//!   until the victim has quiesced (every packet at a terminal fate,
//!   nothing in its inboxes, on an uplink's receive wire or anywhere
//!   short of admission). Traffic to the drained member's subnets is
//!   removed from neighbors' tables, so the loss is visible in their
//!   `no_route` ledgers — never silent.
//! * **Re-join** — [`Fabric::rejoin_chassis`] fences the old
//!   incarnation (a generation bump, and every frame it had not yet
//!   received — in an inbox, or whole on an uplink wire — is counted
//!   and discarded; it runs between lock-step runs, so nothing
//!   addressed to the old incarnation can arrive later), carries its
//!   totals into the fabric's ledgers,
//!   boots a fresh router from the member's config through the
//!   same path as first boot, replays the member's provisioning
//!   (installs registered via [`Fabric::set_provision`]) through the
//!   new incarnation's control path, and steers the cluster back.

use npr_core::{InstallRequest, Key, PeAction, Router};
use npr_packet::MacAddr;
use npr_route::NextHop;
use npr_sim::Time;

use crate::topology::{Steer, UPLINK_PORT};
use crate::Fabric;

impl Fabric {
    /// Downs member `k`'s directed link on fabric port `ix` and fails
    /// surviving traffic over: every member's steering is recomputed
    /// and the diffs ride each member's control path. Frames already
    /// committed to the dead link drop into its counted ledger.
    pub fn fail_link(&mut self, k: usize, ix: usize) {
        self.shards[k].ports[ix].link.up = false;
        self.resteer();
    }

    /// Restores member `k`'s link on fabric port `ix` and steers
    /// traffic back onto shortest paths.
    pub fn restore_link(&mut self, k: usize, ix: usize) {
        self.shards[k].ports[ix].link.up = true;
        self.resteer();
    }

    /// Administratively drains member `m`: re-steers the cluster away
    /// from it, then steps the whole fabric (lockstep, sequential) in
    /// `slice`-long slices until `m` has quiesced or `max_slices`
    /// elapse. The rest of the fabric keeps forwarding throughout —
    /// that is the point of a drain. Returns whether `m` quiesced.
    ///
    /// The caller is responsible for stopping `m`'s external ingress
    /// (finite or detached sources); a drain cannot quiesce a member
    /// that is still being fed.
    pub fn drain_chassis(&mut self, m: usize, slice: Time, max_slices: usize) -> bool {
        assert!(self.drained.is_none(), "one drain at a time");
        self.drained = Some(m);
        self.resteer();
        for _ in 0..max_slices {
            if self.chassis_quiet(m) {
                return true;
            }
            let until = self.clock + slice;
            self.run_lockstep(until, 1);
        }
        self.chassis_quiet(m)
    }

    /// Whether member `m` is fabric-quiet: every admitted packet has
    /// reached a terminal fate (the same condition [`Router::drain`]
    /// requires — `in_flight == 0` alone would miss a packet held by
    /// the output loop, e.g. waiting out a port flap), nothing on its
    /// way in (an inbox, an uplink's receive wire, any receive buffer,
    /// an input context short of admission), no partial reassembly of
    /// its outbound frames.
    pub fn chassis_quiet(&self, m: usize) -> bool {
        let s = &self.shards[m];
        let c = s.router.conservation();
        c.in_flight == 0 && c.holds() && s.inbound_idle() && s.partial.is_empty()
    }

    /// Re-joins the drained member `m` as a fresh incarnation:
    /// generation-fenced (frames it had not yet received are counted and
    /// discarded), booted through the same path as first boot, its
    /// registered provisioning replayed through the new control path,
    /// and the cluster steered back toward it. External traffic
    /// sources are *not* carried over — the new incarnation starts
    /// clean, like a replaced chassis.
    pub fn rejoin_chassis(&mut self, m: usize) {
        assert_eq!(self.drained, Some(m), "rejoin without a drain");
        let n = self.cfgs.len();
        // Fence the old incarnation: its inboxes, and the frames on its
        // uplink wires that the router goes down with.
        let s = &mut self.shards[m];
        s.generation += 1;
        s.fenced += s.queued();
        // Carry the old incarnation's totals into the ledgers before
        // its counters vanish.
        s.rx_carry = s.fabric_rx();
        s.tx_carry = s.fabric_tx();
        s.ext_tx_carry = s.external_tx();
        s.drop_carry = s.member_drops();
        s.handed = 0;
        for p in &mut s.ports {
            p.inbox.clear();
        }
        // A drain normally leaves no partial reassembly; anything still
        // here is abandoned with the incarnation — counted, not lost.
        s.assembly_drops += s.partial.len() as u64;
        s.partial.clear();
        s.updater = None;
        // Fresh boot through the first-boot path, on the same fabric
        // ports (the cables didn't move).
        let fports: Vec<usize> = self.shards[m].ports.iter().map(|p| p.port - UPLINK_PORT).collect();
        let (mut r, routes) = self.boot_member(m, n, &fports);
        // Align the fresh router with fabric time so its frames never
        // land in a neighbor's past.
        r.run_until(self.clock);
        // Replay the member's provisioning through the new control path.
        if let Some(f) = &self.provision[m] {
            f(&mut r);
        }
        self.routes[m] = routes;
        self.shards[m].router = r;
        for ix in 0..self.shards[m].ports.len() {
            self.shards[m].ports[ix].link =
                crate::Link::new(crate::SWITCH_LATENCY_PS, self.link_capacity_bps);
        }
        // Steer the cluster back.
        self.drained = None;
        self.resteer();
    }

    /// Registers (and immediately applies) member `k`'s provisioning —
    /// the installs a re-joined incarnation must replay. The closure
    /// runs against the live router now and against every future
    /// incarnation on [`Fabric::rejoin_chassis`].
    pub fn set_provision(&mut self, k: usize, f: Box<dyn Fn(&mut Router) + Send>) {
        f(&mut self.shards[k].router);
        self.provision[k] = Some(f);
    }

    /// Route updates applied via members' simulated control paths.
    pub fn resteer_ops(&self) -> u64 {
        self.resteer_ops
    }

    /// Steps the whole fabric in `slice`-long lockstep slices until
    /// every member is quiet and no frame sits anywhere in the fabric,
    /// or `max_slices` elapse. The fabric-wide analogue of
    /// [`Router::drain`]; sources must be finite for this to succeed.
    pub fn drain(&mut self, slice: Time, max_slices: usize) -> bool {
        for _ in 0..max_slices {
            if self.fabric_quiet() {
                return true;
            }
            let until = self.clock + slice;
            self.run_lockstep(until, 1);
        }
        self.fabric_quiet()
    }

    fn fabric_quiet(&self) -> bool {
        (0..self.shards.len()).all(|m| self.chassis_quiet(m))
    }

    /// Recomputes every member's steering under the current link/drain
    /// state and applies the diffs via each member's control path: one
    /// `setdata` descriptor (net, plen, port) to a resident Pentium
    /// route-updater per change — the same mechanism (and cost model)
    /// as the route-churn experiments — then the table mutation it
    /// describes.
    pub(crate) fn resteer(&mut self) {
        let n = self.shards.len();
        for k in 0..n {
            let fports: Vec<usize> = self.shards[k]
                .ports
                .iter()
                .map(|p| p.port - UPLINK_PORT)
                .collect();
            for net in 0..n * 8 {
                let owner = net / 8;
                let want = match self.steer(k, owner) {
                    Steer::Local => Some((net % 8) as u8),
                    Steer::Port(ix) => Some((UPLINK_PORT + fports[ix]) as u8),
                    Steer::Unreachable => None,
                };
                if self.routes[k][net] == want {
                    continue;
                }
                self.apply_route(k, net as u8, want);
                self.routes[k][net] = want;
            }
        }
    }

    /// Applies one route change on member `k` through its control path.
    fn apply_route(&mut self, k: usize, net: u8, want: Option<u8>) {
        let updater = self.ensure_updater(k);
        let addr = u32::from_be_bytes([10, net, 0, 0]);
        // The descriptor the updater consumes: prefix, plen, new port
        // (0xFF = withdraw).
        let mut payload = addr.to_be_bytes().to_vec();
        payload.push(16);
        payload.push(want.unwrap_or(0xFF));
        let r = &mut self.shards[k].router;
        r.setdata(updater, &payload)
            .expect("route-updater accepts descriptors");
        match want {
            Some(port) => r.world.table.insert(
                addr,
                16,
                NextHop {
                    port,
                    mac: MacAddr::for_port(port),
                },
            ),
            None => {
                r.world.table.remove(addr, 16);
            }
        }
        self.resteer_ops += 1;
    }

    /// The resident route-updater on member `k`'s Pentium, installed on
    /// first use (through admission control, like any service).
    fn ensure_updater(&mut self, k: usize) -> npr_core::Fid {
        if let Some(fid) = self.shards[k].updater {
            return fid;
        }
        let fid = self.shards[k]
            .router
            .install(
                Key::Flow(npr_core::FlowKey {
                    // A management flow no data traffic matches.
                    src: 0x0AFE_0000 | k as u32,
                    dst: 0x0AFE_FFFE,
                    sport: 0xFAB,
                    dport: 0xFAB,
                }),
                InstallRequest::Pe {
                    name: "fabric-route-updater".into(),
                    cycles: 1_000,
                    tickets: 100,
                    expected_pps: 1_000,
                    f: Box::new(|_, _| PeAction::Consume),
                },
                None,
            )
            .expect("route-updater admits");
        self.shards[k].updater = Some(fid);
        fid
    }
}
