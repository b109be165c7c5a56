//! Cluster-wide observability: aggregated reports and whole-fabric
//! packet conservation.

use npr_core::{Conservation, Report};
use npr_sim::Time;

use crate::Fabric;

/// A cluster run, inspectable without iterating members by hand: the
/// per-member [`Report`]s plus fabric-level aggregates (control ops,
/// health ladder counters, drops by ledger, switch/link counters).
#[derive(Debug, Clone)]
pub struct FabricReport {
    /// Per-member reports, index = member.
    pub members: Vec<Report>,
    /// Aggregate *external* forwarding rate over the measurement
    /// window (frames out ports 0–7 across the cluster and across
    /// incarnations; uplink hops excluded so cross-chassis frames count
    /// once).
    pub external_mpps: f64,
    /// Control-path operations (installs, setdata, …) summed.
    pub ctl_ops: u64,
    /// Route updates the fabric applied via members' control paths.
    pub resteer_ops: u64,
    /// Health-ladder counters summed across members.
    pub health_warnings: u64,
    pub health_throttles: u64,
    pub health_quarantines: u64,
    pub sa_resets: u64,
    pub recoveries: u64,
    /// Drop ledgers summed across members.
    pub queue_drops: u64,
    pub escalation_drops: u64,
    pub port_drops: u64,
    pub lap_losses: u64,
    pub vrp_drops: u64,
    /// Fabric-level counters.
    pub switched: u64,
    pub switch_drops: u64,
    pub link_drops: u64,
    pub fenced_drops: u64,
    pub assembly_drops: u64,
}

/// The whole-fabric conservation ledger: every member's own ledger,
/// plus the switch-layer accounting that ties members together.
#[derive(Debug, Clone)]
pub struct FabricConservation {
    /// Per-member ledgers, index = member.
    pub members: Vec<Conservation>,
    /// Frames carried across the fabric (per-link accounting done).
    pub switched: u64,
    /// Frames with no owning member.
    pub switch_drops: u64,
    /// Frames dropped on down links.
    pub link_drops: u64,
    /// Stale-generation frames fenced at re-joined members.
    pub fenced_drops: u64,
    /// Uplink frames abandoned mid-reassembly by the switch-layer
    /// age-out (informational: they never completed on either side of
    /// the switch equations).
    pub assembly_drops: u64,
    /// Frames completed on uplink ports (reassembled at the switch
    /// layer), across all incarnations.
    pub uplink_tx: u64,
    /// Frames members received off the fabric, across all
    /// incarnations: handed to an uplink port, less those still whole
    /// on its wire.
    pub fabric_rx: u64,
    /// Frames switched toward members and not yet received: in fabric
    /// inboxes, or on an uplink wire with none of their MPs arrived.
    pub queued: u64,
    /// MPs still awaiting reassembly at the switch layer.
    pub pending_mps: u64,
}

impl FabricConservation {
    /// Whole-fabric packet conservation:
    ///
    /// 1. every member's own ledger balances;
    /// 2. every frame the switch layer reassembled reached exactly one
    ///    fate — switched, unowned, or dead link;
    /// 3. every switched frame is delivered, fenced, or still visibly
    ///    queued.
    pub fn holds(&self) -> bool {
        self.members.iter().all(Conservation::holds)
            && self.uplink_tx == self.switched + self.switch_drops + self.link_drops
            && self.switched == self.fabric_rx + self.fenced_drops + self.queued
    }

    /// Unaccounted frames at the switch layer (0 when conservation
    /// holds).
    pub fn deficit(&self) -> i64 {
        let fates = self.switched + self.switch_drops + self.link_drops;
        (self.uplink_tx as i64 - fates as i64).abs()
            + (self.switched as i64 - (self.fabric_rx + self.fenced_drops + self.queued) as i64)
                .abs()
    }
}

impl Fabric {
    /// Starts a measurement window on every member and snapshots the
    /// fabric-level counters [`Fabric::report`] differences against.
    pub fn mark(&mut self) {
        for s in &mut self.shards {
            s.router.mark();
        }
        self.mark_clock = self.clock;
        self.mark_external_tx = self.external_tx();
    }

    /// The cluster report since the last [`Fabric::mark`] (or boot).
    pub fn report(&self) -> FabricReport {
        let members: Vec<Report> = self.members().map(|r| r.report()).collect();
        let window = self.clock.saturating_sub(self.mark_clock).max(1) as f64;
        let external_mpps = (self.external_tx() - self.mark_external_tx) as f64 / window * 1e6;
        let sum = |f: &dyn Fn(&Report) -> u64| members.iter().map(f).sum::<u64>();
        FabricReport {
            external_mpps,
            ctl_ops: sum(&|m| m.ctl_ops),
            resteer_ops: self.resteer_ops,
            health_warnings: sum(&|m| m.health_warnings),
            health_throttles: sum(&|m| m.health_throttles),
            health_quarantines: sum(&|m| m.health_quarantines),
            sa_resets: sum(&|m| m.sa_resets),
            recoveries: sum(&|m| m.recoveries),
            queue_drops: sum(&|m| m.queue_drops),
            escalation_drops: sum(&|m| m.escalation_drops),
            port_drops: sum(&|m| m.port_drops),
            lap_losses: sum(&|m| m.lap_losses),
            vrp_drops: sum(&|m| m.vrp_drops),
            switched: self.switched(),
            switch_drops: self.switch_drops(),
            link_drops: self.link_drops(),
            fenced_drops: self.fenced_drops(),
            assembly_drops: self.assembly_drops(),
            members,
        }
    }

    /// The whole-fabric conservation ledger (see
    /// [`FabricConservation::holds`]).
    pub fn conservation(&self) -> FabricConservation {
        FabricConservation {
            members: self.members().map(|r| r.conservation()).collect(),
            switched: self.switched(),
            switch_drops: self.switch_drops(),
            link_drops: self.link_drops(),
            fenced_drops: self.fenced_drops(),
            assembly_drops: self.assembly_drops(),
            uplink_tx: self.shards.iter().map(|s| s.fabric_tx()).sum(),
            fabric_rx: self.shards.iter().map(|s| s.fabric_rx()).sum(),
            queued: self.queued_frames(),
            pending_mps: (0..self.len())
                .map(|k| self.pending_uplink_mps(k) as u64)
                .sum(),
        }
    }

    /// Simulated time the fabric has advanced to.
    pub fn now(&self) -> Time {
        self.clock
    }
}
