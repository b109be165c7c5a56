//! Fabric topologies and config-driven wiring.
//!
//! A topology answers two questions the fabric asks while building (and
//! re-steering) a cluster:
//!
//! * which of a member's gigabit ports are *fabric* ports, and where
//!   does each one lead ([`Topology::fabric_ports`], [`Topology::wire`]);
//! * which port should member `k` use to reach the subnets owned by
//!   member `j`, given the current link/drain state ([`Topology::steer`]).
//!
//! Everything here is pure: the [`crate::Fabric`] owns the mutable
//! state (links, queues, routers) and feeds it in through the `link_up`
//! view.

use npr_core::RouterConfig;
use npr_sim::Time;

/// The first fabric port index on every member. Ports 0–7 are the
/// external 100 Mbps ports; ports 8 (and 9, in multi-uplink
/// topologies) are the gigabit internal links.
pub const UPLINK_PORT: usize = 8;

/// Switch forwarding latency (store-and-forward of a minimum frame on
/// gigabit plus lookup). Every cross-chassis frame pays at least this,
/// which makes it the conservative lookahead for
/// [`crate::Fabric::run_lockstep`].
pub const SWITCH_LATENCY_PS: Time = 2_000_000; // 2 us.

/// Gigabit — the modeled capacity of an inter-chassis link in the
/// ring and spine/leaf topologies.
pub const GIGABIT_BPS: u64 = 1_000_000_000;

/// Age after which the switch layer abandons an incomplete
/// uplink reassembly (a frame whose closing MP never arrived — e.g. a
/// corrupted position tag carried through the cut-through path) and
/// counts the frame as an assembly drop. Generous: a legitimate
/// frame's MPs span microseconds even under fault-stretched DMA.
pub const REASSEMBLY_AGE_PS: Time = 50_000_000_000; // 50 ms.

/// How the members of a fabric are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every member's port 8 plugs into one shared gigabit switch that
    /// forwards by subnet ownership — the paper's future-work sketch
    /// and the pre-refactor `npr_core::Fabric`, preserved bit-for-bit.
    SingleSwitch,
    /// Members form a ring: each member's port 8 runs clockwise to the
    /// next member's port 9, and its port 9 counter-clockwise to the
    /// previous member's port 8. Traffic takes the shortest direction
    /// and can fail over to the other one.
    Ring,
    /// Two-tier spine/leaf: every member is a leaf with one gigabit
    /// uplink per spine (port `8 + s` to spine `s`); the spines are
    /// pure switches modeled as the uplink's latency/capacity server
    /// plus the destination leaf's port servicing. Leaves spread
    /// destination subnets across spines (`(j + k) % spines`) and fail
    /// over to a surviving spine when an uplink dies.
    SpineLeaf {
        /// Number of spine switches (1 or 2 — members have two spare
        /// gigabit ports).
        spines: usize,
    },
}

/// Where a frame sent out one fabric port lands.
#[derive(Debug, Clone, Copy)]
pub enum Wire {
    /// A switch forwards by subnet ownership: dest member is
    /// `owner_of(frame)`, arriving on the dest's fabric port `port_ix`.
    Switch {
        /// Fabric-port index the frame arrives on at the owner.
        port_ix: usize,
    },
    /// A point-to-point link to one fixed neighbor.
    Point {
        /// Destination member.
        dest: usize,
        /// Fabric-port index the frame arrives on there.
        dest_port_ix: usize,
    },
}

/// A steering decision for (member `k`) → (nets owned by member `j`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steer {
    /// `j == k`: deliver on the owning external port, no fabric hop.
    Local,
    /// Send up fabric port index `.0`.
    Port(usize),
    /// No surviving path (or `j` is drained): remove the route and let
    /// the member's `no_route` ledger count the loss visibly.
    Unreachable,
}

impl Topology {
    /// The fabric-port indices every member dedicates to the fabric
    /// (physical port = `UPLINK_PORT + index`). Empty for a 1-member
    /// fabric on point-to-point topologies — a lone chassis has no one
    /// to talk to and stays a plain router.
    pub fn fabric_ports(&self, n: usize) -> Vec<usize> {
        match *self {
            Topology::SingleSwitch => vec![0],
            Topology::Ring => {
                if n >= 2 {
                    vec![0, 1]
                } else {
                    Vec::new()
                }
            }
            Topology::SpineLeaf { spines } => {
                assert!((1..=2).contains(&spines), "members have 2 spare gigabit ports");
                if n >= 2 {
                    (0..spines).collect()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Where member `k`'s fabric port `ix` leads.
    pub fn wire(&self, k: usize, ix: usize, n: usize) -> Wire {
        match *self {
            Topology::SingleSwitch => Wire::Switch { port_ix: 0 },
            Topology::Ring => match ix {
                0 => Wire::Point {
                    dest: (k + 1) % n,
                    dest_port_ix: 1,
                },
                1 => Wire::Point {
                    dest: (k + n - 1) % n,
                    dest_port_ix: 0,
                },
                _ => unreachable!("ring members have two fabric ports"),
            },
            // Spine `ix` reaches every leaf on that leaf's port `ix`.
            Topology::SpineLeaf { .. } => Wire::Switch { port_ix: ix },
        }
    }

    /// Which fabric port member `k` should use toward member `j`'s
    /// subnets. `link_up(m, ix)` reports whether member `m`'s fabric
    /// port `ix` currently has a live link; `drained` names an
    /// administratively drained member no path may start, end, or pass
    /// through.
    pub fn steer(
        &self,
        k: usize,
        j: usize,
        n: usize,
        link_up: &dyn Fn(usize, usize) -> bool,
        drained: Option<usize>,
    ) -> Steer {
        if j == k {
            return Steer::Local;
        }
        if drained == Some(j) {
            return Steer::Unreachable;
        }
        match *self {
            Topology::SingleSwitch => {
                if link_up(k, 0) {
                    Steer::Port(0)
                } else {
                    Steer::Unreachable
                }
            }
            Topology::Ring => {
                let d_cw = (j + n - k) % n;
                let d_ccw = n - d_cw;
                // A direction survives if every hop's transmit link is
                // up and no intermediate member is drained.
                let cw_ok = (0..d_cw).all(|h| link_up((k + h) % n, 0))
                    && drained.is_none_or(|m| {
                        let dm = (m + n - k) % n;
                        !(0 < dm && dm < d_cw)
                    });
                let ccw_ok = (0..d_ccw).all(|h| link_up((k + n - h) % n, 1))
                    && drained.is_none_or(|m| {
                        let dm = (k + n - m) % n;
                        !(0 < dm && dm < d_ccw)
                    });
                match (cw_ok, ccw_ok) {
                    (true, true) => Steer::Port(if d_cw <= d_ccw { 0 } else { 1 }),
                    (true, false) => Steer::Port(0),
                    (false, true) => Steer::Port(1),
                    (false, false) => Steer::Unreachable,
                }
            }
            Topology::SpineLeaf { spines } => {
                // Spread dest subnets across spines, deterministically
                // per (src, dst) pair; fail over to any surviving one.
                let pref = (j + k) % spines;
                (0..spines)
                    .map(|off| (pref + off) % spines)
                    .find(|&s| link_up(k, s))
                    .map_or(Steer::Unreachable, Steer::Port)
            }
        }
    }

    /// Human-readable name, used by reports and BENCH JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::SingleSwitch => "single_switch",
            Topology::Ring => "ring",
            Topology::SpineLeaf { .. } => "spine_leaf",
        }
    }
}

/// Config-driven wiring for a whole fabric: per-member router configs
/// composed under one topology, with the inter-chassis link model
/// ([`SWITCH_LATENCY_PS`] latency plus optional finite capacity)
/// alongside.
#[derive(Clone)]
pub struct FabricConfig {
    /// How members are wired together.
    pub topology: Topology,
    /// Per-member router configs; `members.len()` is the fabric size.
    /// The fabric overrides `ports_in_use`/`input_ctxs`/`output_ctxs`
    /// to budget RI capacity for the internal links (the paper's
    /// future-work point).
    pub members: Vec<RouterConfig>,
    /// Serialization capacity of every inter-chassis link; `0` models
    /// an infinitely fast link (arrival is exactly
    /// `tx done + SWITCH_LATENCY_PS` — the pre-refactor behavior).
    pub link_capacity_bps: u64,
}

impl FabricConfig {
    /// The pre-refactor configuration: `n` members behind one ideal
    /// gigabit switch (2 us latency, no modeled serialization).
    pub fn single_switch(n: usize, base: RouterConfig) -> Self {
        Self {
            topology: Topology::SingleSwitch,
            members: vec![base; n],
            link_capacity_bps: 0,
        }
    }

    /// `n` members in a bidirectional ring of modeled gigabit links.
    pub fn ring(n: usize, base: RouterConfig) -> Self {
        Self {
            topology: Topology::Ring,
            members: vec![base; n],
            link_capacity_bps: GIGABIT_BPS,
        }
    }

    /// `n` leaves under two spines, every uplink a modeled gigabit link.
    pub fn spine_leaf(n: usize, base: RouterConfig) -> Self {
        Self {
            topology: Topology::SpineLeaf { spines: 2 },
            members: vec![base; n],
            link_capacity_bps: GIGABIT_BPS,
        }
    }
}
