//! `npr-fabric`: multi-chassis router fabrics — the configuration the
//! paper's conclusion sketches as next work ("we next plan to construct
//! a router from four Pentium/IXP pairs connected by a Gigabit Ethernet
//! switch. The main difference ... is that we will need to budget RI
//! capacity to service packets arriving on the 'internal' link"), grown
//! into a first-class topology crate.
//!
//! A [`Fabric`] composes N full [`npr_core::Router`]s under a
//! [`Topology`] — the paper's single gigabit switch, a bidirectional
//! ring, or a two-tier spine/leaf — with the inter-chassis links as modeled
//! servers ([`Link`]: latency plus finite serialization capacity, so
//! contention is visible, not absorbed). Wiring is config-driven via
//! [`FabricConfig`], which composes per-member `RouterConfig`s.
//!
//! The per-chassis fault/health machinery composes cluster-wide:
//! [`Fabric::fail_link`] fails traffic over onto a surviving path,
//! [`Fabric::drain_chassis`] / [`Fabric::rejoin_chassis`] quiesce and
//! generation-fence a whole member (re-steering its neighbors via
//! their *simulated control paths* and replaying registered installs
//! into the fresh incarnation), and
//! [`Fabric::conservation`] asserts end-to-end packet conservation
//! across the whole cluster.
//!
//! Stepping: [`Fabric::run_lockstep`] shards by chassis on the
//! conservative parallel engine (`npr_sim::delivery`) with the link
//! latency as lookahead — bit-identical at every thread count and
//! however a run is cut into calls.
//!
//! # Quick start
//!
//! ```
//! use npr_core::{ms, RouterConfig};
//! use npr_fabric::{Fabric, FabricConfig};
//!
//! // Four leaves under two spines; leaf 0 sends to a subnet leaf 2 owns.
//! let mut f = Fabric::new(FabricConfig::spine_leaf(4, RouterConfig::line_rate()));
//! f.member_mut(0).attach_cbr(0, 0.5, 100, 17);
//! f.run_lockstep(ms(20), 1);
//! assert_eq!(f.switched(), 100);
//! assert!(f.conservation().holds());
//! ```

mod fabric;
mod link;
mod recovery;
mod report;
mod topology;

pub use fabric::{owner_of, Fabric, MemberShard};
pub use link::Link;
pub use report::{FabricConservation, FabricReport};
pub use topology::{
    FabricConfig, Steer, Topology, Wire, GIGABIT_BPS, SWITCH_LATENCY_PS, UPLINK_PORT,
};
