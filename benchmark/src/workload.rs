//! The four workloads: how each system under test is built from a seed
//! and a simulated horizon, and how it is driven.
//!
//! Everything here goes through the crates' public API. Sources are
//! open-loop on the simulated clock and finite (`remaining` sized to the
//! horizon), so the three sourced workloads quiesce and can be drained
//! and audited; `fastpath_minsize` has no sources at all (the ideal
//! ports clone a template MP) and is audited mid-run instead.

use std::time::Instant;

use npr_core::pe::PeAction;
use npr_core::{AqmKind, Fid, FlowKey, InstallRequest, Key, Router, RouterConfig};
use npr_fabric::{Fabric, FabricConfig};
use npr_ixp::TrafficSource;
use npr_route::classify::{ClassRule, PortMatch};
use npr_route::gen::{neighbors, sample_dsts, synth_table, TableSpec};
use npr_route::{Invalidation, NextHop, Route};
use npr_sim::{EngineStats, Time, XorShift64, PS_PER_SEC};
use npr_traffic::{
    udp_frame, CbrSource, FrameSpec, MixSource, SynFloodSource, TcpFlowSource, TcpMixSource,
    TraceSource, ZipfSource,
};

use crate::spec::WorkloadId;

/// Picoseconds per simulated microsecond.
pub const PS_PER_US: Time = 1_000_000;

/// SplitMix64 step: derives the independent traffic/table/churn seeds
/// from the one `--seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host seconds spent in each part of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupParts {
    /// Host-side table synthesis and destination ranking.
    pub synth_table: f64,
    /// `Router::new` / `Fabric::new`.
    pub new: f64,
    /// `install` / `install_rule`.
    pub install: f64,
    /// Source construction and `attach_source`.
    pub attach: f64,
}

impl SetupParts {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.synth_table + self.new + self.install + self.attach
    }
}

/// One scheduled route update of the churn storm.
#[derive(Debug, Clone, Copy)]
pub struct RouteUpdate {
    pub at: Time,
    pub route: Route,
}

/// The churn storm of one router: a resident Pentium route updater and
/// the updates still to be fed to it (the `exp_route::churn_storm`
/// recipe). Empty for every workload but `route_churn`.
#[derive(Default)]
pub struct Churn {
    pub updater: Fid,
    pub updates: Vec<RouteUpdate>,
    /// Updates applied so far.
    pub next: usize,
}

/// The system under test.
pub enum Sut {
    /// One router, run with `run_until`, fed a route update at each time
    /// `churn` lists.
    Router { router: Box<Router>, churn: Churn },
    /// A fabric, run with `run_lockstep`.
    Fabric(Box<Fabric>),
}

/// A built workload: the system and the inputs the kernels reuse.
pub struct Built {
    pub sut: Sut,
    pub parts: SetupParts,
    /// Tuple-space rules installed (also fed to the classify kernel).
    pub rules: Vec<ClassRule>,
}

impl Sut {
    /// Advances the simulation to absolute time `t`; `threads` picks the
    /// fabric's delivery strategy and means nothing to a single router.
    pub fn run_to(&mut self, t: Time, threads: usize) -> EngineStats {
        match self {
            Sut::Router { router, churn } => {
                while let Some(u) = churn.updates.get(churn.next).filter(|u| u.at <= t) {
                    router.run_until(u.at);
                    let mut payload = u.route.addr.to_be_bytes().to_vec();
                    payload.push(u.route.plen);
                    payload.push(u.route.next_hop.port);
                    router
                        .setdata(churn.updater, &payload)
                        .expect("the route updater stays installed");
                    router
                        .world
                        .table
                        .insert(u.route.addr, u.route.plen, u.route.next_hop);
                    churn.next += 1;
                }
                router.run_until(t);
                EngineStats::default()
            }
            Sut::Fabric(f) => f.run_lockstep(t, threads),
        }
    }

    /// The member routers (one for the single-router workloads).
    pub fn routers(&self) -> Vec<&Router> {
        match self {
            Sut::Router { router, .. } => vec![router],
            Sut::Fabric(f) => f.members().collect(),
        }
    }

    pub fn fabric(&self) -> Option<&Fabric> {
        match self {
            Sut::Fabric(f) => Some(f),
            Sut::Router { .. } => None,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        match self {
            Sut::Router { router, .. } => router.fingerprint(),
            Sut::Fabric(f) => f.fingerprint(),
        }
    }

    /// Timestamp of the earliest pending event anywhere in the system.
    pub fn next_event_time(&self) -> Option<Time> {
        self.routers()
            .iter()
            .filter_map(|r| r.next_event_time())
            .min()
    }

    /// Route updates applied so far.
    pub fn updates_applied(&self) -> u64 {
        match self {
            Sut::Router { churn, .. } => churn.next as u64,
            Sut::Fabric(_) => 0,
        }
    }

    /// Runs on until every admitted packet has met its fate.
    pub fn drain(&mut self) -> bool {
        let slice = 100 * PS_PER_US;
        match self {
            Sut::Router { router, .. } => router.drain(slice, 4_000),
            Sut::Fabric(f) => f.drain(slice, 4_000),
        }
    }

    /// The packet-conservation ledger balances everywhere.
    pub fn conserved(&self) -> bool {
        match self {
            Sut::Router { router, .. } => router.conservation().holds(),
            Sut::Fabric(f) => f.conservation().holds(),
        }
    }

    fn plain(router: Router) -> Self {
        Sut::Router {
            router: Box::new(router),
            churn: Churn::default(),
        }
    }
}

fn secs(horizon: Time) -> f64 {
    horizon as f64 / PS_PER_SEC as f64
}

/// Frames a source at `pps` emits before `horizon`.
fn frames(pps: f64, horizon: Time) -> u64 {
    (pps * secs(horizon)) as u64
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// Builds `id` for `seed`, with sources that stop at `horizon`.
///
/// `quick` shrinks the churn table from a million prefixes to ten
/// thousand, for the smoke test only.
pub fn build(id: WorkloadId, seed: u64, horizon: Time, quick: bool) -> Built {
    match id {
        WorkloadId::FastpathMinsize => fastpath(),
        WorkloadId::ServicesMixed => services(seed, horizon),
        WorkloadId::RouteChurn => churn(seed, horizon, quick),
        WorkloadId::FabricQos => fabric_qos(seed, horizon),
    }
}

/// The sources `build` attaches, rebuilt on their own so the kernels can
/// pull the workload's own frames without a router around them.
pub fn sources(
    id: WorkloadId,
    seed: u64,
    horizon: Time,
    quick: bool,
) -> Vec<Box<dyn TrafficSource>> {
    match id {
        WorkloadId::FastpathMinsize => Vec::new(),
        WorkloadId::ServicesMixed => services_sources(seed, horizon),
        WorkloadId::RouteChurn => {
            let dsts = churn_dsts(&synth_table(&churn_spec(seed, quick)), seed);
            churn_sources(seed, horizon, &dsts)
        }
        WorkloadId::FabricQos => (0..FABRIC_CHASSIS)
            .flat_map(|k| fabric_sources(seed, horizon, k))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// fastpath_minsize

fn fastpath() -> Built {
    let mut parts = SetupParts::default();
    let router = timed(
        &mut parts.new,
        || Router::new(RouterConfig::table1_system()),
    );
    Built {
        sut: Sut::plain(router),
        parts,
        rules: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// services_mixed

/// The control flow the service suite's Pentium halves are bound to and
/// the route updates are addressed to.
pub const CTL_FLOW: FlowKey = FlowKey {
    src: u32::from_be_bytes([10, 0, 0, 9]),
    dst: u32::from_be_bytes([10, 1, 0, 1]),
    sport: 2600,
    dport: 89,
};

/// IMIX frame lengths and their packet-count weights.
const IMIX: [(usize, f64); 3] = [(60, 7.0), (576, 4.0), (1500, 1.0)];

/// Share of a 100 Mbps port the IMIX streams fill.
const IMIX_LOAD: f64 = 0.80;

const LINE_BPS: u64 = 100_000_000;

/// Ethernet preamble + IFG + FCS, as `npr_traffic` counts them.
const WIRE_OVERHEAD: usize = 24;

/// Three CBR streams in IMIX proportion towards `10.dst_net.0.host`.
fn imix(load: f64, dst_net: u8, host: u8, horizon: Time) -> Vec<Box<dyn TrafficSource>> {
    let wire_bits = |len: usize| ((len + WIRE_OVERHEAD) * 8) as f64;
    let group_bits: f64 = IMIX.iter().map(|&(len, w)| w * wire_bits(len)).sum();
    let groups_per_s = LINE_BPS as f64 * load / group_bits;
    IMIX.iter()
        .map(|&(len, w)| {
            let pps = groups_per_s * w;
            let spec = FrameSpec {
                len,
                dst: u32::from_be_bytes([10, dst_net, 0, host]),
                ..FrameSpec::default()
            };
            let fraction = pps * wire_bits(len) / LINE_BPS as f64;
            Box::new(CbrSource::new(
                LINE_BPS,
                fraction,
                spec,
                frames(pps, horizon),
            )) as Box<dyn TrafficSource>
        })
        .collect()
}

fn services_sources(seed: u64, horizon: Time) -> Vec<Box<dyn TrafficSource>> {
    let mut rng = XorShift64::new(derive(seed, 1));
    // A seeded rotation: every output port is fed by exactly one input.
    let shift = 1 + rng.below(7) as u8;
    (0..8u8)
        .map(|p| {
            let dst_net = (p + shift) % 8;
            let host = 1 + rng.below(200) as u8;
            let mut parts = imix(IMIX_LOAD, dst_net, host, horizon);
            // Two TCP conversations per port for the SYN/ACK monitors.
            for c in 0..2u16 {
                let spec = FrameSpec {
                    dst: u32::from_be_bytes([10, dst_net, 0, host]),
                    sport: 30_000 + u16::from(p) * 16 + c,
                    dport: 80,
                    ..FrameSpec::default()
                };
                let pps = 1_500.0 + rng.below(1_000) as f64;
                parts.push(Box::new(TcpFlowSource::new(
                    spec,
                    pps,
                    frames(pps, horizon),
                    8,
                )));
            }
            match p {
                // Port 1 carries the control stream: one route update
                // every 50 us for the Pentium control forwarder.
                1 => {
                    let n = horizon / (50 * PS_PER_US);
                    let updates = (0..n)
                        .map(|i| {
                            let mut payload = [0u8; 6];
                            payload[0] = 11;
                            payload[1] = rng.below(200) as u8;
                            payload[4] = 16;
                            payload[5] = rng.below(8) as u8;
                            let spec = FrameSpec {
                                src: CTL_FLOW.src,
                                dst: CTL_FLOW.dst,
                                sport: CTL_FLOW.sport,
                                dport: CTL_FLOW.dport,
                                ..FrameSpec::default()
                            };
                            (i * 50 * PS_PER_US, udp_frame(&spec, &payload))
                        })
                        .collect();
                    parts.push(Box::new(TraceSource::new(updates)));
                }
                // Port 5 carries a SYN flood from spoofed sources.
                5 => {
                    let spec = FrameSpec {
                        dst: u32::from_be_bytes([10, dst_net, 0, host]),
                        dport: 80,
                        ..FrameSpec::default()
                    };
                    let pps = 12_000.0;
                    parts.push(Box::new(SynFloodSource::new(
                        spec,
                        pps,
                        derive(seed, 2),
                        frames(pps, horizon),
                    )));
                }
                _ => {}
            }
            Box::new(MixSource::new(parts)) as Box<dyn TrafficSource>
        })
        .collect()
}

fn services(seed: u64, horizon: Time) -> Built {
    let mut parts = SetupParts::default();
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 333;
    let mut router = timed(&mut parts.new, || Router::new(cfg));
    timed(&mut parts.install, || {
        for (key, req) in npr_forwarders::service_suite(CTL_FLOW).expect("suite assembles") {
            router.install(key, req, None).expect("suite admitted");
        }
    });
    timed(&mut parts.attach, || {
        for (p, src) in services_sources(seed, horizon).into_iter().enumerate() {
            router.attach_source(p, src);
        }
    });
    Built {
        sut: Sut::plain(router),
        parts,
        rules: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// route_churn

const CHURN_ROUTES: usize = 1_000_000;
/// 16x the 4096-slot route cache.
const CHURN_DSTS: usize = 65_536;
const CHURN_ALPHA: f64 = 1.0;
/// Per-port offered rate. The StrongARM miss path is ~55% busy with the
/// ~40% of packets the cache cannot hold, and the most popular
/// destination (8.5% of all frames) plus the next five on one output
/// port still fit its wire, so nothing is lost at any seed.
const CHURN_PPS: f64 = 50_000.0;
const CHURN_UPDATES_PER_S: u64 = 10_000;
const CHURN_RULES: u32 = 64;

fn churn_spec(seed: u64, quick: bool) -> TableSpec {
    let routes = if quick { 10_000 } else { CHURN_ROUTES };
    TableSpec::internet(routes, derive(seed, 10))
}

/// Destinations that resolve through the generated table, in Zipf rank
/// order.
fn churn_dsts(routes: &[Route], seed: u64) -> Vec<u32> {
    sample_dsts(routes, CHURN_DSTS, derive(seed, 11))
}

fn churn_sources(seed: u64, horizon: Time, dsts: &[u32]) -> Vec<Box<dyn TrafficSource>> {
    (0..8u64)
        .map(|p| {
            Box::new(ZipfSource::new(
                FrameSpec::default(),
                CHURN_PPS,
                dsts.to_vec(),
                CHURN_ALPHA,
                derive(seed, 20 + p),
                frames(CHURN_PPS, horizon),
            )) as Box<dyn TrafficSource>
        })
        .collect()
}

/// Tuple-space rules in four tuples (destination /8 or /16, with or
/// without an exact destination port), steering matches to a port.
fn churn_rules(seed: u64) -> Vec<ClassRule> {
    let mut rng = XorShift64::new(derive(seed, 12));
    (0..CHURN_RULES)
        .map(|id| {
            let plen = if id % 2 == 0 { 8 } else { 16 };
            let addr = (1 + rng.below(222) as u32) << 24 | (rng.below(256) as u32) << 16;
            ClassRule {
                id,
                priority: id,
                src: (0, 0),
                dst: (addr & (u32::MAX << (32 - plen)), plen as u8),
                sport: PortMatch::Any,
                dport: if id % 4 < 2 {
                    PortMatch::Exact(FrameSpec::default().dport)
                } else {
                    PortMatch::Any
                },
                proto: None,
                out_port: rng.below(8) as u8,
            }
        })
        .collect()
}

fn churn(seed: u64, horizon: Time, quick: bool) -> Built {
    let mut parts = SetupParts::default();
    let spec = churn_spec(seed, quick);
    let mut cfg = RouterConfig::line_rate();
    cfg.synthetic_routes = spec.prefixes;
    cfg.synthetic_route_seed = spec.seed;
    cfg.route_invalidation = Invalidation::Targeted;
    cfg.route_cache_slots = 4096;
    // The router builds its table from the same spec; regenerate it
    // host-side to rank destinations that resolve through it and to
    // pick the prefixes the storm rebinds.
    let (dsts, updates) = timed(&mut parts.synth_table, || {
        let routes = synth_table(&spec);
        let dsts = churn_dsts(&routes, seed);
        let nbrs = neighbors(&spec);
        let per = usize::from(spec.neighbors_per_port);
        let mut rng = XorShift64::new(derive(seed, 13));
        let interval = PS_PER_SEC / CHURN_UPDATES_PER_S;
        let mut current: std::collections::HashMap<usize, NextHop> =
            std::collections::HashMap::new();
        let updates: Vec<RouteUpdate> = (1..=horizon / interval)
            .map(|i| {
                let ix = rng.below(routes.len() as u64) as usize;
                let cur = *current.entry(ix).or_insert(routes[ix].next_hop);
                // Rebind to the port's next neighbour: a same-port
                // next-hop change, the common BGP case.
                let slot = nbrs.iter().position(|n| *n == cur).unwrap_or(0);
                let next = nbrs[(slot / per) * per + (slot + 1) % per];
                current.insert(ix, next);
                RouteUpdate {
                    at: i * interval,
                    route: Route {
                        next_hop: next,
                        ..routes[ix]
                    },
                }
            })
            .collect();
        (dsts, updates)
    });
    let mut router = timed(&mut parts.new, || Router::new(cfg));
    let rules = churn_rules(seed);
    let updater = timed(&mut parts.install, || {
        for rule in &rules {
            router
                .install_rule(*rule)
                .expect("rule fits the VRP budget");
        }
        router
            .install(
                Key::Flow(FlowKey {
                    src: 0x0909_0909,
                    dst: 0x0909_0909,
                    sport: 9,
                    dport: 9,
                }),
                InstallRequest::Pe {
                    name: "route-updater".into(),
                    cycles: 1_000,
                    tickets: 100,
                    expected_pps: 1_000,
                    f: Box::new(|_, _| PeAction::Consume),
                },
                None,
            )
            .expect("updater admits")
    });
    timed(&mut parts.attach, || {
        for (p, src) in churn_sources(seed, horizon, &dsts).into_iter().enumerate() {
            router.attach_source(p, src);
        }
    });
    Built {
        sut: Sut::Router {
            router: Box::new(router),
            churn: Churn {
                updater,
                updates,
                next: 0,
            },
        },
        parts,
        rules,
    }
}

// ---------------------------------------------------------------------
// fabric_qos

pub const FABRIC_CHASSIS: usize = 4;
/// Per-port Zipf rate. The hottest destination draws ~15% of the whole
/// fabric's Zipf load (77 of 512 kpps) onto one 100 Mbps port, which
/// this keeps well under the wire, so nothing is lost.
const FABRIC_PPS: f64 = 16_000.0;
const FABRIC_ALPHA: f64 = 1.0;
const FABRIC_VICTIMS: usize = 4;
const FABRIC_VICTIM_PPS: f64 = 2_000.0;
/// With the victims, 73% of the 148.8 Kpps port the mix converges on.
const FABRIC_ELEPHANT_PPS: f64 = 100_000.0;
/// The external port of every chassis reserved for the TCP mix.
const FABRIC_MIX_PORT: usize = 7;

/// 16 hosts in every /16 the Zipf sources may address (every external
/// port but the mix port), ranked host-major so that the 28 most popular
/// destinations sit behind 28 different ports. The order is the same
/// for every seed — the seed drives the sources' draws — so the offered
/// load has the same shape from run to run.
fn fabric_dsts() -> Vec<u32> {
    (1..=16u8)
        .flat_map(|h| {
            (0..FABRIC_CHASSIS * 8)
                .filter(|net| net % 8 != FABRIC_MIX_PORT)
                .map(move |net| u32::from_be_bytes([10, net as u8, 0, h]))
        })
        .collect()
}

fn fabric_sources(seed: u64, horizon: Time, k: usize) -> Vec<Box<dyn TrafficSource>> {
    let dsts = fabric_dsts();
    (0..8usize)
        .map(|p| {
            let zipf = Box::new(ZipfSource::new(
                FrameSpec::default(),
                FABRIC_PPS,
                dsts.clone(),
                FABRIC_ALPHA,
                derive(seed, 40 + (k * 8 + p) as u64),
                frames(FABRIC_PPS, horizon),
            )) as Box<dyn TrafficSource>;
            if p != 0 {
                return zipf;
            }
            // Port 0 of every chassis also carries the TCP mix: paced
            // victims plus one unresponsive elephant, all bound for the
            // mix port of the next chassis, so they cross the fabric.
            let net = ((k + 1) % FABRIC_CHASSIS) * 8 + FABRIC_MIX_PORT;
            let spec = FrameSpec {
                dst: u32::from_be_bytes([10, net as u8, 0, 200]),
                ..FrameSpec::default()
            };
            let mix = Box::new(TcpMixSource::new(
                spec,
                FABRIC_VICTIMS,
                FABRIC_VICTIM_PPS,
                FABRIC_ELEPHANT_PPS,
                frames(FABRIC_ELEPHANT_PPS, horizon),
            ));
            Box::new(MixSource::new(vec![zipf, mix])) as Box<dyn TrafficSource>
        })
        .collect()
}

/// Every member's configuration: per-flow queues under CoDel, with the
/// `qos` experiment's deeper cap and the budget that keeps 256 flows.
pub fn qos_config() -> RouterConfig {
    RouterConfig {
        qm_flow_cap: 64,
        qm_mem_budget_bytes: 8 << 20,
        ..RouterConfig::per_flow_qos(AqmKind::Codel)
    }
}

fn fabric_qos(seed: u64, horizon: Time) -> Built {
    let mut parts = SetupParts::default();
    let mut base = qos_config();
    base.qm_seed = derive(seed, 31);
    let mut fabric = timed(&mut parts.new, || {
        Fabric::new(FabricConfig::spine_leaf(FABRIC_CHASSIS, base))
    });
    timed(&mut parts.attach, || {
        for k in 0..FABRIC_CHASSIS {
            for (p, src) in fabric_sources(seed, horizon, k).into_iter().enumerate() {
                fabric.member_mut(k).attach_source(p, src);
            }
        }
    });
    Built {
        sut: Sut::Fabric(Box::new(fabric)),
        parts,
        rules: Vec::new(),
    }
}
