//! No `RouterConfig` knob is dead: every field, moved from its default
//! to a second value some caller in the repository really uses, changes
//! something observable. A field nothing reads cannot get a passing row,
//! and a new field cannot compile until it has one — the test
//! destructures the struct without `..`.

use npr_core::{ms, us, AqmKind, InputDiscipline, Key, OutputDiscipline, Router, RouterConfig};
use npr_core::{InstallRequest, RunMode, TrafficTemplate};
use npr_route::{Invalidation, NextHop};
use npr_sim::Time;

type Vary = fn(&mut RouterConfig);
type Drive = fn(&mut Router);

/// Everything a knob could move, as one comparable string: outcome
/// fingerprint, the whole window report, queue-manager sizing, table
/// shape, cache behaviour, Pentium staging queues and executable tier.
fn observe(cfg: RouterConfig, drive: Drive) -> String {
    let mut r = Router::new(cfg);
    drive(&mut r);
    let w = &r.world;
    let qm = w.qm.as_ref().map(|q| (q.nflows_per_port(), q.mem_bytes()));
    let staged: Vec<u64> = w.sa_pe_q.queues().iter().map(|q| q.drops()).collect();
    let compiled: Vec<bool> = w.me_forwarders.iter().map(|f| f.exec.is_compiled()).collect();
    let table = (w.table.route_count(), w.table.trie_stats(), w.table.cache_stats());
    format!("{:#x} {:?} {qm:?} {table:?} {staged:?} {compiled:?}", r.fingerprint(), r.report())
}

/// Template traffic (or whatever the config feeds itself) for 300 us.
fn idle(r: &mut Router) {
    r.run_until(us(300));
}

/// Construction only: the knob shapes the router before any traffic.
fn built(_: &mut Router) {}

/// 90%-of-line-rate minimum-size CBR from each of `ports` to
/// `10.dst.0.1`, run until `t`.
fn blast(r: &mut Router, ports: std::ops::Range<usize>, dst: u8, t: Time) {
    for p in ports {
        r.attach_cbr(p, 0.9, u64::MAX, dst);
    }
    r.run_until(t);
}

/// A route update lands mid-run (what `route_invalidation` prices).
fn reroute(r: &mut Router) {
    blast(r, 0..1, 1, us(400));
    let hop = NextHop { port: 3, mac: npr_packet::MacAddr::for_port(3) };
    r.world.table.insert(u32::from_be_bytes([10, 200, 0, 0]), 16, hop);
    r.run_until(us(800));
}

/// A verified ME forwarder under traffic.
fn me_forwarder(r: &mut Router) {
    let prog = npr_forwarders::ip_minimal().unwrap();
    r.install(Key::All, InstallRequest::Me { prog }, None).unwrap();
    blast(r, 0..1, 1, us(500));
}

#[test]
fn every_config_field_moves_something() {
    // Exhaustive on purpose: a new field is a compile error here until
    // it is listed, and the row array's length is the field count.
    let RouterConfig {
        chip: _,
        mode: _,
        input_ctxs: _,
        output_ctxs: _,
        ports_in_use: _,
        in_discipline: _,
        out_discipline: _,
        queues_per_port: _,
        queue_cap: _,
        pool_bufs: _,
        traffic: _,
        divert_pe_permille: _,
        divert_sa_permille: _,
        sa_synth_feed: _,
        sa_interrupts: _,
        pe_delay_loop: _,
        route_invalidation: _,
        synthetic_routes: _,
        synthetic_route_seed: _,
        interleave_rings: _,
        out_batch: _,
        route_cache_slots: _,
        vrp_backend: _,
        qm_flows_per_port: _,
        qm_flow_cap: _,
        qm_mem_budget_bytes: _,
        qm_aqm: _,
        qm_seed: _,
    } = RouterConfig::default();

    // Scenario bases: each holds the knob under test at its default.
    let ideal = RouterConfig::default;
    let wire = RouterConfig::line_rate;
    let qos = RouterConfig::per_flow_qos;
    let input = || RouterConfig::table1_input(InputDiscipline::ProtectedShared, false);
    // Output side starved: the per-port queues are what gives.
    let starved = || RouterConfig { output_ctxs: 0, ..ideal() };
    let private = || RouterConfig { in_discipline: InputDiscipline::PrivatePerCtx, ..starved() };
    let to_pe = |permille| RouterConfig { divert_pe_permille: permille, ..ideal() };
    // Ports 0 and 1 at ~1.8x output port 2's wire, every port to port 1.
    let overload: Drive = |r| blast(r, 0..2, 2, ms(3));
    let converge: Drive = |r| blast(r, 0..8, 1, ms(2));

    let rows: [(&str, RouterConfig, Vary, Drive); 28] = [
        ("chip", ideal(), |c| c.chip = npr_ixp::ChipConfig::default(), idle),
        ("mode", ideal(), |c| c.mode = RunMode::InputOnly, idle),
        // npr-fabric members: 12 input contexts, 9 ports with one uplink.
        ("input_ctxs", ideal(), |c| c.input_ctxs = 12, idle),
        ("output_ctxs", ideal(), |c| c.output_ctxs = 1, idle),
        ("ports_in_use", ideal(), |c| c.ports_in_use = 9, idle),
        (
            "in_discipline",
            RouterConfig { queues_per_port: 16, ..input() },
            |c| c.in_discipline = InputDiscipline::PrivatePerCtx,
            idle,
        ),
        ("out_discipline", ideal(), |c| c.out_discipline = OutputDiscipline::SingleUnbatched, idle),
        // I.1: a queue per context holds 16x what one does before dropping.
        (
            "queues_per_port",
            RouterConfig { queue_cap: 32, ..private() },
            |c| c.queues_per_port = 16,
            idle,
        ),
        ("queue_cap", starved(), |c| c.queue_cap = 32, idle),
        // accounting.rs's lap scenario: the backlog outlives a small pool.
        ("pool_bufs", RouterConfig { queue_cap: 4096, ..wire() }, |c| c.pool_bufs = 32, converge),
        ("traffic", input(), |c| c.traffic = TrafficTemplate::AllToOne, idle),
        ("divert_pe_permille", ideal(), |c| c.divert_pe_permille = 100, idle),
        ("divert_sa_permille", ideal(), |c| c.divert_sa_permille = 1000, idle),
        (
            "sa_synth_feed",
            RouterConfig { sa_synth_feed: None, ..RouterConfig::pentium_path(60) },
            |c| c.sa_synth_feed = Some(60),
            idle,
        ),
        ("sa_interrupts", RouterConfig::strongarm_null(), |c| c.sa_interrupts = true, idle),
        ("pe_delay_loop", to_pe(100), |c| c.pe_delay_loop = 1510, idle),
        ("route_invalidation", wire(), |c| c.route_invalidation = Invalidation::Targeted, reroute),
        ("synthetic_routes", ideal(), |c| c.synthetic_routes = 10_000, built),
        (
            "synthetic_route_seed",
            RouterConfig { synthetic_routes: 10_000, ..ideal() },
            |c| c.synthetic_route_seed = 2001,
            built,
        ),
        ("interleave_rings", ideal(), |c| c.interleave_rings = false, idle),
        ("out_batch", ideal(), |c| c.out_batch = 1, idle),
        // The eight template destinations collide in a 16-slot cache.
        ("route_cache_slots", ideal(), |c| c.route_cache_slots = 16, idle),
        ("vrp_backend", wire(), |c| c.vrp_backend = npr_vrp::VrpBackend::Interp, me_forwarder),
        ("qm_flows_per_port", wire(), |c| c.qm_flows_per_port = 256, built),
        ("qm_flow_cap", qos(AqmKind::DropTail), |c| c.qm_flow_cap = 64, built),
        // At cap 64 the default 2 MiB budget halves 256 flows to 128.
        (
            "qm_mem_budget_bytes",
            RouterConfig { qm_flow_cap: 64, ..qos(AqmKind::DropTail) },
            |c| c.qm_mem_budget_bytes = 8 << 20,
            built,
        ),
        ("qm_aqm", qos(AqmKind::DropTail), |c| c.qm_aqm = AqmKind::Codel, overload),
        ("qm_seed", qos(AqmKind::Red), |c| c.qm_seed = 2001, overload),
    ];
    let dead: Vec<&str> = rows
        .into_iter()
        .filter_map(|(field, base, vary, drive)| {
            let mut varied = base.clone();
            vary(&mut varied);
            (observe(base, drive) == observe(varied, drive)).then_some(field)
        })
        .collect();
    assert!(dead.is_empty(), "knobs whose second value changes nothing: {dead:?}");
}
