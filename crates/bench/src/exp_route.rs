//! Internet-scale routing: lookup scaling, cache behaviour under
//! Zipf-popularity traffic, and route-churn storms.
//!
//! The paper's router carries a handful of routes; a deployable
//! software router carries a full BGP table. Three questions decide
//! whether the design survives that jump:
//!
//! 1. **Lookup scaling** — does the multibit trie hold its rate from
//!    1 k to 1 M prefixes, what does the trie cost in bytes, and what
//!    do building the table and changing one route cost? The rates and
//!    times in this sweep are host wall-clock (the trie runs on the
//!    StrongARM as real code, not simulated cycles), so they are
//!    indicative, not gated.
//! 2. **Cache hit rate** — the 4096-slot route cache fronting the trie
//!    lives or dies by flow popularity. Zipf-ranked destinations over a
//!    generated table measure the hit rate the StrongARM miss path
//!    actually sees. Deterministic (simulated), so [`RouteResult::gate`]
//!    holds it.
//! 3. **Churn storms** — a stream of route updates arriving through the
//!    control plane at line-rate forwarding. Full-flush invalidation
//!    (the pinned-digest default) pays with the whole cache per update;
//!    targeted invalidation keeps unrelated slots warm. The per-window
//!    curves quantify exactly what the `Invalidation::Targeted` knob
//!    buys.

use npr_check::json::Value;
use npr_check::obj;
use npr_core::pe::PeAction;
use npr_core::{ms, InstallRequest, Key, Router, RouterConfig};
use npr_route::gen::{sample_dsts, synth_table, TableSpec};
use npr_route::{Invalidation, Route, RoutingTable};
use npr_sim::{Time, XorShift64, PS_PER_SEC};
use npr_traffic::{FrameSpec, ZipfSource};

/// Prefix counts for the lookup-scaling sweep.
pub const SCALE_SIZES: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// Zipf exponents for the hit-rate sweep.
pub const ZIPF_ALPHAS: [f64; 3] = [0.8, 1.0, 1.2];

/// Route-update rates (per second) for the churn storm.
pub const CHURN_RATES: [u64; 3] = [1_000, 10_000, 100_000];

/// Synthetic-table size for the simulated (Zipf / churn) experiments.
/// Full-table scale is covered by the host-side sweep and the release
/// smoke test; at simulated line rate a 4 ms window carries ~5 k
/// packets, so a 10 k-prefix table already dwarfs the traffic sample.
pub const SIM_ROUTES: usize = 10_000;

/// Ranked-destination universe offered to the cache experiments.
pub const ZIPF_DSTS: usize = 8_192;

/// Per-port offered rate for the cache experiments (the paper's 95%
/// tulip source, packets per second).
pub const ZIPF_PPS: f64 = 141_000.0;

bench_row! {
    /// One point of the lookup-scaling sweep.
    #[derive(Debug, Clone)]
    pub struct ScalePoint {
        /// Prefixes requested from the generator.
        pub prefixes: usize,
        /// Prefixes actually installed (bands saturate honestly at 1 M).
        pub routes: usize,
        /// Host wall-clock lookups per second, millions.
        pub lookup_mpps: f64 = 2,
        /// Host wall-clock milliseconds of the `synth_table` call that
        /// generates the table.
        pub synth_ms: f64 = 2,
        /// Host wall-clock milliseconds of the `RoutingTable::load` call
        /// alone (table synthesis is outside the stopwatch).
        pub build_ms: f64 = 2,
        /// Host wall-clock nanoseconds per `insert` of a fresh /24 into the
        /// built table with a warm cache: the median of `UPDATE_SAMPLES`.
        pub update_ns: f64 = 0,
        /// Host wall-clock nanoseconds per `remove` of a generated /24
        /// with a warm cache: the median of up to `UPDATE_SAMPLES`.
        pub remove_ns: f64 = 0,
        /// Trie resident bytes (`TrieStats::bytes`), gated at
        /// `TRIE_BYTES_CEILING` for the 1 M-prefix table.
        pub trie_bytes: usize,
        /// Route store resident bytes (`RoutingTable::route_bytes`), gated
        /// at `ROUTE_BYTES_CEILING` for the 1 M-prefix table.
        pub route_bytes: usize,
        /// Mean trie levels touched per lookup (the SRAM-transfer count the
        /// StrongARM miss path pays).
        pub mean_levels: f64 = 3,
    }
}

bench_row! {
    /// One point of the Zipf hit-rate sweep.
    #[derive(Debug, Clone)]
    pub struct ZipfPoint {
        /// Zipf exponent.
        pub alpha: f64 = 2,
        /// Route-cache hit rate over the measurement window.
        pub hit_rate: f64 = 4,
        /// Forwarded Mpps over the window.
        pub forward_mpps: f64 = 4,
        /// Output-queue drops over the window.
        pub queue_drops: u64,
        /// StrongARM/Pentium staging-queue drops over the window.
        pub escalation_drops: u64,
        /// Port receive drops over the window.
        pub port_drops: u64,
    }
}

bench_row! {
    /// One point of the churn-storm sweep.
    #[derive(Debug, Clone)]
    pub struct ChurnPoint {
        /// Cache invalidation: `targeted` or `full_flush`.
        pub mode: &'static str,
        /// Route updates per second pushed through the control plane.
        pub updates_per_s: u64,
        /// Control ops that actually crossed the PCI bus in the window.
        pub ctl_ops: u64,
        /// Route-cache hit rate over the window.
        pub hit_rate: f64 = 4,
        /// Forwarded Mpps over the window.
        pub forward_mpps: f64 = 4,
    }
}

/// All three sweeps.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Lookup rate vs table size (host wall-clock).
    pub scaling: Vec<ScalePoint>,
    /// Cache hit rate vs Zipf exponent (simulated, deterministic).
    pub zipf: Vec<ZipfPoint>,
    /// Hit rate and rate vs churn, full-flush vs targeted (simulated).
    pub churn: Vec<ChurnPoint>,
}

/// Fresh-route inserts (and at most as many removals) timed per table
/// size for `update_ns` and `remove_ns`.
const UPDATE_SAMPLES: u32 = 1_000;

/// Most bytes the 1 M-prefix trie may hold: 24 MiB. The run-compressed
/// table reads 17.4 MB; the expanded one read 117 MB.
pub const TRIE_BYTES_CEILING: usize = 24 << 20;

/// Most bytes the 1 M-prefix table's route store may hold: 10 MiB. The
/// per-node sorted lists read 8 913 408 bytes; the hash map they
/// replaced held 2^21 buckets, some 27 MB resident.
pub const ROUTE_BYTES_CEILING: usize = 10 << 20;

/// Measures, at each table size, the bulk build, raw trie lookups per
/// second and the cost of one route update and one removal.
/// `lookup_mpps`, `build_ms`, `update_ns` and `remove_ns` are host
/// wall-clock and depend on the build machine, which is why nothing
/// gates them; `trie_bytes`, `route_bytes` and `mean_levels` are exact
/// for a size.
pub fn lookup_scaling(sizes: &[usize]) -> Vec<ScalePoint> {
    const LOOKUPS: usize = 1 << 21;
    sizes
        .iter()
        .map(|&n| {
            let t0 = std::time::Instant::now();
            let routes = synth_table(&TableSpec::internet(n, 0x5CA1_AB1E));
            let synth_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut table = RoutingTable::with_config(&[16, 8, 8], 4096, Invalidation::Targeted);
            let t0 = std::time::Instant::now();
            table.load(routes.iter().cloned());
            let build_ms = t0.elapsed().as_secs_f64() * 1e3;
            let dsts = sample_dsts(&routes, 1 << 16, 11);
            let mut acc = 0u64;
            // Warm pass so first-touch page faults stay out of the timing.
            for &d in &dsts {
                acc ^= u64::from(table.lookup_slow(d).1);
            }
            let reps = LOOKUPS / dsts.len();
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                for &d in &dsts {
                    acc ^= u64::from(table.lookup_slow(d).1);
                }
            }
            let secs = t0.elapsed().as_secs_f64();
            std::hint::black_box(acc);
            // Read the exact fields before the update pass below adds
            // lookups and routes of its own.
            let trie_bytes = table.trie_stats().bytes;
            let route_bytes = table.route_bytes();
            let mean_levels = table.mean_lookup_levels();
            ScalePoint {
                prefixes: n,
                routes: routes.len(),
                lookup_mpps: (reps * dsts.len()) as f64 / secs / 1e6,
                synth_ms,
                build_ms,
                update_ns: update_ns(&mut table, &dsts),
                remove_ns: remove_ns(&mut table, &routes),
                trie_bytes,
                route_bytes,
                mean_levels,
            }
        })
        .collect()
}

/// Median host time of one `insert` of a route the table does not hold,
/// with the cache filled first — the steady state a routing protocol's
/// update meets, where targeted invalidation pays its pass over the
/// slots. The /24s come from 240.0.0.0/4, which the generator never
/// draws from, so every one is new.
fn update_ns(table: &mut RoutingTable, dsts: &[u32]) -> f64 {
    for &d in dsts {
        table.lookup_and_fill(d);
    }
    let next_hop = table
        .lookup_slow(dsts[0])
        .0
        .expect("sampled destinations resolve");
    let samples: Vec<u64> = (0..UPDATE_SAMPLES)
        .map(|i| {
            let t0 = std::time::Instant::now();
            table.insert(0xF000_0000 | (i << 12), 24, next_hop);
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    median(samples)
}

/// Median host time of one `remove` of a /24 the generator drew, after
/// [`update_ns`] has warmed the cache: the withdrawal a routing protocol
/// sends, which repairs the /24's entry from its node's route list and
/// pays targeted invalidation's pass over the slots. Host wall-clock
/// like `update_ns`, so ungated for the same reason.
fn remove_ns(table: &mut RoutingTable, routes: &[Route]) -> f64 {
    let samples: Vec<u64> = routes
        .iter()
        .filter(|r| r.plen == 24)
        .take(UPDATE_SAMPLES as usize)
        .map(|r| {
            let t0 = std::time::Instant::now();
            let present = table.remove(r.addr, r.plen);
            let ns = t0.elapsed().as_nanos() as u64;
            assert!(present, "a generated route is installed");
            ns
        })
        .collect();
    median(samples)
}

fn median(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// A line-rate router preloaded with the synthetic table, all eight
/// ports offered Zipf-ranked destinations drawn from that table.
fn zipf_router(alpha: f64, invalidation: Invalidation) -> Router {
    let mut cfg = RouterConfig::line_rate();
    cfg.synthetic_routes = SIM_ROUTES;
    cfg.route_invalidation = invalidation;
    let spec = TableSpec {
        prefixes: cfg.synthetic_routes,
        seed: cfg.synthetic_route_seed,
        ports: cfg.ports_in_use as u8,
        neighbors_per_port: 4,
    };
    // Regenerate the router's own table host-side (same spec, same
    // seed) to rank destinations that actually resolve through it.
    let dsts = sample_dsts(&synth_table(&spec), ZIPF_DSTS, 13);
    let mut r = Router::new(cfg);
    for p in 0..8 {
        r.attach_source(
            p,
            Box::new(ZipfSource::new(
                FrameSpec::default(),
                ZIPF_PPS,
                dsts.clone(),
                alpha,
                0xD5 + p as u64,
                u64::MAX,
            )),
        );
    }
    r
}

/// Route-cache hit rate since `before`, a lifetime `(hits, misses)` read.
fn hit_rate_since(r: &Router, (h0, m0): (u64, u64)) -> f64 {
    let (h, m) = r.world.table.cache_stats();
    (h - h0) as f64 / (h - h0 + m - m0).max(1) as f64
}

/// Cache hit rate under Zipf mixes: quiet control plane, sweep alpha.
pub fn zipf_hit_rate(warmup: Time, window: Time) -> Vec<ZipfPoint> {
    ZIPF_ALPHAS
        .iter()
        .map(|&alpha| {
            let mut r = zipf_router(alpha, Invalidation::FullFlush);
            r.run_until(warmup);
            r.mark();
            let before = r.world.table.cache_stats();
            r.run_until(warmup + window);
            let rep = r.report();
            ZipfPoint {
                alpha,
                hit_rate: hit_rate_since(&r, before),
                forward_mpps: rep.forward_mpps,
                queue_drops: rep.queue_drops,
                escalation_drops: rep.escalation_drops,
                port_drops: rep.port_drops,
            }
        })
        .collect()
}

/// The churn storm: route updates stream down the control plane while
/// line-rate Zipf traffic runs, once per invalidation mode and update
/// rate. Each update rides a `setdata` descriptor (prefix, plen, new
/// port — 6 bytes) to a resident route-updater on the Pentium, then
/// rebinds one existing prefix to its next neighbor on the same port,
/// which invalidates per the configured mode.
pub fn churn_storm(warmup: Time, window: Time) -> Vec<ChurnPoint> {
    let spec = TableSpec::internet(SIM_ROUTES, RouterConfig::line_rate().synthetic_route_seed);
    let routes = synth_table(&spec);
    let nbrs = npr_route::gen::neighbors(&spec);
    let mut out = Vec::new();
    for mode in [Invalidation::FullFlush, Invalidation::Targeted] {
        for &ups in &CHURN_RATES {
            let mut r = zipf_router(1.0, mode);
            let updater = r
                .install(
                    Key::Flow(npr_core::FlowKey {
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
                .expect("updater admits");
            r.run_until(warmup);
            r.mark();
            let before = r.world.table.cache_stats();
            let interval = PS_PER_SEC / ups;
            let t_end = warmup + window;
            let mut t = warmup;
            let mut next_update = t;
            let mut rng = XorShift64::new(0xC0DE ^ ups);
            while t < t_end {
                if t >= next_update {
                    next_update = t + interval;
                    let i = (rng.next_u64() % routes.len() as u64) as usize;
                    let route = &routes[i];
                    // Rebind the prefix to the port's next neighbor: a
                    // same-port next-hop change, the common BGP case.
                    let cur = r.world.table.lookup_slow(route.addr).0.expect("route exists");
                    let slot = nbrs.iter().position(|n| *n == cur).unwrap_or(0);
                    let per = usize::from(spec.neighbors_per_port);
                    let next = nbrs[(slot / per) * per + (slot + 1) % per];
                    let mut payload = route.addr.to_be_bytes().to_vec();
                    payload.push(route.plen);
                    payload.push(next.port);
                    r.setdata(updater, &payload).expect("updater installed");
                    r.world.table.insert(route.addr, route.plen, next);
                }
                t = next_update.min(t_end);
                r.run_until(t);
            }
            let rep = r.report();
            out.push(ChurnPoint {
                mode: match mode {
                    Invalidation::Targeted => "targeted",
                    Invalidation::FullFlush => "full_flush",
                },
                updates_per_s: ups,
                ctl_ops: rep.ctl_ops,
                hit_rate: hit_rate_since(&r, before),
                forward_mpps: rep.forward_mpps,
            });
        }
    }
    out
}

/// Runs all three sweeps. The simulated sweeps use a longer window than
/// the default so the hit-rate sample is a few tens of thousands of
/// packets rather than a few thousand.
pub fn route_experiment() -> RouteResult {
    RouteResult {
        scaling: lookup_scaling(&SCALE_SIZES),
        zipf: zipf_hit_rate(ms(2), ms(20)),
        churn: churn_storm(ms(2), ms(20)),
    }
}

/// The three sweeps as `BENCH_route.json`'s value.
pub fn route_json(r: &RouteResult) -> Value {
    let scaling: Value = r.scaling.iter().map(Value::from).collect();
    let zipf: Value = r.zipf.iter().map(Value::from).collect();
    let churn: Value = r.churn.iter().map(Value::from).collect();
    obj! {"schema" => 1, "scaling" => scaling, "zipf" => zipf, "churn" => churn}
}

impl RouteResult {
    /// The tracked host cost of the largest table in the sweep (the 1 M
    /// `Router::new` build): generation and load wall time, printed, not
    /// gated, beside the trie's and the route store's bytes.
    pub fn tracked(&self) -> String {
        let p = self.scaling.last().expect("the sweep has a size");
        let v = Value::from(p);
        format!(
            "tracked: {}-prefix table synth_ms {}, build_ms {}, trie_bytes {}, route_bytes {}",
            p.prefixes, v["synth_ms"], v["build_ms"], v["trie_bytes"], v["route_bytes"]
        )
    }

    /// The internet-scale gate: at Zipf alpha = 1.0 the 4096-slot cache
    /// stays at least half warm — below that the StrongARM miss path,
    /// not the MEs, would set the router's forwarding rate — and the
    /// 1 M-prefix trie stays run-compressed, within
    /// [`TRIE_BYTES_CEILING`], and its route store stays in per-node
    /// lists, within [`ROUTE_BYTES_CEILING`]. Judged on the figures as
    /// published; `Ok` carries the line to print.
    pub fn gate(&self) -> Result<String, String> {
        let p = self.zipf.iter().find(|p| p.alpha == 1.0);
        let h = &Value::from(p.expect("the sweep runs alpha = 1.0"))["hit_rate"];
        if h.as_f64() < 0.5 {
            return Err(format!("Zipf alpha=1.0 route-cache hit rate {h} < 0.5"));
        }
        let p = self.scaling.iter().find(|p| p.prefixes == 1_000_000);
        let v = Value::from(p.expect("the sweep runs 1 M prefixes"));
        for (key, ceiling) in [
            ("trie_bytes", TRIE_BYTES_CEILING),
            ("route_bytes", ROUTE_BYTES_CEILING),
        ] {
            if v[key].as_f64() > ceiling as f64 {
                return Err(format!("1M-prefix {key} {} > {ceiling}", v[key]));
            }
        }
        Ok(format!(
            "route cache: zipf alpha=1.0 hit rate {h}; 1M-prefix trie_bytes {}, route_bytes {}",
            v["trie_bytes"], v["route_bytes"]
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tables_scale_and_report_bytes() {
        let pts = lookup_scaling(&[1_000, 10_000]);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.lookup_mpps > 0.0 && p.synth_ms > 0.0 && p.build_ms > 0.0);
            assert!(p.update_ns > 0.0 && p.remove_ns > 0.0);
            assert!(p.routes >= p.prefixes * 9 / 10);
            assert!(p.mean_levels >= 1.0 && p.mean_levels <= 3.0);
        }
        assert!(pts[1].trie_bytes > pts[0].trie_bytes);
        assert!(pts[1].route_bytes > pts[0].route_bytes);
    }

    #[test]
    fn zipf_traffic_keeps_the_cache_warm() {
        let pts = zipf_hit_rate(ms(1), ms(4));
        assert_eq!(pts.len(), ZIPF_ALPHAS.len());
        for p in &pts {
            // Misses divert to the StrongARM, so sub-line throughput is
            // the expected cost of the cold tail — but over half the
            // offered load must still make it through the fast path.
            assert!(p.forward_mpps > 0.5, "throughput under Zipf: {:.3}", p.forward_mpps);
        }
        // Heavier-tailed popularity must cache better.
        assert!(pts[2].hit_rate > pts[0].hit_rate);
        assert!(pts[1].hit_rate > 0.5, "alpha=1 hit rate {:.3}", pts[1].hit_rate);
        // Where the lost frames go, pinned: at lower alpha cache misses
        // overflow the StrongARM's staging queue; at 1.2 none do, and
        // the loss is all output-queue drops on the two ports the most
        // popular destinations resolve to (EXPERIMENTS.md).
        let drops: Vec<_> = pts
            .iter()
            .map(|p| (p.queue_drops, p.escalation_drops, p.port_drops))
            .collect();
        assert_eq!(drops, [(0, 1270, 0), (0, 357, 0), (811, 0, 0)]);
    }

    #[test]
    fn targeted_invalidation_survives_the_storm() {
        let pts = churn_storm(ms(1), ms(4));
        assert_eq!(pts.len(), 2 * CHURN_RATES.len());
        for p in &pts {
            assert!(p.ctl_ops > 0, "updates must cross the control plane");
            assert!(p.forward_mpps > 0.0);
        }
        // At the heaviest churn, targeted invalidation must beat the
        // full flush on both hit rate and throughput — that is the
        // knob's whole point.
        let flush = &pts[CHURN_RATES.len() - 1];
        let targeted = &pts[2 * CHURN_RATES.len() - 1];
        assert_eq!((flush.mode, targeted.mode), ("full_flush", "targeted"));
        assert!(
            targeted.hit_rate > flush.hit_rate && targeted.forward_mpps > flush.forward_mpps,
            "targeted {:.4}/{:.3} <= flush {:.4}/{:.3} at {} ups",
            targeted.hit_rate,
            targeted.forward_mpps,
            flush.hit_rate,
            flush.forward_mpps,
            flush.updates_per_s
        );
    }

    /// A result carrying the gated figures: the Zipf alpha = 1.0 hit rate
    /// and the 1 M-prefix trie size, with the route store as measured.
    fn result(hit_rate: f64, trie_bytes: usize) -> RouteResult {
        RouteResult {
            scaling: vec![ScalePoint {
                prefixes: 1_000_000,
                routes: 1_000_000,
                lookup_mpps: 10.0,
                synth_ms: 0.5,
                build_ms: 0.25,
                update_ns: 900.0,
                remove_ns: 800.0,
                trie_bytes,
                route_bytes: 8_913_408,
                mean_levels: 1.5,
            }],
            zipf: vec![ZipfPoint {
                alpha: 1.0,
                hit_rate,
                forward_mpps: 1.1,
                queue_drops: 0,
                escalation_drops: 0,
                port_drops: 0,
            }],
            churn: Vec::new(),
        }
    }

    #[test]
    fn route_json_is_well_formed() {
        let mut r = result(0.9, 17_361_424);
        r.churn.push(ChurnPoint {
            mode: "targeted",
            updates_per_s: 1000,
            ctl_ops: 4,
            hit_rate: 0.8,
            forward_mpps: 1.1,
        });
        let j = route_json(&r);
        let row = &j["scaling"][0];
        assert_eq!(row["synth_ms"].to_string(), "0.50");
        assert_eq!(row["build_ms"].to_string(), "0.25");
        assert_eq!(row["update_ns"].to_string(), "900");
        assert_eq!(row["remove_ns"].to_string(), "800");
        assert_eq!(row["trie_bytes"], Value::from(17_361_424));
        assert_eq!(row["route_bytes"], Value::from(8_913_408));
        assert_eq!(j["zipf"][0]["hit_rate"].to_string(), "0.9000");
        assert_eq!(j["churn"][0]["mode"], Value::from("targeted"));
        assert_eq!(
            r.tracked(),
            "tracked: 1000000-prefix table synth_ms 0.50, build_ms 0.25, trie_bytes 17361424, \
             route_bytes 8913408"
        );
    }

    #[test]
    fn gate_trips_on_a_cold_zipf_cache() {
        let ok = result(0.5, 17_361_424).gate();
        assert_eq!(
            ok.unwrap(),
            "route cache: zipf alpha=1.0 hit rate 0.5000; 1M-prefix trie_bytes 17361424, \
             route_bytes 8913408"
        );
        let cold = result(0.49, 17_361_424).gate();
        assert_eq!(
            cold.unwrap_err(),
            "Zipf alpha=1.0 route-cache hit rate 0.4900 < 0.5"
        );
        assert!(
            result(0.49996, 17_361_424).gate().is_ok(),
            "judged as printed: 0.5000"
        );
    }

    #[test]
    fn gate_trips_on_an_expanded_trie() {
        assert!(result(0.9, TRIE_BYTES_CEILING).gate().is_ok());
        assert_eq!(
            result(0.9, TRIE_BYTES_CEILING + 1).gate().unwrap_err(),
            "1M-prefix trie_bytes 25165825 > 25165824"
        );
        // The expanded arena's figure, from before run compression.
        assert!(result(0.9, 117_143_556).gate().is_err());
    }

    #[test]
    fn gate_trips_on_a_route_map() {
        let mut r = result(0.9, 17_361_424);
        r.scaling[0].route_bytes = ROUTE_BYTES_CEILING;
        assert!(r.gate().is_ok());
        r.scaling[0].route_bytes = ROUTE_BYTES_CEILING + 1;
        assert_eq!(
            r.gate().unwrap_err(),
            "1M-prefix route_bytes 10485761 > 10485760"
        );
        // About what the hash map the lists replaced held resident.
        r.scaling[0].route_bytes = 27_000_000;
        assert!(r.gate().is_err());
    }
}
