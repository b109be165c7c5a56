//! Internet-scale smoke test: build a synthetic BGP-like table, look up
//! sampled destinations, then tear the whole thing back down.
//!
//! The table has a million prefixes, the internet scale the route layer
//! is built for, in every build: `cargo test` runs it at the dev
//! profile's opt-level 1.

use npr_route::gen::{neighbors, sample_dsts, synth_table, TableSpec};
use npr_route::{Invalidation, Route, RoutingTable};

#[test]
fn million_prefix_build_lookup_teardown() {
    let prefixes = 1_000_000;
    let spec = TableSpec::internet(prefixes, 0x5CA1_AB1E);
    let routes = synth_table(&spec);
    assert!(routes.len() >= prefixes * 9 / 10, "generator saturated early: {}", routes.len());

    let mut table = RoutingTable::with_config(&[16, 8, 8], 4096, Invalidation::Targeted);
    let fresh = table.trie_stats();
    let fresh_routes = table.route_bytes();
    table.load(routes.iter().cloned());
    assert_eq!(table.route_count(), routes.len());

    let stats = table.trie_stats();
    // The trie must stay within a sane envelope: the stride-16 root
    // plus at most one expanded child node per distinct /16 and /24
    // covered.
    let ceiling = (1usize << 16) * 8 + routes.len() * 2 * 256 * 8;
    assert!(stats.bytes <= ceiling, "trie {} bytes > ceiling {}", stats.bytes, ceiling);
    // The exact shape, pinned: `BENCH_route.json` publishes the 1 M
    // figure as `trie_bytes`, so the build may get faster but may not
    // move a node or a run.
    let pinned = if prefixes == 1_000_000 {
        (56_833, 14_614_528, 17_361_424)
    } else {
        (30_082, 7_766_272, 3_344_640)
    };
    assert_eq!(
        (stats.nodes, stats.entries, stats.bytes),
        pinned,
        "trie shape moved"
    );

    // Every sampled destination (host bits under a real route) resolves.
    for dst in sample_dsts(&routes, 10_000, 7) {
        assert!(table.lookup_slow(dst).0.is_some(), "no route for {dst:#010x}");
    }

    // Teardown: withdrawing everything must free every node, its run
    // storage, its route list and every next-hop slot (the leak fix),
    // leaving only the permanent root and its empty route lists.
    for r in &routes {
        assert!(table.remove(r.addr, r.plen));
    }
    assert_eq!(table.route_count(), 0);
    assert_eq!(table.next_hop_count(), 0);
    let empty = table.trie_stats();
    assert_eq!(empty.nodes, 1, "non-root nodes leaked");
    assert_eq!(empty.bytes, fresh.bytes, "node storage leaked");
    assert_eq!(table.route_bytes(), fresh_routes, "route store leaked");
    for dst in sample_dsts(&routes, 100, 8) {
        assert!(table.lookup_slow(dst).0.is_none());
    }
}

/// `load` against one `insert` at a time at a size the property tests
/// never reach: 100 k generated prefixes, whose /16s hold real groups of
/// overlapping /17–/24s, then every tenth prefix again, rebound to the
/// next neighbor, so a repeated prefix must keep its last next hop.
#[test]
fn bulk_load_equals_single_inserts_at_scale() {
    let spec = TableSpec::internet(100_000, 0x5CA1_AB1E);
    let mut routes = synth_table(&spec);
    let nbrs = neighbors(&spec);
    let rebound: Vec<Route> = routes
        .iter()
        .step_by(10)
        .map(|r| {
            let slot = nbrs
                .iter()
                .position(|n| *n == r.next_hop)
                .expect("drawn from nbrs");
            Route {
                next_hop: nbrs[(slot + 1) % nbrs.len()],
                ..*r
            }
        })
        .collect();
    routes.extend(rebound);

    let table = || RoutingTable::with_config(&[16, 8, 8], 4096, Invalidation::Targeted);
    let mut loaded = table();
    // By value, as `Router::new` passes it: the records reuse the buffer.
    loaded.load(routes.clone());
    let mut single = table();
    for r in &routes {
        single.insert(r.addr, r.plen, r.next_hop);
    }

    for dst in sample_dsts(&routes, 10_000, 3) {
        assert_eq!(
            loaded.lookup_slow(dst),
            single.lookup_slow(dst),
            "dst {dst:#010x}"
        );
    }
    assert_eq!(loaded.route_count(), 100_000);
    assert_eq!(loaded.route_count(), single.route_count());
    assert_eq!(loaded.next_hop_count(), single.next_hop_count());
    assert_eq!(loaded.next_hop_slots(), single.next_hop_slots());
    assert_eq!(loaded.trie_stats(), single.trie_stats());
}
