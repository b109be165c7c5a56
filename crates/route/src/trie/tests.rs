//! The trie's unit and property tests.

use std::collections::BTreeMap;

use super::*;
use npr_check::prelude::*;
use npr_check::sample::Index;

/// The stride sets `exp_ablations::trie_strides` compares.
const STRIDE_SETS: [&[u8]; 4] = [&[16, 8, 8], &[24, 8], &[8, 8, 8, 8], &[16, 16]];

/// Probe addresses: each even draw is its raw `u32`, each odd one
/// lands under a drawn route (its masked address with the draw's
/// bits as host bits), since uniform probes almost never fall inside
/// a long prefix's span.
fn probes(routes: &[(u32, u8, u32)], draws: &[(u32, Index)]) -> Vec<u32> {
    draws
        .iter()
        .enumerate()
        .map(|(k, &(bits, pick))| {
            if k % 2 == 0 || routes.is_empty() {
                return bits;
            }
            let (a, l, _) = routes[pick.index(routes.len())];
            mask(a, l) | (bits & !mask(u32::MAX, l))
        })
        .collect()
}

/// Brute-force longest-prefix match over the model.
fn model_lookup(model: &BTreeMap<(u32, u8), u32>, addr: u32) -> Option<u32> {
    model
        .iter()
        .filter(|&(&(a, l), _)| mask(addr, l) == a)
        .max_by_key(|&(&(_, l), _)| l)
        .map(|(_, &v)| v)
}

#[test]
fn empty_trie_matches_nothing() {
    let t = PrefixTrie::ipv4_default();
    assert_eq!(t.lookup(0x01020304).0, None);
}

#[test]
fn default_route_matches_everything() {
    let mut t = PrefixTrie::ipv4_default();
    t.insert(0, 0, 99);
    assert_eq!(t.lookup(0).0, Some(99));
    assert_eq!(t.lookup(u32::MAX).0, Some(99));
}

#[test]
fn longest_prefix_wins() {
    let mut t = PrefixTrie::ipv4_default();
    t.insert(0x0a000000, 8, 1);
    t.insert(0x0a0a0000, 16, 2);
    t.insert(0x0a0a0a00, 24, 3);
    t.insert(0x0a0a0a0a, 32, 4);
    assert_eq!(t.lookup(0x0a010101).0, Some(1));
    assert_eq!(t.lookup(0x0a0a0101).0, Some(2));
    assert_eq!(t.lookup(0x0a0a0a01).0, Some(3));
    assert_eq!(t.lookup(0x0a0a0a0a).0, Some(4));
}

#[test]
fn insert_order_is_irrelevant() {
    let mut a = PrefixTrie::ipv4_default();
    let mut b = PrefixTrie::ipv4_default();
    let routes = [(0x0a000000u32, 8u8, 1u32), (0x0a0a0000, 16, 2), (0, 0, 9)];
    for &(ad, l, v) in &routes {
        a.insert(ad, l, v);
    }
    for &(ad, l, v) in routes.iter().rev() {
        b.insert(ad, l, v);
    }
    for probe in [0x0a0a0001u32, 0x0a000001, 0x01020304, 0xffffffff] {
        assert_eq!(a.lookup(probe).0, b.lookup(probe).0);
    }
}

#[test]
fn reinsert_overwrites_and_returns_old() {
    let mut t = PrefixTrie::ipv4_default();
    assert_eq!(t.insert(0x0a000000, 8, 1), None);
    assert_eq!(t.insert(0x0a000000, 8, 7), Some(1));
    assert_eq!(t.lookup(0x0a123456).0, Some(7));
    assert_eq!(t.route_count(), 1);
}

#[test]
fn remove_falls_back_to_shorter_prefix() {
    let mut t = PrefixTrie::ipv4_default();
    t.insert(0x0a000000, 8, 1);
    t.insert(0x0a0a0000, 16, 2);
    assert_eq!(t.remove(0x0a0a0000, 16), Some(2));
    assert_eq!(t.lookup(0x0a0a0101).0, Some(1));
    assert_eq!(t.remove(0x0a0a0000, 16), None);
}

#[test]
fn remove_repairs_between_specifics() {
    // /24 routes survive the removal of the /16 between them.
    let mut t = PrefixTrie::ipv4_default();
    t.insert(0x0a0a0000, 16, 1);
    t.insert(0x0a0a0a00, 24, 2);
    t.insert(0x0a0a0b00, 24, 3);
    assert_eq!(t.remove(0x0a0a0000, 16), Some(1));
    assert_eq!(t.lookup(0x0a0a0a01).0, Some(2));
    assert_eq!(t.lookup(0x0a0a0b01).0, Some(3));
    assert_eq!(t.lookup(0x0a0a0c01).0, None);
}

#[test]
fn remove_reencodes_the_node_it_repairs() {
    // Two /28s share a level-2 node: withdrawing one leaves that node
    // encoded exactly as if the other had been installed alone.
    let mut t = PrefixTrie::ipv4_default();
    t.insert(0x0a0a0a00, 28, 1);
    t.insert(0x0a0a0a10, 28, 2);
    assert_eq!(t.remove(0x0a0a0a10, 28), Some(2));
    let mut alone = PrefixTrie::ipv4_default();
    alone.insert(0x0a0a0a00, 28, 1);
    assert_eq!(t.stats(), alone.stats());
}

#[test]
fn lookup_levels_bounded_by_strides() {
    let mut t = PrefixTrie::new(&[8, 8, 8, 8]);
    t.insert(0x0a0a0a0a, 32, 1);
    let (_, levels) = t.lookup(0x0a0a0a0a);
    assert_eq!(levels, 4);
    let (_, levels) = t.lookup(0xffffffff);
    assert_eq!(levels, 1);
}

#[test]
fn short_prefix_within_first_stride_is_one_level() {
    let mut t = PrefixTrie::ipv4_default();
    t.insert(0x80000000, 1, 5);
    let (v, levels) = t.lookup(0xdeadbeef);
    assert_eq!(v, Some(5));
    assert_eq!(levels, 1);
}

#[test]
fn stats_track_shape() {
    let mut t = PrefixTrie::ipv4_default();
    assert_eq!(t.stats().nodes, 1);
    t.insert(0x0a0a0a0a, 32, 1); // Needs two child nodes.
    assert_eq!(t.stats().nodes, 3);
    t.lookup(0);
    t.lookup(0x0a0a0a0a);
    let s = t.stats();
    assert_eq!(s.lookups, 2);
    assert!(s.mean_levels() > 1.0);
    assert_eq!(s.entries, (1 << 16) + 2 * 256);
    // Each child is three runs (zeros, the one set entry, zeros)
    // behind a six-word head (four bitmap words, two of rank
    // lanes); the two open-node buffers stay.
    let words = (1 << 16) + 2 * 256 + 2 * (6 + 3);
    assert_eq!(s.bytes, words * 8 + 2 * std::mem::size_of::<Box<[u64]>>());
}

#[test]
fn churn_reuses_freed_nodes() {
    let mut t = PrefixTrie::ipv4_default();
    let flat = t.stats();
    let flat_routes = t.route_bytes();
    for round in 0..50u32 {
        t.insert(0x0a0a0a00, 24, round);
        t.insert(0x0a0a0a0a, 32, round);
        assert_eq!(t.stats().nodes, 3);
        assert!(t.remove(0x0a0a0a00, 24).is_some());
        assert!(t.remove(0x0a0a0a0a, 32).is_some());
        // Both child nodes are freed, storage and all...
        assert_eq!(t.stats().nodes, 1);
        assert_eq!(t.stats().entries, flat.entries);
        assert_eq!(t.stats().bytes, flat.bytes);
        assert_eq!(t.route_bytes(), flat_routes);
    }
    // ...and their ids, one per level, are all the churn allocated.
    assert!(t.levels.iter().all(|l| l.slots() == 1));
}

#[test]
fn full_value_range_roundtrips() {
    let mut t = PrefixTrie::ipv4_default();
    t.insert(0x0a000000, 8, u32::MAX);
    assert_eq!(t.lookup(0x0affffff).0, Some(u32::MAX));
}

#[test]
fn the_largest_node_id_packs_without_loss() {
    let id = node_id(MAX_NODES - 1);
    let e = with_child(with_value(0, u32::MAX, 32), id);
    assert_eq!(entry_child(e), Some((1 << 24) - 1));
    assert_eq!((entry_value(e), entry_plen(e)), (Some(u32::MAX), 32));
    assert_eq!(entry_child(without_value(e)), Some(id));
}

#[test]
#[should_panic(expected = "overflows the child field")]
fn a_node_id_past_the_child_field_panics() {
    node_id(MAX_NODES);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn trie_matches_naive_oracle(
        routes in npr_check::collection::vec((any::<u32>(), 0u8..=32, any::<u32>()), 0..64),
        draws in npr_check::collection::vec((any::<u32>(), any::<Index>()), 0..64),
    ) {
        let mut model = BTreeMap::new();
        for &(a, l, v) in &routes {
            model.insert((mask(a, l), l), v);
        }
        for strides in STRIDE_SETS {
            let mut t = PrefixTrie::new(strides);
            for &(a, l, v) in &routes {
                t.insert(a, l, v);
            }
            for p in probes(&routes, &draws) {
                prop_assert_eq!(t.lookup(p).0, t.lookup_naive(p), "{:?} probe {:#x}", strides, p);
                prop_assert_eq!(t.lookup(p).0, model_lookup(&model, p), "{:?} probe {:#x}", strides, p);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn removal_matches_fresh_build(
        routes in npr_check::collection::vec((any::<u32>(), 0u8..=32, any::<u32>()), 1..32),
        kill in any::<Index>(),
        draws in npr_check::collection::vec((any::<u32>(), any::<Index>()), 0..32),
    ) {
        let mut t = PrefixTrie::ipv4_default();
        for &(a, l, v) in &routes {
            t.insert(a, l, v);
        }
        let (ka, kl, _) = routes[kill.index(routes.len())];
        t.remove(ka, kl);
        // A trie freshly built from the surviving routes must agree.
        let mut fresh = PrefixTrie::ipv4_default();
        let masked = |a: u32, l: u8| super::mask(a, l);
        for &(a, l, v) in &routes {
            if masked(a, l) == masked(ka, kl) && l == kl {
                continue;
            }
            fresh.insert(a, l, v);
        }
        // The same nodes, each re-encoded to the same runs.
        let shape = |s: TrieStats| (s.nodes, s.entries, s.bytes);
        prop_assert_eq!(shape(t.stats()), shape(fresh.stats()));
        for p in probes(&routes, &draws) {
            prop_assert_eq!(t.lookup(p).0, fresh.lookup(p).0);
        }
    }

    /// Satellite coverage: a whole interleaved insert/remove history
    /// of overlapping prefixes, checked after every removal — the
    /// repaired entries must always fall back to the correct shorter
    /// match (the naive oracle over the surviving route lists, and a
    /// brute-force match over a model of them).
    #[test]
    fn interleaved_churn_falls_back_correctly(
        routes in npr_check::collection::vec((any::<u32>(), 0u8..=32, any::<u32>()), 1..24),
        ops in npr_check::collection::vec((any::<Index>(), any::<bool>()), 1..48),
        draws in npr_check::collection::vec((any::<u32>(), any::<Index>()), 1..16),
    ) {
        let mut t = PrefixTrie::ipv4_default();
        let mut model = BTreeMap::new();
        let probes = probes(&routes, &draws);
        for (i, insert) in &ops {
            let (a, l, _) = routes[i.index(routes.len())];
            if *insert {
                t.insert(a, l, u32::from(l) + 1);
                model.insert((mask(a, l), l), u32::from(l) + 1);
            } else {
                t.remove(a, l);
                model.remove(&(mask(a, l), l));
            }
            // Probe the churned prefix's own span too: host bits set.
            let edge = super::mask(a, l) | !super::mask(u32::MAX, l);
            for &p in probes.iter().chain([&edge]) {
                prop_assert_eq!(t.lookup(p).0, t.lookup_naive(p), "probe {:#x}", p);
                prop_assert_eq!(t.lookup(p).0, model_lookup(&model, p), "probe {:#x}", p);
            }
        }
    }
}

/// An address from a 64-member universe: six drawn bits at 31, 24, 17,
/// 12, 6 and 0, so prefixes of every length nest in the root and in the
/// nodes below it under each stride set.
fn nested_addr(bits: u8) -> u32 {
    [31, 24, 17, 12, 6, 0]
        .iter()
        .enumerate()
        .fold(0, |a, (i, &at)| a | u32::from(bits >> i & 1) << at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// The route store against a model that shares no code with it: any
    /// history of inserts, re-inserts of installed prefixes, removals
    /// (present or not) and fills that repeat a prefix, over lengths
    /// 0–32, leaves `route()`, `route_count()` and `lookup` agreeing with
    /// a `BTreeMap` and a brute-force longest match over it after every
    /// step, on all four stride sets. Removing everything then leaves
    /// the trie's shape and the store's bytes as a fresh trie's.
    #[test]
    fn route_store_matches_an_independent_model(
        ops in npr_check::collection::vec(
            (0u8..4, (0u8..64, 0u8..=32), (0u8..64, 0u8..=32), any::<u32>(), any::<Index>()),
            1..24),
    ) {
        for strides in STRIDE_SETS {
            let mut t = PrefixTrie::new(strides);
            let (fresh, fresh_routes) = (t.stats(), t.route_bytes());
            let mut model: BTreeMap<(u32, u8), u32> = BTreeMap::new();
            for &(kind, (a, l), (b, m), v, pick) in &ops {
                let (a, b) = (mask(nested_addr(a), l), mask(nested_addr(b), m));
                match kind {
                    0 => prop_assert_eq!(t.insert(a, l, v), model.insert((a, l), v)),
                    1 => {
                        // Rebind an installed prefix, if there is one.
                        let &(a, l) = model.keys().nth(pick.index(model.len().max(1))).unwrap_or(&(a, l));
                        prop_assert_eq!(t.insert(a, l, v), model.insert((a, l), v));
                    }
                    2 => prop_assert_eq!(t.remove(a, l), model.remove(&(a, l))),
                    _ => {
                        // A fill that repeats its first prefix: the later wins.
                        let batch = [(a, l, v), (b, m, v ^ 1), (a, l, v ^ 2)];
                        t.fill(batch);
                        for (a, l, v) in batch {
                            model.insert((a, l), v);
                        }
                    }
                }
                prop_assert_eq!(t.route_count(), model.len(), "{:?}", strides);
                for (&(a, l), &v) in &model {
                    prop_assert_eq!(t.route(a, l), Some(v), "{:?} {:#x}/{}", strides, a, l);
                }
                prop_assert_eq!(t.route(b, m), model.get(&(b, m)).copied());
                // Every installed prefix's first and last address, and
                // the drawn ones.
                let edges = model.keys().flat_map(|&(a, l)| [a, a | !mask(u32::MAX, l)]);
                for p in edges.chain([a, b, a | !mask(u32::MAX, l), v]) {
                    prop_assert_eq!(t.lookup(p).0, model_lookup(&model, p), "{:?} probe {:#x}", strides, p);
                }
            }
            for (&(a, l), &v) in &model {
                prop_assert_eq!(t.remove(a, l), Some(v));
            }
            prop_assert_eq!(t.route_count(), 0);
            let shape = |s: TrieStats| (s.nodes, s.entries, s.bytes);
            prop_assert_eq!(shape(t.stats()), shape(fresh), "{:?}", strides);
            prop_assert_eq!(t.route_bytes(), fresh_routes, "{:?}", strides);
        }
    }
}
