//! The control-plane routing table.
//!
//! Wraps the prefix trie with next-hop metadata (output port + next-hop
//! MAC, which the fast path writes into the Ethernet header) and provides
//! the update operations a routing protocol drives. Updating the table
//! invalidates fast-path route-cache bindings, mirroring the paper's
//! split where "the control plane often runs compute-intensive programs,
//! such as the shortest-path algorithm to compute a new routing table".
//!
//! Two invalidation disciplines are supported: [`Invalidation::FullFlush`]
//! is the paper-faithful recompute-then-swap (every update empties the
//! cache), [`Invalidation::Targeted`] invalidates only the slots covered
//! by the changed prefix so a BGP churn storm does not zero the hit rate.
//!
//! Next hops are stored once in a refcounted arena; the cache and the
//! trie both carry indices into it. Withdrawing the last route through a
//! neighbor frees its slot for reuse, so full-table churn cannot grow
//! the array without bound and a withdrawn neighbor's MAC can no longer
//! be resolved.

use npr_packet::MacAddr;

use crate::cache::RouteCache;
use crate::hash::RouteMap;
use crate::trie::{mask, PrefixTrie, TrieStats};

/// A next hop: which port to emit on and which MAC to address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NextHop {
    /// Output port index.
    pub port: u8,
    /// Destination MAC for the rewritten Ethernet header.
    pub mac: MacAddr,
}

/// A route entry as installed by the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Network address (host bits zero).
    pub addr: u32,
    /// Prefix length.
    pub plen: u8,
    /// Next hop.
    pub next_hop: NextHop,
}

/// A route `RoutingTable::load` has recorded but not yet expanded into
/// the trie: the masked prefix, its place in the caller's order and its
/// next-hop slot. The same layout as a [`Route`], so collecting these
/// from a `Vec<Route>` reuses its buffer.
#[derive(Clone, Copy)]
struct Recorded {
    addr: u32,
    /// The prefix length in the top 8 bits, the route's position in
    /// the load in the `POS_BITS` below.
    tag: u32,
    idx: u32,
}

const _: () = assert!(
    std::mem::size_of::<Recorded>() == std::mem::size_of::<Route>()
        && std::mem::align_of::<Recorded>() == std::mem::align_of::<Route>()
);

/// Bits of `Recorded::tag` that hold the position.
const POS_BITS: u32 = 24;

impl Recorded {
    fn new(r: Route, pos: usize, idx: u32) -> Self {
        assert!(pos < 1 << POS_BITS, "a load holds at most 2^24 routes");
        Self {
            addr: mask(r.addr, r.plen),
            tag: u32::from(r.plen) << POS_BITS | pos as u32,
            idx,
        }
    }

    fn plen(&self) -> u8 {
        (self.tag >> POS_BITS) as u8
    }

    fn pos(&self) -> u32 {
        self.tag & ((1 << POS_BITS) - 1)
    }

    /// Address order, one prefix's records side by side in the caller's
    /// order.
    fn key(&self) -> u64 {
        u64::from(self.addr) << 32 | u64::from(self.tag)
    }

    /// Address order, then length.
    fn prefix(&self) -> u64 {
        u64::from(self.addr) << 8 | u64::from(self.plen())
    }
}

/// The refcounted next-hop arena: each live next hop once, in a slot the
/// trie and the cache carry.
#[derive(Debug, Clone, Default)]
struct NextHops {
    slots: Vec<NextHop>,
    /// Routes referencing each slot; 0 marks a free slot.
    refs: Vec<u32>,
    /// Free slots, reused before the array grows.
    free: Vec<u32>,
    /// Dedup index over live next hops.
    index: RouteMap<NextHop, u32>,
}

impl NextHops {
    /// Takes a reference to `next_hop`'s slot, filling a free slot (or a
    /// new one) if it has none.
    fn acquire(&mut self, next_hop: NextHop) -> u32 {
        if let Some(&i) = self.index.get(&next_hop) {
            self.refs[i as usize] += 1;
            return i;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = next_hop;
                self.refs[i as usize] = 1;
                i
            }
            None => {
                self.slots.push(next_hop);
                self.refs.push(1);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(next_hop, i);
        i
    }

    /// Drops a reference to slot `i`, freeing the slot with its last.
    fn release(&mut self, i: u32) {
        let r = &mut self.refs[i as usize];
        debug_assert!(*r > 0, "release of a free next-hop slot");
        *r -= 1;
        if *r == 0 {
            self.index.remove(&self.slots[i as usize]);
            self.free.push(i);
        }
    }
}

/// How a route update invalidates the fast-path cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Invalidation {
    /// Every update flushes all slots: the paper's recompute-then-swap
    /// control plane. The default, and the discipline the pinned golden
    /// schedule digest was recorded under.
    #[default]
    FullFlush,
    /// An update invalidates only slots covered by the changed prefix.
    Targeted,
}

/// Routing table: trie + refcounted next-hop arena + fast-path cache.
///
/// # Examples
///
/// ```
/// use npr_packet::MacAddr;
/// use npr_route::{NextHop, RoutingTable};
///
/// let mut rt = RoutingTable::new(256);
/// rt.insert(0x0a000000, 8, NextHop { port: 2, mac: MacAddr::for_port(2) });
/// let (nh, _levels) = rt.lookup_slow(0x0a00ffff);
/// assert_eq!(nh.unwrap().port, 2);
/// ```
#[derive(Debug)]
pub struct RoutingTable {
    trie: PrefixTrie,
    next_hops: NextHops,
    cache: RouteCache,
    invalidation: Invalidation,
}

impl RoutingTable {
    /// Creates an empty table with a `cache_slots`-entry route cache,
    /// default 16-8-8 strides, and full-flush invalidation.
    pub fn new(cache_slots: usize) -> Self {
        Self::with_config(&[16, 8, 8], cache_slots, Invalidation::FullFlush)
    }

    /// Creates an empty table with explicit strides and invalidation
    /// discipline.
    pub fn with_config(strides: &[u8], cache_slots: usize, invalidation: Invalidation) -> Self {
        Self {
            trie: PrefixTrie::new(strides),
            next_hops: NextHops::default(),
            cache: RouteCache::new(cache_slots),
            invalidation,
        }
    }

    /// Switches the cache-invalidation discipline (takes effect on the
    /// next update).
    pub fn set_invalidation(&mut self, mode: Invalidation) {
        self.invalidation = mode;
    }

    /// The active invalidation discipline.
    pub fn invalidation(&self) -> Invalidation {
        self.invalidation
    }

    fn invalidate(&mut self, addr: u32, plen: u8) {
        match self.invalidation {
            Invalidation::FullFlush => self.cache.flush(),
            Invalidation::Targeted => self.cache.invalidate_covered(addr, plen),
        }
    }

    /// Installs (or replaces) a route, then invalidates the covered
    /// cache bindings (all of them under full flush).
    pub fn insert(&mut self, addr: u32, plen: u8, next_hop: NextHop) {
        let idx = self.next_hops.acquire(next_hop);
        if let Some(old) = self.trie.insert(addr, plen, idx) {
            self.next_hops.release(old);
        }
        self.invalidate(addr, plen);
    }

    /// Removes a route; returns `true` if present. Invalidates the
    /// covered cache bindings and drops the next-hop reference (freeing
    /// the slot when the last route through that neighbor is withdrawn).
    pub fn remove(&mut self, addr: u32, plen: u8) -> bool {
        match self.trie.remove(addr, plen) {
            Some(idx) => {
                self.next_hops.release(idx);
                self.invalidate(addr, plen);
                true
            }
            None => false,
        }
    }

    /// Bulk-installs routes (synthetic table preload): observably the
    /// same `insert`s in order — table, next-hop arena, cache contents
    /// and cache statistics. Into a cold table it costs a next-hop
    /// acquire and an expansion per route plus one sort; a warm cache
    /// still pays its invalidation pass per route (see
    /// [`RouteCache::invalidate_covered`]).
    ///
    /// It runs in two passes. The first, in the caller's order, acquires
    /// each route's next hop, invalidates what the route covers, and
    /// records the masked prefix, its position and the slot. That is
    /// exactly what the `insert`s do to the next-hop arena and the cache
    /// as long as no route replaces another; if one does (the load
    /// repeats a prefix, or the trie already holds it), `replay` redoes
    /// the arena's part with the releases in their places. The
    /// second pass expands the records into the trie in address order,
    /// so each node is written while it is open and encoded once, and
    /// each route list is appended to and boxed once. Fills answer alike
    /// in any order (see `PrefixTrie::fill`), and a prefix the load
    /// repeats is filled once, with its last binding. Given a `Vec`, the
    /// records reuse its buffer.
    ///
    /// # Panics
    ///
    /// Panics if the load holds more than 2^24 routes.
    pub fn load<I: IntoIterator<Item = Route>>(&mut self, routes: I) {
        let before = self.next_hops.clone();
        let mut recorded: Vec<Recorded> = routes
            .into_iter()
            .enumerate()
            .map(|(pos, r)| {
                let idx = self.next_hops.acquire(r.next_hop);
                self.invalidate(r.addr, r.plen);
                Recorded::new(r, pos, idx)
            })
            .collect();
        recorded.sort_unstable_by_key(Recorded::key);
        let replaces = recorded.windows(2).any(|w| w[0].prefix() == w[1].prefix())
            || (self.trie.route_count() > 0
                && recorded
                    .iter()
                    .any(|r| self.trie.route(r.addr, r.plen()).is_some()));
        if replaces {
            self.replay(&mut recorded, before);
        }
        recorded.dedup_by(|later, kept| {
            let repeat = later.prefix() == kept.prefix();
            if repeat {
                kept.idx = later.idx;
            }
            repeat
        });
        self.trie
            .fill(recorded.iter().map(|r| (r.addr, r.plen(), r.idx)));
    }

    /// Redoes the arena's part of `load`'s first pass from the arena as
    /// it was `before` the load, now releasing what each route replaces: in the caller's
    /// order, each route acquires its next hop (the provisional pass,
    /// which released nothing, left every record's slot holding it) and
    /// releases the slot of the binding it replaces: its prefix's
    /// previous route in the load (kept for the repeated prefixes only)
    /// or the route the trie holds. Leaves `recorded` in key order with
    /// each record's slot as the `insert`s number it.
    fn replay(&mut self, recorded: &mut [Recorded], before: NextHops) {
        let provisional = std::mem::replace(&mut self.next_hops, before).slots;
        // The last slot of each prefix the load repeats, so far.
        let mut repeated: Vec<(u64, Option<u32>)> = recorded
            .windows(2)
            .filter(|w| w[0].prefix() == w[1].prefix())
            .map(|w| (w[0].prefix(), None))
            .collect();
        repeated.dedup();
        recorded.sort_unstable_by_key(Recorded::pos);
        for r in recorded.iter_mut() {
            r.idx = self.next_hops.acquire(provisional[r.idx as usize]);
            let earlier = match repeated.binary_search_by_key(&r.prefix(), |&(p, _)| p) {
                Ok(i) => repeated[i].1.replace(r.idx),
                Err(_) => None,
            };
            if let Some(old) = earlier.or_else(|| self.trie.route(r.addr, r.plen())) {
                self.next_hops.release(old);
            }
        }
        recorded.sort_unstable_by_key(Recorded::key);
    }

    /// Fast-path lookup: route-cache only. `None` means the packet is
    /// exceptional and must go to the StrongARM. A hit yields the full
    /// next hop (port and MAC) — the cache stores a next-hop index, so
    /// two neighbors on one port cannot alias.
    pub fn lookup_fast(&mut self, dst: u32) -> Option<NextHop> {
        let idx = self.cache.lookup(dst)?;
        Some(self.next_hops.slots[idx as usize])
    }

    /// Slow-path lookup via the trie: returns the next hop and the number
    /// of trie levels touched (for cycle accounting).
    pub fn lookup_slow(&self, dst: u32) -> (Option<NextHop>, u32) {
        let (v, levels) = self.trie.lookup(dst);
        (v.map(|i| self.next_hops.slots[i as usize]), levels)
    }

    /// Slow-path lookup that also installs the result in the cache (the
    /// StrongARM's miss handler).
    pub fn lookup_and_fill(&mut self, dst: u32) -> (Option<NextHop>, u32) {
        let (v, levels) = self.trie.lookup(dst);
        match v {
            Some(idx) => {
                self.cache.install(dst, idx);
                (Some(self.next_hops.slots[idx as usize]), levels)
            }
            None => (None, levels),
        }
    }

    /// Number of installed routes.
    pub fn route_count(&self) -> usize {
        self.trie.route_count()
    }

    /// Number of live (referenced) next hops.
    pub fn next_hop_count(&self) -> usize {
        self.next_hops.index.len()
    }

    /// Total next-hop slots allocated, live or free — bounded by the
    /// peak number of *concurrent* neighbors, not by churn volume.
    pub fn next_hop_slots(&self) -> usize {
        self.next_hops.slots.len()
    }

    /// Whether any installed route still resolves to `next_hop`.
    pub fn has_next_hop(&self, next_hop: &NextHop) -> bool {
        self.next_hops.index.contains_key(next_hop)
    }

    /// Lifetime cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Trie shape / memory / lookup statistics.
    pub fn trie_stats(&self) -> TrieStats {
        self.trie.stats()
    }

    /// Resident bytes of the trie's route store
    /// ([`PrefixTrie::route_bytes`]).
    pub fn route_bytes(&self) -> usize {
        self.trie.route_bytes()
    }

    /// Mean trie levels touched per slow-path lookup so far.
    pub fn mean_lookup_levels(&self) -> f64 {
        self.trie.stats().mean_levels()
    }
}

#[cfg(test)]
mod tests {
    use npr_check::prelude::*;

    use super::*;
    use crate::gen::sample_dsts;

    fn nh(port: u8) -> NextHop {
        NextHop {
            port,
            mac: MacAddr::for_port(port),
        }
    }

    /// An address in a universe small enough that prefixes drawn from it
    /// cover some cached destinations and spare others: first octet
    /// 10..18, the other three 0..4.
    fn small_addr((a, b, c, d): (u32, u32, u32, u32)) -> u32 {
        (10 + a) << 24 | b << 16 | c << 8 | d
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// `load` is the same `insert`s in order, whatever the cache
        /// holds when it starts: a twin table fed one route at a time
        /// answers every slow and fast lookup alike and reports the same
        /// counts, cache statistics and trie shape, in both invalidation
        /// modes, cache cold or warm.
        #[test]
        fn load_is_the_same_inserts_in_order(
            base in npr_check::collection::vec((0u32..8, 0u8..4), 1..6),
            bulk in npr_check::collection::vec(
                ((0u32..8, 0u32..4, 0u32..4, 0u32..4), 8u8..=32, 0u8..6), 0..48),
            dsts in npr_check::collection::vec((0u32..8, 0u32..4, 0u32..4, 0u32..4), 1..64),
            warm: bool,
        ) {
            let bulk: Vec<Route> = bulk
                .iter()
                .map(|&(a, plen, n)| Route { addr: mask(small_addr(a), plen), plen, next_hop: nh(n) })
                .collect();
            let dsts: Vec<u32> = dsts.iter().map(|&d| small_addr(d)).collect();
            for mode in [Invalidation::FullFlush, Invalidation::Targeted] {
                let mut loaded = RoutingTable::with_config(&[16, 8, 8], 64, mode);
                let mut twin = RoutingTable::with_config(&[16, 8, 8], 64, mode);
                let mut all = bulk.clone();
                for &(o, n) in &base {
                    let r = Route { addr: (10 + o) << 24, plen: 8, next_hop: nh(n) };
                    loaded.insert(r.addr, r.plen, r.next_hop);
                    twin.insert(r.addr, r.plen, r.next_hop);
                    all.push(r);
                }
                if warm {
                    for &d in &dsts {
                        prop_assert_eq!(loaded.lookup_and_fill(d), twin.lookup_and_fill(d));
                    }
                }

                loaded.load(bulk.iter().copied());
                for r in &bulk {
                    twin.insert(r.addr, r.plen, r.next_hop);
                }

                for d in sample_dsts(&all, 64, 5) {
                    prop_assert_eq!(loaded.lookup_slow(d), twin.lookup_slow(d), "dst {:#x}", d);
                }
                // Every address the cache ever held: the survivors and
                // the invalidated must be the same ones.
                for &d in &dsts {
                    prop_assert_eq!(loaded.lookup_fast(d), twin.lookup_fast(d), "dst {:#x}", d);
                }
                prop_assert_eq!(loaded.cache_stats(), twin.cache_stats());
                prop_assert_eq!(loaded.route_count(), twin.route_count());
                prop_assert_eq!(loaded.next_hop_count(), twin.next_hop_count());
                prop_assert_eq!(loaded.next_hop_slots(), twin.next_hop_slots());
                prop_assert_eq!(loaded.trie_stats(), twin.trie_stats());
            }
        }
    }

    /// A bulk load into a warm targeted cache drops exactly the bindings
    /// the same `insert`s drop, and leaves the same table. The load
    /// rebinds prefixes the table holds and repeats some of its own, and
    /// a /20 over every seventh cached destination makes sure bindings
    /// both go and stay.
    #[test]
    fn warm_targeted_load_drops_what_the_inserts_drop() {
        let base = crate::gen::synth_table(&crate::gen::TableSpec::internet(2_000, 21));
        let mut batch = crate::gen::synth_table(&crate::gen::TableSpec::internet(300, 22));
        let dsts = sample_dsts(&base, 2_000, 23);
        batch.extend(dsts.iter().step_by(7).map(|&d| Route {
            addr: mask(d, 20),
            plen: 20,
            next_hop: nh(6),
        }));
        batch.extend(base.iter().step_by(40).map(|&r| Route {
            next_hop: nh(7),
            ..r
        }));
        batch.extend(batch.clone().iter().step_by(10).map(|&r| Route {
            next_hop: nh(5),
            ..r
        }));

        let warm = || {
            let mut t = RoutingTable::with_config(&[16, 8, 8], 4096, Invalidation::Targeted);
            t.load(base.iter().copied());
            for &d in &dsts {
                t.lookup_and_fill(d);
            }
            t
        };
        let (mut loaded, mut twin) = (warm(), warm());
        loaded.load(batch.iter().copied());
        for r in &batch {
            twin.insert(r.addr, r.plen, r.next_hop);
        }

        let hits: Vec<Option<NextHop>> = dsts.iter().map(|&d| loaded.lookup_fast(d)).collect();
        for (&d, &hit) in dsts.iter().zip(&hits) {
            assert_eq!(hit, twin.lookup_fast(d), "dst {d:#x}");
        }
        let kept = hits.iter().filter(|h| h.is_some()).count();
        assert!(
            kept > 0 && kept < dsts.len(),
            "{kept} of {} bindings kept",
            dsts.len()
        );
        assert_eq!(loaded.cache_stats(), twin.cache_stats());
        assert_eq!(loaded.next_hop_slots(), twin.next_hop_slots());
        assert_eq!(loaded.trie_stats(), twin.trie_stats());
        assert_eq!(loaded.route_bytes(), twin.route_bytes());
    }

    #[test]
    fn fast_path_misses_until_filled() {
        let mut rt = RoutingTable::new(64);
        rt.insert(0x0a000000, 8, nh(1));
        assert_eq!(rt.lookup_fast(0x0a000001), None);
        let (h, _) = rt.lookup_and_fill(0x0a000001);
        assert_eq!(h.unwrap().port, 1);
        assert_eq!(rt.lookup_fast(0x0a000001), Some(nh(1)));
    }

    #[test]
    fn update_flushes_cache() {
        let mut rt = RoutingTable::new(64);
        rt.insert(0x0a000000, 8, nh(1));
        rt.lookup_and_fill(0x0a000001);
        assert_eq!(rt.lookup_fast(0x0a000001), Some(nh(1)));
        // A more specific route changes the answer; the stale cache entry
        // must not survive.
        rt.insert(0x0a000000, 24, nh(2));
        assert_eq!(rt.lookup_fast(0x0a000001), None);
        let (h, _) = rt.lookup_and_fill(0x0a000001);
        assert_eq!(h.unwrap().port, 2);
    }

    #[test]
    fn remove_flushes_cache() {
        let mut rt = RoutingTable::new(64);
        rt.insert(0x0a000000, 8, nh(1));
        rt.lookup_and_fill(0x0a000001);
        assert!(rt.remove(0x0a000000, 8));
        assert_eq!(rt.lookup_fast(0x0a000001), None);
        let (h, _) = rt.lookup_slow(0x0a000001);
        assert!(h.is_none());
    }

    #[test]
    fn targeted_update_spares_unrelated_bindings() {
        let mut rt = RoutingTable::with_config(&[16, 8, 8], 4096, Invalidation::Targeted);
        rt.insert(0x0a000000, 8, nh(1)); // 10/8
        rt.insert(0x14000000, 8, nh(2)); // 20/8
        rt.lookup_and_fill(0x0a000001);
        rt.lookup_and_fill(0x14000001);
        // Updating 10.10/16 must not evict the 20.0.0.1 binding, but a
        // covered destination must miss and re-resolve.
        rt.insert(0x0a0a0000, 16, nh(3));
        assert_eq!(rt.lookup_fast(0x14000001), Some(nh(2)));
        rt.lookup_and_fill(0x0a0a0001);
        assert_eq!(rt.lookup_fast(0x0a0a0001), Some(nh(3)));
        // Withdrawal likewise only touches the covered span.
        assert!(rt.remove(0x0a0a0000, 16));
        assert_eq!(rt.lookup_fast(0x0a0a0001), None);
        assert_eq!(rt.lookup_fast(0x14000001), Some(nh(2)));
        let (h, _) = rt.lookup_and_fill(0x0a0a0001);
        assert_eq!(h.unwrap().port, 1);
    }

    #[test]
    fn next_hop_dedup() {
        let mut rt = RoutingTable::new(64);
        rt.insert(0x0a000000, 8, nh(1));
        rt.insert(0x14000000, 8, nh(1));
        rt.insert(0x1e000000, 8, nh(2));
        assert_eq!(rt.next_hop_count(), 2);
        assert_eq!(rt.route_count(), 3);
    }

    /// Satellite regression: two neighbors on the *same* port with
    /// different MACs. The old cache carried a bare port and recovered
    /// the MAC by scanning for the first next hop on that port, so one
    /// neighbor's traffic was rewritten with the other's MAC.
    #[test]
    fn same_port_neighbors_keep_their_own_macs() {
        let a = NextHop {
            port: 3,
            mac: MacAddr([0x02, 0xAA, 0, 0, 0, 1]),
        };
        let b = NextHop {
            port: 3,
            mac: MacAddr([0x02, 0xBB, 0, 0, 0, 2]),
        };
        let mut rt = RoutingTable::new(64);
        rt.insert(0x0a000000, 8, a);
        rt.insert(0x14000000, 8, b);
        let (ha, _) = rt.lookup_and_fill(0x0a000001);
        let (hb, _) = rt.lookup_and_fill(0x14000001);
        assert_eq!(ha.unwrap(), a);
        assert_eq!(hb.unwrap(), b);
        // The fast path must agree with the slow path per destination.
        assert_eq!(rt.lookup_fast(0x0a000001), Some(a));
        assert_eq!(rt.lookup_fast(0x14000001), Some(b));
    }

    /// Satellite regression: a withdraw/announce churn loop must not
    /// grow the next-hop array, and a fully withdrawn neighbor's MAC
    /// must stop being resolvable.
    #[test]
    fn churn_keeps_next_hops_bounded_and_frees_withdrawn_neighbors() {
        let mut rt = RoutingTable::new(64);
        rt.insert(0x0a000000, 8, nh(0)); // One stable route.
        for round in 0..1000u32 {
            let ephemeral = NextHop {
                port: 5,
                mac: MacAddr([0x02, 0xEE, 0, 0, (round >> 8) as u8, round as u8]),
            };
            rt.insert(0x14000000, 8, ephemeral);
            assert!(rt.has_next_hop(&ephemeral));
            assert!(rt.remove(0x14000000, 8));
            assert!(
                !rt.has_next_hop(&ephemeral),
                "withdrawn neighbor still resolvable at round {round}"
            );
        }
        assert_eq!(rt.next_hop_count(), 1);
        assert!(
            rt.next_hop_slots() <= 2,
            "next-hop array grew under churn: {} slots",
            rt.next_hop_slots()
        );
    }

    #[test]
    fn replacing_a_routes_next_hop_releases_the_old_one() {
        let mut rt = RoutingTable::new(64);
        let a = nh(1);
        let b = nh(2);
        rt.insert(0x0a000000, 8, a);
        rt.insert(0x0a000000, 8, b);
        assert!(!rt.has_next_hop(&a));
        assert!(rt.has_next_hop(&b));
        assert_eq!(rt.next_hop_count(), 1);
        let (h, _) = rt.lookup_and_fill(0x0a000001);
        assert_eq!(h.unwrap(), b);
    }

    #[test]
    fn freed_slot_reuse_cannot_serve_stale_bindings() {
        // Install + cache a binding, withdraw it, then reuse the freed
        // slot for a different neighbor: the stale cache entry must be
        // gone (invalidation covers every destination the dead route
        // could have bound).
        let mut rt = RoutingTable::with_config(&[16, 8, 8], 64, Invalidation::Targeted);
        let a = NextHop {
            port: 1,
            mac: MacAddr([0x02, 0xAA, 0, 0, 0, 1]),
        };
        let b = NextHop {
            port: 2,
            mac: MacAddr([0x02, 0xBB, 0, 0, 0, 2]),
        };
        rt.insert(0x0a000000, 8, a);
        rt.lookup_and_fill(0x0a000001);
        assert!(rt.remove(0x0a000000, 8));
        rt.insert(0x14000000, 8, b); // Reuses slot 0.
        assert_eq!(rt.lookup_fast(0x0a000001), None);
    }
}
