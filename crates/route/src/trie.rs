//! Controlled prefix expansion (Srinivasan & Varghese, TOCS 1999).
//!
//! Prefixes are expanded to a fixed set of stride boundaries and stored
//! in a multibit trie; a lookup inspects at most one node per stride
//! level. The default strides (16, 8, 8) are the classic configuration
//! for IPv4 with a 64 K-entry root: most lookups touch one or two levels.
//!
//! Lookup cost is reported per level touched so the simulation can charge
//! MicroEngine/StrongARM cycles; the paper measured an average of 236
//! cycles per lookup on its table.
//!
//! # Memory layout
//!
//! An entry packs value, expanded prefix length, and child pointer into
//! a single word:
//!
//! ```text
//! bit 63      bits 39..63   bits 33..39   bit 32      bits 0..32
//! has_child   child node id expanded plen has_value   value
//! ```
//!
//! The root's `2^stride` entries are one flat array, so a root touch is
//! one index. Expansion copies one word across a whole span, so below
//! the root a node is mostly long runs of equal words: at 1 M prefixes
//! a 256-entry node holds ~29 runs. Every below-root node is therefore
//! stored run-compressed (the Poptrie encoding, Asai & Ohara, SIGCOMM
//! 2015) as a fixed-size head and a dense slice of runs:
//!
//! ```text
//! head   bitmap  2^stride / 64 words: bit i set where entry i differs
//!                from entry i-1 (bit 0 always set)
//!        ranks   one u32 lane per bitmap word, two to a word: the bits
//!                set in the bitmap words before it
//! runs           one entry word per set bit, in entry order
//!
//! entry i = runs[ranks[i / 64] + popcount(bitmap[i / 64] & bits 0..=i % 64) - 1]
//! ```
//!
//! A level keeps its nodes' heads in one array and their runs in
//! another, both indexed by node id, so a lookup fetches the two at
//! once and then reads one run word. An update works on expanded
//! copies: each below-root level has one *open* node, decoded on its
//! first write and re-encoded when the operation moves to another node
//! on that level or the public call returns, so lookups never see a
//! stale node. One update therefore decodes and re-encodes at most one
//! node per level, and a bulk fill in address order encodes each node
//! once without ever building the expanded table.
//!
//! Nodes freed by route withdrawal drop their runs and their ids are
//! reused by later inserts, so a full-table churn storm does not grow
//! the trie without bound. `stats().bytes` reports the resident size.

use crate::hash::RouteMap;

mod level;

use level::Level;

const VALUE_MASK: u64 = 0xFFFF_FFFF;
const HAS_VALUE: u64 = 1 << 32;
const PLEN_SHIFT: u32 = 33;
const PLEN_MASK: u64 = 0x3F << PLEN_SHIFT;
const CHILD_SHIFT: u32 = 39;
const CHILD_MASK: u64 = 0xFF_FFFF << CHILD_SHIFT;
const HAS_CHILD: u64 = 1 << 63;
/// Below-root nodes the child field can address.
const MAX_NODES: usize = (CHILD_MASK >> CHILD_SHIFT) as usize + 1;

#[inline]
fn entry_value(e: u64) -> Option<u32> {
    if e & HAS_VALUE != 0 {
        Some((e & VALUE_MASK) as u32)
    } else {
        None
    }
}

#[inline]
fn entry_plen(e: u64) -> u8 {
    ((e & PLEN_MASK) >> PLEN_SHIFT) as u8
}

#[inline]
fn entry_child(e: u64) -> Option<u32> {
    if e & HAS_CHILD != 0 {
        Some(((e & CHILD_MASK) >> CHILD_SHIFT) as u32)
    } else {
        None
    }
}

#[inline]
fn with_value(e: u64, value: u32, plen: u8) -> u64 {
    (e & (HAS_CHILD | CHILD_MASK))
        | HAS_VALUE
        | (u64::from(plen) << PLEN_SHIFT)
        | u64::from(value)
}

#[inline]
fn without_value(e: u64) -> u64 {
    e & (HAS_CHILD | CHILD_MASK)
}

#[inline]
fn with_child(e: u64, child: u32) -> u64 {
    (e & !(HAS_CHILD | CHILD_MASK)) | HAS_CHILD | (u64::from(child) << CHILD_SHIFT)
}

#[inline]
fn without_child(e: u64) -> u64 {
    e & !(HAS_CHILD | CHILD_MASK)
}

/// The id of node slot `n`.
///
/// # Panics
///
/// Panics if `n` does not fit the entry's 24-bit child field, which
/// would otherwise drop the id's high bits.
fn node_id(n: usize) -> u32 {
    assert!(n < MAX_NODES, "trie node id {n} overflows the child field");
    n as u32
}

/// Statistics describing trie shape and lookup effort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrieStats {
    /// Number of live multibit nodes, the root included (freed nodes
    /// excluded).
    pub nodes: usize,
    /// Logical expanded entries across live nodes: `2^stride` per node,
    /// however few words its encoding holds.
    pub entries: usize,
    /// Resident bytes: the root, each live below-root node's head, runs
    /// and slice header, and the per-level open-node buffers. A freed
    /// id's slot (its stale head and an empty header, reused by the
    /// level's next allocation) is not counted.
    pub bytes: usize,
    /// Lookups performed.
    pub lookups: u64,
    /// Total levels touched across all lookups.
    pub levels_touched: u64,
}

impl TrieStats {
    /// Mean levels touched per lookup.
    pub fn mean_levels(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.levels_touched as f64 / self.lookups as f64
        }
    }
}

/// A controlled-prefix-expansion multibit trie mapping IPv4 prefixes to
/// `u32` values (output ports / next-hop indices).
///
/// # Examples
///
/// ```
/// use npr_route::PrefixTrie;
///
/// let mut t = PrefixTrie::new(&[16, 8, 8]);
/// t.insert(0x0a000000, 8, 1);   // 10.0.0.0/8     -> 1
/// t.insert(0x0a010000, 16, 2);  // 10.1.0.0/16    -> 2
/// assert_eq!(t.lookup(0x0a02ffff).0, Some(1));
/// assert_eq!(t.lookup(0x0a01abcd).0, Some(2));
/// assert_eq!(t.lookup(0x0b000000).0, None);
/// ```
#[derive(Debug)]
pub struct PrefixTrie {
    strides: Vec<u8>,
    /// The root's `2^strides[0]` entries, expanded.
    root: Vec<u64>,
    /// The below-root levels: `levels[level - 1]`.
    levels: Vec<Level>,
    stats_lookups: std::cell::Cell<u64>,
    stats_levels: std::cell::Cell<u64>,
    /// Installed (un-expanded) routes: the source of truth for targeted
    /// removal repair and the naive oracle.
    routes: RouteMap<(u32, u8), u32>,
}

impl PrefixTrie {
    /// Creates an empty trie with the given strides (must sum to 32).
    ///
    /// # Panics
    ///
    /// Panics if the strides do not sum to 32 or any stride is 0.
    pub fn new(strides: &[u8]) -> Self {
        assert_eq!(
            strides.iter().map(|&s| u32::from(s)).sum::<u32>(),
            32,
            "strides must cover 32 bits"
        );
        assert!(strides.iter().all(|&s| s > 0), "zero stride");
        Self {
            strides: strides.to_vec(),
            root: vec![0; 1 << strides[0]],
            levels: strides[1..].iter().map(|&s| Level::new(s)).collect(),
            stats_lookups: std::cell::Cell::new(0),
            stats_levels: std::cell::Cell::new(0),
            routes: RouteMap::default(),
        }
    }

    /// The classic IPv4 configuration: strides 16-8-8.
    pub fn ipv4_default() -> Self {
        Self::new(&[16, 8, 8])
    }

    /// Entry `idx` of `node` at `level` (the root at level 0).
    #[inline]
    fn entry(&self, level: usize, node: u32, idx: usize) -> u64 {
        match level {
            0 => self.root[idx],
            _ => self.levels[level - 1].entry(node, idx),
        }
    }

    /// The entries of `node` at `level` for writing: the root, or the
    /// node opened on its level.
    fn node_mut(&mut self, level: usize, node: u32) -> &mut [u64] {
        match level {
            0 => &mut self.root,
            _ => self.levels[level - 1].open_mut(node),
        }
    }

    /// Makes room in the route map for `additional` more routes, so a
    /// bulk load grows it once instead of rehashing at every doubling.
    pub(crate) fn reserve_routes(&mut self, additional: usize) {
        self.routes.reserve(additional);
    }

    /// Inserts `addr/plen -> value`, expanding the prefix to stride
    /// boundaries. Returns the previous value if the exact prefix was
    /// already installed.
    ///
    /// # Panics
    ///
    /// Panics if `plen > 32`.
    pub fn insert(&mut self, addr: u32, plen: u8, value: u32) -> Option<u32> {
        let old = self.record(addr, plen, value);
        self.fill([(addr, plen, value)]);
        old
    }

    /// The route-map half of [`insert`](Self::insert): records
    /// `addr/plen -> value` and returns the value it replaced. Lookups
    /// do not see the route until [`fill`](Self::fill) runs.
    ///
    /// # Panics
    ///
    /// Panics if `plen > 32`.
    pub(crate) fn record(&mut self, addr: u32, plen: u8, value: u32) -> Option<u32> {
        assert!(plen <= 32, "prefix length out of range");
        self.routes.insert((mask(addr, plen), plen), value)
    }

    /// The trie half of [`insert`](Self::insert), for many routes:
    /// expands each `addr/plen -> value` (host bits ignored) over its
    /// span of the node it ends in, allocating the path down to that
    /// node, then re-encodes the open nodes. An entry keeps the longest
    /// prefix's value, so a set of fills in any order answers every
    /// lookup alike and leaves the same [`stats`](Self::stats), except
    /// that of two fills of one prefix the later wins. In address order
    /// each node is encoded once.
    pub(crate) fn fill<I: IntoIterator<Item = (u32, u8, u32)>>(&mut self, routes: I) {
        for (addr, plen, value) in routes {
            self.expand(addr, plen, value);
        }
        self.levels.iter_mut().for_each(Level::close);
    }

    /// Expands one route into the open nodes (see [`fill`](Self::fill)).
    fn expand(&mut self, addr: u32, plen: u8, value: u32) {
        let mut node = 0u32;
        let mut consumed = 0u8;
        for level in 0..self.strides.len() {
            let stride = self.strides[level];
            let shift = u32::from(32 - consumed - stride);
            if plen <= consumed + stride {
                // The prefix ends within this node: expand over all
                // entries whose index shares the prefix's leading bits.
                let fixed = plen - consumed;
                let span = 1usize << (stride - fixed);
                let base =
                    (((addr >> shift) as usize) & ((1usize << stride) - 1)) & !(span - 1);
                for e in &mut self.node_mut(level, node)[base..base + span] {
                    // Longest-prefix priority among expanded entries.
                    if *e & HAS_VALUE == 0 || entry_plen(*e) <= plen {
                        *e = with_value(*e, value, plen);
                    }
                }
                return;
            }
            // Descend (allocating the child if needed).
            let idx = ((addr >> shift) as usize) & ((1usize << stride) - 1);
            node = match entry_child(self.entry(level, node, idx)) {
                Some(c) => c,
                None => {
                    let c = self.levels[level].alloc();
                    let slot = &mut self.node_mut(level, node)[idx];
                    *slot = with_child(*slot, c);
                    c
                }
            };
            consumed += stride;
        }
        unreachable!("strides sum to 32, so every prefix terminates");
    }

    /// Removes `addr/plen`; returns the stored value if it was present.
    ///
    /// Removal is targeted: only the expanded span of the dead prefix is
    /// repaired (each entry falls back to its longest surviving covering
    /// prefix, probed from the route map), and nodes emptied by the
    /// repair are freed. The paper's control plane rebuilt the whole
    /// table on update; at 1M prefixes that is a multi-hundred-millisecond
    /// stall, so the repair touches `O(2^stride)` entries instead, and
    /// decodes and re-encodes at most one node per level.
    pub fn remove(&mut self, addr: u32, plen: u8) -> Option<u32> {
        assert!(plen <= 32, "prefix length out of range");
        let addr = mask(addr, plen);
        let old = self.routes.remove(&(addr, plen))?;

        // Descend to the node the prefix terminates in, recording the
        // path so emptied nodes can be unlinked on the way back up.
        let mut node = 0u32;
        let mut consumed = 0u8;
        let mut level = 0usize;
        let mut path: Vec<(u32, usize)> = Vec::new();
        loop {
            let stride = self.strides[level];
            if plen <= consumed + stride {
                break;
            }
            let shift = u32::from(32 - consumed - stride);
            let idx = ((addr >> shift) as usize) & ((1usize << stride) - 1);
            path.push((node, idx));
            let e = self.entry(level, node, idx);
            node = entry_child(e).expect("route map and trie agree on structure");
            consumed += stride;
            level += 1;
        }

        self.repair_span(node, level, consumed, addr, plen);

        // Free nodes emptied by the repair, bottom-up; the root stays.
        // Each candidate is open: the repair or the unlink wrote it.
        let mut lvl = level;
        let mut candidate = node;
        while lvl > 0 && self.node_mut(lvl, candidate).iter().all(|&e| e == 0) {
            self.levels[lvl - 1].release(candidate);
            let (parent, idx) = path[lvl - 1];
            let slot = &mut self.node_mut(lvl - 1, parent)[idx];
            *slot = without_child(*slot);
            candidate = parent;
            lvl -= 1;
        }
        self.levels.iter_mut().for_each(Level::close);
        Some(old)
    }

    /// Recomputes every entry in the expanded span of `addr/plen` inside
    /// `node` from the surviving route map: each entry takes the longest
    /// prefix terminating in this node that still covers it, or loses
    /// its value.
    fn repair_span(&mut self, node: u32, level: usize, consumed: u8, addr: u32, plen: u8) {
        let stride = self.strides[level];
        let shift = u32::from(32 - consumed - stride);
        let fixed = plen - consumed;
        let span = 1usize << (stride - fixed);
        let base = (((addr >> shift) as usize) & ((1usize << stride) - 1)) & !(span - 1);
        let node_prefix = mask(addr, consumed);
        // Prefixes with plen in this range terminate in this node;
        // shorter ones live in an ancestor and win via the lookup's
        // running best. plen 0 (the default route) terminates in the
        // root.
        let lo = if level == 0 { 0 } else { consumed + 1 };
        for i in 0..span {
            let idx = base + i;
            let entry_addr = node_prefix | ((idx as u32) << shift);
            let mut repl: Option<(u32, u8)> = None;
            for p in (lo..=consumed + stride).rev() {
                if let Some(&v) = self.routes.get(&(mask(entry_addr, p), p)) {
                    repl = Some((v, p));
                    break;
                }
            }
            let e = &mut self.node_mut(level, node)[idx];
            *e = match repl {
                Some((v, p)) => with_value(*e, v, p),
                None => without_value(*e),
            };
        }
    }

    /// Longest-prefix lookup. Returns `(value, levels_touched)`.
    pub fn lookup(&self, addr: u32) -> (Option<u32>, u32) {
        let mut node = 0u32;
        let mut consumed = 0u8;
        let mut best: Option<u32> = None;
        let mut levels = 0u32;
        for (level, &stride) in self.strides.iter().enumerate() {
            levels += 1;
            let shift = u32::from(32 - consumed - stride);
            let idx = ((addr >> shift) as usize) & ((1usize << stride) - 1);
            let e = self.entry(level, node, idx);
            if let Some(v) = entry_value(e) {
                best = Some(v);
            }
            match entry_child(e) {
                Some(c) if level + 1 < self.strides.len() => {
                    node = c;
                    consumed += stride;
                }
                _ => break,
            }
        }
        self.stats_lookups.set(self.stats_lookups.get() + 1);
        self.stats_levels
            .set(self.stats_levels.get() + u64::from(levels));
        (best, levels)
    }

    /// The value recorded for the exact prefix `addr/plen`, if any.
    pub(crate) fn route(&self, addr: u32, plen: u8) -> Option<u32> {
        self.routes.get(&(mask(addr, plen), plen)).copied()
    }

    /// Number of installed (un-expanded) routes.
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// Shape and lookup statistics.
    pub fn stats(&self) -> TrieStats {
        let levels = self.levels.iter();
        TrieStats {
            nodes: 1 + levels.clone().map(Level::live).sum::<usize>(),
            entries: self.root.len() + levels.clone().map(Level::expanded).sum::<usize>(),
            bytes: self.root.len() * std::mem::size_of::<u64>()
                + levels.map(Level::bytes).sum::<usize>(),
            lookups: self.stats_lookups.get(),
            levels_touched: self.stats_levels.get(),
        }
    }

    /// Naive linear-scan longest-prefix match over the route list: the
    /// correctness oracle for property tests.
    pub fn lookup_naive(&self, addr: u32) -> Option<u32> {
        self.routes
            .iter()
            .filter(|&(&(a, l), _)| mask(addr, l) == a)
            .max_by_key(|&(&(_, l), _)| l)
            .map(|(_, &v)| v)
    }
}

/// Masks `addr` to its top `plen` bits.
pub(crate) fn mask(addr: u32, plen: u8) -> u32 {
    if plen == 0 {
        0
    } else {
        addr & (u32::MAX << (32 - plen))
    }
}

#[cfg(test)]
mod tests {
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
        // A short route fills much of the `[24, 8]` root's 2^24 entries,
        // which a debug build does ~10x slower.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 16 } else { 64 }))]
        #[test]
        fn trie_matches_naive_oracle(
            routes in npr_check::collection::vec((any::<u32>(), 0u8..=32, any::<u32>()), 0..64),
            draws in npr_check::collection::vec((any::<u32>(), any::<Index>()), 0..64),
        ) {
            for strides in STRIDE_SETS {
                let mut t = PrefixTrie::new(strides);
                for &(a, l, v) in &routes {
                    t.insert(a, l, v);
                }
                for p in probes(&routes, &draws) {
                    prop_assert_eq!(t.lookup(p).0, t.lookup_naive(p), "{:?} probe {:#x}", strides, p);
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
        /// match (the naive oracle over the surviving route map).
        #[test]
        fn interleaved_churn_falls_back_correctly(
            routes in npr_check::collection::vec((any::<u32>(), 0u8..=32, any::<u32>()), 1..24),
            ops in npr_check::collection::vec((any::<Index>(), any::<bool>()), 1..48),
            draws in npr_check::collection::vec((any::<u32>(), any::<Index>()), 1..16),
        ) {
            let mut t = PrefixTrie::ipv4_default();
            let probes = probes(&routes, &draws);
            for (i, insert) in &ops {
                let (a, l, _) = routes[i.index(routes.len())];
                if *insert {
                    t.insert(a, l, u32::from(l) + 1);
                } else {
                    t.remove(a, l);
                }
                for &p in &probes {
                    prop_assert_eq!(t.lookup(p).0, t.lookup_naive(p), "probe {:#x}", p);
                }
                // Probe the churned prefix's own span too: host bits set.
                let edge = super::mask(a, l) | !super::mask(u32::MAX, l);
                prop_assert_eq!(t.lookup(edge).0, t.lookup_naive(edge));
            }
        }
    }
}
