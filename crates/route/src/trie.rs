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
//!
//! # Route store
//!
//! The trie is its own list of routes. Every node keeps the exact
//! routes that end in it (the node their expansion writes) as a sorted
//! boxed slice of one word each:
//!
//! ```text
//! bits 38..64   bits 32..38            bits 0..32
//! span start    prefix bits fixed      value
//!               within the node
//! ```
//!
//! sorted by start, then fixed bits. The trie keeps one set of lists
//! per level, apart from the heads and runs a lookup reads: a
//! below-root level's by node id, as it indexes heads and runs, and the
//! root's one per 256 entries, so an update at the root edits a list of
//! a few hundred words. An update edits one list per level in an open
//! copy, boxed again, exactly, when the update moves on or the public
//! call returns, and a fill in address order appends to each list and
//! boxes it once.
//! Withdrawal repairs a span from its node's list alone: a shorter
//! route covers the whole span (one probe per shorter length), a longer
//! one starts inside it (one stretch of the list). `route_bytes()`
//! reports the store's resident size.

mod level;
mod routes;

use level::Level;
use routes::{route_key, route_word, word_fixed, word_start, word_value, RouteLists};

const VALUE_MASK: u64 = 0xFFFF_FFFF;
const HAS_VALUE: u64 = 1 << 32;
const PLEN_SHIFT: u32 = 33;
const PLEN_MASK: u64 = 0x3F << PLEN_SHIFT;
const CHILD_SHIFT: u32 = 39;
const CHILD_MASK: u64 = 0xFF_FFFF << CHILD_SHIFT;
const HAS_CHILD: u64 = 1 << 63;
/// Below-root nodes the child field can address.
const MAX_NODES: usize = (CHILD_MASK >> CHILD_SHIFT) as usize + 1;
/// Root entries per root route list, as a power of two.
const ROOT_LIST_BITS: u8 = 8;

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

/// The index of `addr`'s entry in a node of `stride` bits below
/// `consumed` bits of levels above.
#[inline]
fn index(addr: u32, consumed: u8, stride: u8) -> usize {
    ((addr >> (32 - consumed - stride)) as usize) & ((1usize << stride) - 1)
}

/// Entries a route fixing `fixed` of a node's `stride` bits expands to.
#[inline]
fn span(stride: u8, fixed: u8) -> usize {
    1 << (stride - fixed)
}

/// Writes `value` for a route of length `plen` over `entries`, its span,
/// wherever no longer route's value stands: longest-prefix priority, so
/// routes may be painted in any order.
fn paint(entries: &mut [u64], value: u32, plen: u8) {
    for e in entries {
        if *e & HAS_VALUE == 0 || entry_plen(*e) <= plen {
            *e = with_value(*e, value, plen);
        }
    }
}

/// The list of `node` at `level` that holds the routes whose span
/// starts at entry `start`.
#[inline]
fn list_of(level: usize, node: u32, start: usize) -> usize {
    match level {
        0 => start >> ROOT_LIST_BITS,
        _ => node as usize,
    }
}

/// Where a prefix ends: the node its expansion writes and its span
/// there.
#[derive(Clone, Copy)]
struct Place {
    level: usize,
    node: u32,
    /// Bits the levels above the node consume.
    consumed: u8,
    /// Prefix bits fixed within the node.
    fixed: u8,
    /// The span's first entry.
    start: usize,
}

impl Place {
    fn list(&self) -> usize {
        list_of(self.level, self.node, self.start)
    }

    fn key(&self) -> u64 {
        route_key(self.start, self.fixed)
    }
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
    /// Resident bytes of the lookup structure: the root, each live
    /// below-root node's head, runs and slice header, and the per-level
    /// open-node buffers. A freed id's slot (its stale head and an empty
    /// header, reused by the level's next allocation) is not counted,
    /// nor is the route store ([`PrefixTrie::route_bytes`]).
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
    /// The routes that end in each level's nodes: `routes[level]`, by
    /// node id below the root and one list per `2^ROOT_LIST_BITS`
    /// entries at it.
    routes: Vec<RouteLists>,
    stats_lookups: std::cell::Cell<u64>,
    stats_levels: std::cell::Cell<u64>,
}

impl PrefixTrie {
    /// Creates an empty trie with the given strides (must sum to 32).
    ///
    /// # Panics
    ///
    /// Panics if the strides do not sum to 32, any stride is 0, or any
    /// is wider than a route word's span start holds (26 bits).
    pub fn new(strides: &[u8]) -> Self {
        assert_eq!(
            strides.iter().map(|&s| u32::from(s)).sum::<u32>(),
            32,
            "strides must cover 32 bits"
        );
        assert!(strides.iter().all(|&s| s > 0), "zero stride");
        assert!(
            strides.iter().all(|&s| s <= routes::MAX_START_BITS),
            "stride wider than a route word's span start"
        );
        let root = 1usize << strides[0];
        Self {
            strides: strides.to_vec(),
            root: vec![0; root],
            levels: strides[1..].iter().map(|&s| Level::new(s)).collect(),
            routes: std::iter::once(RouteLists::new(root.div_ceil(1 << ROOT_LIST_BITS)))
                .chain(strides[1..].iter().map(|_| RouteLists::default()))
                .collect(),
            stats_lookups: std::cell::Cell::new(0),
            stats_levels: std::cell::Cell::new(0),
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

    /// Re-encodes every open node and boxes every open route list.
    fn close(&mut self) {
        self.levels.iter_mut().for_each(Level::close);
        self.routes.iter_mut().for_each(RouteLists::close);
    }

    /// Inserts `addr/plen -> value`, expanding the prefix to stride
    /// boundaries. Returns the previous value if the exact prefix was
    /// already installed.
    ///
    /// # Panics
    ///
    /// Panics if `plen > 32`.
    pub fn insert(&mut self, addr: u32, plen: u8, value: u32) -> Option<u32> {
        let old = self.expand(addr, plen, value);
        self.close();
        old
    }

    /// [`insert`](Self::insert) for many routes: expands each
    /// `addr/plen -> value` (host bits ignored), then re-encodes the open
    /// nodes. An entry keeps the longest prefix's value, so a set of
    /// fills in any order answers every lookup alike and leaves the same
    /// [`stats`](Self::stats) and route store, except that of two fills
    /// of one prefix the later wins. In address order each node is
    /// encoded, and each route list boxed, once.
    ///
    /// # Panics
    ///
    /// Panics if a `plen > 32`.
    pub(crate) fn fill<I: IntoIterator<Item = (u32, u8, u32)>>(&mut self, routes: I) {
        for (addr, plen, value) in routes {
            self.expand(addr, plen, value);
        }
        self.close();
    }

    /// Expands one route over its span of the node it ends in, allocating
    /// the path down to that node, and puts it in that node's route
    /// list; returns the value it replaced there.
    fn expand(&mut self, addr: u32, plen: u8, value: u32) -> Option<u32> {
        assert!(plen <= 32, "prefix length out of range");
        let mut node = 0u32;
        let mut consumed = 0u8;
        for level in 0..self.strides.len() {
            let stride = self.strides[level];
            let idx = index(addr, consumed, stride);
            if plen <= consumed + stride {
                let fixed = plen - consumed;
                let start = idx & !(span(stride, fixed) - 1);
                let entries = &mut self.node_mut(level, node)[start..start + span(stride, fixed)];
                paint(entries, value, plen);
                let word = route_word(start, fixed, value);
                return self.routes[level].upsert(list_of(level, node, start), word);
            }
            // Descend (allocating the child if needed).
            node = match entry_child(self.entry(level, node, idx)) {
                Some(c) => c,
                None => {
                    let c = self.levels[level].alloc();
                    let lists = &mut self.routes[level + 1];
                    if c as usize == lists.len() {
                        lists.push();
                    }
                    let slot = &mut self.node_mut(level, node)[idx];
                    *slot = with_child(*slot, c);
                    c
                }
            };
            consumed += stride;
        }
        unreachable!("strides sum to 32, so every prefix terminates");
    }

    /// Where `addr/plen` ends, following existing children only, or
    /// `None` if the path stops short; `passed` sees each parent entry
    /// on the way down as `(node, idx)`.
    fn place(&self, addr: u32, plen: u8, mut passed: impl FnMut(u32, usize)) -> Option<Place> {
        assert!(plen <= 32, "prefix length out of range");
        let (mut level, mut node, mut consumed) = (0, 0u32, 0u8);
        while plen > consumed + self.strides[level] {
            let idx = index(addr, consumed, self.strides[level]);
            passed(node, idx);
            node = entry_child(self.entry(level, node, idx))?;
            consumed += self.strides[level];
            level += 1;
        }
        let (stride, fixed) = (self.strides[level], plen - consumed);
        Some(Place {
            level,
            node,
            consumed,
            fixed,
            start: index(addr, consumed, stride) & !(span(stride, fixed) - 1),
        })
    }

    /// Removes `addr/plen`; returns the stored value if it was present.
    ///
    /// Removal is targeted: only the expanded span of the dead prefix is
    /// repaired (each entry falls back to its longest surviving covering
    /// prefix, read from the node's route list), and nodes emptied by the
    /// repair are freed. The paper's control plane rebuilt the whole
    /// table on update; at 1M prefixes that is a multi-hundred-millisecond
    /// stall, so the repair touches `O(2^stride)` entries instead, and
    /// decodes and re-encodes at most one node per level.
    ///
    /// # Panics
    ///
    /// Panics if `plen > 32`.
    pub fn remove(&mut self, addr: u32, plen: u8) -> Option<u32> {
        // The path, so emptied nodes can be unlinked on the way back up.
        let mut path: Vec<(u32, usize)> = Vec::new();
        let at = self.place(addr, plen, |node, idx| path.push((node, idx)))?;
        let old = self.routes[at.level].remove(at.list(), at.key())?;

        self.repair_span(at);

        // Free nodes emptied by the repair, bottom-up; the root stays.
        // Each candidate is open: the repair or the unlink wrote it.
        let mut lvl = at.level;
        let mut candidate = at.node;
        while lvl > 0 && self.node_mut(lvl, candidate).iter().all(|&e| e == 0) {
            self.levels[lvl - 1].release(candidate);
            self.routes[lvl].release(candidate as usize);
            let (parent, idx) = path[lvl - 1];
            let slot = &mut self.node_mut(lvl - 1, parent)[idx];
            *slot = without_child(*slot);
            candidate = parent;
            lvl -= 1;
        }
        self.close();
        Some(old)
    }

    /// Recomputes every entry of the span at `at` from the routes left in
    /// its node's lists: each entry takes the longest route ending in
    /// this node that covers it, or loses its value. A shorter route
    /// covers the whole span and starts at its block's first entry, so
    /// each shorter length is one probe; a route as long or longer
    /// starts inside the span, so those are one stretch of the sorted
    /// list (of each root list the span reaches). Shorter routes that
    /// end in an ancestor win through the lookup's running best.
    fn repair_span(&mut self, at: Place) {
        let Place {
            level,
            node,
            consumed,
            fixed,
            start,
        } = at;
        let stride = self.strides[level];
        let end = start + span(stride, fixed);
        let lists = &self.routes[level];
        // Only the default route fixes no bits: it ends in the root.
        let shortest = if level == 0 { 0 } else { 1 };
        let cover = (shortest..fixed).rev().find_map(|f| {
            let block = start & !(span(stride, f) - 1);
            let v = lists.find(list_of(level, node, block), route_key(block, f))?;
            Some((v, consumed + f))
        });
        let (lo, hi) = (route_key(start, fixed), route_key(end, 0));
        let inner: Vec<u64> = (list_of(level, node, start)..=list_of(level, node, end - 1))
            .flat_map(|i| {
                let list = lists.get(i);
                let from = list.partition_point(|&w| w >> 32 < lo);
                let to = list.partition_point(|&w| w >> 32 < hi);
                &list[from..to]
            })
            .copied()
            .collect();

        let entries = self.node_mut(level, node);
        for e in &mut entries[start..end] {
            *e = match cover {
                Some((v, p)) => with_value(*e, v, p),
                None => without_value(*e),
            };
        }
        for w in inner {
            let (s, f) = (word_start(w), word_fixed(w));
            paint(
                &mut entries[s..s + span(stride, f)],
                word_value(w),
                consumed + f,
            );
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
            let e = self.entry(level, node, index(addr, consumed, stride));
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

    /// The value installed for the exact prefix `addr/plen`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `plen > 32`.
    pub(crate) fn route(&self, addr: u32, plen: u8) -> Option<u32> {
        let at = self.place(addr, plen, |_, _| {})?;
        self.routes[at.level].find(at.list(), at.key())
    }

    /// Number of installed (un-expanded) routes.
    pub fn route_count(&self) -> usize {
        self.routes.iter().map(RouteLists::words).sum()
    }

    /// Resident bytes of the route store: every route's word, and the
    /// slice header of each root list and each live node's list.
    pub fn route_bytes(&self) -> usize {
        let root = &self.routes[0];
        let below = self.routes[1..].iter().zip(&self.levels);
        root.bytes(root.len()) + below.map(|(r, l)| r.bytes(l.live())).sum::<usize>()
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

    /// Naive longest-prefix match: scans, whole, the route list of every
    /// node on `addr`'s path (every root list at the root) for the
    /// longest route covering `addr`, reading no expanded value. The
    /// correctness oracle for [`lookup`](Self::lookup) in property tests.
    pub fn lookup_naive(&self, addr: u32) -> Option<u32> {
        let mut best = None;
        let mut node = 0u32;
        let mut consumed = 0u8;
        for (level, &stride) in self.strides.iter().enumerate() {
            let idx = index(addr, consumed, stride);
            let lists = &self.routes[level];
            let ids = match level {
                0 => 0..lists.len(),
                _ => node as usize..node as usize + 1,
            };
            let covering = ids
                .flat_map(|i| lists.get(i))
                .filter(|&&w| {
                    (word_start(w)..word_start(w) + span(stride, word_fixed(w))).contains(&idx)
                })
                .max_by_key(|&&w| word_fixed(w));
            if let Some(&w) = covering {
                best = Some(word_value(w));
            }
            match entry_child(self.entry(level, node, idx)) {
                Some(c) => {
                    node = c;
                    consumed += stride;
                }
                None => break,
            }
        }
        best
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
mod tests;
