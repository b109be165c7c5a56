//! The fast-path route cache.
//!
//! "the protocol_processing step ... does perform packet classification
//! based on the destination IP address. It does this using a one-cycle
//! hardware hash of this address, and we assume a hit in a route cache"
//! (paper, section 3.5.1). The cache is a direct-mapped table in SRAM
//! mapping exact destination addresses to next-hop indices; misses are
//! resolved by the StrongARM via the full trie, which then installs the
//! binding.
//!
//! Slots carry an index into the routing table's next-hop array (not a
//! bare port): the fast path dereferences the index for both the output
//! port and the rewrite MAC, so two neighbors sharing a port can never
//! alias to the wrong MAC.

use npr_ixp::hash48;

use crate::trie::mask;

/// One cache slot: destination address -> next-hop index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    addr: u32,
    nh: u32,
    valid: bool,
}

/// A direct-mapped destination-address route cache.
///
/// # Examples
///
/// ```
/// use npr_route::RouteCache;
///
/// let mut c = RouteCache::new(1024);
/// assert_eq!(c.lookup(0x0a000001), None);
/// c.install(0x0a000001, 3);
/// assert_eq!(c.lookup(0x0a000001), Some(3));
/// ```
#[derive(Debug)]
pub struct RouteCache {
    slots: Vec<Slot>,
    /// Number of valid slots. Zero lets both invalidators return without
    /// touching `slots`: an empty cache has nothing to invalidate.
    live: usize,
    hits: u64,
    misses: u64,
}

impl RouteCache {
    /// Creates a cache with `size` slots (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "zero-sized cache");
        let size = size.next_power_of_two();
        Self {
            slots: vec![
                Slot {
                    addr: 0,
                    nh: 0,
                    valid: false
                };
                size
            ],
            live: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn index(&self, addr: u32) -> usize {
        (hash48(u64::from(addr)) as usize) & (self.slots.len() - 1)
    }

    /// Looks up `addr`; records a hit or miss. Returns the cached
    /// next-hop index.
    pub fn lookup(&mut self, addr: u32) -> Option<u32> {
        let i = self.index(addr);
        let s = self.slots[i];
        if s.valid && s.addr == addr {
            self.hits += 1;
            Some(s.nh)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Installs or replaces the binding for `addr`.
    pub fn install(&mut self, addr: u32, nh: u32) {
        let i = self.index(addr);
        self.live += usize::from(!self.slots[i].valid);
        self.slots[i] = Slot {
            addr,
            nh,
            valid: true,
        };
    }

    /// Invalidates every slot (the recompute-then-swap control plane
    /// does this after any routing-table change so stale bindings cannot
    /// be used). Costs one pass over the slots only if the cache holds
    /// anything; on an empty cache it returns at once.
    pub fn flush(&mut self) {
        if self.live == 0 {
            return;
        }
        for s in &mut self.slots {
            s.valid = false;
        }
        self.live = 0;
    }

    /// Invalidates only the slots whose cached destination is covered by
    /// `addr/plen` — the targeted alternative to [`flush`](Self::flush):
    /// a single route update no longer empties all slots, so unrelated
    /// flows keep their fast-path hits through a churn storm. Like
    /// `flush`, it costs one pass over the slots only if the cache holds
    /// anything — so a bulk load into a cold cache pays nothing here,
    /// and one into a warm cache still pays the pass per route.
    pub fn invalidate_covered(&mut self, addr: u32, plen: u8) {
        if self.live == 0 {
            return;
        }
        let addr = mask(addr, plen);
        for s in &mut self.slots {
            if s.valid && mask(s.addr, plen) == addr {
                s.valid = false;
                self.live -= 1;
            }
        }
    }

    /// Lifetime `(hits, misses)` totals since construction;
    /// [`flush`](Self::flush) does not reset them. A window's figures
    /// are the difference of two reads.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Lifetime hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use npr_check::prelude::*;

    use super::*;

    /// The reference invalidators: the unconditional scans `flush` and
    /// `invalidate_covered` were before the live count let them return
    /// early. They leave `live` alone, so it goes stale on the reference;
    /// nothing reads it there.
    fn scan_flush(c: &mut RouteCache) {
        for s in &mut c.slots {
            s.valid = false;
        }
    }

    fn scan_invalidate_covered(c: &mut RouteCache, addr: u32, plen: u8) {
        let addr = mask(addr, plen);
        for s in &mut c.slots {
            if s.valid && mask(s.addr, plen) == addr {
                s.valid = false;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Any history of installs, lookups and both invalidators keeps
        /// the live count equal to a recount of the valid slots, and
        /// leaves the cache slot for slot where always-scanning leaves
        /// it. Short histories on a small cache, so it is empty, full
        /// and emptied again many times over.
        #[test]
        fn live_count_tracks_valid_slots_and_early_return_is_exact(
            ops in npr_check::collection::vec((0u8..8, 0u32..48, 0u8..=32, any::<u32>()), 0..96),
        ) {
            let mut c = RouteCache::new(16);
            let mut r = RouteCache::new(16);
            for &(kind, a, plen, nh) in &ops {
                // A few dozen addresses that share leading bytes, so a
                // prefix covers some slots and spares others.
                let addr = a.wrapping_mul(0x0101_0101) << 3;
                match kind {
                    0..=3 => {
                        c.install(addr, nh);
                        r.install(addr, nh);
                    }
                    4 | 5 => prop_assert_eq!(c.lookup(addr), r.lookup(addr)),
                    6 => {
                        c.invalidate_covered(addr, plen);
                        scan_invalidate_covered(&mut r, addr, plen);
                    }
                    _ => {
                        c.flush();
                        scan_flush(&mut r);
                    }
                }
                prop_assert_eq!(c.live, c.slots.iter().filter(|s| s.valid).count());
                prop_assert_eq!(&c.slots, &r.slots);
            }
            prop_assert_eq!(c.stats(), r.stats());
        }
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut c = RouteCache::new(64);
        assert_eq!(c.lookup(42), None);
        c.install(42, 7);
        assert_eq!(c.lookup(42), Some(7));
        assert_eq!(c.stats(), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conflicting_addresses_evict() {
        // With a 1-slot cache every distinct address conflicts.
        let mut c = RouteCache::new(1);
        c.install(1, 1);
        c.install(2, 2);
        assert_eq!(c.lookup(1), None);
        assert_eq!(c.lookup(2), Some(2));
    }

    #[test]
    fn flush_invalidates_all() {
        let mut c = RouteCache::new(16);
        for a in 0..16u32 {
            c.install(a, a);
        }
        c.flush();
        for a in 0..16u32 {
            assert_eq!(c.lookup(a), None);
        }
    }

    #[test]
    fn targeted_invalidation_spares_unrelated_slots() {
        let mut c = RouteCache::new(4096);
        c.install(0x0a0a0a01, 1); // 10.10.10.1, inside 10.10.0.0/16
        c.install(0x0a0b0c01, 2); // 10.11.12.1, outside it
        c.install(0x14000001, 3); // 20.0.0.1, far away
        c.invalidate_covered(0x0a0a0000, 16);
        assert_eq!(c.lookup(0x0a0a0a01), None);
        assert_eq!(c.lookup(0x0a0b0c01), Some(2));
        assert_eq!(c.lookup(0x14000001), Some(3));
    }

    #[test]
    fn invalidate_with_zero_plen_is_a_flush() {
        let mut c = RouteCache::new(16);
        c.install(1, 1);
        c.install(0xffffffff, 2);
        c.invalidate_covered(0, 0);
        assert_eq!(c.lookup(1), None);
        assert_eq!(c.lookup(0xffffffff), None);
    }

    #[test]
    fn lifetime_stats_survive_flush() {
        let mut c = RouteCache::new(64);
        c.lookup(1); // miss
        c.install(1, 9);
        c.lookup(1); // hit
        assert_eq!(c.stats(), (1, 1));
        c.flush();
        c.lookup(1); // miss
        assert_eq!(c.stats(), (1, 2));
    }

    #[test]
    fn size_rounds_to_power_of_two() {
        let c = RouteCache::new(1000);
        assert_eq!(c.slots.len(), 1024);
    }

    #[test]
    fn distinct_addresses_spread() {
        // Sequential addresses should mostly land in distinct slots.
        let mut c = RouteCache::new(4096);
        for a in 0..1024u32 {
            c.install(a, a % 251);
        }
        let mut hits = 0;
        for a in 0..1024u32 {
            if c.lookup(a) == Some(a % 251) {
                hits += 1;
            }
        }
        assert!(hits > 850, "only {hits} survived hashing into 4096 slots");
    }
}
