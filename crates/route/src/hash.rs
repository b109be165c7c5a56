//! The deterministic hasher behind `RouteMap`, which keys one map: the
//! next-hop index.
//!
//! `RoutingTable`'s next-hop index keys on a 7-byte [`NextHop`], a value
//! this program mints itself, so SipHash's flooding resistance buys
//! nothing and costs lookups on every route update. (Routes need no
//! map: the trie keeps each node's routes in sorted lists.)
//! This is a multiply-rotate fold finished by SplitMix64's finaliser
//! (`npr_check::rng::mix`). The finaliser is not optional: for a key
//! whose low bits are zero, as a prefix's host bits are, the low bits of
//! the state after the multiply are zero too, and those are the bits
//! hashbrown takes its bucket index from; the tests hold both key
//! shapes to an even spread.
//!
//! The map is never iterated for anything observable, so the hasher can
//! change bucket order and nothing else.
//!
//! [`NextHop`]: crate::NextHop

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

#[derive(Default)]
pub(crate) struct RouteHasher(u64);

impl Hasher for RouteHasher {
    /// Every integer write arrives here as its bytes, eight to a word.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.0 =
                (self.0.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn finish(&self) -> u64 {
        npr_check::rng::mix(self.0)
    }
}

pub(crate) type RouteMap<K, V> = HashMap<K, V, BuildHasherDefault<RouteHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::Hash;

    use super::*;
    use crate::gen::{synth_table, TableSpec};

    /// Hashes `key` as the maps do; `finalised = false` returns the raw
    /// fold instead, the multiplicative hash the finaliser repairs.
    fn hash_of<T: Hash>(key: &T, finalised: bool) -> u64 {
        let mut h = RouteHasher::default();
        key.hash(&mut h);
        if finalised {
            h.finish()
        } else {
            h.0
        }
    }

    /// Fullest bucket when `keys` are spread by `bits` index bits taken
    /// at `shift` (0 = hashbrown's bucket index, 57 = its control byte).
    fn fullest<T: Hash>(keys: &[T], finalised: bool, shift: u32, bits: u32) -> usize {
        let mut buckets = vec![0usize; 1 << bits];
        for k in keys {
            buckets[((hash_of(k, finalised) >> shift) & ((1 << bits) - 1)) as usize] += 1;
        }
        buckets.into_iter().max().unwrap_or(0)
    }

    /// Every /16 the generator can draw: the key population whose low 16
    /// address bits are all zero.
    fn all_slash16s() -> Vec<(u32, u8)> {
        (1u32..224)
            .filter(|&o| o != 127)
            .flat_map(|o| (0u32..256).map(move |b| ((o << 24) | (b << 16), 16u8)))
            .collect()
    }

    /// A uniform hash puts n keys into 2^16 buckets with a fullest
    /// bucket of about `mean + 8` at these sizes; twice that is the
    /// bound, far under what a clustered hash produces.
    fn bound(n: usize) -> usize {
        n / (1 << 16) + 16
    }

    #[test]
    fn low_index_bits_spread_short_prefixes_and_synthetic_tables() {
        let slash16s = all_slash16s();
        assert_eq!(slash16s.len(), 222 * 256);
        let synth: Vec<(u32, u8)> = synth_table(&TableSpec::internet(100_000, 7))
            .iter()
            .map(|r| (r.addr, r.plen))
            .collect();
        for keys in [&slash16s, &synth] {
            let worst = fullest(keys, true, 0, 16);
            assert!(
                worst <= bound(keys.len()),
                "fullest of 2^16 buckets holds {worst}"
            );
            // The control byte (top seven bits) filters probes within a
            // group; it must not collapse either.
            let worst = fullest(keys, true, 57, 7);
            assert!(
                worst <= keys.len() / 128 * 2,
                "fullest control byte holds {worst}"
            );
        }
        // The test has teeth: the same fold without the finaliser piles
        // the /16s, whose low address bits are zero, into a few buckets.
        let raw = fullest(&slash16s, false, 0, 16);
        assert!(
            raw > 4 * bound(slash16s.len()),
            "unfinalised fullest bucket only {raw}"
        );
    }

    #[test]
    fn next_hops_spread_too() {
        let nbrs = crate::gen::neighbors(&TableSpec {
            prefixes: 0,
            seed: 0,
            ports: 64,
            neighbors_per_port: 64,
        });
        let worst = fullest(&nbrs, true, 0, 8);
        assert!(
            worst <= nbrs.len() / 256 * 2,
            "fullest of 256 buckets holds {worst}"
        );
    }
}
