//! The workspace's one seedable PRNG and one FNV-1a hash.
//!
//! Case generation, workload generation (`npr_sim::XorShift64` is this
//! generator under the simulator's name), the VRP fuzz corpora and
//! every pinned digest draw from here. The module lives in the
//! harness because the harness has no dependencies, not even on
//! workspace crates: a test harness that depends on the code under
//! test cannot be trusted to still run when that code is broken.

/// An xorshift64* generator. Deterministic across runs and platforms.
#[derive(Debug, Clone)]
pub struct CheckRng {
    state: u64,
}

impl CheckRng {
    /// Creates a generator from `seed`; a zero seed is remapped to a
    /// fixed odd constant (xorshift's zero state is absorbing).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform bool.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// SplitMix64 finalizer: decorrelates sequential per-case seeds so
/// case N and case N+1 start from unrelated states.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit FNV-1a hash state. Stable across runs, processes,
/// platforms and build profiles, which is what a pinned digest needs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A state at the FNV offset basis.
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// One FNV-1a round over a whole word: xor it in, multiply by the
    /// FNV prime. The byte-wise writes below are this round per byte.
    #[inline]
    pub fn write_word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds in `bytes`, one round per byte.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_word(u64::from(b));
        }
    }

    /// Folds in `v` as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The hash so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a over a test name: gives each property a stable, distinct
/// base seed without any global registry.
pub fn fnv1a(name: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(name.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = CheckRng::new(7);
        let mut b = CheckRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(CheckRng::new(1).next_u64(), CheckRng::new(2).next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        assert_ne!(CheckRng::new(0).next_u64(), 0);
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut r = CheckRng::new(99);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            let v = r.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = CheckRng::new(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_is_roughly_half() {
        let mut r = CheckRng::new(11);
        let mean: f64 = (0..100_000).map(|_| r.next_f64()).sum::<f64>() / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        // FNV-1a 64 test vectors: "" is the offset basis, "a" one round.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write_u64(0x61);
        let mut b = Fnv1a::new();
        b.write_bytes(&[0x61, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(h.finish(), b.finish());
    }

    #[test]
    fn fnv_distinguishes_names() {
        assert_ne!(fnv1a("lap_invariant"), fnv1a("trie_matches_naive_oracle"));
    }

    #[test]
    fn mix_decorrelates_adjacent_seeds() {
        // Adjacent inputs should differ in roughly half their bits.
        let d = (mix(1) ^ mix(2)).count_ones();
        assert!((16..=48).contains(&d), "only {d} bits differ");
    }
}
