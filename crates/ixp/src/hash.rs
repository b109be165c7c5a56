//! The IXP1200 hardware hash unit.
//!
//! The chip provides a polynomial hash unit the classifier uses for its
//! "one-cycle hardware hash" route-cache lookups (paper, section 3.5.1)
//! and for the dual IP/TCP header hashes of the extensible classifier
//! (section 4.5). We model it as a strong multiplicative hash with a
//! one-cycle issue cost; the VRP budget allows three hashes per MP
//! (section 4.3).

/// 64-bit mix (xorshift-multiply; passes basic avalanche checks).
#[inline]
pub fn hash64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// 48-bit hash as produced by the hardware unit.
#[inline]
pub fn hash48(x: u64) -> u64 {
    hash64(x) & 0xffff_ffff_ffff
}

/// A stateful view of the unit that counts uses (the admission
/// controller budgets 3 hashes per MP).
#[derive(Debug, Default, Clone)]
pub struct HashUnit {
    uses: u64,
}

impl HashUnit {
    /// Hashes `x`, recording one use.
    pub fn hash(&mut self, x: u64) -> u64 {
        self.uses += 1;
        hash48(x)
    }

    /// Hashes a 4-tuple flow key the way the classifier does: IP pair and
    /// port pair hashed separately, then combined (paper, section 4.5:
    /// "hashes the IP and TCP headers separately. The two hashed values
    /// are combined to index into a table"). Costs two recorded uses.
    pub fn hash_flow(&mut self, src: u32, dst: u32, sport: u16, dport: u16) -> u64 {
        let h1 = self.hash((u64::from(src) << 32) | u64::from(dst));
        let h2 = self.hash((u64::from(sport) << 16) | u64::from(dport));
        h1 ^ h2.rotate_left(17)
    }

    /// Number of hash operations issued.
    pub fn uses(&self) -> u64 {
        self.uses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash64(12345), hash64(12345));
        assert_ne!(hash64(12345), hash64(12346));
    }

    #[test]
    fn hash48_fits_48_bits() {
        for x in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert!(hash48(x) < 1 << 48);
        }
    }

    #[test]
    fn unit_counts_uses() {
        let mut u = HashUnit::default();
        u.hash(1);
        u.hash_flow(1, 2, 3, 4);
        assert_eq!(u.uses(), 3);
    }

    #[test]
    fn flow_hash_distinguishes_tuples() {
        let mut u = HashUnit::default();
        let a = u.hash_flow(10, 20, 80, 443);
        let b = u.hash_flow(10, 20, 443, 80);
        let c = u.hash_flow(20, 10, 80, 443);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn low_bits_spread_over_buckets() {
        // The classifier folds the hash into a table index; the low bits
        // must spread sequential inputs well.
        let mut buckets = [0u32; 64];
        for i in 0..6400u64 {
            buckets[(hash48(i) & 63) as usize] += 1;
        }
        let (min, max) = (
            *buckets.iter().min().unwrap(),
            *buckets.iter().max().unwrap(),
        );
        assert!(min > 50 && max < 150, "poor spread: {min}..{max}");
    }
}
