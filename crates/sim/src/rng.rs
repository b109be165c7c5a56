//! Deterministic xorshift64* RNG.
//!
//! Workload generation must be reproducible across runs and platforms,
//! so the simulator and the traffic crate draw from the workspace's one
//! self-contained generator, `npr_check::CheckRng`, under this name.

/// An xorshift64* pseudo-random generator (`npr_check::CheckRng`).
///
/// # Examples
///
/// ```
/// use npr_sim::XorShift64;
///
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
pub use npr_check::CheckRng as XorShift64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(99);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = XorShift64::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
