//! Measurement helpers: lifetime counters and a log-scaled histogram.
//!
//! The paper's experiments report steady-state forwarding rates; our
//! harness likewise discards a warmup prefix. A [`Counter`] is never
//! zeroed: a measurement window is the difference between two readings
//! of its total, taken by whoever observes the window.

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use npr_sim::Counter;
///
/// let mut c = Counter::default();
/// c.add(5);
/// let mark = c.total(); // Start of a measurement window.
/// c.add(10);
/// assert_eq!(c.total() - mark, 10);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Counter {
    total: u64,
}

impl Counter {
    /// Increments by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.total += n;
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.total += 1;
    }

    /// All-time total.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_marks() {
        let mut c = Counter::default();
        c.inc();
        c.add(2);
        assert_eq!(c.total(), 3);
        let mark = c.total();
        c.add(7);
        assert_eq!(c.total() - mark, 7);
        assert_eq!(c.total(), 10);
    }
}

/// A log-scaled histogram for latency-like quantities: fixed memory,
/// ~4% relative resolution, percentile queries.
///
/// # Examples
///
/// ```
/// use npr_sim::stats::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((450..=560).contains(&p50), "p50 {p50}");
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// 16 sub-buckets per power of two, across 64 powers.
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

const SUB: usize = 16;

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; 64 * SUB],
            count: 0,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize;
        let frac = ((v >> (exp - 4)) & 0xf) as usize; // Top 4 mantissa bits.
        exp * SUB + frac
    }

    /// Lower bound of a bucket (inverse of `index`).
    fn lower_bound(i: usize) -> u64 {
        let exp = i / SUB;
        let frac = (i % SUB) as u64;
        if exp == 0 {
            return frac;
        }
        (1u64 << exp) | (frac << (exp - 4).max(0))
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate value at percentile `p` (0..=100).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count as f64 * (p / 100.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::lower_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.max = 0;
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_value_dominates_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(777);
        for p in [1.0, 50.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!((720..=777).contains(&v), "p{p} = {v}");
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LogHistogram::new();
        let mut x = 1u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 1_000_000);
        }
        let mut last = 0;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn resolution_is_within_7_percent() {
        let mut h = LogHistogram::new();
        for _ in 0..1000 {
            h.record(123_456);
        }
        let v = h.percentile(50.0) as f64;
        assert!((v - 123_456.0).abs() / 123_456.0 < 0.07, "{v}");
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = LogHistogram::new();
        h.record(5);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn saturating_value_lands_in_the_top_bucket() {
        // u64::MAX must index the last bucket (exp 63, all-ones
        // mantissa) without overflowing, and percentile() must clamp
        // the bucket's lower bound to the recorded max.
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        let p = h.percentile(100.0);
        assert!(p >= 0xF800_0000_0000_0000, "top-bucket lower bound: {p:#x}");
        assert!(p <= u64::MAX);
        // A second saturating sample shares the bucket.
        h.record(u64::MAX);
        assert_eq!(h.percentile(50.0), p);
    }

    #[test]
    fn zero_samples_index_the_first_bucket() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(0);
        for p in [1.0, 50.0, 100.0] {
            assert_eq!(h.percentile(p), 0, "p{p}");
        }
    }

    #[test]
    fn extreme_mix_splits_cleanly_across_percentiles() {
        // Half zeros, half saturating: low percentiles see the floor,
        // high percentiles the ceiling, and nothing panics on the
        // 64-bit boundary arithmetic.
        let mut h = LogHistogram::new();
        for _ in 0..50 {
            h.record(0);
            h.record(u64::MAX);
        }
        assert_eq!(h.percentile(25.0), 0);
        assert!(h.percentile(75.0) >= 1 << 63);
        assert!(h.percentile(100.0) <= u64::MAX);
    }

    #[test]
    fn out_of_range_percentiles_are_clamped() {
        let mut h = LogHistogram::new();
        h.record(100);
        // p <= 0 still targets the first sample; p > 100 the last.
        assert_eq!(h.percentile(0.0), h.percentile(1.0));
        assert_eq!(h.percentile(150.0), h.percentile(100.0));
    }
}
