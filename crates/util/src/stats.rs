//! Streaming statistics, empirical CDFs and binomial confidence
//! intervals.

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use relaxfault_util::stats::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] { s.add(x); }
/// assert_eq!(s.count(), 3);
/// assert!((s.mean() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
    }
}

/// Empirical distribution over `f64` samples with percentile and
/// fraction-below queries. Used to build the coverage-vs-capacity CDFs of
/// the paper's Figures 10 and 11.
///
/// # Examples
///
/// ```
/// use relaxfault_util::stats::Ecdf;
/// let mut e = Ecdf::new();
/// e.extend([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.fraction_at_most(2.5), 0.5);
/// assert_eq!(e.percentile(50.0), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ecdf {
    samples: Vec<f64>,
    sorted: bool,
}

/// Two distributions are equal when they hold the same multiset of samples
/// (bit-for-bit), regardless of insertion order — parallel reductions merge
/// per-worker chunks, so insertion order is not meaningful.
impl PartialEq for Ecdf {
    fn eq(&self, other: &Self) -> bool {
        if self.samples.len() != other.samples.len() {
            return false;
        }
        let mut a = self.samples.clone();
        let mut b = other.samples.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
}

impl Ecdf {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Adds many samples.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        self.samples.extend(xs);
        self.sorted = false;
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &Ecdf) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the distribution is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
    }

    /// Fraction of samples `<= x` (0 if empty).
    pub fn fraction_at_most(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// The samples in ascending order (sorting in place if needed) —
    /// the canonical form for digesting or serializing a distribution,
    /// independent of merge order.
    pub fn sorted_samples(&mut self) -> &[f64] {
        self.ensure_sorted();
        &self.samples
    }

    /// The `p`-th percentile (nearest-rank method).
    ///
    /// # Panics
    ///
    /// Panics if the distribution is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!(!self.samples.is_empty(), "percentile of empty distribution");
        assert!((0.0..=100.0).contains(&p));
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }
}

/// Wilson score interval for a binomial proportion at ~95% confidence.
///
/// Returns `(low, high)`. Well-behaved for small counts and extreme
/// proportions, unlike the normal approximation.
///
/// # Panics
///
/// Panics if `successes > trials`.
///
/// # Examples
///
/// ```
/// let (lo, hi) = relaxfault_util::stats::wilson_interval(90, 100);
/// assert!(lo < 0.9 && 0.9 < hi);
/// ```
pub fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    assert!(successes <= trials, "successes exceed trials");
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = p + z2 / (2.0 * n);
    let spread = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((centre - spread) / denom).max(0.0),
        ((centre + spread) / denom).min(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..37] {
            a.add(x);
        }
        for &x in &data[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.add(3.0);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ecdf_fraction_and_percentile() {
        let mut e = Ecdf::new();
        e.extend((1..=100).map(|i| i as f64));
        assert_eq!(e.len(), 100);
        assert!((e.fraction_at_most(50.0) - 0.5).abs() < 1e-12);
        assert_eq!(e.fraction_at_most(0.0), 0.0);
        assert_eq!(e.fraction_at_most(1000.0), 1.0);
        assert_eq!(e.percentile(90.0), 90.0);
        assert_eq!(e.percentile(0.0), 1.0);
        assert_eq!(e.percentile(100.0), 100.0);
    }

    #[test]
    fn ecdf_merge() {
        let mut a = Ecdf::new();
        a.extend([1.0, 2.0]);
        let mut b = Ecdf::new();
        b.extend([3.0, 4.0]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.fraction_at_most(2.0), 0.5);
    }

    #[test]
    fn wilson_contains_truth_and_shrinks() {
        let (lo1, hi1) = wilson_interval(50, 100);
        let (lo2, hi2) = wilson_interval(5_000, 10_000);
        assert!(lo1 < 0.5 && 0.5 < hi1);
        assert!(lo2 < 0.5 && 0.5 < hi2);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn wilson_edge_cases() {
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 10);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.5);
        let (lo, hi) = wilson_interval(10, 10);
        assert_eq!(hi, 1.0);
        assert!(lo > 0.5);
    }
}
