//! Streaming statistics, empirical CDFs, binomial confidence intervals,
//! and robust trend analytics (MAD outlier scores, CUSUM changepoints)
//! for the cross-run perf-history ledger.

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

/// Median of a sample (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics if `samples` is empty or contains a non-finite value.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median absolute deviation: the median of `|x - median(xs)|`. With a
/// 50% breakdown point it stays anchored to the majority of a series even
/// when a long tail of regressed runs pulls the mean — which is exactly
/// why the trend analytics standardize on it instead of the standard
/// deviation.
///
/// # Panics
///
/// Panics if `samples` is empty or contains a non-finite value.
pub fn mad(samples: &[f64]) -> f64 {
    let m = median(samples);
    let deviations: Vec<f64> = samples.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// The robust scale estimate the trend analytics divide by:
/// `1.4826 * MAD` (consistent with the standard deviation under
/// normality). When the MAD degenerates to zero (over half the samples
/// identical — the common case for a healthy deterministic series), falls
/// back to a tiny scale proportional to the median's magnitude so *any*
/// genuine departure still scores enormous rather than dividing by zero.
fn robust_scale(samples: &[f64]) -> f64 {
    let s = 1.4826 * mad(samples);
    if s > 0.0 {
        s
    } else {
        let m = median(samples).abs();
        (if m > 0.0 { m } else { 1.0 }) * 1e-9
    }
}

/// MAD-based outlier scores: each sample's distance from the sample
/// median in robust-scale units (a "robust z-score", sign-preserving).
/// Scores beyond ±3.5 are the conventional outlier threshold. Returns an
/// empty vector for an empty sample.
pub fn mad_scores(samples: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return Vec::new();
    }
    let m = median(samples);
    let scale = robust_scale(samples);
    // Cap the scores so degenerate scales cannot produce infinities that
    // poison downstream accumulation (CUSUM sums these).
    samples
        .iter()
        .map(|x| ((x - m) / scale).clamp(-1e6, 1e6))
        .collect()
}

/// A level shift detected in a series by [`cusum_changepoints`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Changepoint {
    /// Index of the first point of the shifted regime (0-based).
    pub index: usize,
    /// `+1` for an upward shift (a regression for time-like series),
    /// `-1` for a downward shift (an improvement).
    pub direction: i8,
    /// Relative size of the shift: the median of the shifted regime over
    /// the median it shifted away from (the series median, or the head
    /// regime for a mid-excursion segment open), minus one (e.g. `+1.0`
    /// for a 2x regression).
    pub shift: f64,
}

/// Default CUSUM slack: shifts under half a robust standard deviation
/// accumulate nothing, so seed-level jitter never drifts the statistic.
pub const CUSUM_K: f64 = 0.5;

/// Default CUSUM decision threshold, in robust standard deviations of
/// accumulated evidence.
pub const CUSUM_H: f64 = 5.0;

/// Two-sided CUSUM changepoint detection over a series, standardized by
/// the series' own median/MAD so the detector responds to *level shifts
/// against the trend* rather than to a single archived number. `k` is the
/// per-point slack and `h` the decision threshold (see [`CUSUM_K`],
/// [`CUSUM_H`]); both are in robust-scale units. Series shorter than 4
/// points carry too little evidence and report no changepoints.
///
/// After each detection the remainder of the series is re-standardized
/// before detection continues, so a persistent shift reports exactly one
/// changepoint instead of one per shifted point. The reported index is
/// the first point of the excursion that crossed the threshold.
///
/// A segment can also *open* mid-excursion — the whole series starts on
/// a regime its bulk later left (an archived pre-optimization head), or
/// re-scanning resumes right after a spike. There is no in-segment
/// pre-regime to anchor that shift, so the reported changepoint is the
/// *return* to the bulk: its index is the first post-excursion point and
/// its direction is opposite to the excursion's, with the shift measured
/// against the head regime. Detection then continues past it, so an
/// outlier head can never mask later shifts.
pub fn cusum_changepoints(series: &[f64], k: f64, h: f64) -> Vec<Changepoint> {
    let mut out = Vec::new();
    let mut offset = 0;
    while let Some(mut cp) = first_changepoint(&series[offset..], k, h) {
        if cp.index == 0 {
            let seg = &series[offset..];
            let scores = mad_scores(seg);
            let dir = f64::from(cp.direction);
            let Some(end) = scores[1..].iter().position(|&z| dir * z <= k) else {
                break; // the head excursion never returns to the bulk
            };
            let end = end + 1;
            let head = median(&seg[..end]);
            let regime = median(&seg[end..]);
            out.push(Changepoint {
                index: offset + end,
                direction: -cp.direction,
                shift: if head != 0.0 {
                    regime / head - 1.0
                } else {
                    0.0
                },
            });
            offset += end;
            continue;
        }
        cp.index += offset;
        offset = cp.index;
        out.push(cp);
    }
    out
}

/// The first CUSUM threshold crossing in `series`, standardized by the
/// whole slice's median/MAD (see [`cusum_changepoints`]).
fn first_changepoint(series: &[f64], k: f64, h: f64) -> Option<Changepoint> {
    if series.len() < 4 {
        return None;
    }
    let scores = mad_scores(series);
    let m = median(series);
    let (mut s_hi, mut s_lo) = (0.0f64, 0.0f64);
    let (mut hi_start, mut lo_start) = (0usize, 0usize);
    for (i, &z) in scores.iter().enumerate() {
        let prev_hi = s_hi;
        let prev_lo = s_lo;
        s_hi = (s_hi + z - k).max(0.0);
        s_lo = (s_lo + z + k).min(0.0);
        if prev_hi == 0.0 && s_hi > 0.0 {
            hi_start = i;
        }
        if prev_lo == 0.0 && s_lo < 0.0 {
            lo_start = i;
        }
        if s_hi > h || s_lo < -h {
            let (direction, start) = if s_hi > h {
                (1, hi_start)
            } else {
                (-1, lo_start)
            };
            let regime = median(&series[start..]);
            let shift = if m != 0.0 { regime / m - 1.0 } else { 0.0 };
            return Some(Changepoint {
                index: start,
                direction,
                shift,
            });
        }
    }
    None
}

/// Baseline-rotation policy: when the `window` most recent runs of a
/// series *all* sit below the committed baseline by more than `margin`
/// (relative, e.g. `0.05` = 5% faster), the baseline is stale and a new
/// one — the median of that window — is proposed. Returns `None` while
/// any recent run still touches the baseline, or when fewer than `window`
/// runs exist.
pub fn propose_baseline(series: &[f64], baseline: f64, window: usize, margin: f64) -> Option<f64> {
    if window == 0 || series.len() < window || baseline <= 0.0 {
        return None;
    }
    let recent = &series[series.len() - window..];
    let cutoff = baseline * (1.0 - margin);
    if recent.iter().all(|&x| x < cutoff) {
        Some(median(recent))
    } else {
        None
    }
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
    fn median_and_mad_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mad(&[1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn mad_scores_flag_outliers_not_jitter() {
        // Tight cluster plus one wild point: only the wild point scores
        // beyond the conventional 3.5 threshold.
        let xs = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 30.0];
        let scores = mad_scores(&xs);
        assert!(scores[6] > 3.5, "outlier score {}", scores[6]);
        for (i, s) in scores.iter().enumerate().take(6) {
            assert!(s.abs() < 3.5, "point {i} falsely flagged: {s}");
        }
        assert!(mad_scores(&[]).is_empty());
    }

    #[test]
    fn mad_scores_survive_degenerate_scale() {
        // All-identical series: MAD is 0; scores must stay finite zeros.
        let flat = [7.0; 8];
        assert!(mad_scores(&flat).iter().all(|&s| s == 0.0));
        // Identical majority + deviant: the deviant scores huge but finite.
        let mut xs = vec![7.0; 8];
        xs.push(14.0);
        let scores = mad_scores(&xs);
        assert!(scores[8].is_finite() && scores[8] > 1e5);
    }

    #[test]
    fn cusum_detects_upward_step_at_right_epoch() {
        // 8 clean points, then a persistent 2x regression.
        let mut xs = vec![100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 100.2, 100.0];
        xs.extend([200.0, 201.0, 199.0]);
        let cps = cusum_changepoints(&xs, CUSUM_K, CUSUM_H);
        assert_eq!(cps.len(), 1, "{cps:?}");
        assert_eq!(cps[0].index, 8);
        assert_eq!(cps[0].direction, 1);
        assert!((cps[0].shift - 1.0).abs() < 0.1, "shift {}", cps[0].shift);
    }

    #[test]
    fn cusum_detects_downward_step_and_flat_series_is_quiet() {
        let mut xs = vec![100.0; 8];
        xs.extend([50.0, 50.0, 50.0]);
        let cps = cusum_changepoints(&xs, CUSUM_K, CUSUM_H);
        assert_eq!(cps.len(), 1, "{cps:?}");
        assert_eq!(cps[0].direction, -1);
        assert_eq!(cps[0].index, 8);

        assert!(cusum_changepoints(&[100.0; 20], CUSUM_K, CUSUM_H).is_empty());
        // Noisy but stationary: no detections.
        let noisy: Vec<f64> = (0..40).map(|i| 100.0 + ((i * 7) % 5) as f64).collect();
        assert!(cusum_changepoints(&noisy, CUSUM_K, CUSUM_H).is_empty());
    }

    #[test]
    fn cusum_head_regime_reports_return_and_cannot_mask_later_shifts() {
        // The series *opens* on a slower regime (an archived
        // pre-optimization head): the drop to the bulk is reported as a
        // downward changepoint at the return index, measured against the
        // head.
        let mut xs = vec![200.0, 201.0];
        xs.extend([100.0; 9]);
        let cps = cusum_changepoints(&xs, CUSUM_K, CUSUM_H);
        assert_eq!(cps.len(), 1, "{cps:?}");
        assert_eq!(cps[0].index, 2);
        assert_eq!(cps[0].direction, -1);
        assert!((cps[0].shift + 0.5).abs() < 0.1, "shift {}", cps[0].shift);

        // And the head must not swallow a genuine regression after it:
        // detection continues past the return boundary.
        xs.extend([200.0, 199.0, 201.0]);
        let cps = cusum_changepoints(&xs, CUSUM_K, CUSUM_H);
        assert_eq!(cps.len(), 2, "{cps:?}");
        assert_eq!((cps[1].index, cps[1].direction), (11, 1));
        assert!((cps[1].shift - 1.0).abs() < 0.1, "shift {}", cps[1].shift);

        // A 50/50 split is a noisy stationary series to the robust
        // scale, not a head regime: no report.
        assert!(cusum_changepoints(&[300.0, 300.0, 1.0, 1.0], CUSUM_K, CUSUM_H).is_empty());

        // A majority-regression series (short clean head, long shifted
        // bulk) is the other masked shape: the bulk *is* the median, so
        // the old detector saw only an index-0 excursion and reported
        // nothing. The return boundary is the regression.
        let xs = [
            100.0, 100.0, 100.0, 100.0, 200.0, 200.0, 200.0, 200.0, 200.0, 200.0,
        ];
        let cps = cusum_changepoints(&xs, CUSUM_K, CUSUM_H);
        assert_eq!(cps.len(), 1, "{cps:?}");
        assert_eq!((cps[0].index, cps[0].direction), (4, 1));
        assert!((cps[0].shift - 1.0).abs() < 0.1, "shift {}", cps[0].shift);
    }

    #[test]
    fn cusum_short_series_report_nothing() {
        assert!(cusum_changepoints(&[1.0, 100.0, 1.0], CUSUM_K, CUSUM_H).is_empty());
    }

    #[test]
    fn propose_baseline_requires_full_window_below_margin() {
        // Last 3 runs all >5% under the baseline: propose their median.
        let xs = [100.0, 100.0, 80.0, 82.0, 81.0];
        assert_eq!(propose_baseline(&xs, 100.0, 3, 0.05), Some(81.0));
        // One recent run touching the baseline vetoes the proposal.
        let xs = [100.0, 80.0, 96.0, 81.0];
        assert_eq!(propose_baseline(&xs, 100.0, 3, 0.05), None);
        // Too few runs, or a degenerate baseline: no proposal.
        assert_eq!(propose_baseline(&[80.0], 100.0, 3, 0.05), None);
        assert_eq!(propose_baseline(&xs, 0.0, 3, 0.05), None);
        assert_eq!(propose_baseline(&xs, 100.0, 0, 0.05), None);
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
