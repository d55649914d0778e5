//! A tiny wall-clock benchmarking harness for the `harness = false`
//! bench targets.
//!
//! It follows the shape that makes micro-benchmarks trustworthy —
//! calibrate an iteration count so one batch is long enough for the clock,
//! run several batches, report the median (robust to scheduler noise) —
//! without statistical machinery beyond that. Numbers print one per line
//! as `name  <ns>/iter  (<iters> iters x <batches> batches)`.
//!
//! Budget knobs for CI come from the environment: `RF_BENCH_BATCH_MS`
//! (target milliseconds per batch, default 10) and `RF_BENCH_BATCHES`
//! (batches per benchmark, default 7).
//!
//! # Examples
//!
//! ```
//! use relaxfault_util::timing::{black_box, Harness};
//! use std::time::Duration;
//!
//! let mut h = Harness::with_budget(Duration::from_micros(200), 3);
//! h.bench("sum", || (0..100u64).map(black_box).sum::<u64>());
//! assert_eq!(h.results().len(), 1);
//! ```

pub use std::hint::black_box;

use std::time::{Duration, Instant};

/// One benchmark's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name as passed to [`Harness::bench`].
    pub name: String,
    /// Median nanoseconds per iteration across batches.
    pub median_ns: f64,
    /// Iterations per batch after calibration.
    pub iters: u64,
    /// Per-batch nanoseconds per iteration, in run order, so a reader
    /// can judge the median's spread.
    pub batch_ns: Vec<f64>,
}

/// Runs and reports a sequence of named benchmarks.
pub struct Harness {
    batch_target: Duration,
    batches: usize,
    results: Vec<BenchResult>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// A harness with the environment-configured (or default) budget.
    pub fn new() -> Self {
        let ms = env_u64("RF_BENCH_BATCH_MS", 10);
        let batches = env_u64("RF_BENCH_BATCHES", 7).max(1) as usize;
        Self::with_budget(Duration::from_millis(ms), batches)
    }

    /// A harness with an explicit per-batch time target and batch count.
    pub fn with_budget(batch_target: Duration, batches: usize) -> Self {
        Self {
            batch_target,
            batches: batches.max(1),
            results: Vec::new(),
        }
    }

    /// Times `f`, printing one summary line. The closure's return value is
    /// passed through [`black_box`] so the work is not optimized away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        let iters = self.calibrate(&mut f);
        let batch_ns: Vec<f64> = (0..self.batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        let mut sorted = batch_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median_ns = sorted[sorted.len() / 2];
        println!(
            "{name:<40} {:>12}/iter  ({iters} iters x {} batches)",
            format_ns(median_ns),
            self.batches
        );
        self.results.push(BenchResult {
            name: name.to_string(),
            median_ns,
            iters,
            batch_ns,
        });
    }

    /// Grows the iteration count until one batch meets the time target.
    fn calibrate<T>(&self, f: &mut impl FnMut() -> T) -> u64 {
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.batch_target || iters >= 1 << 30 {
                return iters;
            }
            // Scale toward the target; overshoot by going 10x while the
            // measurement is too short to trust.
            iters = if elapsed < self.batch_target / 20 {
                iters.saturating_mul(10)
            } else {
                let scale = self.batch_target.as_nanos() as f64 / elapsed.as_nanos().max(1) as f64;
                ((iters as f64 * scale) as u64 + 1).max(iters + 1)
            };
        }
    }

    /// All results recorded so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}us", ns / 1_000.0)
    } else {
        format!("{:.2}ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_plausible_time() {
        let mut h = Harness::with_budget(Duration::from_micros(200), 3);
        h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..50u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        let r = &h.results()[0];
        assert_eq!(r.name, "spin");
        assert!(r.median_ns > 0.0);
        assert!(r.iters >= 1);
        assert_eq!(r.batch_ns.len(), 3);
        let mut sorted = r.batch_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(r.median_ns, sorted[1]);
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(12.34), "12.3ns");
        assert_eq!(format_ns(4_500.0), "4.50us");
        assert_eq!(format_ns(2_500_000.0), "2.50ms");
    }
}
