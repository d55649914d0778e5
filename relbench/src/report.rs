//! Metric records, the declared metric lists, the percentile rule and the
//! result line.

use std::fmt::Write as _;
use std::time::Duration;

/// One measured value, printed by name with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit label (`s`, `ms`, `count`, `ratio`, ...).
    pub unit: &'static str,
    /// For a ratio: the name of the metric holding its denominator.
    pub base: Option<String>,
    /// Free-text context printed next to the value (sample counts, ...).
    pub note: String,
}

impl Metric {
    /// A plain metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            base: None,
            note: String::new(),
        }
    }

    /// A count metric.
    pub fn count(name: &str, value: u64) -> Self {
        Self::new(name, value as f64, "count")
    }

    /// A busy-time metric in seconds.
    pub fn secs(name: &str, d: Duration) -> Self {
        Self::new(name, d.as_secs_f64(), "s")
    }

    /// A ratio `num / den`, carrying the name of its denominator metric.
    pub fn ratio(name: &str, num: f64, den: f64, base: &str) -> Self {
        let value = if den == 0.0 { 0.0 } else { num / den };
        Self {
            base: Some(base.to_string()),
            ..Self::new(name, value, "ratio")
        }
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// An end-to-end metric as declared in `BENCHMARK.json`.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every end-to-end metric, emitted by every untraced run. `work_per_s`
/// is the workload's own unit of work per second: trials on the engine
/// workloads, node-epochs on `fleet_1x`, simulated million instructions
/// on `perfsim_mix`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "work/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

/// The planner arms replayed by the `plan` layer, in output order.
pub const PLAN_ARMS: [&str; 7] = [
    "ppr",
    "freefault_w1",
    "freefault_w4",
    "freefault_w16",
    "relaxfault_w1",
    "relaxfault_w4",
    "relaxfault_w16",
];

/// Every per-layer metric, as `(name, unit)`, emitted by every traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    for (n, u) in [
        ("engine.busy_s", "s"),
        ("engine.unattributed_s", "s"),
        ("engine.trials", "count"),
        ("engine.arm_evals", "count"),
        ("engine.threaded_s", "s"),
        ("engine.thread_speedup", "ratio"),
        ("gate.busy_s", "s"),
        ("gate.trials", "count"),
        ("gate.faulty", "count"),
        ("gate.faulty_ratio", "ratio"),
        ("sampler.busy_s", "s"),
        ("sampler.calls", "count"),
        ("sampler.events", "count"),
        ("sampler.regions", "count"),
        ("sampler.permanent_events", "count"),
        ("node.busy_s", "s"),
        ("node.calls", "count"),
        ("node.fully_repaired", "count"),
        ("node.dues", "count"),
        ("node.replacements", "count"),
        ("ecc.busy_s", "s"),
        ("ecc.calls", "count"),
        ("ecc.live_regions_scanned", "count"),
        ("ecc.dues", "count"),
        ("ecc.sdcs", "count"),
    ] {
        add(n, u);
    }
    for arm in PLAN_ARMS {
        add(&format!("plan.{arm}.busy_s"), "s");
        add(&format!("plan.{arm}.calls"), "count");
        add(&format!("plan.{arm}.repaired"), "count");
        add(&format!("plan.{arm}.repaired_ratio"), "ratio");
        add(&format!("plan.{arm}.bytes_used"), "bytes");
    }
    for (n, u) in [
        ("fleet.init_busy_s", "s"),
        ("fleet.epoch_busy_s", "s"),
        ("fleet.faulty_nodes", "count"),
        ("fleet.node_epochs", "count"),
        ("fleet.dirty_evals", "count"),
        ("fleet.dirty_ratio", "ratio"),
        ("perfsim.busy_s", "s"),
        ("perfsim.runs", "count"),
        ("perfsim.instructions", "count"),
        ("perfsim.sim_cycles", "count"),
        ("perfsim.llc_hits", "count"),
        ("perfsim.llc_misses", "count"),
        ("perfsim.llc_writebacks", "count"),
        ("perfsim.dram_activates", "count"),
        ("perfsim.dram_reads", "count"),
        ("perfsim.dram_writes", "count"),
        ("perfsim.reads_per_activate", "ratio"),
        ("trace.untraced_s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        add(n, u);
    }
    v
}

/// Whether `name` matches the metric-name grammar `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Samples strictly beyond nearest-rank percentile `p` of `n` samples.
fn beyond(p: u32, n: usize) -> usize {
    n - (p as usize * n).div_ceil(100)
}

/// The percentile rule: the highest whole percentile, at most `cap`, that
/// has at least ten samples beyond it. `None` when even the median has
/// fewer than ten samples beyond it.
pub fn tail_percentile(n: usize, cap: u32) -> Option<u32> {
    (50..=cap).rev().find(|&p| beyond(p, n) >= 10)
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The median of `values` (nearest-rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50)
}

/// Operation latencies summarised as `op_ms_p50` and `op_ms_p90`. The p90
/// carries the percentile rule's verdict in its note: a run must hold
/// enough operations that ten samples lie beyond p90.
pub fn latency_metrics(latencies: &[Duration], op: &str) -> Vec<Metric> {
    let mut ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    let rule = match tail_percentile(n, 90) {
        Some(90) => "p90 has >= 10 samples beyond it".to_string(),
        Some(p) => format!("too few samples: only p{p} has >= 10 beyond it"),
        None => "too few samples for any tail percentile".to_string(),
    };
    vec![
        Metric::new("op_ms_p50", percentile(&ms, 50), "ms").with_note(format!("n={n} {op}")),
        Metric::new("op_ms_p90", percentile(&ms, 90), "ms")
            .with_note(format!("n={n} {op}; {rule}")),
    ]
}

/// The process's resident-memory high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric, in print order.
    pub metrics: Vec<Metric>,
    /// Output checks attempted.
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// Description of each failed check.
    pub failures: Vec<String>,
    /// Extra context lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable metric lines, one per metric, with units, bases and
    /// notes.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "# {n}");
        }
        for m in &self.metrics {
            let _ = write!(s, "{:<32} {:>18} {}", m.name, m.value, m.unit);
            if let Some(b) = &m.base {
                let base = self.get(b).map_or(f64::NAN, |x| x.value);
                let _ = write!(s, "  (base {b} = {base})");
            }
            if !m.note.is_empty() {
                let _ = write!(s, "  [{}]", m.note);
            }
            s.push('\n');
        }
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            s,
            "{:<32} {:>18} ratio  (base checks attempted = {})",
            "ops_failed_ratio", ratio, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(s, "# FAILED CHECK: {f}");
        }
        s
    }

    /// The single-line JSON result: `correct`, `attempted`, `failed` and
    /// every metric as `{"value", "unit"}`.
    pub fn json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                // A non-finite value is already a failed check (see
                // `main`); keep the line valid JSON.
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}
