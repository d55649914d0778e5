//! Fixtures shared by the bench binaries' CLI tests.

use relaxfault_util::json::Value;
use std::path::PathBuf;

/// A fresh, empty scratch directory unique to this test process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rf_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A minimal valid metrics snapshot for `run`: one counter, one gauge,
/// a span-timing histogram (`*_ns`), and a work histogram.
pub fn snapshot(run: &str) -> Value {
    let histogram = |count: u64, sum: u64| {
        Value::object([
            ("count", Value::from(count)),
            ("sum", Value::from(sum)),
            ("mean", Value::from(sum as f64 / count as f64)),
            ("p50", Value::from(sum / count)),
            ("p95", Value::from(sum / count)),
            ("p99", Value::from(sum / count)),
            ("max", Value::from(sum / count)),
        ])
    };
    Value::object([
        ("schema_version", Value::from(2u64)),
        (
            "manifest",
            Value::object([
                ("run", Value::from(run)),
                ("git_sha", Value::from("abc")),
                ("profile", Value::from("release")),
                ("lanes", Value::from("u64")),
                ("threads", Value::from(1u64)),
                ("seeds", Value::Array(vec![Value::from(2016u64)])),
                ("config_hash", Value::from("50c1207f80689ff5")),
                ("sim_runs", Value::from(1u64)),
                ("epochs", Value::from(0u64)),
                ("shards", Value::from(0u64)),
                ("wall_clock_ms", Value::from(1000u64)),
            ]),
        ),
        (
            "counters",
            Value::object([("relsim.trial_evals", Value::from(4000u64))]),
        ),
        (
            "gauges",
            Value::object([("perfsim.llc.locked_lines", Value::from(64u64))]),
        ),
        (
            "histograms",
            Value::object([
                ("relsim.trial_ns", histogram(200, 200_000)),
                ("core.plan_sets", histogram(50, 4_100)),
            ]),
        ),
        ("dropped_events", Value::from(0u64)),
    ])
}
