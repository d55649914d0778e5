//! The two regression gates of the `obs_report` binary, driven end to
//! end: `diff` (the zero-delta determinism gate between two snapshots of
//! the same pinned-seed work) and `report --check` against a committed
//! baseline (the engine hot-loop gate).

use relaxfault_util::json::Value;
use std::path::Path;
use std::process::Command;

mod common;
use common::{scratch_dir, snapshot};

/// Runs `obs_report <args>`; returns (exit code, stdout + stderr).
fn obs_report(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obs_report"))
        .args(args)
        .env_remove("RF_RESULTS_DIR")
        .output()
        .expect("obs_report runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exited normally"), text)
}

/// Replaces the number at `path` (section, name[, field]) in a snapshot.
fn perturb(doc: &Value, path: &[&str], delta: f64) -> Value {
    match doc {
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .map(|(k, v)| match path {
                    [head] if k == head => {
                        (k.clone(), Value::from(v.as_f64().expect("number") + delta))
                    }
                    [head, rest @ ..] if k == head => (k.clone(), perturb(v, rest, delta)),
                    _ => (k.clone(), v.clone()),
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

fn write(dir: &Path, name: &str, doc: &Value) -> String {
    let path = dir.join(name);
    std::fs::write(&path, doc.to_pretty()).expect("write snapshot");
    path.to_str().expect("utf-8 path").to_string()
}

#[test]
fn diff_exit_codes() {
    let dir = scratch_dir("report_diff");
    let base = snapshot("drift_a", 1.0);
    let a = write(&dir, "a.json", &base);
    let same = write(&dir, "same.json", &base);
    assert_eq!(obs_report(&["diff", &a, &same]).0, 0);

    // Span timings and bench medians jitter between identical runs, and
    // the manifests name different runs; none of that is drift.
    let jitter = perturb(
        &perturb(
            &snapshot("drift_b", 1.0),
            &["histograms", "relsim.trial_ns", "sum"],
            1.0,
        ),
        &["benches", "engine_hot.fig10_mix", "median_ns"],
        1.0,
    );
    let jitter = write(&dir, "jitter.json", &jitter);
    assert_eq!(obs_report(&["diff", &a, &jitter]).0, 0);

    // A one-unit drift in any exactly-compared field fails.
    for (name, path) in [
        ("counter", &["counters", "relsim.trial_evals"][..]),
        ("gauge", &["gauges", "perfsim.llc.locked_lines"]),
        ("count", &["histograms", "relsim.trial_ns", "count"]),
        ("sum", &["histograms", "core.plan_sets", "sum"]),
    ] {
        let drifted = write(&dir, &format!("{name}.json"), &perturb(&base, path, 1.0));
        let (code, text) = obs_report(&["diff", &a, &drifted]);
        assert_eq!(code, 1, "{name} drift: {text}");
        assert!(
            text.contains("DRIFT") && text.contains("1 drifted"),
            "{text}"
        );
    }

    // A metric present on one side only is drift, in either direction.
    let Value::Object(pairs) = &base else {
        unreachable!("snapshots are objects")
    };
    let extra = pairs
        .iter()
        .map(|(k, v)| match k.as_str() {
            "counters" => (
                k.clone(),
                Value::object([
                    ("relsim.trial_evals", Value::from(4000u64)),
                    ("relsim.extra", Value::from(0u64)),
                ]),
            ),
            _ => (k.clone(), v.clone()),
        })
        .collect();
    let extra = write(&dir, "extra.json", &Value::Object(extra));
    assert_eq!(obs_report(&["diff", &a, &extra]).0, 1);
    assert_eq!(obs_report(&["diff", &extra, &a]).0, 1);

    // Unreadable, non-snapshot, and missing inputs are errors, not drift.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{not json").unwrap();
    let not_snapshot = write(
        &dir,
        "not_snapshot.json",
        &Value::object([("schema_version", Value::from(2u64))]),
    );
    let old_schema = write(
        &dir,
        "old_schema.json",
        &perturb(&base, &["schema_version"], -1.0),
    );
    let missing = dir.join("missing.json");
    for bad in [
        garbage.to_str().unwrap(),
        &not_snapshot,
        &old_schema,
        missing.to_str().unwrap(),
    ] {
        let (code, text) = obs_report(&["diff", &a, bad]);
        assert_eq!(code, 2, "{bad}: {text}");
    }
    assert_eq!(obs_report(&["diff", &a]).0, 2, "one path is a usage error");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Ledgers one `engine_hot` run whose median is `scale` × the committed
/// baseline's, then runs `report --check` over that results tree.
fn check_against_baseline(scale: f64) -> (i32, String) {
    let dir = scratch_dir(&format!("report_check_{}", (scale * 10.0) as u32));
    for sub in ["baselines", "obs"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
    }
    write(
        &dir.join("baselines"),
        "engine_hot.json",
        &snapshot("engine_hot", 1.0),
    );
    write(
        &dir.join("obs"),
        "engine_hot.json",
        &snapshot("engine_hot", scale),
    );
    let results = dir.to_str().unwrap();
    assert_eq!(obs_report(&["ingest", "--results", results]).0, 0);
    let verdict = obs_report(&["report", "--results", results, "--check"]);
    std::fs::remove_dir_all(&dir).unwrap();
    verdict
}

#[test]
fn check_fails_past_half_again_the_baseline() {
    let (code, text) = check_against_baseline(1.6);
    assert_eq!(code, 1, "{text}");
    assert!(
        text.contains("REGRESSION bench:engine_hot.fig10_mix") && text.contains("over baseline"),
        "{text}"
    );

    // Within the limit, and faster than the baseline, both pass.
    for scale in [1.2, 0.5] {
        let (code, text) = check_against_baseline(scale);
        assert_eq!(code, 0, "{scale}x: {text}");
        assert!(text.contains("check: clean"), "{text}");
    }
}
