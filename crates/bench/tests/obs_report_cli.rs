//! The `obs_report` binary driven end to end: `diff` (the zero-delta
//! determinism gate between two snapshots of the same pinned-seed work),
//! `folded-diff` (where the time went between two profiles), and the
//! usage errors of both.

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
    let base = snapshot("drift_a");
    let a = write(&dir, "a.json", &base);
    let same = write(&dir, "same.json", &base);
    assert_eq!(obs_report(&["diff", &a, &same]).0, 0);

    // Span timings and bench medians jitter between identical runs, and
    // the manifests name different runs; none of that is drift.
    let jitter = perturb(
        &perturb(
            &snapshot("drift_b"),
            &["histograms", "relsim.trial_ns", "sum"],
            1.0,
        ),
        &["benches", "node_eval", "median_ns"],
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

/// Writes two small profiles: `relsim.trial` grows by 200 self samples,
/// `relsim.sample` shrinks by 5, and `relsim.epoch` appears from nowhere
/// with 20.
fn two_profiles(dir: &Path) -> (String, String) {
    let profile = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().expect("utf-8 path").to_string()
    };
    (
        profile(
            "before.folded",
            "relsim.run;relsim.trial 100\nrelsim.run;relsim.sample 50\n",
        ),
        profile(
            "after.folded",
            "relsim.run;relsim.trial 300\nrelsim.run;relsim.sample 45\n\
             relsim.run;relsim.epoch 20\n",
        ),
    )
}

/// The frame column of each table row, header and total line dropped.
fn frames(table: &str) -> Vec<&str> {
    let lines: Vec<&str> = table.lines().collect();
    assert!(lines.len() >= 2, "no header or total line: {table}");
    assert!(lines[0].starts_with("frame"), "{table}");
    assert!(lines[lines.len() - 1].starts_with("total"), "{table}");
    lines[1..lines.len() - 1]
        .iter()
        .map(|l| l.split_whitespace().next().expect("a frame"))
        .collect()
}

#[test]
fn folded_diff_prints_the_biggest_mover_first() {
    let dir = scratch_dir("report_folded");
    let (before, after) = two_profiles(&dir);
    let (code, text) = obs_report(&["folded-diff", &before, &after]);
    assert_eq!(code, 0, "{text}");
    assert_eq!(
        frames(&text),
        ["relsim.trial", "relsim.epoch", "relsim.sample"],
        "{text}"
    );
    assert!(text.contains("+200"), "{text}");

    let (code, text) = obs_report(&["folded-diff", &before, &after, "--top", "1"]);
    assert_eq!(code, 0, "{text}");
    assert_eq!(frames(&text), ["relsim.trial"], "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn folded_diff_and_removed_subcommands_are_usage_errors() {
    let dir = scratch_dir("report_usage");
    let (before, after) = two_profiles(&dir);
    for args in [
        &["folded-diff", before.as_str()][..],
        &["folded-diff", &before, &after, "--top", "x"],
        &["folded-diff", &before, &after, "--top"],
        &["folded-diff", &before, &after, "--check"],
        &["ingest"],
        &["report", "--check"],
        &[],
    ] {
        let (code, text) = obs_report(args);
        assert_eq!(code, 2, "{args:?}: {text}");
    }
    let (_, text) = obs_report(&["ingest"]);
    assert!(text.contains("unknown subcommand"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}
