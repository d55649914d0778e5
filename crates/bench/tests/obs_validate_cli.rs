//! Drives the `obs_validate` binary over hand-built artifact directories:
//! a valid snapshot directory passes, and the three corruptions the CI
//! gates inject — a truncated crash dump, a ledger whose final newline
//! was cut, and farm job manifests of mixed schema versions — are each
//! rejected with the offending file named.

use relaxfault_farm::{JobManifest, JobRole, JobStatus};
use relaxfault_util::crashdump::CrashDump;
use relaxfault_util::history::HistoryEntry;
use relaxfault_util::json::Value;
use relaxfault_util::persist::Persist;
use std::path::Path;
use std::process::Command;

mod common;
use common::{scratch_dir, snapshot};

/// Runs `obs_validate <dir>`; returns (exit code, stdout + stderr).
fn validate(dir: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obs_validate"))
        .arg(dir)
        .output()
        .expect("obs_validate runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exited normally"), text)
}

#[test]
fn valid_snapshot_directory_passes() {
    let dir = scratch_dir("validate_valid");
    for run in ["drift_a", "drift_b"] {
        std::fs::write(
            dir.join(format!("{run}.json")),
            snapshot(run, 1.0).to_pretty(),
        )
        .unwrap();
    }
    let (code, text) = validate(&dir);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("2 artifact(s), 0 failure(s)"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_crash_dump_is_rejected() {
    let dir = scratch_dir("validate_crash");
    let dump = CrashDump::collect("crash_small", "injected", None)
        .to_json()
        .to_pretty();
    assert!(dump.len() > 256, "dump too small to truncate");
    let path = dir.join("crash_small.crashdump.json");
    std::fs::write(&path, &dump).unwrap();
    let (code, text) = validate(&dir);
    assert_eq!(code, 0, "the whole dump must pass: {text}");

    std::fs::write(&path, &dump.as_bytes()[..256]).unwrap();
    let (code, text) = validate(&dir);
    assert_ne!(code, 0, "{text}");
    assert!(
        text.contains("FAILED") && text.contains("crash_small"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ledger_with_cut_final_newline_is_rejected() {
    let dir = scratch_dir("validate_ledger");
    let line = HistoryEntry {
        id: 0,
        run: "engine_hot".into(),
        git_sha: "abc".into(),
        config_hash: 0x50c1_207f_8068_9ff5,
        threads: 1,
        wall_clock_ms: 1,
        benches: vec![("engine_hot.fig10_mix".into(), 5.0e6)],
        counters: vec![("relsim.trials".into(), 4000)],
    }
    .seal()
    .to_line();
    let path = dir.join("ledger.jsonl");
    std::fs::write(&path, &line).unwrap();
    let (code, text) = validate(&dir);
    assert_eq!(code, 0, "the whole ledger must pass: {text}");

    std::fs::write(&path, line.trim_end_matches('\n')).unwrap();
    let (code, text) = validate(&dir);
    assert_ne!(code, 0, "{text}");
    assert!(
        text.contains("FAILED") && text.contains("ledger.jsonl"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn farm_job_manifests_of_mixed_schema_versions_are_rejected() {
    let dir = scratch_dir("validate_farm_jobs");
    let manifest = |id: &str, version: u64| {
        let doc = JobManifest {
            id: id.into(),
            digest: 7,
            role: JobRole::Job,
            status: JobStatus::Ok,
            attempts: 1,
            deps: Vec::new(),
            cost: 1,
            reason: None,
            repro: None,
        }
        .to_json();
        let Value::Object(pairs) = doc else {
            unreachable!("manifests are objects")
        };
        let pairs = pairs
            .into_iter()
            .map(|(k, v)| match k.as_str() {
                "schema_version" => (k, Value::from(version)),
                _ => (k, v),
            })
            .collect();
        std::fs::write(
            dir.join(format!("{id}.json")),
            Value::Object(pairs).to_pretty(),
        )
        .unwrap();
    };
    manifest("table3_config", 1);
    manifest("fig08_hashing", 1);
    let (code, text) = validate(&dir);
    assert_eq!(code, 0, "same-version manifests must pass: {text}");

    manifest("fig08_hashing", 2);
    let (code, text) = validate(&dir);
    assert_ne!(code, 0, "{text}");
    assert!(text.contains("FAILED"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}
