//! Drives the `obs_validate` binary over hand-built artifact directories:
//! a valid snapshot directory and a valid experiment-record directory
//! pass, and the corruptions the CI gates and a killed or tampered run
//! leave behind — a truncated crash dump, a truncated record, records of
//! mixed schema versions, and a record whose digest does not match its
//! inputs — are each rejected with the offending file named.

use relaxfault_bench::paper::{Experiment, ExperimentRecord};
use relaxfault_util::crashdump::CrashDump;
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
        std::fs::write(dir.join(format!("{run}.json")), snapshot(run).to_pretty()).unwrap();
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

/// Writes valid records of two cheap experiments into `dir`; returns
/// the JSON text of each, by experiment name.
fn write_records(dir: &Path) -> Vec<(&'static str, String)> {
    [Experiment::Hashing, Experiment::Coverage1x]
        .into_iter()
        .map(|exp| {
            let text = ExperimentRecord::compute(exp, 50).to_json().to_pretty();
            std::fs::write(dir.join(format!("{}.json", exp.name())), &text).unwrap();
            (exp.name(), text)
        })
        .collect()
}

#[test]
fn valid_record_directory_passes_and_truncated_record_fails() {
    let dir = scratch_dir("validate_records");
    let records = write_records(&dir);
    let (code, text) = validate(&dir);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("2 artifact(s), 0 failure(s)"), "{text}");

    let (name, whole) = &records[1];
    std::fs::write(dir.join(format!("{name}.json")), &whole[..whole.len() / 2]).unwrap();
    let (code, text) = validate(&dir);
    assert_ne!(code, 0, "{text}");
    assert!(text.contains("FAILED") && text.contains(name), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn experiment_records_of_mixed_schema_versions_are_rejected() {
    let dir = scratch_dir("validate_record_versions");
    let records = write_records(&dir);
    let (name, text) = &records[1];
    let newer = text.replacen("\"schema_version\": 1", "\"schema_version\": 2", 1);
    assert_ne!(&newer, text);
    std::fs::write(dir.join(format!("{name}.json")), newer).unwrap();
    let (code, out) = validate(&dir);
    assert_ne!(code, 0, "{out}");
    assert!(out.contains("FAILED") && out.contains(name), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn record_whose_digest_does_not_match_its_inputs_is_rejected() {
    let dir = scratch_dir("validate_record_digest");
    let records = write_records(&dir);
    let (name, text) = &records[0];
    // One arm's configuration digest changes: still well-formed, but the
    // stored digest no longer covers these inputs.
    let at = text.find("\"config\": \"0x").expect("an arm config") + 13;
    let mut tampered = text.clone();
    let digit = if &text[at..=at] == "0" { "1" } else { "0" };
    tampered.replace_range(at..=at, digit);
    std::fs::write(dir.join(format!("{name}.json")), tampered).unwrap();
    let (code, out) = validate(&dir);
    assert_ne!(code, 0, "{out}");
    assert!(
        out.contains("FAILED") && out.contains(name) && out.contains("does not match its inputs"),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
