//! The harness binaries must fail loudly when a result file cannot be
//! written: non-zero exit, with the failing path on stderr. Each case
//! blocks the write with a filesystem shape that fails for every user,
//! root included — unlike a permission-based setup: a results root under
//! a regular file, or a non-empty directory where the folded profile
//! goes.

use std::process::Command;

#[test]
fn unwritable_results_dir_fails_the_run_and_names_the_path() {
    let dir = std::env::temp_dir().join(format!("rf_emit_errors_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("not_a_dir");
    std::fs::write(&file, "a regular file").unwrap();
    let results = file.join("results");
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .env("RF_RESULTS_DIR", &results)
        .env_remove("RF_OBS_ADDR")
        .env_remove("RF_RUN_NAME")
        .output()
        .expect("paper runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "write error was swallowed: {stderr}");
    assert!(
        stderr.contains(&results.display().to_string()),
        "error does not name the path: {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_profile_write_fails_the_run_and_names_the_path() {
    let dir = std::env::temp_dir().join(format!("rf_profile_errors_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let folded = dir.join("obs").join("blocked.folded");
    std::fs::create_dir_all(&folded).unwrap();
    std::fs::write(folded.join("occupant"), "keeps the directory non-empty").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fleet_forecast"))
        .args(["200000", "--epochs=8", "--profile"])
        .env("RF_RESULTS_DIR", &dir)
        .env("RF_OBS", "on")
        .env("RF_RUN_NAME", "blocked")
        .env_remove("RF_OBS_ADDR")
        .env_remove("RF_FLEET_CRASH_AT")
        .output()
        .expect("fleet_forecast runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "profile write error was swallowed: {stderr}"
    );
    assert!(
        stderr.contains(&folded.display().to_string()),
        "error does not name the path: {stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
