//! The harness binaries must fail loudly when a result file cannot be
//! written: non-zero exit, with the failing path on stderr. The write is
//! blocked with a filesystem shape that fails for every user, root
//! included — unlike a permission-based setup: a results root under a
//! regular file.

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
