//! A malformed argument must stop a harness binary with exit 1 and the
//! bad value named, never fall back to a default: a non-numeric work
//! amount or `--linger-ms`, or a value-taking flag with no value (the
//! shared parser in `obs_init`), and a `--scale` that is not a positive
//! number (`paper`).

use std::process::Command;

/// Runs `exe args` with results under a throwaway directory; returns
/// (exit code, stderr).
fn run(exe: &str, args: &[&str]) -> (i32, String) {
    let dir = std::env::temp_dir().join(format!("rf_harness_args_{}", std::process::id()));
    let out = Command::new(exe)
        .args(args)
        .env("RF_RESULTS_DIR", &dir)
        .env_remove("RF_OBS_ADDR")
        .env_remove("RF_RUN_NAME")
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code().expect("exited normally"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn fleet_forecast_rejects_a_malformed_work_amount_or_linger() {
    let exe = env!("CARGO_BIN_EXE_fleet_forecast");
    for (args, bad) in [
        (&["1e6"][..], "1e6"),
        (&["many"][..], "many"),
        (&["1000", "--linger-ms=soon"][..], "soon"),
        (&["1000", "--linger-ms", "1.5"][..], "1.5"),
        // A value-taking flag with no value must not run a small fleet to
        // completion with the default lane mode, run name or no endpoint.
        (&["1000", "--epochs=1", "--lanes"][..], "--lanes"),
        (&["1000", "--epochs=1", "--run"][..], "--run"),
        (&["1000", "--epochs=1", "--serve-obs"][..], "--serve-obs"),
        (&["1000", "--epochs=1", "--linger-ms"][..], "--linger-ms"),
    ] {
        let (code, stderr) = run(exe, args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(
            stderr.contains(bad),
            "{args:?}: error does not name {bad:?}: {stderr}"
        );
    }
}

#[test]
fn paper_rejects_a_scale_that_is_not_a_positive_number() {
    let exe = env!("CARGO_BIN_EXE_paper");
    for scale in ["0", "-1", "nan", "1e", "inf"] {
        for args in [vec!["--scale", scale], vec![&*format!("--scale={scale}")]] {
            let (code, stderr) = run(exe, &args);
            assert_eq!(code, 1, "{args:?}: {stderr}");
            assert!(
                stderr.contains(scale),
                "{args:?}: error does not name the value: {stderr}"
            );
        }
    }
    let (code, stderr) = run(exe, &["4000"]);
    assert_eq!(
        code, 1,
        "a positional work amount must be rejected: {stderr}"
    );
}
