//! End-to-end tests for the `paper` binary's run-once and resume
//! contracts, driven through `CARGO_BIN_EXE_paper` at a tiny `--scale`:
//!
//! * resuming a tree that holds the first k records (plus a stray temp
//!   file from a killed record write), for every k = 0..=8, reproduces an
//!   uninterrupted run byte for byte and recomputes only the missing
//!   experiments;
//! * a truncated record fails the run and is named, never recomputed;
//! * a record written at another `--scale` is recomputed, not reused;
//! * a failing `RF_CHECK` engine check stops the run at the first Monte
//!   Carlo experiment it has to compute, leaves the records already
//!   present untouched, and writes a ReproCase that replays;
//! * one run computes every experiment exactly once: two
//!   `reliability_matrix` calls and one `performance_sweep`.

use relaxfault_bench::paper::Experiment;
use relaxfault_relcheck::{load_any, replay, LoadedCase};
use relaxfault_util::json::Value;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const SCALE: &str = "0.0001";

/// A fresh, empty scratch directory unique to this test process.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rf_paper_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The `paper` binary with a hermetic environment writing under `dir`.
fn paper(dir: &Path, args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paper"));
    cmd.args(args).env("RF_RESULTS_DIR", dir);
    for var in [
        "RF_RUN_NAME",
        "RF_OBS",
        "RF_TRACE",
        "RF_OBS_ADDR",
        "RF_OBS_ADDR_FILE",
        "RF_PROF",
        "RF_LANES",
        "RF_CHECK",
        "RF_CHECK_FAIL_TRIAL",
    ] {
        cmd.env_remove(var);
    }
    cmd
}

/// Runs `cmd`; returns (exit code, stdout + stderr).
fn run(cmd: &mut Command) -> (i32, String) {
    let out = cmd.output().expect("spawn paper");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

/// The figure outputs and records under `dir`, relative path → bytes
/// (crash dumps under `obs/` and repro cases under `relcheck/` are not
/// results).
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for sub in ["", "records"] {
        for entry in fs::read_dir(dir.join(sub)).expect("results dir").flatten() {
            let path = entry.path();
            if path.is_file() {
                let rel = path
                    .strip_prefix(dir)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    out
}

fn assert_same_tree(reference: &BTreeMap<String, Vec<u8>>, dir: &Path, what: &str) {
    let got = tree(dir);
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        reference.keys().collect::<Vec<_>>(),
        "{what}: file set differs"
    );
    for (name, bytes) in reference {
        assert!(
            got[name] == *bytes,
            "{what}: {name} differs from the uninterrupted run"
        );
    }
}

/// An uninterrupted run at `scale` into a fresh directory.
fn reference(tag: &str, scale: &str) -> (PathBuf, BTreeMap<String, Vec<u8>>) {
    let dir = scratch_dir(tag);
    let (code, text) = run(&mut paper(&dir, &["--scale", scale]));
    assert_eq!(code, 0, "reference run failed:\n{text}");
    assert!(
        text.contains("paper: 8 experiment(s) computed, 0 reused"),
        "{text}"
    );
    let t = tree(&dir);
    (dir, t)
}

/// Copies the records of `experiments` from `from` into `to/records/`.
fn seed_records(from: &Path, to: &Path, experiments: &[Experiment]) {
    fs::create_dir_all(to.join("records")).unwrap();
    for e in experiments {
        let name = format!("records/{}.json", e.name());
        fs::copy(from.join(&name), to.join(&name)).unwrap();
    }
}

#[test]
fn resume_at_every_boundary_is_byte_identical() {
    let (ref_dir, reference) = reference("paper_ref", SCALE);
    for k in 0..=Experiment::ALL.len() {
        let dir = scratch_dir(&format!("paper_resume_{k}"));
        seed_records(&ref_dir, &dir, &Experiment::ALL[..k]);
        // The write a kill interrupted: half a record in a temp file.
        let killed = Experiment::ALL[k.min(Experiment::ALL.len() - 1)].name();
        let half = fs::read(ref_dir.join(format!("records/{killed}.json"))).unwrap();
        fs::write(
            dir.join(format!("records/{killed}.tmp.4242")),
            &half[..half.len() / 2],
        )
        .unwrap();

        let (code, text) = run(&mut paper(&dir, &["--scale", SCALE, "--resume"]));
        assert_eq!(code, 0, "k={k}: resume failed:\n{text}");
        for (i, e) in Experiment::ALL.iter().enumerate() {
            let outcome = if i < k { "Reused" } else { "Computed" };
            assert!(
                text.contains(&format!("paper: {} {outcome}", e.name())),
                "k={k}: {} should be {outcome}:\n{text}",
                e.name()
            );
        }
        assert_same_tree(&reference, &dir, &format!("resume after {k} record(s)"));
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&ref_dir).unwrap();
}

#[test]
fn truncated_record_fails_the_run_and_is_named() {
    let (dir, _) = reference("paper_truncated", SCALE);
    let path = dir.join("records/coverage_1x.json");
    let whole = fs::read(&path).unwrap();
    fs::write(&path, &whole[..whole.len() / 2]).unwrap();
    let (code, text) = run(&mut paper(&dir, &["--scale", SCALE, "--resume"]));
    assert_ne!(code, 0, "a truncated record was accepted:\n{text}");
    assert!(
        text.contains("coverage_1x.json"),
        "error does not name the record:\n{text}"
    );
    assert_eq!(
        fs::read(&path).unwrap(),
        &whole[..whole.len() / 2],
        "a corrupt record must fail the run, not be silently recomputed"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn record_from_another_scale_is_recomputed() {
    let (dir, _) = reference("paper_rescale", SCALE);
    let (fresh_dir, fresh) = reference("paper_rescale_fresh", "0.0002");
    let (code, text) = run(&mut paper(&dir, &["--scale", "0.0002", "--resume"]));
    assert_eq!(code, 0, "{text}");
    for e in Experiment::ALL {
        // Both scales floor some experiments at the same work: those
        // inputs, and so their digests, are unchanged.
        let same_work = e.work(1e-4) == e.work(2e-4);
        let outcome = if same_work { "Reused" } else { "Computed" };
        assert!(
            text.contains(&format!("paper: {} {outcome}", e.name())),
            "{} should be {outcome}:\n{text}",
            e.name()
        );
    }
    assert!(text.contains("paper: reliability_1x Computed"), "{text}");
    assert_same_tree(&fresh, &dir, "rescaled resume");
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&fresh_dir).unwrap();
}

#[test]
fn failed_engine_check_keeps_records_and_writes_a_replayable_repro() {
    let (ref_dir, reference) = reference("paper_check_ref", SCALE);
    let dir = scratch_dir("paper_check");
    let present = &Experiment::ALL[..2];
    seed_records(&ref_dir, &dir, present);
    let before = tree(&dir);

    let (code, text) = run(paper(&dir, &["--scale", SCALE, "--resume"])
        .env("RF_CHECK", "1")
        .env("RF_CHECK_FAIL_TRIAL", "0"));
    assert_ne!(
        code, 0,
        "the forced engine-check failure did not fire:\n{text}"
    );
    let first = Experiment::ALL[2].name();
    assert!(text.contains(&format!("paper: running {first}")), "{text}");
    assert!(
        !text.contains(&format!("paper: {first} Computed")),
        "{text}"
    );
    let records: Vec<_> = fs::read_dir(dir.join("records"))
        .unwrap()
        .flatten()
        .map(|e| e.file_name().into_string().unwrap())
        .collect();
    assert_eq!(records.len(), present.len(), "records: {records:?}");
    for (name, bytes) in &before {
        assert!(
            fs::read(dir.join(name)).unwrap() == *bytes,
            "{name} was touched"
        );
    }

    let repro = fs::read_dir(dir.join("relcheck"))
        .expect("a repro directory")
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("engine_check_")
        })
        .expect("an engine_check ReproCase");
    let LoadedCase::Repro(case) = load_any(&repro).expect("load repro") else {
        panic!("{} is not a ReproCase", repro.display());
    };
    let report = replay(&case).expect("replay");
    assert!(report.reproduced, "{report:?}");

    let (code, text) = run(&mut paper(&dir, &["--scale", SCALE, "--resume"]));
    assert_eq!(code, 0, "{text}");
    assert_same_tree(&reference, &dir, "resume after the failed check");
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&ref_dir).unwrap();
}

/// A counter from the snapshot `paper` wrote as run `run` (0 when the run
/// never touched it).
fn counter(dir: &Path, run: &str, name: &str) -> f64 {
    let text = fs::read_to_string(dir.join(format!("obs/{run}.json"))).unwrap();
    let doc = Value::parse(&text).unwrap();
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

#[test]
fn one_run_computes_each_experiment_exactly_once() {
    let dir = scratch_dir("paper_once");
    let (code, text) = run(paper(&dir, &["--scale", SCALE])
        .env("RF_OBS", "on")
        .env("RF_RUN_NAME", "once"));
    assert_eq!(code, 0, "{text}");
    assert_eq!(counter(&dir, "once", "paper.experiments_computed"), 8.0);
    assert_eq!(counter(&dir, "once", "bench.reliability_matrix.calls"), 2.0);
    assert_eq!(counter(&dir, "once", "bench.performance_sweep.calls"), 1.0);

    let (code, text) = run(paper(&dir, &["--scale", SCALE, "--resume"])
        .env("RF_OBS", "on")
        .env("RF_RUN_NAME", "again"));
    assert_eq!(code, 0, "{text}");
    assert!(
        text.contains("paper: 0 experiment(s) computed, 8 reused"),
        "{text}"
    );
    for name in [
        "paper.experiments_computed",
        "bench.reliability_matrix.calls",
        "bench.performance_sweep.calls",
    ] {
        assert_eq!(counter(&dir, "again", name), 0.0, "{name}");
    }
    fs::remove_dir_all(&dir).unwrap();
}
