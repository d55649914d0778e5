//! CI gate for observability artifacts: scans *every* file under the
//! given directory (default `results/obs`) with `util::json`'s strict
//! parser. Snapshots (`*.json`) must carry the required top-level keys,
//! the shared `schema_version`, an embedded manifest, and at least one
//! populated counter or histogram; exported traces (`*.trace.json`) must
//! be Chrome trace-event arrays (`ph: "X"`, `ts` monotone per track).
//! Mixed `schema_version`s across the scanned snapshots fail the whole
//! directory, even if each file is self-consistent. Relcheck repro cases
//! (top-level `kind: "relcheck_repro"`, e.g. under `results/relcheck`),
//! fleet checkpoints (`kind: "fleet_checkpoint"`, e.g. a `--ckpt-dir`),
//! crash dumps (`kind: "crash_dump"`, written by the panic hook and
//! the injected-crash path), and experiment records
//! (`kind: "experiment_record"`, under `<results>/records/`) are validated
//! against their own schemas via the strict [`ReproCase`],
//! [`FleetCheckpoint`], [`CrashDump`], and [`ExperimentRecord`]
//! deserializers — the record decoder re-derives each record's digest
//! from its stored inputs — and each kind gets its own mixed-version
//! check, separate from the obs one. Folded profiler output (`*.folded`)
//! must be non-empty `frame[;frame...] count` lines. Exits non-zero on
//! any violation.

use relaxfault_bench::paper::ExperimentRecord;
use relaxfault_relsim::fleet::{FleetCheckpoint, FLEET_CHECKPOINT_KIND};
use relaxfault_relsim::repro::{ReproCase, REPRO_KIND};
use relaxfault_util::crashdump::{self, CrashDump};
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist::Persist;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

const REQUIRED_KEYS: [&str; 7] = [
    "schema_version",
    "manifest",
    "counters",
    "gauges",
    "histograms",
    "benches",
    "dropped_events",
];

fn object_len(doc: &Value, key: &str) -> Result<usize, String> {
    match doc.get(key) {
        Some(Value::Object(pairs)) => Ok(pairs.len()),
        _ => Err(format!("`{key}` is not an object")),
    }
}

/// Validates one experiment record via the strict deserializer (which
/// re-derives the digest from the stored inputs and checks the results'
/// shape against them), plus: the record's experiment must match its file
/// stem (`paper` writes `records/<experiment>.json`).
fn validate_record(doc: &Value, path: &Path) -> Result<(), String> {
    let record = ExperimentRecord::from_json(doc)?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    if record.experiment.name() != stem {
        return Err(format!(
            "record of experiment {:?} does not match file stem {stem:?}",
            record.experiment.name()
        ));
    }
    Ok(())
}

/// Validates one crash dump via the strict deserializer (which checks the
/// run name, non-empty reason, snapshot sections, flight array, and the
/// shape of any embedded checkpoint), plus: an embedded checkpoint must
/// itself pass the [`FleetCheckpoint`] deserializer, so `relcheck replay`
/// is guaranteed to accept anything this gate passed.
fn validate_crash_dump(doc: &Value) -> Result<(), String> {
    let dump = CrashDump::from_json(doc)?;
    if let Some(ckpt) = &dump.checkpoint {
        FleetCheckpoint::from_json(ckpt).map_err(|e| format!("embedded checkpoint: {e}"))?;
    }
    Ok(())
}

/// Validates one folded-stack profile: non-empty, every line of the form
/// `frame[;frame...] count` with a positive integer count.
fn validate_folded(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    if text.trim().is_empty() {
        return Err("folded profile is empty".into());
    }
    for (i, line) in text.lines().enumerate() {
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or(format!("line {}: no `stack count` separator", i + 1))?;
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty stack frame", i + 1));
        }
        let n: u64 = count
            .parse()
            .map_err(|_| format!("line {}: count {count:?} is not an integer", i + 1))?;
        if n == 0 {
            return Err(format!("line {}: zero sample count", i + 1));
        }
    }
    Ok(())
}

/// Validates one fleet checkpoint via the strict deserializer.
fn validate_fleet_checkpoint(doc: &Value) -> Result<(), String> {
    let ckpt = FleetCheckpoint::from_json(doc)?;
    if ckpt.scenarios.is_empty() {
        return Err("fleet checkpoint carries no scenario arms".into());
    }
    Ok(())
}

/// Validates one relcheck repro case: the strict deserializer accepts it
/// and the recorded reason is non-empty.
fn validate_repro(doc: &Value) -> Result<(), String> {
    let case = ReproCase::from_json(doc)?;
    if case.reason.is_empty() {
        return Err("repro case has an empty reason".into());
    }
    if case.scenarios.is_empty() && case.prop_choices.is_empty() {
        return Err("repro case carries neither scenarios nor a choice stream".into());
    }
    Ok(())
}

/// Validates one metrics snapshot.
fn validate_snapshot(doc: &Value, path: &Path) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        if doc.get(key).is_none() {
            return Err(format!("missing top-level key `{key}`"));
        }
    }
    let version = doc.get("schema_version").and_then(Value::as_f64);
    if version != Some(obs::SCHEMA_VERSION as f64) {
        return Err(format!(
            "schema_version {version:?}, expected {}",
            obs::SCHEMA_VERSION
        ));
    }
    let manifest_run = doc
        .get("manifest")
        .and_then(|m| m.get("run"))
        .and_then(Value::as_str)
        .ok_or("manifest has no `run`")?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    if manifest_run != stem {
        return Err(format!(
            "manifest.run `{manifest_run}` does not match file stem `{stem}`"
        ));
    }
    // Fleet runs record their shape in the manifest (0/0 when no fleet
    // ran); both fields must be well-formed non-negative integers.
    for key in ["epochs", "shards"] {
        let n = doc
            .get("manifest")
            .and_then(|m| m.get(key))
            .and_then(Value::as_f64)
            .ok_or(format!("manifest has no numeric `{key}`"))?;
        if n < 0.0 || n != n.trunc() {
            return Err(format!("manifest.{key} {n} is not a non-negative integer"));
        }
    }
    let counters = object_len(doc, "counters")?;
    let histograms = object_len(doc, "histograms")?;
    if counters + histograms == 0 {
        return Err("snapshot has no counters or histograms".into());
    }
    Ok(())
}

/// Validates one parsed `.json` artifact, dispatching on its `kind` tag
/// (untagged documents are metrics snapshots). Returns the artifact
/// family and its schema_version for the per-family mixed-version check,
/// or `None` for repro cases, which carry no such check.
fn validate_doc(doc: &Value, path: &Path) -> Result<Option<(&'static str, u64)>, String> {
    let family = match doc.get("kind").and_then(Value::as_str) {
        Some(REPRO_KIND) => return validate_repro(doc).map(|()| None),
        Some(FLEET_CHECKPOINT_KIND) => {
            validate_fleet_checkpoint(doc)?;
            "fleet checkpoints"
        }
        Some(crashdump::KIND) => {
            validate_crash_dump(doc)?;
            "crash dumps"
        }
        Some(<ExperimentRecord as Persist>::KIND) => {
            validate_record(doc, path)?;
            "experiment records"
        }
        _ => {
            validate_snapshot(doc, path)?;
            "snapshots"
        }
    };
    let version = doc
        .get("schema_version")
        .and_then(Value::as_f64)
        .ok_or("missing schema_version")?;
    Ok(Some((family, version as u64)))
}

/// Validates one exported Chrome trace: an array of `ph: "X"` complete
/// events whose `ts` is strictly monotone within each `tid` track.
fn validate_trace(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = doc.as_array().ok_or("trace is not a JSON array")?;
    if events.is_empty() {
        return Err("trace has no events".into());
    }
    let mut last_ts: HashMap<u64, f64> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            return Err(format!("event {i} is not a `ph: \"X\"` complete event"));
        }
        let tid = e
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} has no tid"))? as u64;
        let ts = e
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or(format!("event {i} has no ts"))?;
        if let Some(prev) = last_ts.insert(tid, ts) {
            if ts <= prev {
                return Err(format!("event {i}: ts {ts} not monotone on track {tid}"));
            }
        }
    }
    Ok(())
}

fn main() {
    let dir = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "results/obs".into());
    // A directory scans every artifact inside; a single file (e.g. one
    // record) is validated on its own.
    let mut paths: Vec<std::path::PathBuf> = if std::path::Path::new(&dir).is_file() {
        vec![std::path::PathBuf::from(&dir)]
    } else {
        match std::fs::read_dir(&dir) {
            Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
            Err(e) => {
                eprintln!("obs_validate: cannot read {dir}: {e}");
                std::process::exit(1);
            }
        }
    };
    let mut checked = 0usize;
    let mut failed = 0usize;
    let mut versions: BTreeMap<&str, BTreeSet<u64>> = BTreeMap::new();
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let result = if name.ends_with(".trace.json") {
            checked += 1;
            validate_trace(&path)
        } else if name.ends_with(".folded") {
            checked += 1;
            validate_folded(&path)
        } else if name.ends_with(".json") {
            checked += 1;
            std::fs::read_to_string(&path)
                .map_err(|e| format!("read failed: {e}"))
                .and_then(|text| Value::parse(&text).map_err(|e| format!("invalid JSON: {e}")))
                .and_then(|doc| validate_doc(&doc, &path))
                .map(|family| {
                    if let Some((family, version)) = family {
                        versions.entry(family).or_default().insert(version);
                    }
                })
        } else {
            continue; // .prom and friends have their own consumers
        };
        match result {
            Ok(()) => println!("ok      {}", path.display()),
            Err(e) => {
                failed += 1;
                eprintln!("FAILED  {}: {e}", path.display());
            }
        }
    }
    if checked == 0 {
        eprintln!("obs_validate: no snapshots found in {dir}");
        std::process::exit(1);
    }
    for (family, set) in &versions {
        if set.len() > 1 {
            failed += 1;
            eprintln!("FAILED  {dir}: mixed schema_versions across {family}: {set:?}");
        }
    }
    println!("obs_validate: {checked} artifact(s), {failed} failure(s)");
    if failed > 0 {
        std::process::exit(1);
    }
}
