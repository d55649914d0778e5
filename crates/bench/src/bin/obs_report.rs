//! Renders the perf-history ledger into trend verdicts and a dashboard.
//!
//! ```text
//! obs_report ingest [--results DIR]
//! obs_report report [--results DIR] [--ledger PATH] [--out PATH] [--check] [--rotate]
//! obs_report extend --series NAME --factor F --count N [--ledger PATH] [--results DIR]
//! obs_report folded-diff <before.folded> <after.folded> [--top N]
//! obs_report diff <a.json> <b.json>
//! ```
//!
//! * `ingest` sweeps `<results>/obs/*.json` metrics snapshots into the
//!   append-only ledger at `<results>/history/ledger.jsonl`; re-running
//!   it over an unchanged tree is a byte-level no-op.
//! * `report` analyses every ledger series (MAD scores, CUSUM
//!   changepoints, baseline comparison against `<results>/baselines/`)
//!   and writes the self-contained dashboard
//!   (`<results>/history/report.html` by default). With `--check` it
//!   also prints one `REGRESSION <series> ...` line per bench series
//!   whose latest regime shifted upward (`at epoch <N>`) or whose newest
//!   median sits more than 50% above its committed baseline, and then
//!   exits 1. With `--rotate` it writes each baseline-rotation proposal
//!   to `<results>/baselines/<bench>.proposed.json`.
//! * `extend` appends synthetic runs cloned from the newest entry
//!   carrying `--series`, with that median multiplied by `--factor` —
//!   the injection harness the CI history gate uses to prove the
//!   detector catches a 2× regression.
//! * `folded-diff` joins two profiler `.folded` files into a per-frame
//!   self-time delta table, biggest movers first.
//! * `diff` is the determinism gate between two metrics snapshots of the
//!   same pinned-seed work: every counter, every gauge, every histogram's
//!   count, and the sum of every histogram not named `*_ns` must be
//!   exactly equal, and a metric present on one side only counts as
//!   drift. Span timings (`*_ns` sums) and bench medians jitter and are
//!   the ledger's business, not this one's.
//!
//! Exit codes: `0` clean, `1` regression found by `--check` or drift
//! found by `diff`, `2` usage or I/O error (including a `diff` input
//! that is missing, unreadable, or not a metrics snapshot).

use relaxfault_bench::{folded, report};
use relaxfault_util::history::Ledger;
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn results_dir(flag: &Option<String>) -> String {
    flag.clone()
        .or_else(|| std::env::var("RF_RESULTS_DIR").ok())
        .unwrap_or_else(|| "results".into())
}

struct Flags {
    results: Option<String>,
    ledger: Option<String>,
    out: Option<String>,
    series: Option<String>,
    factor: f64,
    count: usize,
    top: usize,
    check: bool,
    rotate: bool,
    positional: Vec<String>,
}

fn parse_flags(args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut f = Flags {
        results: None,
        ledger: None,
        out: None,
        series: None,
        factor: 2.0,
        count: 3,
        top: usize::MAX,
        check: false,
        rotate: false,
        positional: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--results" => f.results = Some(value("--results")?),
            "--ledger" => f.ledger = Some(value("--ledger")?),
            "--out" => f.out = Some(value("--out")?),
            "--series" => f.series = Some(value("--series")?),
            "--factor" => {
                f.factor = value("--factor")?
                    .parse()
                    .map_err(|_| "--factor needs a number")?;
            }
            "--count" => {
                f.count = value("--count")?
                    .parse()
                    .map_err(|_| "--count needs an integer")?;
            }
            "--top" => {
                f.top = value("--top")?
                    .parse()
                    .map_err(|_| "--top needs an integer")?;
            }
            "--check" => f.check = true,
            "--rotate" => f.rotate = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            p => f.positional.push(p.to_string()),
        }
    }
    Ok(f)
}

fn ledger_path(f: &Flags) -> PathBuf {
    f.ledger
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| Ledger::default_path(&results_dir(&f.results)))
}

fn ingest(f: &Flags) -> Result<ExitCode, String> {
    let dir = results_dir(&f.results);
    let (ledger, rep) = Ledger::ingest_dir(&dir)?;
    println!(
        "ingest {}: {} added, {} already ledgered, {} skipped ({} entries total)",
        ledger.path.display(),
        rep.added,
        rep.duplicate,
        rep.skipped.len(),
        ledger.entries.len()
    );
    for (path, reason) in &rep.skipped {
        println!("  skipped {}: {reason}", path.display());
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes one proposed replacement baseline snapshot per rotation
/// proposal: the committed baseline's layout, with the proposed median —
/// a reviewable artifact, never an in-place overwrite.
fn write_proposals(dir: &str, reports: &[report::SeriesReport]) -> Result<(), String> {
    for r in reports {
        let (Some(baseline), Some(proposal)) = (r.baseline, r.proposal) else {
            continue;
        };
        let path = Path::new(dir)
            .join("baselines")
            .join(format!("{}.proposed.json", r.key.name));
        let doc = Value::object([
            ("series", Value::from(r.key.label().as_str())),
            ("bench", Value::from(r.key.name.as_str())),
            ("config_hash", persist::hex(r.key.config_hash)),
            ("threads", Value::from(r.key.threads)),
            ("current_median_ns", Value::from(baseline)),
            ("proposed_median_ns", Value::from(proposal)),
            ("window", Value::from(report::BASELINE_WINDOW as u64)),
            ("margin", Value::from(report::BASELINE_MARGIN)),
        ]);
        persist::atomic_write(&path, &doc.to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("baseline proposal: {}", path.display());
    }
    Ok(())
}

fn run_report(f: &Flags) -> Result<ExitCode, String> {
    let dir = results_dir(&f.results);
    let path = ledger_path(f);
    let ledger = Ledger::load(&path)?;
    if ledger.entries.is_empty() {
        return Err(format!(
            "{}: ledger is empty — run `obs_report ingest` first",
            path.display()
        ));
    }
    let baselines = report::load_baselines(&Path::new(&dir).join("baselines"));
    let reports = report::analyze(&ledger.entries, &baselines);
    let html = report::render_html(&reports);
    let out = f
        .out
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(|| path.with_file_name("report.html"));
    persist::atomic_write(&out, &html)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "report: {} ({} series, {} entries)",
        out.display(),
        reports.len(),
        ledger.entries.len()
    );
    for r in &reports {
        if let (Some(baseline), Some(newest)) = (r.baseline, r.points.last()) {
            println!(
                "baseline {}: newest {:.1} vs committed {baseline:.1} ({:.2}x)",
                r.key.label(),
                newest.value,
                newest.value / baseline
            );
        }
    }
    if f.rotate {
        write_proposals(&dir, &reports)?;
    }
    let verdict = report::check(&reports);
    if f.check {
        if verdict.is_empty() {
            println!("check: clean — no bench series regressed or breached its baseline");
        } else {
            for line in &verdict {
                println!("{line}");
            }
            return Ok(ExitCode::from(1));
        }
    } else {
        for line in &verdict {
            println!("{line}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn extend(f: &Flags) -> Result<ExitCode, String> {
    let series = f
        .series
        .as_ref()
        .ok_or("extend needs --series <bench name>")?;
    let path = ledger_path(f);
    let added = report::extend_series(&path, series, f.factor, f.count)?;
    println!(
        "extend {}: appended {added} synthetic runs ({series} × {})",
        path.display(),
        f.factor
    );
    Ok(ExitCode::SUCCESS)
}

fn folded_diff(f: &Flags) -> Result<ExitCode, String> {
    let [before_path, after_path] = f.positional.as_slice() else {
        return Err("folded-diff needs exactly two .folded paths".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| folded::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let before = read(before_path)?;
    let after = read(after_path)?;
    let mut rows = folded::diff(&before, &after);
    rows.truncate(f.top);
    print!("{}", folded::render(&rows));
    Ok(ExitCode::SUCCESS)
}

/// The exactly-compared fields of one metrics snapshot, keyed
/// `"<kind> <name>[ <field>]"`: counters, gauges, every histogram's
/// count, and the sum of every histogram not named `*_ns`.
fn exact_fields(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    if doc.get("kind").is_some()
        || doc.get("schema_version").and_then(Value::as_f64) != Some(obs::SCHEMA_VERSION as f64)
    {
        return Err(format!(
            "{path} is not a schema_version {} metrics snapshot",
            obs::SCHEMA_VERSION
        ));
    }
    let section = |key: &str| match doc.get(key) {
        Some(Value::Object(pairs)) => Ok(pairs),
        _ => Err(format!("{path} has no `{key}` section")),
    };
    let number = |v: &Value, what: &str| {
        v.as_f64()
            .ok_or_else(|| format!("{path}: {what} is not a number"))
    };
    let mut fields = BTreeMap::new();
    for (kind, key) in [("counter", "counters"), ("gauge", "gauges")] {
        for (name, v) in section(key)? {
            let what = format!("{kind} {name}");
            fields.insert(what.clone(), number(v, &what)?);
        }
    }
    for (name, h) in section("histograms")? {
        let mut exact = vec!["count"];
        if !name.ends_with("_ns") {
            exact.push("sum");
        }
        for field in exact {
            let what = format!("histogram {name} {field}");
            let v = h
                .get(field)
                .ok_or_else(|| format!("{path}: {what} missing"))?;
            fields.insert(what.clone(), number(v, &what)?);
        }
    }
    Ok(fields)
}

fn diff(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: obs_report diff <a.json> <b.json> (no flags)".into());
    };
    let (a, b) = (exact_fields(a_path)?, exact_fields(b_path)?);
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    let render = |v: Option<&f64>| v.map_or_else(|| "-".to_string(), f64::to_string);
    let mut drifted = 0usize;
    for key in &keys {
        let (va, vb) = (a.get(*key), b.get(*key));
        if va != vb {
            drifted += 1;
            println!("DRIFT {key}: {} -> {}", render(va), render(vb));
        }
    }
    println!(
        "diff {a_path} vs {b_path}: {} exact fields, {drifted} drifted",
        keys.len()
    );
    Ok(if drifted == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or(
        "usage: obs_report <ingest|report|extend|folded-diff|diff> [flags]\n\
         see the module docs (or DESIGN.md §6.2) for the flag list",
    )?;
    if cmd == "diff" {
        return diff(&args.collect::<Vec<_>>());
    }
    let f = parse_flags(args)?;
    match cmd.as_str() {
        "ingest" => ingest(&f),
        "report" => run_report(&f),
        "extend" => extend(&f),
        "folded-diff" => folded_diff(&f),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("obs_report: {e}");
            ExitCode::from(2)
        }
    }
}
