//! Compares two runs: the determinism gate between two metrics
//! snapshots, and a per-frame diff of two span-profiler outputs.
//!
//! ```text
//! obs_report diff <a.json> <b.json>
//! obs_report folded-diff <before.folded> <after.folded> [--top N]
//! ```
//!
//! * `diff` is the determinism gate between two metrics snapshots of the
//!   same pinned-seed work: every counter, every gauge, every histogram's
//!   count, and the sum of every histogram not named `*_ns` must be
//!   exactly equal, and a metric present on one side only counts as
//!   drift. Span timings (`*_ns` sums) and bench medians jitter and are
//!   not compared.
//! * `folded-diff` joins two profiler `.folded` files into a per-frame
//!   self-time delta table, biggest movers first; `--top N` keeps the
//!   first `N` rows.
//!
//! Exit codes: `0` clean, `1` drift found by `diff`, `2` usage or I/O
//! error (including a `diff` input that is missing, unreadable, or not a
//! metrics snapshot).

use relaxfault_bench::folded;
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn folded_diff(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut top = usize::MAX;
    let mut paths = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                top = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--top needs an integer")?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => paths.push(a),
        }
    }
    let [before_path, after_path] = paths.as_slice() else {
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
    rows.truncate(top);
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
        "usage: obs_report <diff|folded-diff> [args]\n\
         see the module docs (or DESIGN.md §6) for the arguments",
    )?;
    match cmd.as_str() {
        "diff" => diff(&args.collect::<Vec<_>>()),
        "folded-diff" => folded_diff(args),
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
