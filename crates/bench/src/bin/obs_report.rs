//! Compares two runs: the determinism gate between two metrics snapshots.
//!
//! ```text
//! obs_report diff <a.json> <b.json>
//! ```
//!
//! `diff` compares two metrics snapshots of the same pinned-seed work:
//! every counter, every gauge, every histogram's count, and the sum of
//! every histogram not named `*_ns` must be exactly equal, and a metric
//! present on one side only counts as drift. Span timings (`*_ns` sums)
//! jitter and are not compared.
//!
//! Exit codes: `0` clean, `1` drift found by `diff`, `2` usage or I/O
//! error (including a `diff` input that is missing, unreadable, or not a
//! metrics snapshot).

use relaxfault_util::json::Value;
use relaxfault_util::obs;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

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
    let cmd = args
        .next()
        .ok_or("usage: obs_report diff <a.json> <b.json> (see DESIGN.md §6)")?;
    match cmd.as_str() {
        "diff" => diff(&args.collect::<Vec<_>>()),
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
