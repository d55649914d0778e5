//! Benchmark self-tests: the percentile rule, the metric-name grammar,
//! ratio bases, agreement with `BENCHMARK.json`, the environment guard,
//! and a tiny-scale smoke of every workload, traced and untraced.

use relaxfault_relbench::report::{
    per_layer, percentile, tail_percentile, valid_name, Outcome, END_TO_END,
};
use relaxfault_relbench::trace::{counts_digest, is_count, plan_key};
use relaxfault_relbench::workloads::{Scale, WorkloadId};
use relaxfault_relbench::{run, FORBIDDEN_ENV};
use relaxfault_util::json::Value;
use std::process::Command;

#[test]
fn percentile_rule_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(100, 90), Some(90));
    assert_eq!(tail_percentile(1000, 90), Some(90));
    assert_eq!(tail_percentile(99, 90), Some(89));
    assert_eq!(tail_percentile(50, 90), Some(80));
    assert_eq!(tail_percentile(20, 90), Some(50));
    assert_eq!(tail_percentile(19, 90), None);
    for n in 20..400 {
        let p = tail_percentile(n, 90).expect("n >= 20 has a median tail");
        let sorted: Vec<f64> = (1..=n).map(|x| x as f64).collect();
        let beyond = sorted
            .iter()
            .filter(|&&x| x > percentile(&sorted, p))
            .count();
        assert!(beyond >= 10, "n={n} p{p} has {beyond} beyond");
        if p < 90 {
            let next = sorted
                .iter()
                .filter(|&&x| x > percentile(&sorted, p + 1))
                .count();
            assert!(next < 10, "n={n}: p{} also qualifies", p + 1);
        }
    }
}

#[test]
fn metric_name_grammar() {
    for ok in ["setup_s", "plan.freefault_w16.busy_s", "a-b.c_9", "0x"] {
        assert!(valid_name(ok), "{ok}");
    }
    for bad in ["", "op ms", "p90%", "a/b", "x\"y", "é"] {
        assert!(!valid_name(bad), "{bad}");
    }
    let names: Vec<String> = END_TO_END
        .iter()
        .map(|m| m.name.to_string())
        .chain(per_layer().into_iter().map(|(n, _)| n))
        .collect();
    for n in &names {
        assert!(valid_name(n) && n.len() <= 64, "{n}");
        assert!(n.as_bytes()[0].is_ascii_alphanumeric(), "{n}");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "metric names are unique");
}

#[test]
fn plan_keys_follow_engine_labels() {
    assert_eq!(plan_key("PPR").as_deref(), Some("ppr"));
    assert_eq!(
        plan_key("FreeFault-16way").as_deref(),
        Some("freefault_w16")
    );
    assert_eq!(
        plan_key("RelaxFault-1way").as_deref(),
        Some("relaxfault_w1")
    );
    assert_eq!(plan_key("No repair"), None);
}

fn bench_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
}

fn text(v: &Value, key: &str) -> String {
    field(v, key).as_str().expect("a string").to_string()
}

#[test]
fn benchmark_json_matches_the_code() {
    let spec = bench_json();
    let e2e = field(&spec, "end_to_end").as_array().expect("list");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END.iter()) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better);
        assert_eq!(field(j, "bound").as_f64(), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    let layers = field(&spec, "per_layer").as_array().expect("list");
    let code = per_layer();
    assert_eq!(layers.len(), code.len());
    for (j, (name, unit)) in layers.iter().zip(&code) {
        assert_eq!(&text(j, "name"), name);
        assert_eq!(text(j, "unit"), *unit);
    }
    let workloads = field(&spec, "workloads").as_array().expect("list");
    assert_eq!(workloads.len(), WorkloadId::ALL.len());
    for (j, w) in workloads.iter().zip(WorkloadId::ALL) {
        assert_eq!(text(j, "name"), w.name());
        let why = text(j, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
}

fn names_units(out: &Outcome) -> Vec<(String, &'static str)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect()
}

fn assert_ratio_bases(out: &Outcome) {
    for m in &out.metrics {
        if m.unit == "ratio" {
            let base = m
                .base
                .as_ref()
                .unwrap_or_else(|| panic!("{} has no base", m.name));
            assert!(
                out.get(base).is_some(),
                "{}: base {base} not emitted",
                m.name
            );
        }
    }
}

#[test]
fn every_workload_emits_every_metric_at_tiny_scale() {
    let scale = Scale::tiny();
    let e2e: Vec<(String, &'static str)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect();
    for w in WorkloadId::ALL {
        let out = run(w, 7, false, &scale);
        assert_eq!(names_units(&out), e2e, "{}", w.name());
        assert!(
            out.attempted > 0 && out.failed == 0,
            "{}: {:?}",
            w.name(),
            out.failures
        );
        assert!(out.metrics.iter().all(|m| m.value > 0.0), "{}", w.name());
        assert_ratio_bases(&out);
        let line = out.json_line();
        let v = Value::parse(&line).expect("result line is JSON");
        assert_eq!(field(&v, "correct").as_bool(), Some(true));

        let traced = run(w, 7, true, &scale);
        assert_eq!(names_units(&traced), per_layer(), "{}", w.name());
        assert!(
            traced.attempted > 0 && traced.failed == 0,
            "{}: {:?}",
            w.name(),
            traced.failures
        );
        assert_ratio_bases(&traced);
        let again = run(w, 7, true, &scale);
        let counts = |o: &Outcome| -> Vec<(String, f64)> {
            o.metrics
                .iter()
                .filter(|m| is_count(m))
                .map(|m| (m.name.clone(), m.value))
                .collect()
        };
        assert_eq!(counts(&traced), counts(&again), "{}", w.name());
        assert_eq!(counts_digest(&traced), counts_digest(&again));
    }
}

#[test]
fn refuses_debug_settings_in_the_environment() {
    for var in FORBIDDEN_ENV {
        let out = Command::new(env!("CARGO_BIN_EXE_relbench"))
            .args(["--workload", "coverage_1x", "--seed", "1", "--seconds", "0"])
            .args(["--trace", "0"])
            .env(var, "1")
            .output()
            .expect("run relbench");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
    }
}
