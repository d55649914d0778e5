//! The live telemetry plane, end to end: a flight-recorder snapshot is a
//! deterministic stream (byte-identical non-span events across thread
//! counts, identical `(trial, group, seq)` keys for the full stream
//! including span completions), and the fleet's
//! `/progress` document reports the run's actual shape. Lives in its own
//! integration-test process so the process-wide trace filter and flight
//! recorder state cannot leak into unrelated unit tests.

use relaxfault::prelude::*;
use relaxfault::relsim::fleet::{FleetConfig, FleetSim};
use relaxfault::util::json::Value;
use relaxfault::util::{flight, obs};

fn smoke_arms() -> Vec<Scenario> {
    vec![Scenario::isca16_baseline()
        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
        .with_replacement(ReplacementPolicy::None)
        .with_fit_scale(10.0)]
}

/// Restores default obs + flight state when dropped, so a failing
/// assertion cannot poison the next test.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        obs::set_filter("").expect("empty filter parses");
        obs::set_metrics_enabled(false);
        flight::set_capacity(flight::DEFAULT_CAP);
        obs::reset();
    }
}

#[test]
fn flight_snapshot_is_deterministic_across_thread_counts() {
    let _serial = obs::exclusive();
    let _restore = Restore;
    obs::reset();
    obs::set_filter("relsim=debug,faults=trace").expect("valid filter");
    // Large enough that nothing wraps: with zero overwrites the snapshot
    // is the complete stream and its order must be thread-count
    // independent.
    flight::set_capacity(1 << 20);

    /// `(trial, group, seq, "target:name")` of one flight event.
    type EventKey = (u64, u64, u64, String);

    let arms = smoke_arms();
    // (trace of non-span events, full keyed stream incl. span completions)
    let mut reference: Option<(String, Vec<EventKey>)> = None;
    for threads in [1usize, 2, 4] {
        obs::reset();
        run_scenarios(
            &arms,
            &RunConfig {
                trials: 200,
                seed: 2016,
                threads,
                chunk_size: 0,
            },
        );
        assert_eq!(obs::dropped_events(), 0, "ring wrapped at {threads}");
        let events = flight::snapshot();
        assert!(
            events.iter().any(|e| e.name == "trial_eval"),
            "flight recorder missed trace events at threads={threads}"
        );
        assert!(
            events.iter().any(|e| e.target == obs::SPAN_TARGET),
            "flight recorder missed span completions at threads={threads}"
        );

        // Span completions carry wall-clock `ns` fields, so only their
        // *keys* are comparable across runs; everything else must be
        // byte-identical, rendered text included.
        let non_span: Vec<_> = events
            .iter()
            .filter(|e| e.target != obs::SPAN_TARGET)
            .cloned()
            .collect();
        let text = obs::render_text(&non_span);
        // The `(trial, group, seq)` determinism contract covers *scoped*
        // events: unscoped ones (run_start, arm_result) draw seqs from a
        // per-thread counter that outlives `obs::reset`, so their raw seq
        // values are process-lifetime state, not per-run state — their
        // rendered text (compared above) is what must be stable.
        let keys: Vec<EventKey> = events
            .iter()
            .filter(|e| e.trial != u64::MAX)
            .map(|e| (e.trial, e.group, e.seq, format!("{}:{}", e.target, e.name)))
            .collect();
        match &reference {
            None => reference = Some((text, keys)),
            Some((t0, k0)) => {
                assert_eq!(
                    &text, t0,
                    "flight non-span stream diverged at threads={threads}"
                );
                assert_eq!(&keys, k0, "flight event keys diverged at threads={threads}");
            }
        }
    }
}

#[test]
fn fleet_progress_document_reports_the_run_shape() {
    let _serial = obs::exclusive();
    let _restore = Restore;
    obs::reset();

    let arms = vec![
        Scenario::isca16_baseline()
            .with_fit_scale(150.0)
            .with_mechanism(Mechanism::None),
        Scenario::isca16_baseline()
            .with_fit_scale(150.0)
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
    ];
    let mut sim = FleetSim::new(arms, FleetConfig::quick(600, 3, 77));
    sim.step().expect("epoch 0");

    let doc = sim.progress_json(&[1_000, 16_384]);
    let text = doc.to_pretty();
    let parsed = Value::parse(&text).expect("progress document is valid JSON");
    let field = |k: &str| parsed.get(k).unwrap_or_else(|| panic!("missing `{k}`"));
    assert_eq!(field("status").as_str(), Some("running"));
    assert_eq!(field("epoch").as_f64(), Some(1.0));
    assert_eq!(field("epochs").as_f64(), Some(3.0));
    assert_eq!(field("nodes").as_f64(), Some(600.0));
    assert_eq!(
        field("checkpoints").get("enabled").and_then(Value::as_bool),
        Some(false),
        "no --ckpt-dir means lineage reports disabled"
    );
    let forecast = field("forecast").as_array().expect("forecast array");
    assert_eq!(forecast.len(), 2, "one entry per queried fleet size");
    let arms0 = forecast[0].get("arms").and_then(Value::as_array).unwrap();
    assert_eq!(arms0.len(), 2, "one forecast arm per scenario");
    assert!(arms0[0].get("dues").and_then(Value::as_f64).is_some());

    sim.step().expect("epoch 1");
    sim.step().expect("epoch 2");
    let done = sim.progress_json(&[]);
    assert_eq!(done.get("status").and_then(Value::as_str), Some("complete"));
    assert_eq!(done.get("epoch").and_then(Value::as_f64), Some(3.0));
}
