//! Hot-loop benchmark for the Monte Carlo engine: the full per-trial
//! pipeline (lifetime sampling → ECC classification → repair planning)
//! on the paper's default Figure 10 arm mix, plus the two stages that
//! dominate it in isolation.
//!
//! This is the regression anchor for engine performance: CI replays it,
//! ledgers the snapshot, and fails when `obs_report report --check` finds
//! the newest median more than 50% above
//! `results/baselines/engine_hot.json` (see `scripts/ci.sh`). Timings run with observability forced off so
//! the numbers measure the simulator, not the instrumentation; bench
//! medians are recorded into the obs snapshot afterwards when metrics
//! are enabled (`RF_OBS=on`), which is how CI gets a comparable snapshot.

use relaxfault_faults::sampler::FaultSampler;
use relaxfault_relsim::engine::{run_scenarios, RunConfig};
use relaxfault_relsim::node::evaluate_node;
use relaxfault_relsim::scenario::{Mechanism, ReplacementPolicy, Scenario};
use relaxfault_util::obs;
use relaxfault_util::rng::Rng64;
use relaxfault_util::timing::{black_box, Harness};

/// The Figure 10 arm mix: PPR plus FreeFault and RelaxFault at each way
/// limit, all sharing one fault model (and so one fault population).
fn fig10_arms() -> Vec<Scenario> {
    let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
    let mut arms = vec![base.clone().with_mechanism(Mechanism::Ppr)];
    for ways in [1, 4, 16] {
        arms.push(
            base.clone()
                .with_mechanism(Mechanism::FreeFault { max_ways: ways }),
        );
    }
    for ways in [1, 4, 16] {
        arms.push(
            base.clone()
                .with_mechanism(Mechanism::RelaxFault { max_ways: ways }),
        );
    }
    arms
}

const TRIALS_PER_ITER: u64 = 512;

fn main() {
    relaxfault_bench::obs_init();
    let metrics_on = obs::metrics_enabled();
    let arms = fig10_arms();

    // Time with observability hard-off: the bench measures the engine.
    obs::set_force_off(true);
    let mut h = Harness::new();

    // The acceptance metric: one full Figure 10 mix pass, single worker so
    // the number is per-pipeline, not per-scheduler.
    let mut seed = 2016u64;
    h.bench("engine_hot.fig10_mix", || {
        seed = seed.wrapping_add(1);
        black_box(run_scenarios(
            &arms,
            &RunConfig {
                trials: TRIALS_PER_ITER,
                seed,
                threads: 1,
                chunk_size: 0,
            },
        ))
    });

    // Stage isolation: lifetime sampling alone...
    let scenario = &arms[0];
    let sampler = FaultSampler::new(&scenario.fault_model, &scenario.dram);
    let mut rng = Rng64::seed_from_u64(99);
    h.bench("engine_hot.sample_node", || {
        black_box(sampler.sample_node(&mut rng))
    });

    // ...and evaluation alone, over a fresh lifetime each iteration (the
    // common case is a clean node, exactly as in the engine).
    let rf = Scenario::isca16_baseline()
        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 })
        .with_replacement(ReplacementPolicy::None);
    let mut rng = Rng64::seed_from_u64(100);
    h.bench("engine_hot.sample_and_evaluate", || {
        let node = sampler.sample_node(&mut rng);
        black_box(evaluate_node(&rf, &node, &mut rng))
    });
    obs::set_force_off(false);

    println!(
        "engine_hot.fig10_mix is {} trials x {} arms per iter",
        TRIALS_PER_ITER,
        arms.len()
    );

    // Publish the medians into a snapshot for the CI baseline gate.
    if metrics_on {
        for r in h.results() {
            obs::record_bench(&r.name, r.median_ns, r.iters, &r.batch_ns);
        }
        let mut config = String::new();
        for s in &arms {
            config.push_str(&s.to_json().to_pretty());
        }
        config.push_str(&TRIALS_PER_ITER.to_string());
        obs::note_run_context(2016, 1, obs::fnv1a(config.as_bytes()));
        let run = relaxfault_bench::resolved_run_name("engine_hot");
        match obs::write_snapshot(&run) {
            Ok(path) => println!("obs snapshot: {path}"),
            Err(e) => {
                eprintln!("obs snapshot failed: {e}");
                std::process::exit(2);
            }
        }
    }
}
