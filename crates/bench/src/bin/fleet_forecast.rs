//! Fleet forecast service: epoch-by-epoch fleet simulation with
//! checkpoint/resume, answering batched DUE/SDC/replacement forecast
//! queries.
//!
//! ```text
//! fleet_forecast [NODES] [--epochs=N] [--shards=N] [--seed=N]
//!                [--threads=N] [--ckpt-dir=PATH] [--resume]
//!                [--query=NODES,NODES,...]
//!                [--serve-obs=ADDR] [--linger-ms=N]
//! ```
//!
//! `NODES` (positional, default 1,000,000) sizes the simulated fleet.
//! With `--ckpt-dir` every epoch boundary writes a [`FleetCheckpoint`];
//! `--resume` continues from the newest checkpoint in that directory
//! instead of starting over. The `RF_FLEET_CRASH_AT` environment hook
//! (`"N"` = die entering epoch N, `"mid:N"` = die inside epoch N) kills
//! the run for the CI crash/resume gate.
//!
//! All flags take `=`-values: the shared bench arg parser treats a bare
//! numeric argument as the positional work amount.
//!
//! The live-plane flags are shared harness flags (see
//! `relaxfault_bench::obs_init`): `--serve-obs` answers `/health`,
//! `/metrics` (the JSON metrics snapshot), `/progress` (epoch/shard
//! progress, checkpoint lineage, and the forecast for each `--query` size,
//! refreshed every boundary), and `/flight` (the flight recorder's JSON
//! event array) while the run executes; `--linger-ms` keeps the endpoint
//! up after the work finishes.
//!
//! Exit codes: 0 success, 1 usage error or a failed result write, 4 the
//! run died (simulated crash or checkpoint failure) — a
//! crash dump with the newest durable checkpoint embedded lands in
//! `results/obs/`, and the run resumes with `--resume`.

use relaxfault_bench::emit;
use relaxfault_relsim::fleet::{crash_at_from_env, latest_checkpoint, FleetConfig, FleetSim};
use relaxfault_relsim::scenario::{Mechanism, Scenario};
use relaxfault_util::crashdump::CrashDump;
use relaxfault_util::json::Value;
use relaxfault_util::table::Table;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    nodes: u64,
    epochs: u32,
    shards: u32,
    seed: u64,
    threads: usize,
    ckpt_dir: Option<PathBuf>,
    resume: bool,
    queries: Vec<u64>,
}

fn parse_args(work: u64) -> Result<Args, String> {
    let mut args = Args {
        nodes: work,
        epochs: 20,
        shards: 0,
        seed: 2016,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        ckpt_dir: None,
        resume: false,
        queries: vec![16_384, 100_000, 1_000_000],
    };
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--epochs=") {
            args.epochs = v.parse().map_err(|_| format!("bad --epochs={v}"))?;
        } else if let Some(v) = a.strip_prefix("--shards=") {
            args.shards = v.parse().map_err(|_| format!("bad --shards={v}"))?;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            args.seed = v.parse().map_err(|_| format!("bad --seed={v}"))?;
        } else if let Some(v) = a.strip_prefix("--threads=") {
            args.threads = v.parse().map_err(|_| format!("bad --threads={v}"))?;
        } else if let Some(v) = a.strip_prefix("--ckpt-dir=") {
            args.ckpt_dir = Some(PathBuf::from(v));
        } else if a == "--resume" {
            args.resume = true;
        } else if let Some(v) = a.strip_prefix("--query=") {
            args.queries = v
                .split(',')
                .map(|n| {
                    n.trim()
                        .parse()
                        .map_err(|_| format!("bad --query size {n}"))
                })
                .collect::<Result<_, _>>()?;
        }
    }
    if args.resume && args.ckpt_dir.is_none() {
        return Err("--resume needs --ckpt-dir=PATH".into());
    }
    Ok(args)
}

/// The newest durable checkpoint in `dir` as a raw JSON document, for
/// embedding in a crash dump (`relcheck replay` decodes it back into a
/// [`relaxfault_relsim::fleet::FleetCheckpoint`]). `None` when the
/// directory holds no checkpoint yet.
fn newest_checkpoint_doc(dir: &Path) -> Option<Value> {
    let path = latest_checkpoint(dir).ok()?;
    let text = std::fs::read_to_string(path).ok()?;
    Value::parse(&text).ok()
}

/// The standard forecast arms: unprotected baseline, RelaxFault at the
/// paper's 4-way budget, and PPR.
fn arms() -> Vec<Scenario> {
    let base = Scenario::isca16_baseline();
    vec![
        base.clone().with_mechanism(Mechanism::None),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
        base.with_mechanism(Mechanism::Ppr),
    ]
}

fn main() -> ExitCode {
    let bench_args = relaxfault_bench::obs_init();
    let args = match parse_args(bench_args.work(1_000_000)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleet_forecast: {e}");
            return ExitCode::from(1);
        }
    };

    let mut sim = if args.resume {
        let dir = args.ckpt_dir.as_ref().expect("checked by parse_args");
        match FleetSim::resume(dir, args.threads) {
            Ok(sim) => {
                println!(
                    "resumed from {} at epoch {}/{}",
                    dir.display(),
                    sim.completed_epochs(),
                    sim.epochs()
                );
                sim
            }
            Err(e) => {
                eprintln!("fleet_forecast: resume: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        FleetSim::new(
            arms(),
            FleetConfig {
                nodes: args.nodes,
                epochs: args.epochs,
                shards: args.shards,
                seed: args.seed,
                threads: args.threads,
                ckpt_dir: args.ckpt_dir.clone(),
                crash_at: crash_at_from_env(),
            },
        )
    };

    // Step manually (rather than `run_to_end`) so every epoch boundary
    // refreshes the `/progress` document and a death can drain the live
    // plane into a crash dump before the process exits.
    sim.publish_progress(&args.queries);
    while sim.completed_epochs() < sim.epochs() {
        if let Err(e) = sim.step() {
            eprintln!(
                "fleet_forecast: run died at epoch {}/{}: {e}",
                sim.completed_epochs(),
                sim.epochs()
            );
            eprintln!("fleet_forecast: resume with --resume --ckpt-dir=PATH");
            let checkpoint = args.ckpt_dir.as_deref().and_then(newest_checkpoint_doc);
            match CrashDump::write(&relaxfault_bench::current_run_name(), &e, checkpoint) {
                Ok(path) => eprintln!("fleet_forecast: crash dump written: {path}"),
                Err(dump_err) => eprintln!("fleet_forecast: crash dump failed: {dump_err}"),
            }
            relaxfault_bench::obs_finish();
            return ExitCode::from(4);
        }
        sim.publish_progress(&args.queries);
    }

    println!(
        "fleet: {} nodes, {} epochs, {} faulty ({:.2}%), {} dirty evals, digest {:#018x}",
        sim.nodes(),
        sim.completed_epochs(),
        sim.faulty_nodes(),
        100.0 * sim.faulty_nodes() as f64 / sim.nodes() as f64,
        sim.dirty_evals(),
        sim.population_digest()
    );

    let mut totals = Table::new(&[
        "mechanism",
        "faulty",
        "repaired",
        "DUEs",
        "SDCs",
        "replacements",
        "unrepaired",
    ]);
    for (m, s) in sim.metrics().iter().zip(sim.scenarios()) {
        totals.row(&[
            s.mechanism.label(),
            m.faulty_nodes.to_string(),
            m.fully_repaired_nodes.to_string(),
            m.dues.to_string(),
            m.sdcs.to_string(),
            m.replacements.to_string(),
            m.unrepaired_faults.to_string(),
        ]);
    }

    let mut forecast = Table::new(&[
        "fleet size",
        "mechanism",
        "DUEs",
        "SDCs",
        "replacements",
        "coverage",
    ]);
    for &q in &args.queries {
        for f in sim.forecast(q) {
            forecast.row(&[
                q.to_string(),
                f.label.clone(),
                format!("{:.2}", f.dues),
                format!("{:.2}", f.sdcs),
                format!("{:.2}", f.replacements),
                format!("{:.4}", f.coverage),
            ]);
        }
    }

    // Replace process counters with the fleet's logical state so full and
    // resumed runs snapshot identically (the CI zero-delta gate).
    sim.publish_fleet_obs();
    let title = format!(
        "Fleet totals ({} nodes, {} epochs)",
        sim.nodes(),
        sim.completed_epochs()
    );
    if let Err(e) = emit("fleet_totals", &title, &totals)
        .and_then(|()| emit("fleet_forecast", "Fleet forecast by target size", &forecast))
    {
        eprintln!("fleet_forecast: {e}");
        return ExitCode::from(1);
    }
    relaxfault_bench::obs_finish();
    ExitCode::SUCCESS
}
