//! Regenerates every table and figure of the paper's evaluation in one
//! process: eight run-once experiments, each persisted as a record under
//! `<results>/records/`, and fourteen outputs rendered as views over the
//! records (see `relaxfault_bench::paper`).
//!
//! ```text
//! paper [--scale F] [--resume] [shared harness flags]
//! ```
//!
//! * `--scale F` multiplies every experiment's default work (node trials,
//!   or instructions per core for the performance sweep), floored at 50;
//!   `F` must be a positive finite number.
//! * `--resume` reuses each record whose input digest matches this run's
//!   inputs, so a killed run continues where it died; a record written at
//!   another scale is recomputed, and a corrupt record fails the run.
//!
//! The shared harness flags (`--quiet`, `--run`, `--serve-obs`,
//! `--profile`, `--lanes`, `--linger-ms`) are those of
//! `relaxfault_bench::obs_init`.
//!
//! Exit codes: 0 success; 1 a usage error, a corrupt record, or a write
//! failure of a result or the folded profile (the message names the
//! file). A failing `RF_CHECK` engine
//! check panics after writing its relcheck ReproCase.

use relaxfault_bench::paper::{self, Options, Outcome};
use std::process::ExitCode;

const USAGE: &str = "usage: paper [--scale F] [--resume]";

fn options(args: &relaxfault_bench::BenchArgs) -> Result<Options, String> {
    if args.has_work() {
        return Err("paper takes no positional work argument; use --scale".into());
    }
    let scale = match args.flag("--scale") {
        None => 1.0,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|f| f.is_finite() && *f > 0.0)
            .ok_or_else(|| format!("--scale {v:?}: expected a positive number"))?,
    };
    Ok(Options {
        scale,
        resume: std::env::args().any(|a| a == "--resume"),
    })
}

fn main() -> ExitCode {
    let args = relaxfault_bench::obs_init_with(&["--scale"]);
    let opts = match options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("paper: {e}\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    match paper::run(&opts) {
        Ok(outcomes) => {
            let computed = outcomes
                .iter()
                .filter(|(_, o)| *o == Outcome::Computed)
                .count();
            println!(
                "paper: {computed} experiment(s) computed, {} reused",
                outcomes.len() - computed
            );
            if let Err(e) = relaxfault_bench::obs_finish() {
                eprintln!("paper: {e}");
                return ExitCode::from(1);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("paper: {e}");
            ExitCode::from(1)
        }
    }
}
