//! `relbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints every metric by name with
//! its unit, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the traced stage run and reports the
//! per-layer metrics.
//!
//! Exit codes: 0 success (including failed output checks, which the JSON
//! reports), 2 usage error or a forbidden debug variable in the
//! environment.

use relaxfault_relbench::report::valid_name;
use relaxfault_relbench::trace::counts_digest;
use relaxfault_relbench::workloads::{nproc, threads, Scale, WorkloadId};
use relaxfault_relbench::{forbidden_env_set, run};
use relaxfault_util::lanes;
use std::process::ExitCode;

struct Args {
    workload: WorkloadId,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadId::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {value} out of range 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// The checked-out commit, when run from a git work tree.
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn main() -> ExitCode {
    let forbidden = forbidden_env_set();
    if !forbidden.is_empty() {
        eprintln!(
            "relbench: refusing to run with debug settings in the environment: {}",
            forbidden.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("relbench: {e}");
            eprintln!(
                "usage: relbench --workload <coverage_1x|reliability_10x|fleet_1x|perfsim_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "# relbench workload={} seed={} trace={} seconds={} git={} nproc={} threads={} lanes={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        git_sha(),
        nproc(),
        threads(),
        lanes::mode().label()
    );
    let scale = Scale::full(args.seconds);
    let mut out = run(args.workload, args.seed, args.trace, &scale);
    for m in &out.metrics {
        if !valid_name(&m.name) || !m.value.is_finite() {
            out.failed += 1;
            out.attempted += 1;
            out.failures
                .push(format!("metric {:?} = {} is malformed", m.name, m.value));
        }
    }
    print!("{}", out.render());
    if args.trace {
        println!("# counts digest {:016x}", counts_digest(&out));
    }
    println!("{}", out.json_line());
    ExitCode::SUCCESS
}
