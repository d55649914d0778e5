//! The harness that regenerates every table and figure of the RelaxFault
//! paper's evaluation.
//!
//! [`paper`] splits the evaluation into eight run-once experiments (the
//! Monte Carlo and performance-simulation runs) and fourteen outputs that
//! are pure views over the experiments' persisted records, or over model
//! constants for Figure 2 and Tables 1, 3 and 4. The `paper` binary runs
//! the experiments in order and renders every view; `--scale F`
//! multiplies every work amount and `--resume` reuses each record whose
//! input digest still matches:
//!
//! ```bash
//! cargo run --release -p relaxfault-bench --bin paper
//! cargo run --release -p relaxfault-bench --bin paper -- --scale 0.01 --resume
//! ```
//!
//! The rest of the crate is the observability harness every binary shares
//! ([`obs_init`], [`emit`], [`obs_finish`]), the Figure 15/16 drivers in
//! [`perf`], and the folded-profile diff behind `obs_report folded-diff`.
//! Output lands in `RF_RESULTS_DIR` (default `results/`).

use relaxfault_util::export;
use relaxfault_util::json::Value;
use relaxfault_util::table::Table;
use relaxfault_util::{crashdump, obs, persist, profiler, serve};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub mod folded;
pub mod paper;
pub mod perf;

/// `--run NAME` override captured by [`obs_init`], consulted by [`emit`].
static RUN_OVERRIDE: OnceLock<String> = OnceLock::new();

/// The live endpoint started by [`obs_init`], stopped by [`obs_finish`].
static SERVER: OnceLock<Mutex<Option<serve::ObsServer>>> = OnceLock::new();

/// How long [`obs_finish`] keeps the endpoint answering after the work is
/// done (`--linger-ms`; a `/quit` request ends the linger early).
static LINGER_MS: AtomicU64 = AtomicU64::new(0);

/// Standard harness arguments parsed by [`obs_init`].
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    work: Option<u64>,
    profiling: bool,
    own: Vec<(String, String)>,
}

impl BenchArgs {
    /// The work amount (trials or instructions): the positional
    /// argument, or `default` when none was given.
    pub fn work(&self, default: u64) -> u64 {
        self.work.unwrap_or(default)
    }

    /// Whether a positional work amount was given.
    pub fn has_work(&self) -> bool {
        self.work.is_some()
    }

    /// The value of one of the binary's own flags named to
    /// [`obs_init_with`], if given (the last occurrence wins).
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.own
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the span profiler is collecting (`--profile` / `RF_PROF`);
    /// [`obs_finish`] will write `<run>.folded`.
    pub fn profiling(&self) -> bool {
        self.profiling
    }
}

/// Prints a usage error and exits with status 1.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Standard harness start-up, called first in every harness binary
/// (`paper`, `fleet_forecast`, the bench targets):
///
/// * `--quiet`/`-q` (or `RF_OBS=off` in the environment, handled by
///   `util::obs` itself) turns every trace/metric off regardless of
///   `RF_TRACE`;
/// * `--run NAME` (or `--run=NAME`, or `RF_RUN_NAME` in the environment)
///   overrides the run name [`emit`] uses for the obs snapshot, trace, and
///   Prometheus files — this is how CI writes `drift_a`/`drift_b` from the
///   same binary;
/// * `--serve-obs PORT` (or `--serve-obs=ADDR`, or `RF_OBS_ADDR` in the
///   environment) starts the live telemetry endpoint of
///   [`relaxfault_util::serve`] — port `0` binds an OS-assigned port,
///   printed on stdout and written to `RF_OBS_ADDR_FILE` when set. Serving
///   implies metrics, so `/metrics` always has content;
/// * `--profile` (or `RF_PROF=on`) starts the self-sampling span profiler
///   at `RF_PROF_HZ` (default 997 Hz); [`obs_finish`] writes the folded
///   stacks to `<results>/obs/<run>.folded`;
/// * `--lanes scalar|u64|u128` (or `RF_LANES` in the environment) pins the
///   engine's trial-lane mode; the choice is recorded in the run manifest
///   so snapshots stay comparable per lane configuration. An invalid
///   value, or an override arriving after the mode was already pinned to
///   something else, exits with an error;
/// * `--linger-ms N` keeps the endpoint answering for up to `N` ms after
///   the work completes (until a client requests `/quit`), so pollers can
///   read final state — the CI smoke gate relies on this;
/// * a crash-dump panic hook is installed (unless `--quiet`/`RF_OBS=off`),
///   so any panic drains the flight recorder and metrics into
///   `<results>/obs/<run>.crashdump.json`;
/// * one positional argument sets the work amount (read it back with
///   [`BenchArgs::work`]);
/// * unknown flags (e.g. the `--bench` cargo passes to bench targets) are
///   ignored.
///
/// A positional argument that is not a non-negative integer, a second
/// positional argument, and a missing or malformed `--linger-ms` value
/// exit with status 1 and the bad value named, instead of silently
/// running the default.
pub fn obs_init() -> BenchArgs {
    obs_init_with(&[])
}

/// [`obs_init`] for a binary with value-taking flags of its own: each
/// `--flag V` or `--flag=V` named in `own` is captured for
/// [`BenchArgs::flag`] rather than mistaken for the positional work
/// amount.
pub fn obs_init_with(own: &[&str]) -> BenchArgs {
    let mut parsed = BenchArgs::default();
    let mut run = None;
    let mut serve_spec: Option<String> = None;
    let mut lanes_spec: Option<String> = None;
    let mut profile = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let (key, inline) = match a.split_once('=') {
            Some((k, v)) if k.starts_with("--") => (k, Some(v.to_string())),
            _ => (a.as_str(), None),
        };
        let mut value = || inline.clone().or_else(|| args.next());
        if a == "--quiet" || a == "-q" {
            obs::set_force_off(true);
        } else if key == "--run" {
            run = value();
        } else if key == "--serve-obs" {
            serve_spec = value();
        } else if a == "--profile" {
            profile = true;
        } else if key == "--lanes" {
            lanes_spec = value();
        } else if key == "--linger-ms" {
            let v = value().unwrap_or_default();
            match v.parse() {
                Ok(ms) => LINGER_MS.store(ms, Ordering::Relaxed),
                Err(_) => usage_error(&format!("--linger-ms {v:?}: expected milliseconds")),
            }
        } else if own.contains(&key) {
            let v = value().unwrap_or_else(|| usage_error(&format!("{key}: missing value")));
            parsed.own.push((key.to_string(), v));
        } else if !a.starts_with('-') {
            if parsed.work.is_some() {
                usage_error(&format!("unexpected extra argument {a:?}"));
            }
            match a.parse() {
                Ok(w) => parsed.work = Some(w),
                Err(_) => usage_error(&format!(
                    "work argument {a:?}: expected a non-negative integer"
                )),
            }
        }
    }
    if let Some(r) = run {
        let _ = RUN_OVERRIDE.set(r);
    }
    if let Some(spec) = lanes_spec {
        match relaxfault_util::lanes::LaneMode::parse(&spec) {
            Some(m) => {
                if !relaxfault_util::lanes::set_mode(m) {
                    // The mode pins on first use; a too-late or conflicting
                    // override silently taking the old value would corrupt
                    // the run manifest's `lanes` record.
                    eprintln!(
                        "--lanes {spec}: lane mode already pinned to {}",
                        relaxfault_util::lanes::mode().label()
                    );
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("--lanes {spec}: expected scalar, u64, or u128");
                std::process::exit(1);
            }
        }
    }
    if serve_spec.is_none() {
        serve_spec = std::env::var("RF_OBS_ADDR").ok().filter(|s| !s.is_empty());
    }
    if let Some(spec) = serve_spec {
        match serve::ObsServer::start(&spec) {
            Ok(server) => {
                // A served run must have something to serve.
                obs::set_metrics_enabled(true);
                println!(
                    "obs server: http://{} (routes: /health /metrics /progress /flight /quit)",
                    server.addr()
                );
                let _ = SERVER.set(Mutex::new(Some(server)));
            }
            Err(e) => {
                // A misbound endpoint means every poller would hang; die
                // loudly rather than run unobservable.
                eprintln!("--serve-obs {spec}: cannot bind: {e}");
                std::process::exit(1);
            }
        }
    }
    if !profile {
        profile = std::env::var("RF_PROF")
            .map(|v| matches!(v.to_ascii_lowercase().as_str(), "on" | "1" | "true"))
            .unwrap_or(false);
    }
    if profile {
        let hz = std::env::var("RF_PROF_HZ")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(profiler::DEFAULT_HZ);
        profiler::start(hz);
        parsed.profiling = true;
    }
    if !obs::is_force_off() {
        crashdump::install_panic_hook(&current_run_name());
    }
    parsed
}

/// The run name for the current process: `--run` / `RF_RUN_NAME` if given,
/// else the binary's file stem. This is what the panic hook, crash dumps,
/// and `obs_finish`'s folded profile file under.
pub fn current_run_name() -> String {
    let default = std::env::args()
        .next()
        .as_deref()
        .and_then(|argv0| {
            std::path::Path::new(argv0)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "run".to_string());
    run_name(&default)
}

/// Standard harness shutdown, called last in every harness binary:
/// harvests the span profiler into `<results>/obs/<run>.folded`, keeps
/// the live endpoint answering through the `--linger-ms` window (a
/// `/quit` request ends it early), then stops the endpoint. A no-op when
/// neither the profiler nor the endpoint is active.
///
/// # Errors
///
/// Returns a failed write of the folded profile, with the failing path in
/// the message; the endpoint is stopped either way.
pub fn obs_finish() -> std::io::Result<()> {
    let mut result = Ok(());
    if profiler::active() {
        let folded = profiler::stop();
        if folded.is_empty() {
            eprintln!("profiler captured no samples");
        } else {
            let run = current_run_name();
            let path = std::path::Path::new(&obs::results_dir())
                .join("obs")
                .join(format!("{run}.folded"));
            result = persist::atomic_write(&path, &folded)
                .map(|()| println!("profile: {}", path.display()))
                .map_err(std::io::Error::other);
        }
    }
    let server = SERVER
        .get()
        .and_then(|slot| slot.lock().expect("obs server slot").take());
    if let Some(server) = server {
        let deadline = Instant::now() + Duration::from_millis(LINGER_MS.load(Ordering::Relaxed));
        while !server.quit_requested() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
        }
        server.stop();
    }
    result
}

/// The run name [`emit`] files observability output under: the `--run`
/// flag if given, else `RF_RUN_NAME`, else the emitting table's name.
fn run_name(default: &str) -> String {
    RUN_OVERRIDE
        .get()
        .cloned()
        .or_else(|| std::env::var("RF_RUN_NAME").ok())
        .unwrap_or_else(|| default.to_string())
}

/// Prints a table to stdout and mirrors it (plus CSV and JSON) into the
/// results directory (`RF_RESULTS_DIR`, default `results/`). When
/// observability is enabled, the run's metrics snapshot (with its
/// manifest), a Prometheus text exposition (`<run>.prom`), and — if any
/// events were captured by the `RF_TRACE` filter — a Perfetto-loadable
/// Chrome trace (`<run>.trace.json`) land under `<dir>/obs/`.
///
/// # Errors
///
/// Returns the first directory-creation or file-write failure, with the
/// failing path in the message; `paper` exits non-zero on it.
pub fn emit(name: &str, title: &str, table: &Table) -> std::io::Result<()> {
    println!("== {title} ==");
    print!("{}", table.render());
    println!();
    let dir = obs::results_dir();
    write(
        format!("{dir}/{name}.txt"),
        format!("{title}\n{}", table.render()),
    )?;
    write(format!("{dir}/{name}.csv"), table.to_csv())?;
    let doc = Value::object([
        ("schema_version", Value::from(obs::SCHEMA_VERSION)),
        ("title", title.into()),
        ("rows", table.to_json()),
    ]);
    write(format!("{dir}/{name}.json"), doc.to_pretty())?;
    let run = run_name(name);
    if obs::metrics_enabled() {
        println!("obs snapshot: {}", obs::write_snapshot(&run)?);
        write(format!("{dir}/obs/{run}.prom"), export::prometheus_text())?;
    }
    let events = obs::drain_events();
    if !events.is_empty() {
        let path = write(
            format!("{dir}/obs/{run}.trace.json"),
            export::chrome_trace(&events).to_pretty(),
        )?;
        println!("trace: {path}");
    }
    Ok(())
}

/// Writes `text` to `path`, creating its directory first, and returns
/// the path; errors name the path they happened on.
fn write(path: String, text: String) -> std::io::Result<String> {
    let with_path = |e: std::io::Error| std::io::Error::new(e.kind(), format!("{path}: {e}"));
    if let Some(parent) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(parent).map_err(with_path)?;
    }
    std::fs::write(&path, text).map_err(with_path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::paper::{self, Experiment, ExperimentRecord};

    fn views(exp: Experiment, work: u64) -> Vec<paper::View> {
        paper::views(&ExperimentRecord::compute(exp, work))
    }

    #[test]
    fn fig08_smoke() {
        let v = views(Experiment::Hashing, 400);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].table.len(), 4);
        assert!(v[0].table.render().contains("RelaxFault (hash)"));
    }

    #[test]
    fn coverage_table_shape() {
        let v = views(Experiment::Coverage1x, 400);
        assert_eq!(v[0].name, "fig10_coverage");
        assert!(v[0].table.len() >= 11);
        assert!(v[0].table.render().contains("82KiB"));
    }

    #[test]
    fn reliability_matrix_shape() {
        let v = views(Experiment::Reliability1x, 400);
        let names: Vec<&str> = v.iter().map(|v| v.name).collect();
        assert_eq!(
            names,
            [
                "fig12a_dues_1x",
                "fig13a_sdcs_1x",
                "fig14a_repl_due_1x",
                "fig14c_repl_errors_1x"
            ]
        );
        assert!(v.iter().all(|v| v.table.len() == 4));
    }
}
