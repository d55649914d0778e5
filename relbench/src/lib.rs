//! The repository benchmark: four paper-shaped workloads driven through
//! the library's public API, printing end-to-end metrics (untraced run) or
//! per-layer metrics (traced run) by name with their units, and checking
//! the outputs as it goes. See `README.md` beside this crate.

pub mod report;
pub mod trace;
pub mod workloads;

use report::Outcome;
use workloads::{Scale, WorkloadId};

/// Debug settings of the library that would skew the numbers; the
/// benchmark refuses to run while any is set.
pub const FORBIDDEN_ENV: [&str; 7] = [
    "RF_LANES",
    "RF_CHECK",
    "RF_CHECK_FAIL_TRIAL",
    "RF_OBS",
    "RF_TRACE",
    "RF_PROF",
    "RF_FLIGHT_CAP",
];

/// The forbidden variables currently set.
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Runs workload `w`, traced or not.
pub fn run(w: WorkloadId, seed: u64, trace: bool, scale: &Scale) -> Outcome {
    if trace {
        trace::run_traced(w, seed, scale)
    } else {
        workloads::run_untraced(w, seed, scale)
    }
}
