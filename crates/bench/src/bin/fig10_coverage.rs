//! Regenerates Figure 10: cumulative repair coverage vs required LLC
//! capacity at baseline FIT rates.

use relaxfault_bench::{coverage_curves, emit};

fn main() -> std::io::Result<()> {
    let args = relaxfault_bench::obs_init();
    let trials = args.work(600_000);
    let t = coverage_curves(1.0, trials);
    emit(
        "fig10_coverage",
        &format!("Figure 10: coverage vs LLC capacity, 1x FIT ({trials} node trials)"),
        &t,
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
