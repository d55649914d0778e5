//! Regenerates Figure 11: cumulative repair coverage vs required LLC
//! capacity at 10x FIT rates.

use relaxfault_bench::{coverage_curves, emit};

fn main() -> std::io::Result<()> {
    let args = relaxfault_bench::obs_init();
    let trials = args.work(400_000);
    let t = coverage_curves(10.0, trials);
    emit(
        "fig11_coverage_10x",
        &format!("Figure 11: coverage vs LLC capacity, 10x FIT ({trials} node trials)"),
        &t,
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
