//! Regenerates Figure 12: expected DUEs per 16,384-node system over
//! 6 years, by mechanism and way limit, at 1x and 10x FIT.

use relaxfault_bench::{emit, reliability_matrix};

fn main() -> std::io::Result<()> {
    let args = relaxfault_bench::obs_init();
    let trials = args.work(2_000_000);
    let r1 = reliability_matrix(1.0, trials);
    emit(
        "fig12a_dues_1x",
        &format!("Figure 12a: DUEs per system, 1x FIT ({trials} node trials)"),
        &r1.dues,
    )?;
    let t10 = trials / 3;
    let r10 = reliability_matrix(10.0, t10);
    emit(
        "fig12b_dues_10x",
        &format!("Figure 12b: DUEs per system, 10x FIT ({t10} node trials)"),
        &r10.dues,
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
