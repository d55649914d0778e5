//! Regenerates Figure 13: expected SDCs per 16,384-node system over
//! 6 years, by mechanism and way limit, at 1x and 10x FIT.

use relaxfault_bench::{emit, reliability_matrix};

fn main() -> std::io::Result<()> {
    let args = relaxfault_bench::obs_init();
    let trials = args.work(4_000_000);
    let r1 = reliability_matrix(1.0, trials);
    emit(
        "fig13a_sdcs_1x",
        &format!("Figure 13a: SDCs per system, 1x FIT ({trials} node trials)"),
        &r1.sdcs,
    )?;
    let t10 = trials / 4;
    let r10 = reliability_matrix(10.0, t10);
    emit(
        "fig13b_sdcs_10x",
        &format!("Figure 13b: SDCs per system, 10x FIT ({t10} node trials)"),
        &r10.sdcs,
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
