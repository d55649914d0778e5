//! Regenerates Figure 14: expected DIMM replacements per 16,384-node
//! system over 6 years under ReplA (after a DUE) and ReplB (after an
//! error-threshold crossing), at 1x and 10x FIT.

use relaxfault_bench::{emit, reliability_matrix};

fn main() -> std::io::Result<()> {
    let args = relaxfault_bench::obs_init();
    let trials = args.work(200_000);
    let r1 = reliability_matrix(1.0, trials);
    emit(
        "fig14a_repl_due_1x",
        &format!("Figure 14a: replacements after first DUE, 1x FIT ({trials} trials)"),
        &r1.replacements_after_due,
    )?;
    emit(
        "fig14c_repl_errors_1x",
        &format!("Figure 14c: replacements after frequent errors, 1x FIT ({trials} trials)"),
        &r1.replacements_after_errors,
    )?;
    let t10 = trials / 3;
    let r10 = reliability_matrix(10.0, t10);
    emit(
        "fig14b_repl_due_10x",
        &format!("Figure 14b: replacements after first DUE, 10x FIT ({t10} trials)"),
        &r10.replacements_after_due,
    )?;
    emit(
        "fig14d_repl_errors_10x",
        &format!("Figure 14d: replacements after frequent errors, 10x FIT ({t10} trials)"),
        &r10.replacements_after_errors,
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
