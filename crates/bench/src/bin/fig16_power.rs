//! Regenerates Figure 16: DRAM dynamic power relative to the full-LLC
//! configuration, under the same capacity sweep as Figure 15.

use relaxfault_bench::emit;
use relaxfault_bench::perf::{fig16_table, performance_sweep};

fn main() -> std::io::Result<()> {
    let args = relaxfault_bench::obs_init();
    let instr = args.work(300_000);
    let rows = performance_sweep(instr, 2016);
    emit(
        "fig16_power",
        &format!("Figure 16: relative DRAM dynamic power ({instr} instr/core)"),
        &fig16_table(&rows),
    )?;
    relaxfault_bench::obs_finish();
    Ok(())
}
