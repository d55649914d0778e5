//! Drivers for the performance figures (15 and 16).

use relaxfault_perfsim::workload::catalog;
use relaxfault_perfsim::{CapacityLoss, SimConfig, Simulation, WeightedSpeedup, Workload};
use relaxfault_util::json::Value;
use relaxfault_util::obs;
use relaxfault_util::persist;
use relaxfault_util::table::Table;

/// The paper's Figure 15 capacity sweep.
pub const LOSSES: [CapacityLoss; 4] = [
    CapacityLoss::None,
    CapacityLoss::RandomLines { bytes: 100 << 10 },
    CapacityLoss::Ways(1),
    CapacityLoss::Ways(4),
];

/// One workload's results across the capacity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRow {
    /// Workload name.
    pub name: String,
    /// Weighted speedup per capacity configuration, in [`LOSSES`] order.
    pub weighted_speedup: Vec<f64>,
    /// DRAM dynamic power relative to the full-LLC run (percent), in
    /// [`LOSSES`] order.
    pub relative_power_pct: Vec<f64>,
}

impl PerfRow {
    /// Lossless JSON form: every `f64` as the hex string of its bits.
    pub fn to_json(&self) -> Value {
        let bits =
            |xs: &[f64]| Value::Array(xs.iter().map(|x| persist::hex(x.to_bits())).collect());
        Value::object([
            ("name", Value::from(self.name.as_str())),
            ("weighted_speedup", bits(&self.weighted_speedup)),
            ("relative_power_pct", bits(&self.relative_power_pct)),
        ])
    }

    /// Decodes [`PerfRow::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the first missing or malformed field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            let xs = v
                .get(key)
                .and_then(Value::as_array)
                .filter(|xs| xs.len() == LOSSES.len())
                .ok_or_else(|| format!("{key} must be an array of {} values", LOSSES.len()))?;
            xs.iter()
                .map(|x| {
                    persist::parse_hex(x)
                        .map(f64::from_bits)
                        .ok_or_else(|| format!("{key} entries must be hex f64 bits"))
                })
                .collect()
        };
        Ok(Self {
            name: v
                .get("name")
                .and_then(Value::as_str)
                .ok_or("name must be a string")?
                .to_string(),
            weighted_speedup: floats("weighted_speedup")?,
            relative_power_pct: floats("relative_power_pct")?,
        })
    }
}

/// Runs every Table 4 workload across the Figure 15 capacity sweep.
///
/// Solo IPCs (the Equation 2 denominator) are measured by running each
/// core's benchmark alone on the full machine.
pub fn performance_sweep(instructions_per_core: u64, seed: u64) -> Vec<PerfRow> {
    obs::counter("bench.performance_sweep.calls").inc();
    let cfg = sweep_config(instructions_per_core);
    let mut rows = Vec::new();
    for w in catalog::all() {
        let solo = solo_ipcs(&cfg, &w, seed);
        let mut ws = Vec::new();
        let mut power = Vec::new();
        let mut base_power = 0.0;
        for (i, loss) in LOSSES.iter().enumerate() {
            let r = Simulation::run(&cfg, &w, *loss, seed);
            ws.push(WeightedSpeedup::compute(&solo, &r).0);
            let p = r.dram_dynamic_power_mw(&cfg.energy);
            if i == 0 {
                base_power = p.max(1e-12);
            }
            power.push(p / base_power * 100.0);
        }
        rows.push(PerfRow {
            name: w.name.clone(),
            weighted_speedup: ws,
            relative_power_pct: power,
        });
    }
    rows
}

/// The machine [`performance_sweep`] simulates.
pub fn sweep_config(instructions_per_core: u64) -> SimConfig {
    SimConfig {
        instructions_per_core,
        ..SimConfig::isca16()
    }
}

/// Measures each distinct benchmark's solo IPC and maps it back onto the
/// workload's cores.
pub fn solo_ipcs(cfg: &SimConfig, workload: &Workload, seed: u64) -> Vec<f64> {
    let mut cache: Vec<(String, f64)> = Vec::new();
    workload
        .cores
        .iter()
        .map(|spec| {
            if let Some((_, ipc)) = cache.iter().find(|(n, _)| *n == spec.name) {
                return *ipc;
            }
            let alone = Workload {
                name: format!("{}-solo", spec.name),
                cores: vec![spec.clone()],
            };
            let r = Simulation::run(cfg, &alone, CapacityLoss::None, seed);
            let ipc = r.per_core[0].ipc;
            cache.push((spec.name.clone(), ipc));
            ipc
        })
        .collect()
}

/// Renders the Figure 15 table.
pub fn fig15_table(rows: &[PerfRow]) -> Table {
    let mut headers = vec!["workload".to_string()];
    headers.extend(LOSSES.iter().map(|l| l.label()));
    let mut t = Table::new(&headers);
    for r in rows {
        let mut row = vec![r.name.clone()];
        row.extend(r.weighted_speedup.iter().map(|w| format!("{w:.2}")));
        t.row(&row);
    }
    t
}

/// Renders the Figure 16 table (relative DRAM dynamic power, %).
pub fn fig16_table(rows: &[PerfRow]) -> Table {
    let mut headers = vec!["workload".to_string()];
    headers.extend(LOSSES.iter().map(|l| l.label()));
    let mut t = Table::new(&headers);
    for r in rows {
        let mut row = vec![r.name.clone()];
        row.extend(r.relative_power_pct.iter().map(|p| format!("{p:.1}%")));
        t.row(&row);
    }
    t
}

/// Renders Table 4 (the workload catalogue).
pub fn table4() -> Table {
    let mut t = Table::new(&["workload", "kind", "core specs", "mem ops/instr"]);
    for w in catalog::all() {
        let mut names: Vec<&str> = w.cores.iter().map(|c| c.name.as_str()).collect();
        names.dedup();
        let kind = if names.len() == 1 {
            "multi-threaded"
        } else {
            "multi-programmed"
        };
        let ratios: Vec<String> = {
            let mut seen = Vec::new();
            w.cores
                .iter()
                .filter(|c| {
                    if seen.contains(&c.name) {
                        false
                    } else {
                        seen.push(c.name.clone());
                        true
                    }
                })
                .map(|c| format!("{:.2}", c.mem_ratio))
                .collect()
        };
        t.row(&[
            w.name.clone(),
            kind.to_string(),
            names.join(", "),
            ratios.join(", "),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_smoke() {
        let rows = performance_sweep(5_000, 3);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r.weighted_speedup.len(), LOSSES.len());
            assert!((r.relative_power_pct[0] - 100.0).abs() < 1e-9);
            assert!(r.weighted_speedup.iter().all(|&w| w > 0.0 && w <= 8.5));
            assert_eq!(&PerfRow::from_json(&r.to_json()).unwrap(), r);
        }
        let t15 = fig15_table(&rows);
        let t16 = fig16_table(&rows);
        assert_eq!(t15.len(), 8);
        assert_eq!(t16.len(), 8);
    }

    #[test]
    fn table4_lists_all_workloads() {
        let t = table4();
        assert_eq!(t.len(), 8);
        let text = t.render();
        assert!(text.contains("LULESH"));
        assert!(text.contains("429.mcf"));
    }
}
