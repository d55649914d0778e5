//! The paper's evaluation as eight run-once experiments, with every table
//! and figure a pure view over the experiments' persisted records.
//!
//! In the paper, Figures 12–14 all read one reliability simulation and
//! Figures 15/16 one performance sweep; here too. Each [`Experiment`] runs
//! its Monte Carlo (or cache-simulation) work once and is saved as an
//! [`ExperimentRecord`] (Persist kind `experiment_record`) under
//! `<results>/records/<experiment>.json`. A record holds:
//!
//! * its **inputs** — every arm's knobs plus a digest of its full
//!   configuration, the work amount and the seed — and an FNV-1a
//!   **digest** over them;
//! * the **run manifest** — seed, work, trial-lane mode and git SHA — so
//!   every published number names the run that produced it;
//! * the **raw results** — per-arm [`ScenarioResult`] counters with the
//!   repair-bytes multiset, [`PopulationStats`], and perfsim `f64`s as
//!   bit patterns — never rendered strings.
//!
//! [`views`] turns a record into the figure tables and [`constant_views`]
//! renders the inputs-only outputs (Figure 2, Tables 1, 3 and 4); [`run`]
//! runs the experiments in order and emits every view under the file
//! names the paper's outputs always had. A record that is present and
//! whose digest matches the current inputs is its own resume checkpoint:
//! with [`Options::resume`] it is reused instead of recomputed. The digest
//! covers inputs, not code, so `--resume` trusts a record across code
//! changes that leave the inputs alone.

use crate::emit;
use crate::perf::{self, PerfRow, LOSSES};
use relaxfault_cache::CacheConfig;
use relaxfault_core::overhead::{EnergyOverhead, StorageOverhead};
use relaxfault_dram::DramConfig;
use relaxfault_faults::{FaultMode, FaultModel, FitRates, Transience};
use relaxfault_perfsim::workload::catalog;
use relaxfault_perfsim::SimConfig;
use relaxfault_relsim::engine::{fault_population, run_scenarios, PopulationStats, RunConfig};
use relaxfault_relsim::scenario::{Mechanism, ReplacementPolicy, Scenario};
use relaxfault_relsim::ScenarioResult;
use relaxfault_util::json::Value;
use relaxfault_util::persist::{self, Persist};
use relaxfault_util::table::{format_bytes, format_pct, Table};
use relaxfault_util::{lanes, obs};
use std::path::{Path, PathBuf};

/// Nodes in the paper's evaluated system.
pub const SYSTEM_NODES: u64 = 16_384;

/// The figures' RNG seed (the ablations use their own).
const SEED: u64 = 2016;

/// Persist kind of an [`ExperimentRecord`].
pub const RECORD_KIND: &str = "experiment_record";

/// The least work `--scale` shrinks an experiment to, so a tiny scale
/// still runs a meaningful Monte Carlo.
pub const MIN_WORK: u64 = 50;

/// Figure 9a/9b's FIT acceleration factors.
const FACTOR_SWEEP: [f64; 5] = [1.0, 50.0, 100.0, 150.0, 200.0];
/// Figure 9c/9d's accelerated node and DIMM fractions.
const FRACTION_SWEEP: [f64; 6] = [0.0, 0.0001, 0.001, 0.002, 0.003, 0.005];
/// Ablation 2's device-to-device coefficients of variation.
const DEVICE_CVS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
/// Ablation 3's PPR sparing: (banks per group, spares per group).
const SPARE_CONFIGS: [(u32, u32); 4] = [(2, 1), (2, 2), (2, 4), (1, 4)];
/// Ablation 4's repair-preemption probabilities.
const PREEMPTS: [f64; 3] = [0.0, 0.35, 0.7];

/// One run-once experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Figure 8: coverage with and without LLC set-index hashing.
    Hashing,
    /// Figure 9: fault-model sensitivity sweeps.
    Sensitivity,
    /// Figure 10: coverage vs LLC capacity at 1× FIT.
    Coverage1x,
    /// Figure 11: coverage vs LLC capacity at 10× FIT.
    Coverage10x,
    /// Figures 12a, 13a, 14a and 14c: the reliability matrix at 1× FIT.
    Reliability1x,
    /// Figures 12b, 13b, 14b and 14d: the reliability matrix at 10× FIT.
    Reliability10x,
    /// Figures 15 and 16: the performance sweep.
    Performance,
    /// The design-choice ablations.
    Ablation,
}

impl Experiment {
    /// Every experiment, in run order.
    pub const ALL: [Experiment; 8] = [
        Experiment::Hashing,
        Experiment::Sensitivity,
        Experiment::Coverage1x,
        Experiment::Coverage10x,
        Experiment::Reliability1x,
        Experiment::Reliability10x,
        Experiment::Performance,
        Experiment::Ablation,
    ];

    /// The record's file stem and `experiment` tag.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Hashing => "hashing",
            Experiment::Sensitivity => "sensitivity",
            Experiment::Coverage1x => "coverage_1x",
            Experiment::Coverage10x => "coverage_10x",
            Experiment::Reliability1x => "reliability_1x",
            Experiment::Reliability10x => "reliability_10x",
            Experiment::Performance => "performance",
            Experiment::Ablation => "ablation",
        }
    }

    /// The experiment called `name`, if any.
    fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.name() == name)
    }

    /// Work at scale 1: node trials per arm, or instructions per core
    /// for [`Experiment::Performance`].
    fn default_work(self) -> u64 {
        match self {
            Experiment::Hashing | Experiment::Sensitivity => 60_000,
            Experiment::Coverage1x => 600_000,
            Experiment::Coverage10x => 400_000,
            Experiment::Reliability1x => 4_000_000,
            Experiment::Reliability10x => 1_000_000,
            Experiment::Performance => 300_000,
            Experiment::Ablation => 40_000,
        }
    }

    /// The default work multiplied by `scale`, floored at [`MIN_WORK`].
    pub fn work(self, scale: f64) -> u64 {
        ((self.default_work() as f64 * scale).round() as u64).max(MIN_WORK)
    }

    fn seed(self) -> u64 {
        match self {
            Experiment::Ablation => 0xAB1A,
            _ => SEED,
        }
    }

    /// The Monte Carlo batches the experiment runs (none for the
    /// performance sweep).
    fn batches(self, work: u64) -> Vec<Batch> {
        let base = Scenario::isca16_baseline();
        let no_repl = base.clone().with_replacement(ReplacementPolicy::None);
        match self {
            Experiment::Hashing => {
                let ff = no_repl
                    .clone()
                    .with_mechanism(Mechanism::FreeFault { max_ways: 1 });
                let rf = no_repl.with_mechanism(Mechanism::RelaxFault { max_ways: 1 });
                vec![Batch::new(
                    vec![
                        ff.clone().without_set_hashing(),
                        ff,
                        rf.clone().without_set_hashing(),
                        rf,
                    ],
                    work,
                )]
            }
            Experiment::Sensitivity => {
                let factor = FACTOR_SWEEP.map(|f| {
                    let mut s = base.clone();
                    s.fault_model.variation.accel_factor = f;
                    s
                });
                let fraction = FRACTION_SWEEP.map(|p| {
                    let mut s = base.clone();
                    s.fault_model.variation.accel_node_fraction = p;
                    s.fault_model.variation.accel_dimm_fraction = p;
                    s
                });
                factor
                    .into_iter()
                    .chain(fraction)
                    .map(|s| Batch {
                        population: true,
                        ..Batch::new(vec![s], work)
                    })
                    .collect()
            }
            Experiment::Coverage1x => vec![Batch::new(coverage_arms(1.0), work)],
            Experiment::Coverage10x => vec![Batch::new(coverage_arms(10.0), work)],
            Experiment::Reliability1x => vec![Batch::new(reliability_arms(1.0), work)],
            Experiment::Reliability10x => vec![Batch::new(reliability_arms(10.0), work)],
            Experiment::Performance => Vec::new(),
            Experiment::Ablation => {
                let mut uniform = base.clone();
                uniform.fault_model = FaultModel::uniform(FitRates::cielo(), 6.0);
                let cv = DEVICE_CVS.map(|cv| {
                    let mut s = no_repl
                        .clone()
                        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 });
                    s.fault_model.variation.device_cv = cv;
                    s
                });
                let mut spares: Vec<Scenario> = SPARE_CONFIGS
                    .iter()
                    .map(|&(banks_per_group, spares_per_group)| {
                        no_repl.clone().with_mechanism(Mechanism::PprCustom {
                            banks_per_group,
                            spares_per_group,
                        })
                    })
                    .collect();
                spares.push(
                    no_repl
                        .clone()
                        .with_mechanism(Mechanism::RelaxFault { max_ways: 1 }),
                );
                let mut preempt: Vec<Scenario> = PREEMPTS
                    .iter()
                    .map(|&p| {
                        let mut s = base
                            .clone()
                            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 });
                        s.ecc.p_repair_preempts_due = p;
                        s
                    })
                    .collect();
                preempt.push(base.clone()); // the no-repair reference
                let gaps = [
                    Mechanism::Ppr,
                    Mechanism::FreeFault { max_ways: 1 },
                    Mechanism::RelaxFault { max_ways: 1 },
                    Mechanism::RelaxFault { max_ways: 4 },
                ]
                .map(|m| no_repl.clone().with_mechanism(m));
                vec![
                    Batch::new(vec![uniform, base], work * 2),
                    Batch::new(cv.to_vec(), work),
                    Batch::new(spares, work),
                    Batch::new(preempt, work * 3),
                    Batch::new(gaps.to_vec(), work),
                ]
            }
        }
    }

    /// The experiment's inputs at `work`: what its record's digest covers.
    /// Each arm carries its builder knobs plus a digest of its full
    /// configuration, so a changed model parameter changes the digest.
    pub fn inputs(self, work: u64) -> Value {
        let mut v = Value::object([
            ("experiment", Value::from(self.name())),
            ("seed", Value::from(self.seed())),
            ("work", Value::from(work)),
        ]);
        if self == Experiment::Performance {
            let cfg = perf::sweep_config(work);
            let workloads = catalog::all();
            v.set(
                "workloads",
                Value::Array(
                    workloads
                        .iter()
                        .map(|w| Value::from(w.name.as_str()))
                        .collect(),
                ),
            );
            v.set(
                "config",
                persist::hex(persist::digest_debug(&(&cfg, &workloads, &LOSSES))),
            );
        } else {
            let batches = self.batches(work).iter().map(Batch::to_json).collect();
            v.set("batches", Value::Array(batches));
        }
        v
    }

    /// Runs the experiment's simulations once.
    fn run(self, work: u64) -> Results {
        obs::counter("paper.experiments_computed").inc();
        match self {
            Experiment::Performance => Results {
                perf: perf::performance_sweep(work, self.seed()),
                ..Results::default()
            },
            Experiment::Reliability1x => Results {
                arms: reliability_matrix(1.0, work),
                ..Results::default()
            },
            Experiment::Reliability10x => Results {
                arms: reliability_matrix(10.0, work),
                ..Results::default()
            },
            _ => {
                let mut results = Results::default();
                for b in self.batches(work) {
                    if b.population {
                        let s = &b.arms[0];
                        results.populations.push(fault_population(
                            &s.fault_model,
                            &s.dram,
                            b.trials,
                            self.seed(),
                            num_threads(),
                        ));
                    }
                    results
                        .arms
                        .extend(run_scenarios(&b.arms, &run_config(b.trials, self.seed())));
                }
                results
            }
        }
    }
}

/// Arms evaluated together over one fault population.
struct Batch {
    arms: Vec<Scenario>,
    trials: u64,
    /// Whether the batch also samples Figure 9's population statistics.
    population: bool,
}

impl Batch {
    fn new(arms: Vec<Scenario>, trials: u64) -> Self {
        Self {
            arms,
            trials,
            population: false,
        }
    }

    fn to_json(&self) -> Value {
        let arms = self
            .arms
            .iter()
            .map(|s| {
                let mut arm = s.to_json();
                arm.set("config", persist::hex(persist::digest_debug(s)));
                arm
            })
            .collect();
        Value::object([
            ("trials", Value::from(self.trials)),
            ("population", Value::from(self.population)),
            ("arms", Value::Array(arms)),
        ])
    }
}

fn run_config(trials: u64, seed: u64) -> RunConfig {
    RunConfig {
        trials,
        seed,
        threads: num_threads(),
        chunk_size: 0,
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Figures 10/11's arms: PPR, then FreeFault and RelaxFault at 1, 4 and
/// 16 ways, without replacement.
fn coverage_arms(fit_scale: f64) -> Vec<Scenario> {
    let base = Scenario::isca16_baseline()
        .with_replacement(ReplacementPolicy::None)
        .with_fit_scale(fit_scale);
    let mut arms = vec![base.clone().with_mechanism(Mechanism::Ppr)];
    for ways in [1, 4, 16] {
        arms.push(
            base.clone()
                .with_mechanism(Mechanism::FreeFault { max_ways: ways }),
        );
    }
    for ways in [1, 4, 16] {
        arms.push(
            base.clone()
                .with_mechanism(Mechanism::RelaxFault { max_ways: ways }),
        );
    }
    arms
}

/// The Figures 12–14 mechanisms, one table row each: no repair, PPR,
/// then FreeFault and RelaxFault at 1 and 4 ways.
const RELIABILITY_ROWS: [(&str, &[Mechanism]); 4] = [
    ("No repair", &[Mechanism::None]),
    ("PPR", &[Mechanism::Ppr]),
    (
        "FreeFault",
        &[
            Mechanism::FreeFault { max_ways: 1 },
            Mechanism::FreeFault { max_ways: 4 },
        ],
    ),
    (
        "RelaxFault",
        &[
            Mechanism::RelaxFault { max_ways: 1 },
            Mechanism::RelaxFault { max_ways: 4 },
        ],
    ),
];

/// The Figures 12–14 arms: every mechanism under ReplA, then every
/// mechanism under ReplB.
fn reliability_arms(fit_scale: f64) -> Vec<Scenario> {
    let base = Scenario::isca16_baseline().with_fit_scale(fit_scale);
    let replb = ReplacementPolicy::AfterErrors {
        trigger_prob: Scenario::REPLB_TRIGGER,
    };
    let mechanisms = RELIABILITY_ROWS.iter().flat_map(|(_, ms)| ms.iter());
    let repla: Vec<Scenario> = mechanisms
        .clone()
        .map(|m| base.clone().with_mechanism(*m))
        .collect();
    let replb = mechanisms.map(|m| base.clone().with_mechanism(*m).with_replacement(replb));
    repla.into_iter().chain(replb).collect()
}

/// Figures 12–14's simulation at one FIT scale: expected DUEs, SDCs and
/// DIMM replacements per system under ReplA and ReplB, every arm over one
/// fault population.
pub fn reliability_matrix(fit_scale: f64, trials: u64) -> Vec<ScenarioResult> {
    obs::counter("bench.reliability_matrix.calls").inc();
    run_scenarios(&reliability_arms(fit_scale), &run_config(trials, SEED))
}

/// An experiment's raw results.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Results {
    /// Every arm's result, batch after batch.
    pub arms: Vec<ScenarioResult>,
    /// Fault-population statistics, one per batch that samples them.
    pub populations: Vec<PopulationStats>,
    /// Per-workload performance rows.
    pub perf: Vec<PerfRow>,
}

/// One experiment's persisted run: inputs, their digest, the run
/// manifest, and the raw results every view renders from.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Which experiment ran.
    pub experiment: Experiment,
    /// The work it ran: node trials per arm, or instructions per core.
    pub work: u64,
    /// [`Experiment::inputs`] at `work`.
    pub inputs: Value,
    /// FNV-1a digest of `inputs`' compact JSON text.
    pub digest: u64,
    /// The engine's trial-lane mode during the run.
    pub lanes: String,
    /// The commit the run was built from.
    pub git_sha: String,
    /// The raw results.
    pub results: Results,
}

/// FNV-1a digest of an experiment's inputs (their compact JSON text).
fn input_digest(inputs: &Value) -> u64 {
    obs::fnv1a(inputs.to_string().as_bytes())
}

impl ExperimentRecord {
    /// Runs `experiment` at `work` and records the run.
    pub fn compute(experiment: Experiment, work: u64) -> Self {
        let inputs = experiment.inputs(work);
        let results = experiment.run(work);
        Self {
            experiment,
            work,
            digest: input_digest(&inputs),
            inputs,
            lanes: lanes::mode().label().to_string(),
            git_sha: obs::git_sha(),
            results,
        }
    }

    /// How many arms and population samples the inputs promise, and how
    /// many workloads.
    fn expected_shape(&self) -> (usize, usize, usize) {
        let batches = self.inputs.get("batches").and_then(Value::as_array);
        let batches = batches.unwrap_or_default();
        let arms = batches
            .iter()
            .filter_map(|b| b.get("arms").and_then(Value::as_array))
            .map(<[Value]>::len)
            .sum();
        let populations = batches
            .iter()
            .filter(|b| b.get("population").and_then(Value::as_bool) == Some(true))
            .count();
        let workloads = self.inputs.get("workloads").and_then(Value::as_array);
        (arms, populations, workloads.map_or(0, <[Value]>::len))
    }
}

fn encode_all<T>(xs: &[T], f: fn(&T) -> Value) -> Value {
    Value::Array(xs.iter().map(f).collect())
}

fn decode_all<T>(
    v: &Value,
    key: &str,
    f: fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("results.{key} must be an array"))?
        .iter()
        .enumerate()
        .map(|(i, x)| f(x).map_err(|e| format!("results.{key}[{i}]: {e}")))
        .collect()
}

impl Persist for ExperimentRecord {
    const KIND: &'static str = RECORD_KIND;
    const SCHEMA_VERSION: u64 = 1;

    fn to_json(&self) -> Value {
        Value::object([
            ("schema_version", Value::from(Self::SCHEMA_VERSION)),
            ("kind", Value::from(Self::KIND)),
            ("experiment", Value::from(self.experiment.name())),
            ("digest", persist::hex(self.digest)),
            ("inputs", self.inputs.clone()),
            (
                "manifest",
                Value::object([
                    ("seed", Value::from(self.experiment.seed())),
                    ("work", Value::from(self.work)),
                    ("lanes", Value::from(self.lanes.as_str())),
                    ("git_sha", Value::from(self.git_sha.as_str())),
                ]),
            ),
            (
                "results",
                Value::object([
                    (
                        "arms",
                        encode_all(&self.results.arms, ScenarioResult::to_json),
                    ),
                    (
                        "populations",
                        encode_all(&self.results.populations, PopulationStats::to_json),
                    ),
                    ("perf", encode_all(&self.results.perf, PerfRow::to_json)),
                ]),
            ),
        ])
    }

    /// Strict decode: besides every field, the stored digest must match
    /// the stored inputs, the manifest must agree with them, and the
    /// results must have the shape the inputs promise.
    fn from_json(v: &Value) -> Result<Self, String> {
        Self::check_header(v)?;
        let name = v
            .get("experiment")
            .and_then(Value::as_str)
            .ok_or("experiment must be a string")?;
        let experiment =
            Experiment::from_name(name).ok_or_else(|| format!("unknown experiment {name:?}"))?;
        let inputs = v.get("inputs").cloned().ok_or("missing inputs")?;
        let digest = persist::parse_hex_field(v, "digest")?;
        let derived = input_digest(&inputs);
        if digest != derived {
            return Err(format!(
                "digest {digest:#018x} does not match its inputs (they digest to {derived:#018x})"
            ));
        }
        let manifest = v.get("manifest").ok_or("missing manifest")?;
        let work = persist::parse_u64_field(manifest, "work")?;
        for key in ["seed", "work"] {
            let stored = persist::parse_u64_field(manifest, key)?;
            if persist::parse_u64_field(&inputs, key)? != stored {
                return Err(format!("manifest {key} {stored} disagrees with the inputs"));
            }
        }
        if inputs.get("experiment").and_then(Value::as_str) != Some(name) {
            return Err(format!("inputs are not those of experiment {name:?}"));
        }
        let text = |key: &str| {
            manifest
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest {key} must be a string"))
        };
        let results = v.get("results").ok_or("missing results")?;
        let record = Self {
            experiment,
            work,
            digest,
            lanes: text("lanes")?,
            git_sha: text("git_sha")?,
            results: Results {
                arms: decode_all(results, "arms", ScenarioResult::from_json)?,
                populations: decode_all(results, "populations", PopulationStats::from_json)?,
                perf: decode_all(results, "perf", PerfRow::from_json)?,
            },
            inputs,
        };
        let r = &record.results;
        let found = (r.arms.len(), r.populations.len(), r.perf.len());
        if found != record.expected_shape() {
            return Err(format!(
                "results hold (arms, populations, workloads) = {found:?}, inputs promise {:?}",
                record.expected_shape()
            ));
        }
        Ok(record)
    }
}

/// One rendered output: the `emit` file stem, its title line, and the
/// table.
#[derive(Debug, Clone)]
pub struct View {
    /// File stem under the results directory.
    pub name: &'static str,
    /// Title line of the `.txt`/`.json` outputs.
    pub title: String,
    /// The table.
    pub table: Table,
}

fn view(name: &'static str, title: impl Into<String>, table: Table) -> View {
    View {
        name,
        title: title.into(),
        table,
    }
}

/// Renders a record's figures. Pure: the same record always renders the
/// same bytes.
pub fn views(record: &ExperimentRecord) -> Vec<View> {
    let r = &record.results;
    let w = record.work;
    match record.experiment {
        Experiment::Hashing => vec![view(
            "fig08_hashing",
            format!("Figure 8: coverage vs set-index hashing ({w} node trials)"),
            hashing_table(&r.arms),
        )],
        Experiment::Sensitivity => {
            let (factor, fraction) = sensitivity_tables(r);
            vec![
                view(
                    "fig09a_factor",
                    format!("Figure 9a/9b: sweep of FIT acceleration at 0.1% of nodes+DIMMs ({w} trials/point)"),
                    factor,
                ),
                view(
                    "fig09c_fraction",
                    format!("Figure 9c/9d: sweep of accelerated fraction at 100x ({w} trials/point)"),
                    fraction,
                ),
            ]
        }
        Experiment::Coverage1x => vec![view(
            "fig10_coverage",
            format!("Figure 10: coverage vs LLC capacity, 1x FIT ({w} node trials)"),
            coverage_table(&r.arms),
        )],
        Experiment::Coverage10x => vec![view(
            "fig11_coverage_10x",
            format!("Figure 11: coverage vs LLC capacity, 10x FIT ({w} node trials)"),
            coverage_table(&r.arms),
        )],
        Experiment::Reliability1x => reliability_views(
            &r.arms,
            "1x",
            w,
            [
                "fig12a_dues_1x",
                "fig13a_sdcs_1x",
                "fig14a_repl_due_1x",
                "fig14c_repl_errors_1x",
            ],
            ["12a", "13a", "14a", "14c"],
        ),
        Experiment::Reliability10x => reliability_views(
            &r.arms,
            "10x",
            w,
            [
                "fig12b_dues_10x",
                "fig13b_sdcs_10x",
                "fig14b_repl_due_10x",
                "fig14d_repl_errors_10x",
            ],
            ["12b", "13b", "14b", "14d"],
        ),
        Experiment::Performance => vec![
            view(
                "fig15_performance",
                format!("Figure 15: weighted speedup vs LLC repair capacity ({w} instr/core)"),
                perf::fig15_table(&r.perf),
            ),
            view(
                "fig16_power",
                format!("Figure 16: relative DRAM dynamic power ({w} instr/core)"),
                perf::fig16_table(&r.perf),
            ),
        ],
        Experiment::Ablation => ablation_views(&r.arms),
    }
}

fn hashing_table(arms: &[ScenarioResult]) -> Table {
    let paper = ["74.0%", "84.2%", "89.0%", "90.3%"];
    let labels = [
        "FreeFault (no hash)",
        "FreeFault (hash)",
        "RelaxFault (no hash)",
        "RelaxFault (hash)",
    ];
    let mut t = Table::new(&["mechanism", "coverage", "paper"]);
    for ((label, r), p) in labels.iter().zip(arms).zip(paper) {
        t.row(&[label.to_string(), format_pct(r.coverage()), p.to_string()]);
    }
    t
}

fn sensitivity_tables(r: &Results) -> (Table, Table) {
    let headers = |first: &str| {
        Table::new(&[
            first,
            "faulty nodes",
            "multi-device DIMMs",
            "DUEs",
            "SDCs",
            "replacements",
        ])
    };
    let row = |t: &mut Table, label: String, i: usize| {
        let (pop, arm) = (&r.populations[i], &r.arms[i]);
        t.row(&[
            label,
            format!("{:.0}", pop.per_system(pop.faulty_nodes, SYSTEM_NODES)),
            format!(
                "{:.0}",
                pop.per_system(pop.multi_device_dimms, SYSTEM_NODES)
            ),
            format!("{:.2}", arm.dues_per_system(SYSTEM_NODES)),
            format!("{:.4}", arm.sdcs_per_system(SYSTEM_NODES)),
            format!("{:.2}", arm.replacements_per_system(SYSTEM_NODES)),
        ]);
    };
    let mut factor = headers("acceleration");
    for (i, f) in FACTOR_SWEEP.iter().enumerate() {
        row(&mut factor, format!("{f:.0}x"), i);
    }
    let mut fraction = headers("accel fraction");
    for (i, p) in FRACTION_SWEEP.iter().enumerate() {
        row(
            &mut fraction,
            format!("{:.2}%", p * 100.0),
            FACTOR_SWEEP.len() + i,
        );
    }
    (factor, fraction)
}

/// Cumulative coverage vs required LLC capacity, one column per arm.
fn coverage_table(arms: &[ScenarioResult]) -> Table {
    let mut arms = arms.to_vec();
    let caps: [u64; 11] = [
        64,
        16 << 10,
        32 << 10,
        64 << 10,
        82 << 10,
        128 << 10,
        192 << 10,
        256 << 10,
        512 << 10,
        1 << 20,
        2 << 20,
    ];
    let mut headers = vec!["capacity".to_string()];
    headers.extend(arms.iter().map(|r| r.label.clone()));
    let mut t = Table::new(&headers);
    for cap in caps {
        let mut row = vec![format_bytes(cap)];
        for r in arms.iter_mut() {
            // PPR uses no LLC: its coverage is flat.
            let v = if r.label == "PPR" {
                r.coverage()
            } else {
                r.coverage_at_bytes(cap)
            };
            row.push(format_pct(v));
        }
        t.row(&row);
    }
    let mut tail = vec!["(way-limit only)".to_string()];
    tail.extend(arms.iter().map(|r| format_pct(r.coverage())));
    t.row(&tail);
    t
}

/// Figures 12–14 at one FIT scale: DUEs, SDCs, and replacements under
/// ReplA and ReplB, one row per mechanism.
fn reliability_views(
    arms: &[ScenarioResult],
    fit: &str,
    trials: u64,
    names: [&'static str; 4],
    figures: [&str; 4],
) -> Vec<View> {
    let repla = arms.len() / 2;
    type PerSystem = fn(&ScenarioResult) -> f64;
    let metrics: [(&str, PerSystem, usize); 4] = [
        ("DUEs per system", |r| r.dues_per_system(SYSTEM_NODES), 0),
        ("SDCs per system", |r| r.sdcs_per_system(SYSTEM_NODES), 0),
        (
            "replacements after first DUE",
            |r| r.replacements_per_system(SYSTEM_NODES),
            0,
        ),
        (
            "replacements after frequent errors",
            |r| r.replacements_per_system(SYSTEM_NODES),
            repla,
        ),
    ];
    let mut views = Vec::new();
    for (k, (what, value, offset)) in metrics.into_iter().enumerate() {
        let mut t = Table::new(&["mechanism", "no-repair/1-way", "4-way"]);
        let mut idx = offset;
        for (row, ms) in RELIABILITY_ROWS {
            let cell = |i: usize| format!("{:.3}", value(&arms[i]));
            let four = if ms.len() > 1 {
                cell(idx + 1)
            } else {
                "-".into()
            };
            t.row(&[row.to_string(), cell(idx), four]);
            idx += ms.len();
        }
        let unit = if k < 2 { "node trials" } else { "trials" };
        views.push(view(
            names[k],
            format!("Figure {}: {what}, {fit} FIT ({trials} {unit})", figures[k]),
            t,
        ));
    }
    views
}

fn ablation_views(arms: &[ScenarioResult]) -> Vec<View> {
    let (models, rest) = arms.split_at(2);
    let (cvs, rest) = rest.split_at(DEVICE_CVS.len());
    let (spares, rest) = rest.split_at(SPARE_CONFIGS.len() + 1);
    let (preempt, gaps) = rest.split_at(PREEMPTS.len() + 1);

    let mut t1 = Table::new(&["fault model", "DUEs/system", "replacements/system"]);
    for (name, res) in ["uniform (prior work)", "refined (Eq. 1 + lognormal)"]
        .iter()
        .zip(models)
    {
        t1.row(&[
            name.to_string(),
            format!("{:.2}", res.dues_per_system(SYSTEM_NODES)),
            format!("{:.2}", res.replacements_per_system(SYSTEM_NODES)),
        ]);
    }

    let mut t2 = Table::new(&["device CV", "coverage", "faulty nodes/system"]);
    for (cv, res) in DEVICE_CVS.iter().zip(cvs) {
        t2.row(&[
            format!("{cv}"),
            format_pct(res.coverage()),
            format!("{:.0}", res.per_system(res.faulty_nodes, SYSTEM_NODES)),
        ]);
    }

    let mut t3 = Table::new(&["mechanism", "coverage"]);
    for res in spares {
        t3.row(&[res.label.clone(), format_pct(res.coverage())]);
    }

    let baseline = preempt[PREEMPTS.len()].dues_per_system(SYSTEM_NODES);
    let mut t4 = Table::new(&[
        "p(repair preempts DUE)",
        "DUEs/system",
        "reduction vs no repair",
    ]);
    for (p, res) in PREEMPTS.iter().zip(preempt) {
        let d = res.dues_per_system(SYSTEM_NODES);
        t4.row(&[
            format!("{p}"),
            format!("{d:.2}"),
            format_pct(1.0 - d / baseline.max(1e-9)),
        ]);
    }

    let mut headers = vec!["mechanism".to_string()];
    headers.extend(FaultMode::ALL.iter().map(|m| m.label().to_string()));
    let mut t5 = Table::new(&headers);
    for res in gaps {
        let mut row = vec![res.label.clone()];
        row.extend(
            res.unrepaired_by_mode
                .iter()
                .map(|&n| format!("{:.1}", n as f64 / res.trials as f64 * SYSTEM_NODES as f64)),
        );
        t5.row(&row);
    }

    vec![
        view(
            "ablation1_fault_model",
            "Ablation 1: uniform fault model under-predicts failures (paper §4.1.2)",
            t1,
        ),
        view(
            "ablation2_device_cv",
            "Ablation 2: device-to-device rate variation barely moves coverage (paper: 'results are not sensitive')",
            t2,
        ),
        view(
            "ablation3_ppr_spares",
            "Ablation 3: even generous row sparing cannot reach LLC-based repair (columns/banks stay out of reach)",
            t3,
        ),
        view(
            "ablation4_preemption",
            "Ablation 4: DUE reduction = ordering effect (~arrival symmetry) + detection racing the overlap",
            t4,
        ),
        view(
            "ablation5_gap_fingerprint",
            "Ablation 5: unrepaired faults per system by mode (who fails on what)",
            t5,
        ),
    ]
}

/// The outputs that render model constants alone: Figure 2 / Table 2,
/// Table 1 with the §3.3 energy bounds, and Tables 3 and 4.
pub fn constant_views() -> Vec<View> {
    let mut fit = Table::new(&[
        "fault mode",
        "Cielo transient",
        "Cielo permanent",
        "Hopper transient",
        "Hopper permanent",
    ]);
    let (cielo, hopper) = (FitRates::cielo(), FitRates::hopper());
    for mode in FaultMode::ALL {
        let mut row = vec![mode.label().to_string()];
        for rates in [&cielo, &hopper] {
            for t in [Transience::Transient, Transience::Permanent] {
                row.push(format!("{:.1}", rates.rate(mode, t)));
            }
        }
        fit.row(&row);
    }
    fit.row(&[
        "total".into(),
        format!("{:.1}", cielo.total_transient()),
        format!("{:.1}", cielo.total_permanent()),
        format!("{:.1}", hopper.total_transient()),
        format!("{:.1}", hopper.total_permanent()),
    ]);

    let o = StorageOverhead::for_system(
        &DramConfig::isca16_reliability(),
        &CacheConfig::isca16_llc(),
    );
    let mut storage = Table::new(&["component", "bytes", "description"]);
    for (component, bytes, description) in [
        (
            "faulty-bank table",
            o.faulty_bank_table,
            "1 bit per bank per DIMM",
        ),
        (
            "data coalescer",
            o.data_coalescer,
            "pre-computed per-device bitmasks",
        ),
        (
            "LLC tag extension",
            o.llc_tag_extension,
            "1 bit per LLC line",
        ),
        ("total", o.total(), "(paper: 16,520)"),
    ] {
        storage.row(&[component.into(), bytes.to_string(), description.into()]);
    }

    let e = EnergyOverhead::isca16();
    let mut energy = Table::new(&["quantity", "value"]);
    energy.row(&["tag lookup".into(), format!("{} nJ", e.tag_lookup_nj)]);
    energy.row(&[
        "metadata vs LLC access".into(),
        format!(
            "{:.2}% (paper bound: <1.5%)",
            e.metadata_vs_llc_access() * 100.0
        ),
    ]);
    energy.row(&[
        "metadata vs DRAM miss".into(),
        format!(
            "{:.3}% (paper bound: <0.03%)",
            e.metadata_vs_dram_miss() * 100.0
        ),
    ]);

    vec![
        view(
            "fig02_table2",
            "Figure 2 / Table 2: FIT per device by fault mode",
            fit,
        ),
        view(
            "table1_overhead",
            "Table 1: RelaxFault storage overhead",
            storage,
        ),
        view(
            "table1_energy",
            "Section 3.3: energy overhead bounds",
            energy,
        ),
        view(
            "table3_config",
            "Table 3: simulated system parameters",
            config_table(&SimConfig::isca16()),
        ),
        view(
            "table4_workloads",
            "Table 4: workloads (synthetic stand-ins)",
            perf::table4(),
        ),
    ]
}

/// Table 3: the simulated system's parameters.
fn config_table(c: &SimConfig) -> Table {
    let cache = |size: u64, ways, latency, scope: &str| {
        format!(
            "{}, {scope}, {ways}-way, 64B line, {latency}-cycle",
            format_bytes(size)
        )
    };
    let mut t = Table::new(&["component", "configuration"]);
    t.row(&[
        "Processor".into(),
        format!(
            "{}-core, {} GHz, 4-way OOO (base IPC {})",
            c.cores,
            c.core_mhz / 1000,
            c.base_ipc
        ),
    ]);
    t.row(&[
        "L1 D-cache".into(),
        cache(c.l1.size_bytes, c.l1.ways, c.l1_latency, "private"),
    ]);
    t.row(&[
        "L2 cache".into(),
        cache(c.l2.size_bytes, c.l2.ways, c.l2_latency, "private"),
    ]);
    t.row(&[
        "L3 cache".into(),
        format!(
            "{} shared, {}-way, 64B line, {}-cycle, hashed index",
            format_bytes(c.llc.size_bytes),
            c.llc.ways,
            c.llc_latency
        ),
    ]);
    t.row(&[
        "Memory controller".to_string(),
        "open-page policy, channel/rank/bank interleaving, bank XOR hashing".to_string(),
    ]);
    t.row(&[
        "Main memory".into(),
        format!(
            "{} channels, {} ranks/channel, {} banks/rank, DDR3-1600 ({}-{}-{})",
            c.dram.channels,
            c.dram.dimms_per_channel * c.dram.ranks_per_dimm,
            c.dram.banks,
            c.timing.t_cl,
            c.timing.t_rcd,
            c.timing.t_rp
        ),
    ]);
    t
}

/// How [`run`] treats existing records.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Multiplier on every experiment's default work (floored at
    /// [`MIN_WORK`]).
    pub scale: f64,
    /// Reuse each record whose digest matches the current inputs.
    pub resume: bool,
}

/// Whether [`run`] computed an experiment or reused its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The experiment ran and its record was (re)written.
    Computed,
    /// A digest-matching record was reused.
    Reused,
}

/// Where experiment records live: `<results>/records/`.
fn records_dir() -> PathBuf {
    Path::new(&obs::results_dir()).join("records")
}

/// The record file of `experiment`.
fn record_path(experiment: Experiment) -> PathBuf {
    records_dir().join(format!("{}.json", experiment.name()))
}

/// Runs the paper: emits the constant views, then runs each experiment
/// in order (or, under `resume`, reuses its digest-matching record) and
/// emits its views. Temp files left by a killed record write are removed
/// first.
///
/// # Errors
///
/// Fails on an unreadable or corrupt record (named by path, never
/// silently recomputed) and on any record or output write failure.
pub fn run(opts: &Options) -> Result<Vec<(Experiment, Outcome)>, String> {
    remove_stray_temps(&records_dir())?;
    let emit_all = |views: Vec<View>| -> Result<(), String> {
        for v in views {
            emit(v.name, &v.title, &v.table).map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    emit_all(constant_views())?;
    let mut outcomes = Vec::new();
    for exp in Experiment::ALL {
        let work = exp.work(opts.scale);
        let path = record_path(exp);
        let inputs = exp.inputs(work);
        let reused = if opts.resume && path.exists() {
            Some(ExperimentRecord::load(&path)?)
                .filter(|r| r.experiment == exp && r.digest == input_digest(&inputs))
        } else {
            None
        };
        let (record, outcome) = match reused {
            Some(record) => {
                println!("paper: {} Reused", exp.name());
                (record, Outcome::Reused)
            }
            None => {
                println!("paper: running {} (work {work})", exp.name());
                let start = std::time::Instant::now();
                let record = ExperimentRecord::compute(exp, work);
                record.save(&path)?;
                let secs = start.elapsed().as_secs_f64();
                println!("paper: {} Computed in {secs:.2} s", exp.name());
                (record, Outcome::Computed)
            }
        };
        emit_all(views(&record))?;
        outcomes.push((exp, outcome));
    }
    Ok(outcomes)
}

/// Deletes `*.tmp.<pid>` files a killed [`Persist::save`] left in `dir`.
fn remove_stray_temps(dir: &Path) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // no records yet
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.contains(".tmp."))
        {
            std::fs::remove_file(&path)
                .map_err(|e| format!("{}: cannot remove stale temp file: {e}", path.display()))?;
        }
    }
    Ok(())
}
