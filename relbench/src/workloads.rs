//! The four workloads, their inputs and their untraced (end-to-end) runs.

use crate::report::{latency_metrics, median, peak_rss_mb, Metric, Outcome};
use relaxfault_core::plan::{FreeFault, Ppr, RelaxFault, RepairMechanism};
use relaxfault_faults::FaultSampler;
use relaxfault_perfsim::workload::catalog;
use relaxfault_perfsim::{CapacityLoss, SimConfig, SimResult, Simulation, Workload};
use relaxfault_relsim::engine::{run_scenarios, run_scenarios_with_lanes, RunConfig};
use relaxfault_relsim::fleet::{FleetConfig, FleetSim};
use relaxfault_relsim::scenario::{Mechanism, ReplacementPolicy, Scenario};
use relaxfault_util::lanes::LaneMode;
use relaxfault_util::rng::mix64;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Figure 10 arm mix at 1x FIT, no replacement.
    Coverage1x,
    /// Figures 12-14 matrix at 10x FIT, ReplA and ReplB.
    Reliability10x,
    /// The `fleet_forecast` configuration through `FleetSim`.
    Fleet1x,
    /// Table 4 catalog crossed with the Figure 15 capacity losses.
    PerfsimMix,
}

impl WorkloadId {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Coverage1x,
        WorkloadId::Reliability10x,
        WorkloadId::Fleet1x,
        WorkloadId::PerfsimMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Coverage1x => "coverage_1x",
            WorkloadId::Reliability10x => "reliability_10x",
            WorkloadId::Fleet1x => "fleet_1x",
            WorkloadId::PerfsimMix => "perfsim_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<WorkloadId> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The relsim arms whose engine stage the traced run drives. `perfsim_mix`
    /// has no relsim arms of its own and borrows `coverage_1x`'s.
    pub fn relsim_arms(self) -> Vec<Scenario> {
        match self {
            WorkloadId::Coverage1x | WorkloadId::PerfsimMix => coverage_arms(),
            WorkloadId::Reliability10x => reliability_arms(),
            WorkloadId::Fleet1x => fleet_arms(),
        }
    }
}

/// Run sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] is the
/// self-test smoke size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured seconds per untraced run.
    pub seconds: f64,
    /// Operations a run must hold at least (100 puts ten samples beyond
    /// p90).
    pub min_ops: usize,
    /// Trials per `coverage_1x` engine batch.
    pub coverage_batch: u64,
    /// Trials per `reliability_10x` engine batch.
    pub reliability_batch: u64,
    /// Fleet size of `fleet_1x`.
    pub fleet_nodes: u64,
    /// Fleet epochs of `fleet_1x`.
    pub fleet_epochs: u32,
    /// Instructions per core of each `perfsim_mix` simulation.
    pub perf_instr: u64,
    /// Trials of the traced engine stage, per workload (`ALL` order).
    pub trace_trials: [u64; 4],
    /// Fleet size of the traced run's fleet layer on non-fleet workloads.
    pub companion_fleet_nodes: u64,
    /// Instructions per core of the traced run's perfsim layer on
    /// non-perfsim workloads.
    pub companion_perf_instr: u64,
}

impl Scale {
    /// The benchmark's sizes; `seconds` comes from `--seconds`.
    pub fn full(seconds: f64) -> Self {
        Self {
            seconds,
            min_ops: 100,
            coverage_batch: 16_384,
            reliability_batch: 2_048,
            fleet_nodes: 1_000_000,
            fleet_epochs: 20,
            perf_instr: 100_000,
            trace_trials: [200_000, 16_384, 200_000, 50_000],
            companion_fleet_nodes: 50_000,
            companion_perf_instr: 20_000,
        }
    }

    /// A seconds-long smoke size for the self-tests.
    pub fn tiny() -> Self {
        Self {
            seconds: 0.0,
            min_ops: 3,
            coverage_batch: 512,
            reliability_batch: 128,
            fleet_nodes: 3_000,
            fleet_epochs: 4,
            perf_instr: 2_000,
            trace_trials: [2_000, 500, 2_000, 1_000],
            companion_fleet_nodes: 2_000,
            companion_perf_instr: 1_000,
        }
    }
}

/// Every this-many-th engine batch is re-run on the reference path.
const CHECK_EVERY: u64 = 16;

/// Worker threads: pinned to 2, never more than the machine has.
pub fn threads() -> usize {
    2.min(nproc())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Deterministic sub-seed `k` of a workload seed.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    mix64(seed, k, 0xBE7C)
}

/// Figure 10 arms: PPR, then FreeFault and RelaxFault at 1, 4 and 16 ways,
/// 1x FIT, no replacement.
pub fn coverage_arms() -> Vec<Scenario> {
    let base = Scenario::isca16_baseline().with_replacement(ReplacementPolicy::None);
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

/// Figures 12-14 arms at 10x FIT: No repair, PPR, FreeFault and RelaxFault
/// at 1 and 4 ways, each under ReplA and then ReplB.
pub fn reliability_arms() -> Vec<Scenario> {
    let base = Scenario::isca16_baseline().with_fit_scale(10.0);
    let mechanisms = [
        Mechanism::None,
        Mechanism::Ppr,
        Mechanism::FreeFault { max_ways: 1 },
        Mechanism::FreeFault { max_ways: 4 },
        Mechanism::RelaxFault { max_ways: 1 },
        Mechanism::RelaxFault { max_ways: 4 },
    ];
    let replb = ReplacementPolicy::AfterErrors {
        trigger_prob: Scenario::REPLB_TRIGGER,
    };
    let mut arms: Vec<Scenario> = mechanisms
        .iter()
        .map(|m| base.clone().with_mechanism(*m))
        .collect();
    arms.extend(
        mechanisms
            .iter()
            .map(|m| base.clone().with_mechanism(*m).with_replacement(replb)),
    );
    arms
}

/// The `fleet_forecast` arms: No repair, RelaxFault-4way and PPR at 1x FIT,
/// ReplA.
pub fn fleet_arms() -> Vec<Scenario> {
    let base = Scenario::isca16_baseline();
    vec![
        base.clone().with_mechanism(Mechanism::None),
        base.clone()
            .with_mechanism(Mechanism::RelaxFault { max_ways: 4 }),
        base.with_mechanism(Mechanism::Ppr),
    ]
}

/// One planner of the `plan` layer.
pub type Planner = Box<dyn RepairMechanism + Send>;

/// The seven replayed planners, in [`crate::report::PLAN_ARMS`] order, on
/// the geometry of `arm`.
pub fn plan_arms(arm: &Scenario) -> Vec<Planner> {
    let (d, l) = (&arm.dram, &arm.llc);
    let mut v: Vec<Planner> = vec![Box::new(Ppr::new(d))];
    for ways in [1, 4, 16] {
        v.push(Box::new(FreeFault::new(d, l, ways)));
    }
    for ways in [1, 4, 16] {
        v.push(Box::new(RelaxFault::new(d, l, ways)));
    }
    v
}

/// What the engine builds for a batch before its first trial: the arms and
/// one sampler per fault-model group. `run_scenarios` builds the same
/// samplers again in each worker thread, inside the timed batch.
pub struct EngineSetup {
    /// Scenario arms.
    pub arms: Vec<Scenario>,
    /// Arm indices grouped by fault model, in first-appearance order (the
    /// engine's sample-stream groups).
    pub groups: Vec<Vec<usize>>,
    /// One sampler per group.
    pub samplers: Vec<FaultSampler>,
}

impl EngineSetup {
    /// Builds the set-up for `arms`.
    pub fn build(arms: Vec<Scenario>) -> Self {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, s) in arms.iter().enumerate() {
            match groups
                .iter_mut()
                .find(|g| arms[g[0]].fault_model == s.fault_model)
            {
                Some(g) => g.push(i),
                None => groups.push(vec![i]),
            }
        }
        let samplers = groups
            .iter()
            .map(|g| FaultSampler::new(&arms[g[0]].fault_model, &arms[g[0]].dram))
            .collect();
        Self {
            arms,
            groups,
            samplers,
        }
    }
}

/// Runs one workload untraced and returns its end-to-end metrics.
pub fn run_untraced(w: WorkloadId, seed: u64, scale: &Scale) -> Outcome {
    match w {
        WorkloadId::Coverage1x => engine_workload(coverage_arms, scale.coverage_batch, seed, scale),
        WorkloadId::Reliability10x => {
            engine_workload(reliability_arms, scale.reliability_batch, seed, scale)
        }
        WorkloadId::Fleet1x => fleet_workload(seed, scale),
        WorkloadId::PerfsimMix => perfsim_workload(seed, scale),
    }
}

/// `peak_rss_mb`, read once the first operation is done and before its
/// output check. Later calls only add allocator churn: the library spawns
/// fresh worker threads per call, and whether one lands on a new malloc
/// arena depends on timing (about 2 MB either way on the engine
/// workloads), not on the program's memory needs.
fn rss_metric(mb: f64, op: &str) -> Metric {
    Metric::new("peak_rss_mb", mb, "MB").with_note(format!("through the first {op}"))
}

/// Whether the measuring loop should run another operation.
fn more(measured: Duration, ops: usize, scale: &Scale) -> bool {
    measured.as_secs_f64() < scale.seconds || ops < scale.min_ops
}

/// `setup_s`: the median of `times`, one set-up per operation (or per
/// fleet), so the set-ups sample the whole run like the operations do.
fn setup_metric(times: &[f64], what: &str) -> Metric {
    Metric::new("setup_s", median(times), "s")
        .with_note(format!("median of {} {what}", times.len()))
}

/// Engine workloads: fixed-size `run_scenarios` batches at pinned threads,
/// each preceded by a timed set-up; every [`CHECK_EVERY`]-th batch is re-run
/// on the scalar single-thread reference path and must compare equal.
fn engine_workload(
    make_arms: fn() -> Vec<Scenario>,
    batch: u64,
    seed: u64,
    scale: &Scale,
) -> Outcome {
    let mut out = Outcome::default();
    let threads = threads();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut measured = Duration::ZERO;
    let mut trials = 0u64;
    let mut n_arms = 0;
    let mut rss = 0.0;
    while more(measured, latencies.len(), scale) {
        let t = Instant::now();
        let stage = black_box(EngineSetup::build(make_arms()));
        setups.push(t.elapsed().as_secs_f64());
        let arms = &stage.arms;
        n_arms = arms.len();
        let b = latencies.len() as u64;
        let run = RunConfig {
            trials: batch,
            seed: sub_seed(seed, b),
            threads,
            chunk_size: 0,
        };
        let t = Instant::now();
        let results = run_scenarios(arms, black_box(&run));
        let dt = t.elapsed();
        measured += dt;
        latencies.push(dt);
        trials += batch;
        if b == 0 {
            rss = peak_rss_mb();
        }
        if b.is_multiple_of(CHECK_EVERY) {
            let reference =
                run_scenarios_with_lanes(arms, &RunConfig { threads: 1, ..run }, LaneMode::Scalar);
            let counted = results.iter().all(|r| r.trials == batch);
            out.check(counted && reference == results, || {
                format!("batch {b}: result differs from the scalar single-thread reference")
            });
        }
    }
    out.metrics.push(setup_metric(&setups, "engine set-ups"));
    out.metrics
        .extend(latency_metrics(&latencies, "engine batches"));
    out.metrics.push(
        Metric::new(
            "work_per_s",
            trials as f64 / measured.as_secs_f64(),
            "work/s",
        )
        .with_note(format!(
            "trials_per_s: {trials} node lifetimes x {n_arms} arms in {:.3} s",
            measured.as_secs_f64()
        )),
    );
    out.metrics.push(rss_metric(rss, "batch"));
    out.notes.push(format!(
        "{} batches of {batch} trials, {n_arms} arms, threads={threads}",
        latencies.len()
    ));
    out
}

/// A fleet configuration at the pinned thread count, without
/// checkpoints.
pub fn fleet_config(nodes: u64, epochs: u32, seed: u64) -> FleetConfig {
    FleetConfig {
        nodes,
        epochs,
        shards: 0,
        seed,
        threads: threads(),
        ckpt_dir: None,
        crash_at: None,
    }
}

/// Checks a finished fleet's totals field by field against `run_scenarios`
/// over the same nodes and seed.
pub fn fleet_matches_engine(sim: &FleetSim, seed: u64) -> Result<(), String> {
    let engine = run_scenarios(
        sim.scenarios(),
        &RunConfig {
            trials: sim.nodes(),
            seed,
            threads: threads(),
            chunk_size: 0,
        },
    );
    for (f, e) in sim.metrics().iter().zip(&engine) {
        let same = f.faulty_nodes == e.faulty_nodes
            && f.fully_repaired_nodes == e.fully_repaired_nodes
            && f.dues == e.dues
            && f.transient_dues == e.transient_dues
            && f.sdcs == e.sdcs
            && f.replacements == e.replacements
            && f.unrepaired_faults == e.unrepaired_faults
            && f.permanent_faults == e.permanent_faults
            && f.max_ways_seen == e.max_ways_seen
            && f.unrepaired_by_mode == e.unrepaired_by_mode;
        if !same {
            return Err(format!("arm {}: fleet {f:?} vs engine {e:?}", e.label));
        }
    }
    Ok(())
}

/// Fleet workload: repeated fresh fleets (`FleetSim::new`, then every
/// epoch through `FleetSim::step`) until enough epochs are measured. The
/// first fleet is cross-checked against the engine. One fleet per process
/// is also what `fleet_forecast` runs, which is what `peak_rss_mb` covers.
fn fleet_workload(seed: u64, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let mut rss = 0.0;
    let (nodes, epochs) = (scale.fleet_nodes, scale.fleet_epochs);
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut measured = Duration::ZERO;
    let mut rep = 0u64;
    while more(measured, latencies.len(), scale) {
        let fleet_seed = sub_seed(seed, rep);
        let t = Instant::now();
        let mut sim = FleetSim::new(fleet_arms(), fleet_config(nodes, epochs, fleet_seed));
        setups.push(t.elapsed().as_secs_f64());
        for _ in 0..epochs {
            let t = Instant::now();
            let stepped = sim.step();
            let dt = t.elapsed();
            measured += dt;
            latencies.push(dt);
            out.check(stepped.is_ok(), || {
                format!("fleet {rep}: step failed: {stepped:?}")
            });
        }
        if rep == 0 {
            rss = peak_rss_mb();
            let verdict = fleet_matches_engine(&sim, fleet_seed);
            out.check(verdict.is_ok(), || format!("fleet {rep}: {verdict:?}"));
        }
        rep += 1;
    }
    out.metrics.push(setup_metric(&setups, "FleetSim::new"));
    out.metrics
        .extend(latency_metrics(&latencies, "fleet epochs"));
    let node_epochs = nodes * latencies.len() as u64;
    out.metrics.push(
        Metric::new(
            "work_per_s",
            node_epochs as f64 / measured.as_secs_f64(),
            "work/s",
        )
        .with_note(format!(
            "node_epochs_per_s: {nodes} nodes x {} epochs in {:.3} s",
            latencies.len(),
            measured.as_secs_f64()
        )),
    );
    out.metrics.push(rss_metric(rss, "fleet"));
    out.notes.push(format!(
        "{rep} fleets of {nodes} nodes x {epochs} epochs, threads={}",
        threads()
    ));
    out
}

/// The perfsim workload's inputs: the machine and the workload catalog.
pub struct PerfSetup {
    /// The Table 3 machine at the run's instruction count.
    pub cfg: SimConfig,
    /// The Table 4 catalog.
    pub workloads: Vec<Workload>,
}

/// The Figure 15 capacity losses.
pub const LOSSES: [CapacityLoss; 4] = [
    CapacityLoss::None,
    CapacityLoss::RandomLines { bytes: 100 << 10 },
    CapacityLoss::Ways(1),
    CapacityLoss::Ways(4),
];

impl PerfSetup {
    /// Builds and validates the machine and the catalog.
    pub fn build(instructions_per_core: u64) -> Self {
        let cfg = SimConfig {
            instructions_per_core,
            ..SimConfig::isca16()
        };
        cfg.validate().expect("Table 3 machine is valid");
        let workloads = catalog::all();
        for w in &workloads {
            w.validate().expect("catalog workload is valid");
        }
        Self { cfg, workloads }
    }
}

/// Simulated instructions across all cores of `r`.
pub fn sim_instructions(r: &SimResult) -> u64 {
    r.per_core.iter().map(|c| c.instructions).sum()
}

/// Perfsim workload: passes over catalog x losses, one `Simulation::run`
/// per pair, each preceded by a timed set-up. After the first pass, one
/// simulation per catalog workload is re-run and must give an equal
/// `SimResult`.
fn perfsim_workload(seed: u64, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut perf = PerfSetup::build(scale.perf_instr);
    let mut latencies = Vec::new();
    let mut measured = Duration::ZERO;
    let mut instructions = 0u64;
    let mut pass = 0u64;
    let mut rss = 0.0;
    while more(measured, latencies.len(), scale) {
        let pass_seed = sub_seed(seed, pass);
        let mut kept = Vec::new();
        for wi in 0..perf.workloads.len() {
            for (li, loss) in LOSSES.iter().enumerate() {
                let t = Instant::now();
                perf = black_box(PerfSetup::build(scale.perf_instr));
                setups.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                let r =
                    Simulation::run(&perf.cfg, &perf.workloads[wi], *loss, black_box(pass_seed));
                let dt = t.elapsed();
                measured += dt;
                latencies.push(dt);
                instructions += sim_instructions(&r);
                if pass == 0 && li == wi % LOSSES.len() {
                    kept.push((wi, li, r));
                }
            }
        }
        if pass == 0 {
            rss = peak_rss_mb();
        }
        for (wi, li, r) in kept {
            let again = Simulation::run(&perf.cfg, &perf.workloads[wi], LOSSES[li], pass_seed);
            out.check(again == r, || {
                format!(
                    "{} under {}: re-run differs",
                    perf.workloads[wi].name,
                    LOSSES[li].label()
                )
            });
        }
        pass += 1;
    }
    out.metrics.push(setup_metric(&setups, "perfsim set-ups"));
    out.metrics
        .extend(latency_metrics(&latencies, "Simulation::run calls"));
    out.metrics.push(
        Metric::new(
            "work_per_s",
            instructions as f64 / 1e6 / measured.as_secs_f64(),
            "work/s",
        )
        .with_note(format!(
            "sim_minstr_per_s: {instructions} instructions in {:.3} s",
            measured.as_secs_f64()
        )),
    );
    out.metrics.push(rss_metric(rss, "pass"));
    out.notes.push(format!(
        "{pass} passes of {} workloads x {} losses at {} instr/core",
        perf.workloads.len(),
        LOSSES.len(),
        scale.perf_instr
    ));
    out
}
