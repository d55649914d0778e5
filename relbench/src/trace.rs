//! The traced run: times the calls into each layer's public functions
//! from here, counts their work, and checks the traced results against
//! the untraced ones.

use crate::report::{Metric, Outcome, PLAN_ARMS};
use crate::workloads::{
    fleet_arms, fleet_config, plan_arms, sim_instructions, sub_seed, threads, EngineSetup,
    PerfSetup, Scale, WorkloadId, LOSSES,
};
use relaxfault_core::plan::PlanScratch;
use relaxfault_ecc::EccOutcome;
use relaxfault_faults::{FaultEvent, FaultRegion, NodeFaults};
use relaxfault_perfsim::Simulation;
use relaxfault_relsim::engine::{
    eval_rng_seed, run_scenarios, sample_rng_seed, RunConfig, ScenarioResult,
};
use relaxfault_relsim::fleet::FleetSim;
use relaxfault_relsim::node::{evaluate_node_with, EvalScratch};
use relaxfault_relsim::scenario::{ReplacementPolicy, Scenario};
use relaxfault_util::rng::{first_u64_from_seed, Rng64};
use relaxfault_util::stats::Ecdf;
use std::time::{Duration, Instant};

/// Trials whose gate verdicts are computed in one timed block (one u64
/// lane word, as in the engine's bit-sliced gate).
const GATE_BLOCK: u64 = 64;

/// One recorded faulty lifetime: its trial index, group, and events.
pub struct Lifetime {
    /// Trial index.
    pub trial: u64,
    /// Sample-stream group.
    pub group: usize,
    /// The sampled lifetime.
    pub node: NodeFaults,
}

/// Busy times and work counts of the engine stage (gate, sampler, node).
#[derive(Default)]
pub struct StageTrace {
    /// Wall time of the whole traced stage.
    pub wall: Duration,
    /// Time spent recording the corpus: benchmark bookkeeping, not engine
    /// work, so it is left out of [`StageTrace::engine`].
    pub recording: Duration,
    /// Time in the zero-fault gate.
    pub gate: Duration,
    /// Time in `sample_faulty_into` (and the gate draw that precedes it).
    pub sampler: Duration,
    /// Time in `evaluate_node_with`.
    pub node: Duration,
    /// Trials run.
    pub trials: u64,
    /// Gate verdicts (trials x groups).
    pub gate_trials: u64,
    /// Gate verdicts that were faulty.
    pub gate_faulty: u64,
    /// Sampler calls.
    pub sampler_calls: u64,
    /// `evaluate_node_with` calls.
    pub node_calls: u64,
    /// Per-arm results, assembled as the engine assembles them.
    pub results: Vec<ScenarioResult>,
    /// Every lifetime that passed the gate.
    pub corpus: Vec<Lifetime>,
}

impl StageTrace {
    /// The engine's busy time: the stage's wall time less the corpus
    /// recording.
    pub fn engine(&self) -> Duration {
        self.wall.saturating_sub(self.recording)
    }

    /// Sum of `f` over every arm's result.
    fn arm_total(&self, f: impl Fn(&ScenarioResult) -> u64) -> u64 {
        self.results.iter().map(f).sum()
    }

    /// Sum of `f` over every recorded lifetime's events.
    fn event_total(&self, f: impl Fn(&FaultEvent) -> u64) -> u64 {
        self.corpus.iter().flat_map(|l| &l.node.events).map(f).sum()
    }
}

fn empty_result(label: String) -> ScenarioResult {
    ScenarioResult {
        label,
        trials: 0,
        faulty_nodes: 0,
        fully_repaired_nodes: 0,
        repair_bytes: Ecdf::new(),
        dues: 0,
        transient_dues: 0,
        sdcs: 0,
        replacements: 0,
        unrepaired_faults: 0,
        permanent_faults: 0,
        max_ways_seen: 0,
        unrepaired_by_mode: [0; 6],
    }
}

/// Drives gate -> sampler -> node for trials `0..trials` at `seed` on one
/// thread, timing each layer's calls. Work counts are derived afterwards
/// from the results and the corpus, so the loop holds no counting beyond
/// the engine's own per-arm accumulation.
pub fn traced_stage(stage: &EngineSetup, trials: u64, seed: u64) -> StageTrace {
    let arms = &stage.arms;
    let mut tr = StageTrace {
        trials,
        results: arms
            .iter()
            .map(|s| empty_result(s.mechanism.label()))
            .collect(),
        ..StageTrace::default()
    };
    let mut scratches: Vec<EvalScratch> = arms.iter().map(|_| EvalScratch::new()).collect();
    let mut node = NodeFaults::default();
    let start = Instant::now();
    let mut block = 0;
    while block < trials {
        let len = GATE_BLOCK.min(trials - block);
        for (gi, members) in stage.groups.iter().enumerate() {
            let sampler = &stage.samplers[gi];
            let t = Instant::now();
            let mut faulty = 0u64;
            for i in 0..len {
                let first = first_u64_from_seed(sample_rng_seed(seed, block + i, gi as u64));
                faulty |= u64::from(!sampler.trial_is_clean_from_first(first)) << i;
            }
            tr.gate += t.elapsed();
            tr.gate_trials += len;
            tr.gate_faulty += u64::from(faulty.count_ones());
            for &si in members {
                tr.results[si].trials += len;
            }
            while faulty != 0 {
                let trial = block + u64::from(faulty.trailing_zeros());
                faulty &= faulty - 1;
                let t = Instant::now();
                let mut rng = Rng64::seed_from_u64(sample_rng_seed(seed, trial, gi as u64));
                let clean = sampler.trial_is_clean(&mut rng);
                sampler.sample_faulty_into(&mut rng, &mut node);
                tr.sampler += t.elapsed();
                assert!(!clean, "gate verdicts disagree at trial {trial}");
                tr.sampler_calls += 1;
                for &si in members {
                    let t = Instant::now();
                    let mut eval_rng = Rng64::seed_from_u64(eval_rng_seed(seed, trial));
                    let out =
                        evaluate_node_with(&arms[si], &node, &mut eval_rng, &mut scratches[si]);
                    tr.node += t.elapsed();
                    tr.node_calls += 1;
                    let r = &mut tr.results[si];
                    r.faulty_nodes += u64::from(out.faulty);
                    r.fully_repaired_nodes += u64::from(out.fully_repaired);
                    if out.fully_repaired {
                        r.repair_bytes.add(out.repair_bytes as f64);
                    }
                    r.dues += u64::from(out.dues);
                    r.transient_dues += u64::from(out.transient_dues);
                    r.sdcs += u64::from(out.sdcs);
                    r.replacements += u64::from(out.replacements);
                    r.unrepaired_faults += u64::from(out.unrepaired_faults);
                    r.permanent_faults += u64::from(out.permanent_faults);
                    r.max_ways_seen = r.max_ways_seen.max(out.max_ways);
                    for (a, b) in r.unrepaired_by_mode.iter_mut().zip(out.unrepaired_by_mode) {
                        *a += u64::from(b);
                    }
                }
                let t = Instant::now();
                tr.corpus.push(Lifetime {
                    trial,
                    group: gi,
                    node: node.clone(),
                });
                tr.recording += t.elapsed();
            }
        }
        block += len;
    }
    tr.wall = start.elapsed();
    tr
}

/// ECC isolation replay: every event of every recorded lifetime is
/// classified against all prior permanent regions of its lifetime.
#[derive(Default)]
pub struct EccTrace {
    /// Time in `classify_arrival`.
    pub busy: Duration,
    /// `classify_arrival` calls.
    pub calls: u64,
    /// Live regions handed to those calls.
    pub live_scanned: u64,
    /// DUE outcomes.
    pub dues: u64,
    /// SDC outcomes.
    pub sdcs: u64,
}

/// Runs the ECC replay over `corpus`.
pub fn ecc_replay(stage: &EngineSetup, corpus: &[Lifetime], seed: u64) -> EccTrace {
    let mut tr = EccTrace::default();
    let mut live: Vec<FaultRegion> = Vec::new();
    for l in corpus {
        let arm = &stage.arms[stage.groups[l.group][0]];
        let mut rng = Rng64::seed_from_u64(eval_rng_seed(seed, l.trial));
        live.clear();
        for ev in &l.node.events {
            let permanent = ev.is_permanent();
            let t = Instant::now();
            let out = arm
                .ecc
                .classify_arrival(&arm.dram, &ev.regions, permanent, &live, &mut rng);
            tr.busy += t.elapsed();
            tr.calls += 1;
            tr.live_scanned += live.len() as u64;
            tr.dues += u64::from(out == EccOutcome::Due);
            tr.sdcs += u64::from(out == EccOutcome::Sdc);
            if permanent {
                live.extend(ev.regions.iter().copied());
            }
        }
    }
    tr
}

/// One planner's replay totals.
#[derive(Default, Clone)]
pub struct PlanTrace {
    /// Time in `try_repair_with`.
    pub busy: Duration,
    /// `try_repair_with` calls.
    pub calls: u64,
    /// Calls that repaired their fault.
    pub repaired: u64,
    /// Lifetimes whose every permanent fault was repaired.
    pub fully_repaired: u64,
    /// Repair bytes held at the end of each lifetime, summed.
    pub bytes_used: u64,
}

/// Plan isolation replay: each lifetime's permanent events, in arrival
/// order, offered to each of the seven planners (built on `arm`'s
/// geometry), which is reset per lifetime.
pub fn plan_replay(arm: &Scenario, corpus: &[Lifetime]) -> Vec<PlanTrace> {
    let mut scratch = PlanScratch::new();
    let mut planners = plan_arms(arm);
    let mut out = vec![PlanTrace::default(); planners.len()];
    for (p, tr) in planners.iter_mut().zip(&mut out) {
        for l in corpus {
            if !l.node.is_faulty() {
                continue;
            }
            p.reset();
            let mut all = true;
            for ev in l.node.permanent() {
                let t = Instant::now();
                let ok = p.try_repair_with(&ev.regions, &mut scratch);
                tr.busy += t.elapsed();
                tr.calls += 1;
                tr.repaired += u64::from(ok);
                all &= ok;
            }
            tr.fully_repaired += u64::from(all);
            tr.bytes_used += p.bytes_used();
        }
    }
    out
}

/// The fleet layer's traced totals.
#[derive(Default)]
pub struct FleetTrace {
    /// `FleetSim::new` time (the init scan).
    pub init: Duration,
    /// `FleetSim::step` time, all epochs.
    pub epochs: Duration,
    /// Faulty nodes retained.
    pub faulty_nodes: u64,
    /// Nodes x epochs.
    pub node_epochs: u64,
    /// Dirty-node evaluations.
    pub dirty_evals: u64,
}

/// Runs one fleet through every epoch, timing `new` and `step`.
pub fn fleet_trace(nodes: u64, epochs: u32, seed: u64) -> Result<FleetTrace, String> {
    let t = Instant::now();
    let mut sim = FleetSim::new(fleet_arms(), fleet_config(nodes, epochs, seed));
    let init = t.elapsed();
    let t = Instant::now();
    sim.run_to_end()?;
    Ok(FleetTrace {
        init,
        epochs: t.elapsed(),
        faulty_nodes: sim.faulty_nodes(),
        node_epochs: nodes * u64::from(epochs),
        dirty_evals: sim.dirty_evals(),
    })
}

/// Perfsim layer totals, with counts read from `SimResult`.
#[derive(Default)]
pub struct PerfTrace {
    /// Time in `Simulation::run`.
    pub busy: Duration,
    /// Runs.
    pub runs: u64,
    /// Simulated instructions, all cores.
    pub instructions: u64,
    /// Simulated core cycles until the slowest core finished, summed.
    pub sim_cycles: u64,
    /// LLC demand hits.
    pub llc_hits: u64,
    /// LLC demand misses.
    pub llc_misses: u64,
    /// LLC dirty evictions.
    pub llc_writebacks: u64,
    /// DRAM ACTIVATE commands.
    pub activates: u64,
    /// DRAM READ bursts.
    pub reads: u64,
    /// DRAM WRITE bursts.
    pub writes: u64,
}

/// Runs `workloads` (indices into the catalog) under every loss.
pub fn perf_trace(perf: &PerfSetup, workloads: &[usize], seed: u64) -> PerfTrace {
    let mut tr = PerfTrace::default();
    for &wi in workloads {
        for loss in LOSSES {
            let t = Instant::now();
            let r = Simulation::run(&perf.cfg, &perf.workloads[wi], loss, seed);
            tr.busy += t.elapsed();
            tr.runs += 1;
            tr.instructions += sim_instructions(&r);
            tr.sim_cycles += r.elapsed_cycles.round() as u64;
            tr.llc_hits += r.llc_stats.hits;
            tr.llc_misses += r.llc_stats.misses;
            tr.llc_writebacks += r.llc_stats.writebacks;
            tr.activates += r.op_counts.activates;
            tr.reads += r.op_counts.reads;
            tr.writes += r.op_counts.writes;
        }
    }
    tr
}

/// The traced run of workload `w`. Every layer is measured on every
/// workload: the layers the workload drives run at its own scale and
/// configuration; the others run a small companion input (see the
/// benchmark README).
pub fn run_traced(w: WorkloadId, seed: u64, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let wi = WorkloadId::ALL
        .iter()
        .position(|&x| x == w)
        .expect("listed");
    let trials = scale.trace_trials[wi];
    let stage = EngineSetup::build(w.relsim_arms());
    let stage_seed = sub_seed(seed, 0);

    // Untraced references: the workload's threads (bit-identity, and the
    // thread-scaling figure) and one thread (the overhead ratio's base,
    // like for like with the traced run). The one-thread run is timed once
    // before and once after the traced stage, so a drift in machine speed
    // shifts both sides alike.
    let run = RunConfig {
        trials,
        seed: stage_seed,
        threads: threads(),
        chunk_size: 0,
    };
    let one_thread = RunConfig { threads: 1, ..run };
    let t = Instant::now();
    let untraced = run_scenarios(&stage.arms, &run);
    let threaded_s = t.elapsed();
    let t = Instant::now();
    let before = run_scenarios(&stage.arms, &one_thread);
    let mut untraced_s = t.elapsed();
    let tr = traced_stage(&stage, trials, stage_seed);
    let t = Instant::now();
    let after = run_scenarios(&stage.arms, &one_thread);
    untraced_s = (untraced_s + t.elapsed()) / 2;
    out.check(
        tr.results == untraced && tr.results == before && tr.results == after,
        || "traced per-arm results differ from untraced run_scenarios".into(),
    );
    // The layer times are disjoint sub-intervals of one single-threaded
    // span, so they cannot exceed it.
    let layers = tr.gate + tr.sampler + tr.node;
    debug_assert!(layers <= tr.engine());
    let unattributed = tr.engine().saturating_sub(layers);

    let ecc = ecc_replay(&stage, &tr.corpus, stage_seed);
    let plans = plan_replay(&stage.arms[0], &tr.corpus);
    let no_replacement = stage
        .arms
        .iter()
        .all(|a| a.replacement == ReplacementPolicy::None);
    if no_replacement {
        // Without replacement the replay is the engine's own call
        // sequence, so it must reproduce every replayed arm's repair
        // counts exactly.
        for (arm, r) in stage.arms.iter().zip(&tr.results) {
            let key = plan_key(&r.label);
            let Some(pi) = PLAN_ARMS.iter().position(|p| Some(*p) == key.as_deref()) else {
                continue;
            };
            let p = &plans[pi];
            let same = p.calls == r.permanent_faults
                && p.calls - p.repaired == r.unrepaired_faults
                && p.fully_repaired == r.fully_repaired_nodes;
            out.check(same, || {
                format!(
                    "plan replay of {} disagrees with the engine",
                    arm.mechanism.label()
                )
            });
        }
    }
    out.notes.push(if no_replacement {
        "plan replay: exact (no replacement: the engine's own call sequence)".into()
    } else {
        "plan replay: approximation (replacement drops DIMMs inside the engine)".into()
    });

    let epochs = scale.fleet_epochs;
    let nodes = if w == WorkloadId::Fleet1x {
        scale.fleet_nodes
    } else {
        scale.companion_fleet_nodes
    };
    let fleet = fleet_trace(nodes, epochs, sub_seed(seed, 1));
    out.check(fleet.is_ok(), || {
        format!("fleet: {:?}", fleet.as_ref().err())
    });
    let fleet = fleet.unwrap_or_default();

    let (perf, perf_workloads): (PerfSetup, Vec<usize>) = if w == WorkloadId::PerfsimMix {
        let p = PerfSetup::build(scale.perf_instr);
        let all = (0..p.workloads.len()).collect();
        (p, all)
    } else {
        (PerfSetup::build(scale.companion_perf_instr), vec![0])
    };
    let perf = perf_trace(&perf, &perf_workloads, sub_seed(seed, 2));

    out.notes.push(format!(
        "engine stage: {} arms x {trials} trials, 1 thread; fleet: {nodes} nodes x {epochs} epochs; \
         perfsim: {} runs",
        stage.arms.len(),
        perf.runs
    ));
    let m = &mut out.metrics;
    m.push(Metric::secs("engine.busy_s", tr.engine()));
    m.push(Metric::secs("engine.unattributed_s", unattributed));
    m.push(Metric::count("engine.trials", tr.trials));
    m.push(Metric::count("engine.arm_evals", tr.node_calls));
    m.push(Metric::secs("engine.threaded_s", threaded_s));
    m.push(
        Metric::ratio(
            "engine.thread_speedup",
            untraced_s.as_secs_f64(),
            threaded_s.as_secs_f64(),
            "engine.threaded_s",
        )
        .with_note(format!(
            "trace.untraced_s over engine.threaded_s at threads={}",
            threads()
        )),
    );
    m.push(Metric::secs("gate.busy_s", tr.gate));
    m.push(Metric::count("gate.trials", tr.gate_trials));
    m.push(Metric::count("gate.faulty", tr.gate_faulty));
    m.push(Metric::ratio(
        "gate.faulty_ratio",
        tr.gate_faulty as f64,
        tr.gate_trials as f64,
        "gate.trials",
    ));
    m.push(Metric::secs("sampler.busy_s", tr.sampler));
    m.push(Metric::count("sampler.calls", tr.sampler_calls));
    m.push(Metric::count("sampler.events", tr.event_total(|_| 1)));
    m.push(Metric::count(
        "sampler.regions",
        tr.event_total(|e| e.regions.len() as u64),
    ));
    m.push(Metric::count(
        "sampler.permanent_events",
        tr.event_total(|e| u64::from(e.is_permanent())),
    ));
    m.push(Metric::secs("node.busy_s", tr.node));
    m.push(Metric::count("node.calls", tr.node_calls));
    m.push(Metric::count(
        "node.fully_repaired",
        tr.arm_total(|r| r.fully_repaired_nodes),
    ));
    m.push(Metric::count("node.dues", tr.arm_total(|r| r.dues)));
    m.push(Metric::count(
        "node.replacements",
        tr.arm_total(|r| r.replacements),
    ));
    m.push(Metric::secs("ecc.busy_s", ecc.busy));
    m.push(Metric::count("ecc.calls", ecc.calls));
    m.push(Metric::count("ecc.live_regions_scanned", ecc.live_scanned));
    m.push(Metric::count("ecc.dues", ecc.dues));
    m.push(Metric::count("ecc.sdcs", ecc.sdcs));
    for (arm, p) in PLAN_ARMS.iter().zip(&plans) {
        let calls = format!("plan.{arm}.calls");
        m.push(Metric::secs(&format!("plan.{arm}.busy_s"), p.busy));
        m.push(Metric::count(&calls, p.calls));
        m.push(Metric::count(&format!("plan.{arm}.repaired"), p.repaired));
        m.push(Metric::ratio(
            &format!("plan.{arm}.repaired_ratio"),
            p.repaired as f64,
            p.calls as f64,
            &calls,
        ));
        m.push(Metric::new(
            &format!("plan.{arm}.bytes_used"),
            p.bytes_used as f64,
            "bytes",
        ));
    }
    m.push(Metric::secs("fleet.init_busy_s", fleet.init));
    m.push(Metric::secs("fleet.epoch_busy_s", fleet.epochs));
    m.push(Metric::count("fleet.faulty_nodes", fleet.faulty_nodes));
    m.push(Metric::count("fleet.node_epochs", fleet.node_epochs));
    m.push(Metric::count("fleet.dirty_evals", fleet.dirty_evals));
    m.push(Metric::ratio(
        "fleet.dirty_ratio",
        fleet.dirty_evals as f64,
        fleet.node_epochs as f64,
        "fleet.node_epochs",
    ));
    m.push(Metric::secs("perfsim.busy_s", perf.busy));
    m.push(Metric::count("perfsim.runs", perf.runs));
    m.push(Metric::count("perfsim.instructions", perf.instructions));
    m.push(Metric::count("perfsim.sim_cycles", perf.sim_cycles));
    m.push(Metric::count("perfsim.llc_hits", perf.llc_hits));
    m.push(Metric::count("perfsim.llc_misses", perf.llc_misses));
    m.push(Metric::count("perfsim.llc_writebacks", perf.llc_writebacks));
    m.push(Metric::count("perfsim.dram_activates", perf.activates));
    m.push(Metric::count("perfsim.dram_reads", perf.reads));
    m.push(Metric::count("perfsim.dram_writes", perf.writes));
    m.push(Metric::ratio(
        "perfsim.reads_per_activate",
        perf.reads as f64,
        perf.activates as f64,
        "perfsim.dram_activates",
    ));
    m.push(Metric::secs("trace.untraced_s", untraced_s));
    m.push(Metric::ratio(
        "trace.overhead_ratio",
        tr.wall.as_secs_f64(),
        untraced_s.as_secs_f64(),
        "trace.untraced_s",
    ));
    out
}

/// The `PLAN_ARMS` key of an engine arm label (`None` for arms the plan
/// layer does not replay).
pub fn plan_key(label: &str) -> Option<String> {
    if label == "PPR" {
        return Some("ppr".into());
    }
    let (mech, ways) = label.split_once('-')?;
    let ways = ways.strip_suffix("way")?;
    match mech {
        "FreeFault" => Some(format!("freefault_w{ways}")),
        "RelaxFault" => Some(format!("relaxfault_w{ways}")),
        _ => None,
    }
}

/// The traced metrics that are ratios of two times.
const TIME_RATIOS: [&str; 2] = ["engine.thread_speedup", "trace.overhead_ratio"];

/// Whether a traced metric is a deterministic work count (not a time, nor
/// a ratio of times).
pub fn is_count(m: &Metric) -> bool {
    m.unit != "s" && !TIME_RATIOS.contains(&m.name.as_str())
}

/// A digest of every count metric, for comparing two traced runs.
pub fn counts_digest(out: &Outcome) -> u64 {
    out.metrics
        .iter()
        .filter(|m| is_count(m))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, m| {
            let h = m
                .name
                .bytes()
                .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
            (h ^ m.value.to_bits()).wrapping_mul(0x100_0000_01b3)
        })
}
