//! The end-to-end G-RAR driver, running as a
//! `Sta → Classify → Solve → Commit` pipeline on the shared
//! [`retime_engine`] flow-engine layer. The classification stage — the
//! per-target backward passes and cut-set construction the paper's
//! profiling singles out as the dominant cost — fans out across worker
//! threads ([`classify_many`](crate::cutset::classify_many)).

use std::time::Instant;

use retime_engine::{FlowContext, PhaseTimings, Pipeline, Stage};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, NodeId, NodeKind};
use retime_retime::{
    AreaModel, Regions, RetimeError, RetimeOutcome, RetimingProblem, RetimingSolution,
    RetimingSweep, BREADTH_SCALE,
};
use retime_sta::{DelayModel, SinkClass, TimingAnalysis, TwoPhaseClock};

/// Configuration of a G-RAR run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrarConfig {
    /// EDL area overhead `c`.
    pub overhead: EdlOverhead,
    /// Delay model (Table II compares both).
    pub model: DelayModel,
    /// Worker threads for the classification fan-out: `0` = auto
    /// (`RETIME_THREADS` or the machine's parallelism), `1` = the
    /// sequential reference path.
    pub threads: usize,
}

impl GrarConfig {
    /// Default configuration: path-based timing, automatic thread count.
    pub fn new(overhead: EdlOverhead) -> GrarConfig {
        GrarConfig {
            overhead,
            model: DelayModel::PathBased,
            threads: 0,
        }
    }

    /// Switches the delay model.
    pub fn with_model(mut self, model: DelayModel) -> GrarConfig {
        self.model = model;
        self
    }

    /// Pins the classification fan-out width (`1` forces the sequential
    /// path; `0` restores auto).
    pub fn with_threads(mut self, threads: usize) -> GrarConfig {
        self.threads = threads;
        self
    }
}

/// Result of a G-RAR run.
#[derive(Debug, Clone)]
pub struct GrarReport {
    /// The placement, EDL decisions, and area bill.
    pub outcome: RetimeOutcome,
    /// Endpoints that are error-detecting regardless of retiming.
    pub always_ed: usize,
    /// Endpoints that can never need error detection.
    pub never_ed: usize,
    /// Target masters (pseudo nodes added).
    pub targets: usize,
    /// Targets predicted non-error-detecting by the flow solution.
    pub predicted_saved: usize,
    /// Uniform per-stage instrumentation (`Stage::Classify` carries the
    /// backward/cut-set fan-out the paper's Table VII discussion singles
    /// out; the solve stage stays under 2 %).
    pub phases: PhaseTimings,
}

#[derive(Default)]
struct GrarState<'a> {
    sta: Option<TimingAnalysis<'a>>,
    problem: Option<RetimingProblem>,
    /// `(pseudo flow node, sink idx)` per target master.
    pseudos: Vec<(usize, usize)>,
    always_ed: usize,
    never_ed: usize,
    sol: Option<RetimingSolution>,
    predicted_saved: usize,
    outcome: Option<RetimeOutcome>,
}

/// Runs G-RAR: resiliency-aware slave retiming minimizing total
/// sequential cost (slave latches + master latches + EDL overhead).
///
/// # Errors
/// Propagates infeasible clocking, STA, and solver failures.
pub fn grar(
    cloud: &CombCloud,
    lib: &Library,
    clock: TwoPhaseClock,
    cfg: &GrarConfig,
) -> Result<GrarReport, RetimeError> {
    grar_impl(cloud, lib, clock, cfg, |problem, _| problem.solve())
}

/// [`grar`] with a persistent warm slot: the flow solve goes through
/// the slot's [`RetimingSweep`] memo, which answers a call whose Eq. 14
/// instance is identical to the last one solved and solves any other
/// cold, exactly as [`grar`] would. Across the `c ∈ {0.5, 1.0, 2.0}`
/// overhead sweep of Table IV the pseudo-target demands move with `c`,
/// so a run with targets solves cold each time; a run without targets
/// hits. The per-call counters land in the report's `Stage::Solve`
/// instrumentation (`warm_hits`, `cold_solves`).
///
/// # Errors
/// The same failures as [`grar`].
pub fn grar_with_sweep(
    cloud: &CombCloud,
    lib: &Library,
    clock: TwoPhaseClock,
    cfg: &GrarConfig,
    slot: &mut Option<RetimingSweep>,
) -> Result<GrarReport, RetimeError> {
    grar_impl(cloud, lib, clock, cfg, |problem, timings| {
        slot.get_or_insert_with(RetimingSweep::default)
            .solve_for(problem, timings)
    })
}

/// The G-RAR pipeline with its Eq. 14 solve supplied by the caller.
fn grar_impl(
    cloud: &CombCloud,
    lib: &Library,
    clock: TwoPhaseClock,
    cfg: &GrarConfig,
    solve: impl FnOnce(&RetimingProblem, &mut PhaseTimings) -> Result<RetimingSolution, RetimeError>,
) -> Result<GrarReport, RetimeError> {
    let started = Instant::now();
    let _flow_span = retime_trace::span("grar");
    let mut ctx = FlowContext::new(GrarState::default());

    Pipeline::<FlowContext<GrarState<'_>>, RetimeError>::new()
        .stage(Stage::Sta, |ctx| {
            let sta = TimingAnalysis::new(cloud, lib, clock, cfg.model)?;
            let regions = Regions::compute(&sta)?;
            ctx.data.problem = Some(RetimingProblem::build(cloud, &regions));
            ctx.data.sta = Some(sta);
            Ok(())
        })
        .stage(Stage::Classify, |ctx| {
            // Classify endpoints and add pseudo nodes for targets. Only
            // master-backed sinks carry EDL area (a primary output's
            // master belongs to the environment). The backward passes and
            // cut-sets compute in parallel; the pseudo nodes are then
            // added sequentially in sink order, so the constructed flow
            // problem is identical to the sequential path's.
            let state = &mut ctx.data;
            let sta = state.sta.as_ref().expect("sta stage ran");
            let problem = state.problem.as_mut().expect("sta stage ran");
            let targets: Vec<(usize, NodeId)> = cloud
                .sinks()
                .iter()
                .enumerate()
                .filter(|&(_, &t)| matches!(cloud.node(t).kind, NodeKind::Sink { master: Some(_) }))
                .map(|(i, &t)| (i, t))
                .collect();
            let sinks: Vec<NodeId> = targets.iter().map(|&(_, t)| t).collect();
            let classified = crate::cutset::classify_many(sta, &sinks, cfg.threads);
            let c_scaled = (cfg.overhead.value() * BREADTH_SCALE as f64).round() as i64;
            for (&(sink_idx, _), (class, g)) in targets.iter().zip(classified) {
                match class {
                    SinkClass::AlwaysErrorDetecting => state.always_ed += 1,
                    SinkClass::NeverErrorDetecting => state.never_ed += 1,
                    SinkClass::Target => {
                        let p = problem.add_pseudo_target(&g, c_scaled);
                        state.pseudos.push((p, sink_idx));
                    }
                }
            }
            ctx.timings.count("endpoints", sinks.len() as u64);
            ctx.timings.count("targets", ctx.data.pseudos.len() as u64);
            Ok(())
        })
        .stage(Stage::Solve, |ctx| {
            let problem = ctx.data.problem.as_ref().expect("sta stage ran");
            let sol = solve(problem, &mut ctx.timings)?;
            ctx.timings.count("solver_invocations", 1);
            ctx.data.sol = Some(sol);
            Ok(())
        })
        .stage(Stage::Commit, |ctx| {
            let state = &mut ctx.data;
            let sol = state.sol.take().expect("solve stage ran");
            state.predicted_saved = state
                .pseudos
                .iter()
                .filter(|&&(p, _)| sol.r[p] == -1)
                .count();
            let model = AreaModel::new(lib, cfg.overhead);
            let sta = state.sta.as_mut().expect("sta stage ran");
            let outcome = RetimeOutcome::assemble(sta, &model, sol.cut, sol.solver_time, started)?;
            outcome.legalize.record_counters(&mut ctx.timings);
            ctx.data.outcome = Some(outcome);
            Ok(())
        })
        .run(&mut ctx)?;

    let (state, timings) = ctx.into_parts();
    let mut outcome = state.outcome.expect("commit stage ran");
    outcome.phases = timings.clone();
    Ok(GrarReport {
        outcome,
        always_ed: state.always_ed,
        never_ed: state.never_ed,
        targets: state.pseudos.len(),
        predicted_saved: state.predicted_saved,
        phases: timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_flow::MinCostFlow;
    use retime_netlist::bench;
    use retime_retime::base_retime;
    use std::time::Duration;

    /// A two-cone circuit: one deep cone (needs EDL unless latches move)
    /// and one shallow cone, sharing an input.
    fn testbench() -> CombCloud {
        let mut src = String::from("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq1 = DFF(d1)\nq2 = DFF(d2)\n");
        // Deep cone into q1.
        src.push_str("c1 = NAND(a, b)\n");
        for i in 2..=12 {
            src.push_str(&format!("c{i} = NOT(c{})\n", i - 1));
        }
        src.push_str("d1 = BUFF(c12)\n");
        // Shallow cone into q2.
        src.push_str("d2 = NOR(b, q1)\n");
        src.push_str("z = NOT(q2)\n");
        CombCloud::extract(&bench::parse("tb", &src).unwrap()).unwrap()
    }

    fn crit(cloud: &CombCloud, lib: &Library) -> f64 {
        let sta = TimingAnalysis::new(
            cloud,
            lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        cloud
            .sinks()
            .iter()
            .map(|&t| sta.df(t))
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn grar_runs_and_accounts() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let p = crit(&cloud, &lib) * 1.25;
        let report = grar(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(p),
            &GrarConfig::new(EdlOverhead::HIGH),
        )
        .unwrap();
        let out = &report.outcome;
        out.cut.validate(&cloud).unwrap();
        assert!(out.cut.check_paths(&cloud));
        assert!((out.total_area - (out.comb_area + out.seq.total())).abs() < 1e-9);
        assert!(out.timing.is_feasible());
    }

    #[test]
    fn grar_never_worse_than_base_in_seq_cost() {
        // G-RAR minimizes latch cost + EDL overhead; base retiming
        // minimizes latch cost only. On the paper's metric (sequential
        // cost with overhead), G-RAR is optimal by construction.
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let p = crit(&cloud, &lib) * 1.25;
        let clock = TwoPhaseClock::from_max_delay(p);
        for c in EdlOverhead::SWEEP {
            let g = grar(&cloud, &lib, clock, &GrarConfig::new(c)).unwrap();
            let b = base_retime(&cloud, &lib, clock, DelayModel::PathBased, c).unwrap();
            assert!(
                g.outcome.seq.total() <= b.seq.total() + 1e-9,
                "G-RAR seq area {} must not exceed base {} at {c}",
                g.outcome.seq.total(),
                b.seq.total()
            );
        }
    }

    #[test]
    fn engines_agree_end_to_end() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let p = crit(&cloud, &lib) * 1.25;
        let clock = TwoPhaseClock::from_max_delay(p);
        let cfg = GrarConfig::new(EdlOverhead::MEDIUM);
        let run = |solve: fn(&RetimingProblem) -> Result<RetimingSolution, RetimeError>| {
            let report = grar_impl(&cloud, &lib, clock, &cfg, |p, _| solve(p)).unwrap();
            report.outcome.seq.total()
        };
        let production = run(RetimingProblem::solve);
        for other in [
            run(|p| p.solve_with(MinCostFlow::solve)),
            run(|p| p.solve_with(MinCostFlow::solve_reference)),
        ] {
            assert!((production - other).abs() < 1e-9);
        }
    }

    #[test]
    fn gate_model_never_beats_path_model() {
        // Table II's mechanism: the gate-based model is more pessimistic,
        // so its optimum cannot be better (on the model-independent final
        // accounting both run through the same arrival-based EDL check;
        // compare sequential cost).
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let p = crit(&cloud, &lib) * 1.25;
        let clock = TwoPhaseClock::from_max_delay(p);
        let path = grar(&cloud, &lib, clock, &GrarConfig::new(EdlOverhead::HIGH)).unwrap();
        let gate = grar(
            &cloud,
            &lib,
            clock,
            &GrarConfig::new(EdlOverhead::HIGH).with_model(DelayModel::GateBased),
        )
        .unwrap();
        // Both must be feasible; the path-based run sees no more EDL.
        assert!(path.outcome.seq.edl <= gate.outcome.seq.edl);
    }

    #[test]
    fn relaxed_clock_no_edl_no_targets() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let report = grar(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(100.0),
            &GrarConfig::new(EdlOverhead::MEDIUM),
        )
        .unwrap();
        assert_eq!(report.targets, 0);
        assert_eq!(report.outcome.seq.edl, 0);
        assert!(report.never_ed > 0);
    }

    #[test]
    fn phase_stats_cover_run() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let p = crit(&cloud, &lib) * 1.25;
        let report = grar(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(p),
            &GrarConfig::new(EdlOverhead::MEDIUM),
        )
        .unwrap();
        assert!(report.phases.total() > Duration::ZERO);
        // The G-RAR flow runs no seed/swap stages.
        assert_eq!(report.phases.get(Stage::Seed), Duration::ZERO);
        assert_eq!(report.phases.get(Stage::Swap), Duration::ZERO);
        // Only master-backed sinks count as endpoints (z's master is
        // external to the cloud).
        assert!(report.phases.counter("endpoints") > 0);
        assert!(report.phases.counter("endpoints") < cloud.sinks().len() as u64);
    }

    #[test]
    fn warm_sweep_is_bit_identical_to_cold_runs_across_overheads() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        // 2× the critical delay: the deep cone's endpoint becomes a
        // Target (retiming can rescue it), so the overhead `c` reaches
        // the flow instance through the pseudo node's demand.
        let p = crit(&cloud, &lib) * 2.0;
        let clock = TwoPhaseClock::from_max_delay(p);
        let mut slot = None;
        let mut targets = 0;
        let mut cold_solves = 0;
        for c in EdlOverhead::SWEEP {
            let cfg = GrarConfig::new(c);
            let cold = grar(&cloud, &lib, clock, &cfg).unwrap();
            let warm = grar_with_sweep(&cloud, &lib, clock, &cfg, &mut slot).unwrap();
            assert_eq!(warm.outcome.cut, cold.outcome.cut, "cut at {c}");
            assert_eq!(warm.outcome.ed_sinks, cold.outcome.ed_sinks);
            assert_eq!(warm.predicted_saved, cold.predicted_saved);
            assert!((warm.outcome.total_area - cold.outcome.total_area).abs() < 1e-12);
            targets = warm.targets;
            cold_solves += warm.phases.counter("cold_solves");
        }
        assert!(targets > 0, "clock must be tight enough to create targets");
        assert_eq!(
            cold_solves, 3,
            "each overhead moves the pseudo-target demands"
        );
        let sweep = slot.expect("slot primed");
        // The memo certifies against an independent reference solve of
        // the problem as last solved.
        let (problem, warm) = sweep.last_solved().expect("probe ran");
        retime_verify::verify_retiming_solution(problem, warm).unwrap();
    }

    #[test]
    fn statistical_grar_runs_end_to_end() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let p = crit(&cloud, &lib) * 1.6;
        let clock = TwoPhaseClock::from_max_delay(p);
        let params = retime_sta::StatParams::new(0.03, 0.005, 0.9987, 0x5EED);
        let cfg = GrarConfig::new(EdlOverhead::MEDIUM).with_model(DelayModel::Statistical(params));
        let report = grar(&cloud, &lib, clock, &cfg).unwrap();
        let out = &report.outcome;
        out.cut.validate(&cloud).unwrap();
        let stat = out
            .stat
            .as_ref()
            .expect("statistical mode attaches a summary");
        assert_eq!(stat.params, params);
        assert_eq!(stat.yields.len(), cloud.sinks().len());
        assert!(stat.min_yield >= 0.0 && stat.min_yield <= 1.0);
        assert!(stat.jitter_sens <= 0.0, "jitter cannot help yield");
        // EDL flags are exactly the below-target sinks among master-backed
        // ones.
        let flagged = out.ed_sinks.iter().filter(|&&e| e).count();
        assert!(flagged <= stat.below_target());
    }

    #[test]
    fn sigma_zero_grar_matches_gate_based_bitwise() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let p = crit(&cloud, &lib) * 1.25;
        let clock = TwoPhaseClock::from_max_delay(p);
        let zero = DelayModel::Statistical(retime_sta::StatParams::new(0.0, 0.0, 0.9987, 1));
        for threads in [1, 4] {
            let det = grar(
                &cloud,
                &lib,
                clock,
                &GrarConfig::new(EdlOverhead::MEDIUM)
                    .with_model(DelayModel::GateBased)
                    .with_threads(threads),
            )
            .unwrap();
            let stat = grar(
                &cloud,
                &lib,
                clock,
                &GrarConfig::new(EdlOverhead::MEDIUM)
                    .with_model(zero)
                    .with_threads(threads),
            )
            .unwrap();
            assert_eq!(det.outcome.cut, stat.outcome.cut, "threads {threads}");
            assert_eq!(det.outcome.ed_sinks, stat.outcome.ed_sinks);
            assert_eq!(det.targets, stat.targets);
            assert_eq!(det.always_ed, stat.always_ed);
            assert_eq!(det.never_ed, stat.never_ed);
            assert_eq!(
                det.outcome.total_area.to_bits(),
                stat.outcome.total_area.to_bits()
            );
        }
    }

    #[test]
    fn parallel_classify_matches_sequential_run() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let p = crit(&cloud, &lib) * 1.25;
        let clock = TwoPhaseClock::from_max_delay(p);
        let seq = grar(
            &cloud,
            &lib,
            clock,
            &GrarConfig::new(EdlOverhead::MEDIUM).with_threads(1),
        )
        .unwrap();
        let par = grar(
            &cloud,
            &lib,
            clock,
            &GrarConfig::new(EdlOverhead::MEDIUM).with_threads(4),
        )
        .unwrap();
        assert_eq!(seq.always_ed, par.always_ed);
        assert_eq!(seq.never_ed, par.never_ed);
        assert_eq!(seq.targets, par.targets);
        assert_eq!(seq.predicted_saved, par.predicted_saved);
        assert_eq!(seq.outcome.cut, par.outcome.cut);
        assert_eq!(seq.outcome.ed_sinks, par.outcome.ed_sinks);
        assert!((seq.outcome.total_area - par.outcome.total_area).abs() < 1e-12);
    }
}
