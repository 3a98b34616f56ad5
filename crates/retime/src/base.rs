//! The **base retiming** flow: resiliency-unaware min-area retiming
//! followed by arrival-based EDL assignment (the paper's baseline,
//! Section VI-D). Runs as a `Sta → Solve → Commit` pipeline on the
//! shared [`retime_engine`] flow-engine layer.

use std::time::{Duration, Instant};

use retime_engine::{FlowContext, PhaseTimings, Pipeline, Stage};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, Cut};
use retime_sta::{CutTiming, DelayModel, TimingAnalysis, TwoPhaseClock};

use crate::area::{AreaModel, SeqBreakdown};
use crate::error::RetimeError;
use crate::legalize::{legalize, LegalizeReport};
use crate::problem::{RetimingProblem, RetimingSolution, RetimingSweep};
use crate::regions::Regions;

/// Run-time bookkeeping of a retiming flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Wall-clock time of the whole flow.
    pub elapsed: Duration,
    /// Portion spent in the flow/closure solver (the paper reports the
    /// network-simplex step takes < 2 % of G-RAR's run-time).
    pub solver: Duration,
}

/// Result of a retiming flow (base, VL, or G-RAR): the placement, the EDL
/// decisions, and the area bill.
#[derive(Debug, Clone)]
pub struct RetimeOutcome {
    /// The slave-latch placement.
    pub cut: Cut,
    /// Per-sink EDL flags (master-backed sinks only; indexed like
    /// `cloud.sinks()`).
    pub ed_sinks: Vec<bool>,
    /// Sequential-area breakdown.
    pub seq: SeqBreakdown,
    /// Combinational area (including any legalization penalty).
    pub comb_area: f64,
    /// Total area.
    pub total_area: f64,
    /// Timing of the final placement.
    pub timing: CutTiming,
    /// Legalization report (gate upsizing applied to fix residual
    /// violations).
    pub legalize: LegalizeReport,
    /// The final delay tables (including legalization upsizing) — what a
    /// signoff or error-rate simulation of this outcome must use.
    pub final_delays: retime_sta::NodeDelays,
    /// Run-time bookkeeping.
    pub stats: RunStats,
    /// Uniform per-stage instrumentation, filled in by the flow's
    /// pipeline run (every flow reports the same Table VII breakdown).
    pub phases: PhaseTimings,
    /// Statistical outcome summary (per-sink yields, jitter sensitivity)
    /// — `Some` exactly when the flow ran under
    /// [`DelayModel::Statistical`].
    pub stat: Option<retime_stat::StatSummary>,
}

impl RetimeOutcome {
    /// Assembles the outcome from a final cut: validates it, legalizes,
    /// times it, assigns error-detecting masters by arrival, and totals
    /// the area. Shared by the base, VL, and G-RAR flows.
    ///
    /// # Errors
    /// Propagates cut, legalization, and library failures.
    pub fn assemble(
        sta: &mut TimingAnalysis<'_>,
        model: &AreaModel<'_>,
        cut: Cut,
        solver: Duration,
        started: Instant,
    ) -> Result<RetimeOutcome, RetimeError> {
        let cloud = sta.cloud();
        cut.validate(cloud)?;
        let report = legalize(sta, &cut, model)?;
        let timing = sta.cut_timing(&cut);
        // Statistical mode replaces the arrival-window EDL rule with the
        // yield-aware margined rule over the (legalized) canonical forms;
        // the nominal `timing` stays as-is for reporting and replay.
        let (ed_sinks, stat) = match sta.delays().model() {
            DelayModel::Statistical(_) => {
                let (ed, summary) =
                    crate::statistical::stat_cut_summary(cloud, sta.delays(), *sta.clock(), &cut);
                (ed, Some(summary))
            }
            _ => (model.ed_flags(sta.cloud(), &timing), None),
        };
        let seq = model.sequential(sta.cloud(), &cut, &ed_sinks);
        let comb_area = model.combinational(sta.cloud())? + report.area_penalty;
        let total_area = comb_area + seq.total();
        Ok(RetimeOutcome {
            cut,
            ed_sinks,
            seq,
            comb_area,
            total_area,
            timing,
            legalize: report,
            final_delays: sta.delays().clone(),
            stats: RunStats {
                elapsed: started.elapsed(),
                solver,
            },
            phases: PhaseTimings::new(),
            stat,
        })
    }
}

/// Runs resiliency-unaware min-area retiming: minimizes the number of
/// slave latches subject to the region constraints, then flags masters
/// whose arrival falls inside the resiliency window as error-detecting.
///
/// # Errors
/// Propagates infeasible clocking, STA, and solver failures.
pub fn base_retime(
    cloud: &CombCloud,
    lib: &Library,
    clock: TwoPhaseClock,
    model: DelayModel,
    c: EdlOverhead,
) -> Result<RetimeOutcome, RetimeError> {
    base_retime_impl(cloud, lib, clock, model, c, |problem, _| problem.solve())
}

/// [`base_retime`] with a persistent warm slot. The base problem does
/// not depend on the EDL overhead (it only prices the area bill), so
/// across a `c` sweep the flow instance is identical and every probe
/// after the first is answered verbatim from the slot's memo.
///
/// # Errors
/// Propagates infeasible clocking, STA, and solver failures.
pub fn base_retime_sweep(
    cloud: &CombCloud,
    lib: &Library,
    clock: TwoPhaseClock,
    model: DelayModel,
    c: EdlOverhead,
    slot: &mut Option<RetimingSweep>,
) -> Result<RetimeOutcome, RetimeError> {
    base_retime_impl(cloud, lib, clock, model, c, |problem, timings| {
        slot.get_or_insert_with(RetimingSweep::default)
            .solve_for(problem, timings)
    })
}

/// The base pipeline with its Eq. 14 solve supplied by the caller.
fn base_retime_impl(
    cloud: &CombCloud,
    lib: &Library,
    clock: TwoPhaseClock,
    model: DelayModel,
    c: EdlOverhead,
    solve: impl FnOnce(&RetimingProblem, &mut PhaseTimings) -> Result<RetimingSolution, RetimeError>,
) -> Result<RetimeOutcome, RetimeError> {
    let started = Instant::now();

    #[derive(Default)]
    struct BaseState<'a> {
        sta: Option<TimingAnalysis<'a>>,
        problem: Option<RetimingProblem>,
        sol: Option<RetimingSolution>,
        outcome: Option<RetimeOutcome>,
    }

    let _flow_span = retime_trace::span("base_retime");
    let mut ctx = FlowContext::new(BaseState::default());
    Pipeline::<FlowContext<BaseState<'_>>, RetimeError>::new()
        .stage(Stage::Sta, |ctx| {
            let sta = TimingAnalysis::new(cloud, lib, clock, model)?;
            let regions = Regions::compute(&sta)?;
            let mut problem = RetimingProblem::build(cloud, &regions);
            // The baseline models the built-in retiming command of a
            // commercial tool: conservative, incremental movement.
            problem.set_movement_penalty(crate::problem::COMMERCIAL_MOVEMENT_PENALTY);
            ctx.data.sta = Some(sta);
            ctx.data.problem = Some(problem);
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
            let sta = ctx.data.sta.as_mut().expect("sta stage ran");
            let sol = ctx.data.sol.take().expect("solve stage ran");
            let area_model = AreaModel::new(lib, c);
            let outcome =
                RetimeOutcome::assemble(sta, &area_model, sol.cut, sol.solver_time, started)?;
            outcome.legalize.record_counters(&mut ctx.timings);
            ctx.data.outcome = Some(outcome);
            Ok(())
        })
        .run(&mut ctx)?;

    let (state, timings) = ctx.into_parts();
    let mut outcome = state.outcome.expect("commit stage ran");
    outcome.phases = timings;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::bench;

    fn pipeline() -> CombCloud {
        let n = bench::parse(
            "p",
            "\
INPUT(a)
INPUT(b)
OUTPUT(z)
q1 = DFF(g2)
g1 = AND(a, b)
g2 = OR(g1, q1)
g3 = NOT(q1)
g4 = NAND(g3, b)
z = BUFF(g4)
",
        )
        .unwrap();
        CombCloud::extract(&n).unwrap()
    }

    #[test]
    fn base_flow_relaxed_clock() {
        let cloud = pipeline();
        let lib = Library::fdsoi28();
        let out = base_retime(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(50.0),
            DelayModel::PathBased,
            EdlOverhead::MEDIUM,
        )
        .unwrap();
        // Relaxed clock: no EDL at all, placement feasible.
        assert_eq!(out.seq.edl, 0);
        assert!(out.timing.is_feasible());
        assert!(out.total_area > 0.0);
        out.cut.validate(&cloud).unwrap();
    }

    #[test]
    fn base_flow_flags_near_critical() {
        let cloud = pipeline();
        let lib = Library::fdsoi28();
        // Find the critical path and clock at ~90% of it so the window
        // catches endpoints.
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let crit = cloud
            .sinks()
            .iter()
            .map(|&t| sta.df(t))
            .fold(0.0f64, f64::max);
        // Clock with enough absolute slack for the latch D-to-Q and
        // clock-to-Q delays (large relative to toy-circuit logic depth),
        // yet tight enough that the resiliency window still matters.
        let lat = lib.latch().clk_to_q + lib.latch().d_to_q;
        let out = base_retime(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(crit * 1.15 + 2.0 * lat),
            DelayModel::PathBased,
            EdlOverhead::MEDIUM,
        )
        .unwrap();
        assert!(out.timing.is_feasible());
        // With Π = 0.7 × (1.05 × crit) < crit, some endpoint needs EDL
        // unless retiming absorbed everything; either way the flow runs
        // and the books balance.
        let expect_total = out.comb_area + out.seq.total();
        assert!((out.total_area - expect_total).abs() < 1e-9);
    }

    #[test]
    fn base_flow_reports_uniform_phase_timings() {
        let cloud = pipeline();
        let lib = Library::fdsoi28();
        let out = base_retime(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(50.0),
            DelayModel::PathBased,
            EdlOverhead::MEDIUM,
        )
        .unwrap();
        assert!(out.phases.total() > Duration::ZERO);
        // The base flow runs no classify/seed/swap stages.
        assert_eq!(out.phases.get(Stage::Classify), Duration::ZERO);
        assert_eq!(out.phases.get(Stage::Seed), Duration::ZERO);
        assert_eq!(out.phases.get(Stage::Swap), Duration::ZERO);
    }

    #[test]
    fn engines_give_same_area() {
        let cloud = pipeline();
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(50.0);
        let run = |solve: fn(&RetimingProblem) -> Result<RetimingSolution, RetimeError>| {
            let c = EdlOverhead::MEDIUM;
            base_retime_impl(&cloud, &lib, clock, DelayModel::PathBased, c, |p, _| {
                solve(p)
            })
            .unwrap()
            .seq
            .slaves
        };
        let production = run(RetimingProblem::solve);
        assert_eq!(
            production,
            run(|p| p.solve_with(retime_flow::MinCostFlow::solve))
        );
        assert_eq!(
            production,
            run(|p| p.solve_with(retime_flow::MinCostFlow::solve_reference))
        );
    }
}
