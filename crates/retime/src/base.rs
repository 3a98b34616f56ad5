//! The **base retiming** flow: resiliency-unaware min-area retiming
//! followed by arrival-based EDL assignment (the paper's baseline,
//! Section VI-D). Runs its `Sta → Solve → Commit` stages through the
//! shared [`retime_engine`] instrumentation.

use std::convert::Infallible;

use retime_engine::{PhaseTimings, Stage};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, Cut};
use retime_sta::{error_detecting_masters, CutTiming, DelayModel, NodeDelays, TwoPhaseClock};

use crate::area::{AreaModel, SeqBreakdown};
use crate::basis::{BasisSlot, FlowTiming};
use crate::error::RetimeError;
use crate::legalize::{legalize, LegalizeReport};
use crate::problem::RetimingProblem;

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
    /// Uniform per-stage instrumentation, filled in by the flow's
    /// stages (every flow reports the same Table VII breakdown).
    pub phases: PhaseTimings,
    /// Statistical outcome summary (per-sink yields, jitter sensitivity)
    /// — `Some` exactly when the flow ran under
    /// [`DelayModel::Statistical`].
    pub stat: Option<retime_stat::StatSummary>,
}

impl RetimeOutcome {
    /// Assembles the outcome from a final cut: validates it, legalizes
    /// it on `delays` (which leaves its timing under the final delays),
    /// assigns error-detecting masters by margined arrival
    /// ([`FlowTiming::final_arrivals`], [`error_detecting_masters`]), and
    /// totals the area. Shared by the base, VL, and G-RAR flows. It times
    /// the cut with forward passes over the delay tables alone
    /// ([`retime_sta::cut_timing`]), so it needs no analysis, and the
    /// upsized tables become the outcome's `final_delays`.
    ///
    /// # Errors
    /// Propagates cut, legalization, and library failures.
    pub fn assemble(
        cloud: &CombCloud,
        clock: TwoPhaseClock,
        mut delays: NodeDelays,
        model: &AreaModel<'_>,
        cut: Cut,
    ) -> Result<RetimeOutcome, RetimeError> {
        let (report, timing) = legalize(cloud, &clock, &mut delays, &cut, model)?;
        // Under the statistical model the margined arrivals come from the
        // (legalized) canonical forms; the nominal `timing` stays as-is
        // for reporting and replay.
        let (arrivals, stat) = FlowTiming::final_arrivals(cloud, &delays, &clock, &cut, &timing);
        let ed_sinks = error_detecting_masters(cloud, &clock, &arrivals);
        let seq = model.sequential(cloud, &cut, &ed_sinks);
        let comb_area = model.combinational(cloud)? + report.area_penalty;
        let total_area = comb_area + seq.total();
        Ok(RetimeOutcome {
            cut,
            ed_sinks,
            seq,
            comb_area,
            total_area,
            timing,
            legalize: report,
            final_delays: delays,
            phases: PhaseTimings::new(),
            stat,
        })
    }

    /// This outcome billed at `model`'s EDL overhead instead: the same
    /// cut, flags, timing and legalization, with only the sequential
    /// breakdown and `total_area = comb_area + seq.total()` recomputed
    /// (the formula of [`RetimeOutcome::assemble`], so the values are
    /// bit-identical to a fresh run at that overhead). Valid for base
    /// retiming and the virtual-library flow, whose placement and flags
    /// do not depend on the overhead; G-RAR's do.
    ///
    /// The new outcome's instrumentation is the re-pricing's own, under
    /// a `reprice` span: a `solve` stage counting one solver invocation
    /// answered from memory (`solver_invocations` and `warm_hits`), as a
    /// resumed G-RAR probe on a shared basis does, and a `commit` stage
    /// doing the arithmetic.
    pub fn repriced(&self, cloud: &CombCloud, model: &AreaModel<'_>) -> RetimeOutcome {
        let _span = retime_trace::span("reprice");
        let mut phases = PhaseTimings::new();
        let Ok(()) = phases.stage(Stage::Solve, |timings| {
            timings.count("solver_invocations", 1);
            timings.count("warm_hits", 1);
            Ok::<_, Infallible>(())
        });
        let Ok((seq, total_area)) = phases.stage(Stage::Commit, |_| {
            let seq = model.sequential(cloud, &self.cut, &self.ed_sinks);
            Ok::<_, Infallible>((seq, self.comb_area + seq.total()))
        });
        RetimeOutcome {
            cut: self.cut.clone(),
            ed_sinks: self.ed_sinks.clone(),
            seq,
            comb_area: self.comb_area,
            total_area,
            timing: self.timing.clone(),
            legalize: self.legalize.clone(),
            final_delays: self.final_delays.clone(),
            phases,
            stat: self.stat.clone(),
        }
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
    base_retime_with_basis(cloud, lib, clock, model, c, BasisSlot::Fresh)
}

/// [`base_retime`] taking its timing analysis and regions from `basis`.
/// The base problem does not depend on the EDL overhead (it only prices
/// the area bill), so an overhead sweep can skip the re-runs altogether
/// with [`RetimeOutcome::repriced`]. The result is bit-identical to
/// [`base_retime`]'s.
///
/// # Errors
/// Propagates infeasible clocking, STA, and solver failures.
pub fn base_retime_with_basis<'a>(
    cloud: &'a CombCloud,
    lib: &'a Library,
    clock: TwoPhaseClock,
    model: DelayModel,
    c: EdlOverhead,
    basis: BasisSlot<'_, 'a>,
) -> Result<RetimeOutcome, RetimeError> {
    let _flow_span = retime_trace::span("base_retime");
    let mut phases = PhaseTimings::new();

    let (basis, problem) = phases.stage(Stage::Sta, |_| {
        let basis = basis.open(cloud, lib, clock, model)?;
        let mut problem = RetimingProblem::build(cloud, basis.regions());
        // The baseline models the built-in retiming command of a
        // commercial tool: conservative, incremental movement.
        problem.set_movement_penalty(crate::problem::COMMERCIAL_MOVEMENT_PENALTY);
        Ok::<_, RetimeError>((basis, problem))
    })?;
    let sol = phases.stage(Stage::Solve, |timings| {
        timings.count("solver_invocations", 1);
        timings.count("cold_solves", 1);
        problem.solve()
    })?;
    let mut outcome = phases.stage(Stage::Commit, |timings| {
        let area_model = AreaModel::new(lib, c);
        let delays = basis.into_delays();
        let outcome = RetimeOutcome::assemble(cloud, clock, delays, &area_model, sol.cut)?;
        outcome.legalize.record_counters(timings);
        Ok::<_, RetimeError>(outcome)
    })?;
    outcome.phases = phases;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use retime_netlist::bench;
    use retime_sta::TimingAnalysis;

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
        // The reference engine on the base instance (the flow's regions
        // and movement penalty) places as many slaves as the flow.
        let cloud = pipeline();
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(50.0);
        let model = DelayModel::PathBased;
        let out = base_retime(&cloud, &lib, clock, model, EdlOverhead::MEDIUM).unwrap();
        let sta = TimingAnalysis::new(&cloud, &lib, clock, model).unwrap();
        let mut problem = RetimingProblem::build(&cloud, &crate::Regions::compute(&sta).unwrap());
        problem.set_movement_penalty(crate::problem::COMMERCIAL_MOVEMENT_PENALTY);
        let reference = problem
            .solve_with(retime_flow::MinCostFlow::solve_reference)
            .unwrap();
        assert_eq!(out.seq.slaves, reference.cut.slave_count(&cloud));
    }
}
