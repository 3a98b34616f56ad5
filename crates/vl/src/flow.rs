//! The EVL/NVL/RVL virtual-library retiming flows, running their
//! `Sta → Seed → Classify → Solve → Commit → Swap` stages through the
//! shared [`retime_engine`] instrumentation. The classification of non-ED-typed
//! masters fans out across worker threads, through the basis's cache
//! ([`classify_cached`]).

use retime_core::classify_cached;
use retime_engine::{PhaseTimings, Stage};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, ConeWalk, Cut, NodeId, NodeKind};
use retime_retime::{
    AreaModel, BasisSlot, OpenBasis, Region, Regions, RetimeError, RetimeOutcome, RetimingProblem,
};
use retime_sta::{error_detecting_masters, DelayModel, SinkClass, TwoPhaseClock};

/// The three initial-typing variants of Section V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VlVariant {
    /// E-type: every master starts error-detecting.
    Evl,
    /// N-type: every master starts non-error-detecting.
    Nvl,
    /// R-type: near-critical masters start error-detecting.
    Rvl,
}

impl VlVariant {
    /// Short display name (`EVL-RAR` …).
    pub fn name(self) -> &'static str {
        match self {
            VlVariant::Evl => "EVL-RAR",
            VlVariant::Nvl => "NVL-RAR",
            VlVariant::Rvl => "RVL-RAR",
        }
    }
}

/// Configuration of a virtual-library run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VlConfig {
    /// Initial-typing variant.
    pub variant: VlVariant,
    /// EDL area overhead `c`.
    pub overhead: EdlOverhead,
    /// Delay model.
    pub model: DelayModel,
    /// Worker threads for the classification fan-out: `0` = auto
    /// (`RETIME_THREADS` or the machine's parallelism), `1` = the
    /// sequential reference path.
    pub threads: usize,
}

impl VlConfig {
    /// Default configuration for a variant: path-based timing, automatic
    /// thread count.
    pub fn new(variant: VlVariant, overhead: EdlOverhead) -> VlConfig {
        VlConfig {
            variant,
            overhead,
            model: DelayModel::PathBased,
            threads: 0,
        }
    }

    /// Switches the delay model.
    pub fn with_model(mut self, model: DelayModel) -> VlConfig {
        self.model = model;
        self
    }

    /// Pins the classification fan-out width (`1` forces the sequential
    /// path; `0` restores auto).
    pub fn with_threads(mut self, threads: usize) -> VlConfig {
        self.threads = threads;
        self
    }
}

/// Result of a virtual-library run.
#[derive(Debug, Clone)]
pub struct VlReport {
    /// Final placement and area bill.
    pub outcome: RetimeOutcome,
    /// Masters initially typed error-detecting.
    pub typed_ed: usize,
    /// Cloud nodes frozen because their stage was typed as meeting
    /// timing.
    pub frozen_nodes: usize,
    /// Non-ED-typed targets whose frontier the tool managed to force.
    pub forced_targets: usize,
    /// Non-ED-typed masters the tool could not fix (left violating; the
    /// swap step re-types them).
    pub failed_targets: usize,
    /// Masters whose type the post-swap step changed.
    pub swapped: usize,
}

/// Runs the virtual-library flow.
///
/// # Errors
/// Propagates infeasible clocking, STA, and solver failures.
pub fn vl_retime(
    cloud: &CombCloud,
    lib: &Library,
    clock: TwoPhaseClock,
    cfg: &VlConfig,
) -> Result<VlReport, RetimeError> {
    vl_retime_with_basis(cloud, lib, clock, cfg, BasisSlot::Fresh)
}

/// [`vl_retime`] taking its timing analysis, regions and sink
/// classifications from `basis`. The virtual-library solve does not
/// depend on the EDL overhead at all (the overhead only prices the area
/// bill), so an overhead sweep can skip the re-runs altogether by
/// re-pricing the first report's outcome ([`RetimeOutcome::repriced`]).
/// The result is bit-identical to [`vl_retime`]'s; the sinks read from
/// the basis count as `cached` under `Stage::Classify`.
///
/// # Errors
/// The same failures as [`vl_retime`].
pub fn vl_retime_with_basis<'a>(
    cloud: &'a CombCloud,
    lib: &'a Library,
    clock: TwoPhaseClock,
    cfg: &VlConfig,
    basis: BasisSlot<'_, 'a>,
) -> Result<VlReport, RetimeError> {
    let _flow_span = retime_trace::span("vl_retime");
    let mut phases = PhaseTimings::new();
    let front = type_masters(cloud, lib, clock, cfg, basis, &mut phases)?;
    let sol = phases.stage(Stage::Solve, |timings| {
        // 4. The tool's min-area retiming under those constraints.
        timings.count("solver_invocations", 1);
        timings.count("cold_solves", 1);
        instance(cloud, &front.regions).solve()
    })?;
    let area_model = AreaModel::new(lib, cfg.overhead);
    let mut outcome = phases.stage(Stage::Commit, |timings| {
        // 5. Assemble; `assemble` types EDL by actual arrival.
        let delays = front.basis.into_delays();
        let outcome = RetimeOutcome::assemble(cloud, clock, delays, &area_model, sol.cut)?;
        outcome.legalize.record_counters(timings);
        Ok::<_, RetimeError>(outcome)
    })?;
    let swapped = phases.stage(Stage::Swap, |timings| {
        // The post-retiming swap (Section VI-C) keeps the re-typing by
        // actual arrival that `assemble` performed; count the masters it
        // changed.
        let swapped = front
            .typed
            .iter()
            .filter(|&&(i, _, ed)| outcome.ed_sinks[i] != ed)
            .count();
        timings.count("swapped", swapped as u64);
        Ok::<_, RetimeError>(swapped)
    })?;
    outcome.phases = phases;
    Ok(VlReport {
        outcome,
        typed_ed: front.typed_ed,
        frozen_nodes: front.frozen_nodes,
        forced_targets: front.forced_targets,
        failed_targets: front.failed_targets,
        swapped,
    })
}

/// What the stages before the solve settle: the run's basis, the
/// initial typing of the masters, and the legality regions it
/// tightened.
struct Typed<'s, 'a> {
    basis: OpenBasis<'s, 'a>,
    /// The basis's regions, tightened by the seed and classify stages;
    /// the basis keeps the original.
    regions: Regions,
    /// `(sink idx, sink node, typed error-detecting)` per master-backed
    /// sink.
    typed: Vec<(usize, NodeId, bool)>,
    typed_ed: usize,
    frozen_nodes: usize,
    forced_targets: usize,
    failed_targets: usize,
}

/// The tool's min-area retiming instance under `regions` (no EDL
/// coupling in the objective — that is G-RAR's edge), with the
/// conservative movement cost of a commercial retimer.
fn instance(cloud: &CombCloud, regions: &Regions) -> RetimingProblem {
    let mut problem = RetimingProblem::build(cloud, regions);
    problem.set_movement_penalty(retime_retime::COMMERCIAL_MOVEMENT_PENALTY);
    problem
}

/// The flow's `Sta`, `Seed` and `Classify` stages: opens the basis,
/// types the masters, freezes the cones of the error-detecting ones and
/// forces the frontiers of the others.
fn type_masters<'s, 'a>(
    cloud: &'a CombCloud,
    lib: &'a Library,
    clock: TwoPhaseClock,
    cfg: &VlConfig,
    basis: BasisSlot<'s, 'a>,
    phases: &mut PhaseTimings,
) -> Result<Typed<'s, 'a>, RetimeError> {
    // `regions` starts as a copy of the basis's legality regions and is
    // tightened by the seed and classify stages; the basis keeps the
    // original.
    let (mut basis, mut regions) = phases.stage(Stage::Sta, |_| {
        let basis = basis.open(cloud, lib, clock, cfg.model)?;
        let regions = basis.regions().clone();
        Ok::<_, RetimeError>((basis, regions))
    })?;
    // `(sink idx, sink node, typed error-detecting)` per master-backed
    // sink.
    let (typed, typed_ed, frozen_nodes) = phases.stage(Stage::Seed, |timings| {
        // 1. Initial typing per master-backed sink. Near-criticality for
        //    RVL typing follows the paper's Table I definition: the EDL
        //    rule on the margined arrival with the *initial* slave
        //    placement (statistically, the yield-aware near-criticality
        //    rule; at sigma = 0 bitwise the deterministic one). EVL and
        //    NVL time nothing.
        let rvl_flags = if cfg.variant == VlVariant::Rvl {
            let arrivals = basis.sta().cut_arrivals(&Cut::initial(cloud));
            error_detecting_masters(cloud, &clock, &arrivals)
        } else {
            Vec::new()
        };
        let typed: Vec<(usize, NodeId, bool)> = cloud
            .sinks()
            .iter()
            .enumerate()
            .filter(|&(_, &t)| matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) }))
            .map(|(i, &t)| {
                let ed = match cfg.variant {
                    VlVariant::Evl => true,
                    VlVariant::Nvl => false,
                    VlVariant::Rvl => rvl_flags[i],
                };
                (i, t, ed)
            })
            .collect();
        let typed_ed = typed.iter().filter(|&&(_, _, ed)| ed).count();

        // 2. Freeze the fan-in cones of typed-ED stages (the tool's
        //    conservative "timing met, don't touch" behavior) — except
        //    nodes the legality region forces to move.
        //    One walk covers the union of those cones.
        let mut frozen_nodes = 0;
        let mut frozen = ConeWalk::new(cloud);
        let ed_sinks = typed.iter().filter(|&&(_, _, ed)| ed);
        for &v in frozen.walk(cloud, ed_sinks.map(|&(_, t, _)| t)) {
            if basis.regions().of(v) == Region::Free {
                regions.set(v, Region::Forbidden);
                frozen_nodes += 1;
            }
        }
        timings.count("typed_ed", typed_ed as u64);
        timings.count("frozen", frozen_nodes as u64);
        Ok::<_, RetimeError>((typed, typed_ed, frozen_nodes))
    })?;
    let (forced_targets, failed_targets) = phases.stage(Stage::Classify, |timings| {
        // 3. For non-ED-typed masters that violate the tightened setup,
        //    force the slaves past the frontier g(t) where feasible. The
        //    per-target backward passes and cut-sets compute in
        //    parallel; the region mutations then apply sequentially in
        //    sink order, identical to the sequential path.
        let non_ed: Vec<NodeId> = typed
            .iter()
            .filter(|&&(_, _, ed)| !ed)
            .map(|&(_, t, _)| t)
            .collect();
        let (classified, counts) = classify_cached(&mut basis, &non_ed, cfg.threads);
        counts.record(timings);
        let (mut forced_targets, mut failed_targets) = (0, 0);
        let mut walk = ConeWalk::new(cloud);
        for (class, g) in classified {
            match class {
                SinkClass::NeverErrorDetecting => {}
                SinkClass::AlwaysErrorDetecting => failed_targets += 1,
                SinkClass::Target => {
                    // The closure of g(t) must avoid (originally)
                    // forbidden nodes, or the move is illegal and the
                    // tool gives up.
                    let closure = walk.walk(cloud, g);
                    let ok = closure
                        .iter()
                        .all(|&u| basis.regions().of(u) != Region::Forbidden);
                    if ok {
                        for &u in closure {
                            regions.set(u, Region::Mandatory);
                        }
                        forced_targets += 1;
                    } else {
                        failed_targets += 1;
                    }
                }
            }
        }
        timings.count("forced", forced_targets as u64);
        timings.count("failed", failed_targets as u64);
        Ok::<_, RetimeError>((forced_targets, failed_targets))
    })?;
    Ok(Typed {
        basis,
        regions,
        typed,
        typed_ed,
        frozen_nodes,
        forced_targets,
        failed_targets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::bench;
    use retime_retime::base_retime;
    use retime_sta::TimingAnalysis;

    fn testbench() -> CombCloud {
        let mut src = String::from(
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq1 = DFF(d1)\nq2 = DFF(d2)\nq3 = DFF(d3)\n",
        );
        // Deep cone into q1.
        src.push_str("c1 = NAND(a, b)\n");
        for i in 2..=14 {
            src.push_str(&format!("c{i} = NOT(c{})\n", i - 1));
        }
        src.push_str("d1 = BUFF(c14)\n");
        // Medium cone into q2.
        src.push_str("m1 = NOR(b, q1)\n");
        for i in 2..=6 {
            src.push_str(&format!("m{i} = NOT(m{})\n", i - 1));
        }
        src.push_str("d2 = BUFF(m6)\n");
        // Shallow cone into q3.
        src.push_str("d3 = NOR(q2, a)\n");
        src.push_str("z = NOT(q3)\n");
        CombCloud::extract(&bench::parse("vtb", &src).unwrap()).unwrap()
    }

    fn clock_for(cloud: &CombCloud, lib: &Library, factor: f64) -> TwoPhaseClock {
        let sta = TimingAnalysis::new(
            cloud,
            lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let crit = cloud
            .sinks()
            .iter()
            .map(|&t| sta.df(t))
            .fold(0.0f64, f64::max);
        let latch = lib.latch();
        TwoPhaseClock::from_max_delay(crit * factor + latch.d_to_q + latch.clk_to_q)
    }

    #[test]
    fn all_variants_run_and_balance() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        for variant in [VlVariant::Evl, VlVariant::Nvl, VlVariant::Rvl] {
            let cfg = VlConfig::new(variant, EdlOverhead::MEDIUM);
            let rep = vl_retime(&cloud, &lib, clock, &cfg).unwrap();
            rep.outcome.cut.validate(&cloud).unwrap();
            let expect = rep.outcome.comb_area + rep.outcome.seq.total();
            assert!(
                (rep.outcome.total_area - expect).abs() < 1e-9,
                "{variant:?} books must balance"
            );
        }
    }

    #[test]
    fn evl_freezes_everything() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        let rep = vl_retime(
            &cloud,
            &lib,
            clock,
            &VlConfig::new(VlVariant::Evl, EdlOverhead::MEDIUM),
        )
        .unwrap();
        assert!(rep.frozen_nodes > 0);
        // With everything typed ED and frozen, slaves stay near the
        // sources: as many slaves as an un-retimed design would have
        // (modulo legality-mandated moves).
        assert!(rep.outcome.seq.slaves >= cloud.sources().len() - 2);
    }

    #[test]
    fn rvl_not_worse_than_evl() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        for c in EdlOverhead::SWEEP {
            let evl = vl_retime(&cloud, &lib, clock, &VlConfig::new(VlVariant::Evl, c)).unwrap();
            let rvl = vl_retime(&cloud, &lib, clock, &VlConfig::new(VlVariant::Rvl, c)).unwrap();
            assert!(
                rvl.outcome.total_area <= evl.outcome.total_area + 1e-9,
                "RVL must not lose to EVL at {c} ({} vs {})",
                rvl.outcome.total_area,
                evl.outcome.total_area
            );
        }
    }

    #[test]
    fn post_swap_reclaims_area() {
        // The paper: without the swap step the improvement can go
        // negative; with it, unnecessary EDL is reclaimed. Priced against
        // EVL's initial all-error-detecting typing, the swapped outcome is
        // no larger, and `swapped` counts exactly the re-typed masters.
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.3);
        let c = EdlOverhead::HIGH;
        let rep = vl_retime(&cloud, &lib, clock, &VlConfig::new(VlVariant::Evl, c)).unwrap();
        let outcome = &rep.outcome;
        let masters: Vec<bool> = cloud
            .sinks()
            .iter()
            .map(|&t| matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) }))
            .collect();
        let typed = AreaModel::new(&lib, c).sequential(&cloud, &outcome.cut, &masters);
        assert_eq!(typed.edl, typed.masters);
        assert!(outcome.seq.total() <= typed.total() + 1e-9);
        let retyped = masters
            .iter()
            .zip(&outcome.ed_sinks)
            .filter(|&(&m, &ed)| m && !ed)
            .count();
        assert_eq!(rep.swapped, retyped);
        assert_eq!(outcome.seq.edl, typed.edl - rep.swapped);
    }

    #[test]
    fn nvl_forces_frontiers_or_fails_loudly() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        let rep = vl_retime(
            &cloud,
            &lib,
            clock,
            &VlConfig::new(VlVariant::Nvl, EdlOverhead::MEDIUM),
        )
        .unwrap();
        // NVL types nothing ED, so no stage is frozen; every window
        // endpoint is either forced past its frontier or recorded as a
        // tool failure.
        assert_eq!(rep.typed_ed, 0);
        assert_eq!(rep.frozen_nodes, 0);
        assert!(rep.forced_targets + rep.failed_targets > 0);
    }

    #[test]
    fn rvl_typed_counts_match_initial_window() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        let rep = vl_retime(
            &cloud,
            &lib,
            clock,
            &VlConfig::new(VlVariant::Rvl, EdlOverhead::MEDIUM),
        )
        .unwrap();
        // RVL freezing means the final EDL count equals the typed count
        // (nothing gets rescued, nothing new falls in: the signature of
        // Table VI).
        assert_eq!(rep.outcome.seq.edl, rep.typed_ed);
    }

    #[test]
    fn vl_flow_reports_uniform_phase_timings() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        let rep = vl_retime(
            &cloud,
            &lib,
            clock,
            &VlConfig::new(VlVariant::Rvl, EdlOverhead::MEDIUM),
        )
        .unwrap();
        let phases = &rep.outcome.phases;
        assert!(phases.total() > std::time::Duration::ZERO);
        assert_eq!(phases.counter("typed_ed"), rep.typed_ed as u64);
        assert_eq!(phases.counter("forced"), rep.forced_targets as u64);
    }

    #[test]
    fn parallel_classify_matches_sequential_vl_run() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        for variant in [VlVariant::Evl, VlVariant::Nvl, VlVariant::Rvl] {
            let cfg = VlConfig::new(variant, EdlOverhead::MEDIUM);
            let seq = vl_retime(&cloud, &lib, clock, &cfg.with_threads(1)).unwrap();
            let par = vl_retime(&cloud, &lib, clock, &cfg.with_threads(4)).unwrap();
            assert_eq!(seq.typed_ed, par.typed_ed);
            assert_eq!(seq.forced_targets, par.forced_targets);
            assert_eq!(seq.failed_targets, par.failed_targets);
            assert_eq!(seq.outcome.cut, par.outcome.cut);
            assert_eq!(seq.outcome.ed_sinks, par.outcome.ed_sinks);
            assert!((seq.outcome.total_area - par.outcome.total_area).abs() < 1e-12);
        }
    }

    #[test]
    fn warm_sweep_is_bit_identical_to_cold_runs_across_overheads() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        let mut basis = None;
        let mut probes = PhaseTimings::new();
        for c in EdlOverhead::SWEEP {
            let cfg = VlConfig::new(VlVariant::Rvl, c);
            let cold = vl_retime(&cloud, &lib, clock, &cfg).unwrap();
            let shared = BasisSlot::Shared(&mut basis);
            let warm = vl_retime_with_basis(&cloud, &lib, clock, &cfg, shared).unwrap();
            assert_eq!(warm.outcome.cut, cold.outcome.cut, "cut at {c}");
            assert_eq!(warm.outcome.ed_sinks, cold.outcome.ed_sinks);
            assert_eq!(warm.swapped, cold.swapped);
            assert!((warm.outcome.total_area - cold.outcome.total_area).abs() < 1e-12);
            probes.merge(&warm.outcome.phases);
        }
        // Every probe solves its instance from nothing.
        assert_eq!(probes.counter("solver_invocations"), 3);
        assert_eq!(probes.counter("cold_solves"), 3);
        assert_eq!(probes.counter("warm_hits"), 0);
        // The first probe classified the non-ED-typed masters; the
        // later ones read them from the shared basis.
        let masters = retime_retime::master_backed_sinks(&cloud).len() as u64;
        let non_ed = masters - probes.counter("typed_ed") / 3;
        assert!(non_ed > 0);
        assert_eq!(probes.counter("cached"), 2 * non_ed);
    }

    /// RVL-RAR's optimality proof. The certificate checker proves G-RAR
    /// and base retiming optimal but cannot rebuild RVL-RAR's tightened
    /// regions, so the instance the flow solves is certified here: on
    /// every tiny-suite circuit at each Table IV overhead, its solution
    /// must satisfy the ILP, agree with its cut and objective, and reach
    /// the optimum of a checked min-cut certificate.
    #[test]
    fn rvl_instance_solutions_certify_optimal_on_the_tiny_suite() {
        let lib = Library::fdsoi28();
        for spec in retime_circuits::paper_suite().into_iter().take(4) {
            let circuit = spec.build().unwrap();
            let cloud = &circuit.cloud;
            let clock = circuit
                .calibrated_clock(&lib, DelayModel::PathBased)
                .unwrap();
            let mut first = None;
            for c in EdlOverhead::SWEEP {
                let cfg = VlConfig::new(VlVariant::Rvl, c);
                let mut phases = PhaseTimings::new();
                let front =
                    type_masters(cloud, &lib, clock, &cfg, BasisSlot::Fresh, &mut phases).unwrap();
                let problem = instance(cloud, &front.regions);
                let sol = problem.solve().unwrap();
                retime_verify::verify_retiming_solution(&problem, &sol)
                    .unwrap_or_else(|e| panic!("{} at {c}: {e}", spec.name));
                // The flow's own run reaches the same placement.
                let report = vl_retime(cloud, &lib, clock, &cfg).unwrap();
                assert_eq!(report.outcome.cut, sol.cut, "{} at {c}", spec.name);
                // The overhead never reaches the instance.
                assert_eq!(first.get_or_insert_with(|| problem.clone()), &problem);
            }
        }
    }

    /// RVL-RAR types by the paper's Table I definition, and so does the
    /// suite's NCE column: on every tiny-suite circuit under its
    /// calibrated clock, the masters RVL-RAR types error-detecting are
    /// exactly the near-critical endpoints.
    #[test]
    fn rvl_typing_counts_the_table_i_near_critical_endpoints() {
        let lib = Library::fdsoi28();
        let model = DelayModel::PathBased;
        for spec in retime_circuits::paper_suite().into_iter().take(4) {
            let circuit = spec.build().unwrap();
            let clock = circuit.calibrated_clock(&lib, model).unwrap();
            let nce = circuit.nce_count(&lib, model, clock).unwrap();
            let cfg = VlConfig::new(VlVariant::Rvl, EdlOverhead::MEDIUM);
            let report = vl_retime(&circuit.cloud, &lib, clock, &cfg).unwrap();
            assert_eq!(report.typed_ed, nce, "{}", spec.name);
        }
    }

    #[test]
    fn statistical_vl_attaches_summary_and_balances() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.4);
        let params = retime_sta::StatParams::new(0.03, 0.005, 0.9987, 0x5EED);
        for variant in [VlVariant::Evl, VlVariant::Nvl, VlVariant::Rvl] {
            let cfg = VlConfig::new(variant, EdlOverhead::MEDIUM)
                .with_model(DelayModel::Statistical(params));
            let rep = vl_retime(&cloud, &lib, clock, &cfg).unwrap();
            rep.outcome.cut.validate(&cloud).unwrap();
            let stat = rep.outcome.stat.as_ref().expect("statistical summary");
            assert_eq!(stat.yields.len(), cloud.sinks().len());
            let expect = rep.outcome.comb_area + rep.outcome.seq.total();
            assert!(
                (rep.outcome.total_area - expect).abs() < 1e-9,
                "{variant:?}"
            );
        }
    }

    #[test]
    fn sigma_zero_vl_matches_gate_based_bitwise() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        let zero = DelayModel::Statistical(retime_sta::StatParams::new(0.0, 0.0, 0.9987, 1));
        for variant in [VlVariant::Evl, VlVariant::Nvl, VlVariant::Rvl] {
            let det = vl_retime(
                &cloud,
                &lib,
                clock,
                &VlConfig::new(variant, EdlOverhead::MEDIUM).with_model(DelayModel::GateBased),
            )
            .unwrap();
            let stat = vl_retime(
                &cloud,
                &lib,
                clock,
                &VlConfig::new(variant, EdlOverhead::MEDIUM).with_model(zero),
            )
            .unwrap();
            assert_eq!(det.typed_ed, stat.typed_ed, "{variant:?}");
            assert_eq!(det.outcome.cut, stat.outcome.cut);
            assert_eq!(det.outcome.ed_sinks, stat.outcome.ed_sinks);
            assert_eq!(det.swapped, stat.swapped);
            assert_eq!(
                det.outcome.total_area.to_bits(),
                stat.outcome.total_area.to_bits()
            );
        }
    }

    #[test]
    fn grar_beats_rvl_or_ties() {
        // Section VI-D: G-RAR outperforms RVL-RAR on sequential cost.
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        for c in EdlOverhead::SWEEP {
            let rvl = vl_retime(&cloud, &lib, clock, &VlConfig::new(VlVariant::Rvl, c)).unwrap();
            let g =
                retime_core::grar(&cloud, &lib, clock, &retime_core::GrarConfig::new(c)).unwrap();
            assert!(
                g.outcome.seq.total() <= rvl.outcome.seq.total() + 1e-9,
                "G-RAR must not lose to RVL at {c}"
            );
        }
    }

    #[test]
    fn base_not_better_than_grar_but_vl_between() {
        let cloud = testbench();
        let lib = Library::fdsoi28();
        let clock = clock_for(&cloud, &lib, 1.1);
        let c = EdlOverhead::HIGH;
        let base = base_retime(&cloud, &lib, clock, DelayModel::PathBased, c).unwrap();
        let rvl = vl_retime(&cloud, &lib, clock, &VlConfig::new(VlVariant::Rvl, c)).unwrap();
        let g = retime_core::grar(&cloud, &lib, clock, &retime_core::GrarConfig::new(c)).unwrap();
        assert!(g.outcome.seq.total() <= base.seq.total() + 1e-9);
        // RVL's freezing can cost slaves but save EDL; just require it
        // lands in a sane range.
        assert!(rvl.outcome.seq.total() > 0.0);
    }
}
