//! The end-to-end G-RAR driver, running its
//! `Sta → Classify → Solve → Commit` stages through the shared
//! [`retime_engine`] instrumentation. The classification stage — the
//! per-target backward delays and cut-set construction the paper's
//! profiling singles out as the dominant cost — settles what one forward
//! pass can and fans the remaining cone sweeps out across worker
//! threads ([`classify_many`](crate::cutset::classify_many)).

use retime_engine::{PhaseTimings, Stage};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, NodeId, NodeKind};
use retime_retime::{
    AreaModel, BasisSlot, OpenBasis, ParametricProblem, RetimeError, RetimeOutcome,
    RetimingProblem, TargetedInstance, BREADTH_SCALE,
};

use crate::cutset::ClassifyCounts;
use retime_sta::{DelayModel, SinkClass, TwoPhaseClock};

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
    /// The placement, EDL decisions, and area bill. Its `phases` carry
    /// the per-stage instrumentation: `Stage::Classify` the per-endpoint
    /// classification the paper's Table VII discussion singles out, with
    /// its `endpoints`, `bounded`, `swept` and `targets` counters;
    /// `Stage::Solve` the Eq. 14 minimum cut. On the large suite circuits
    /// each takes a fifth to a half of a job (the paper's solve stayed
    /// under 2 %).
    pub outcome: RetimeOutcome,
    /// Endpoints that are error-detecting regardless of retiming.
    pub always_ed: usize,
    /// Endpoints that can never need error detection.
    pub never_ed: usize,
    /// Target masters (pseudo nodes added).
    pub targets: usize,
    /// Targets predicted non-error-detecting by the flow solution.
    pub predicted_saved: usize,
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
    grar_with_basis(cloud, lib, clock, cfg, BasisSlot::Fresh)
}

/// [`grar`] taking its timing analysis, regions and sink
/// classifications from `basis`. A shared basis
/// ([`BasisSlot::Shared`]) also keeps G-RAR's Eq. 14 instance
/// ([`TargetedInstance`]): the first run on it classifies the sinks,
/// builds the instance and solves it from nothing; every later run — the
/// other overheads of Table IV's `c ∈ {0.5, 1.0, 2.0}` sweep — re-prices
/// the pseudo targets at its own `c` and resumes the kept minimum cut.
/// The result is bit-identical to [`grar`]'s at the same `c`. The
/// report's instrumentation counts a resumed solve as `warm_hits` and a
/// solve from nothing as `cold_solves` under `Stage::Solve`, and the
/// sinks read from the basis as `cached` under `Stage::Classify`.
///
/// # Errors
/// The same failures as [`grar`].
pub fn grar_with_basis<'a>(
    cloud: &'a CombCloud,
    lib: &'a Library,
    clock: TwoPhaseClock,
    cfg: &GrarConfig,
    basis: BasisSlot<'_, 'a>,
) -> Result<GrarReport, RetimeError> {
    let _flow_span = retime_trace::span("grar");
    let mut phases = PhaseTimings::new();
    let c_scaled = (cfg.overhead.value() * BREADTH_SCALE as f64).round() as i64;

    // A basis that kept G-RAR's instance needs no new one.
    let (mut basis, problem) = phases.stage(Stage::Sta, |_| {
        let basis = basis.open(cloud, lib, clock, cfg.model)?;
        let problem = basis
            .targeted()
            .is_none()
            .then(|| RetimingProblem::build(cloud, basis.regions()));
        Ok::<_, RetimeError>((basis, problem))
    })?;
    let shared = matches!(basis, OpenBasis::Shared(_));
    // Classify endpoints and add pseudo nodes for targets. Only
    // master-backed sinks carry EDL area (a primary output's master
    // belongs to the environment). The backward passes and cut-sets of
    // the sinks the basis has not classified yet compute in parallel;
    // the pseudo nodes are then added sequentially in sink order, so
    // the constructed flow problem is identical to the sequential
    // path's. A kept instance has them all: its pseudo nodes are
    // re-priced at this run's overhead instead.
    phases.stage(Stage::Classify, |timings| {
        let targets: Vec<(usize, NodeId)> = cloud
            .sinks()
            .iter()
            .enumerate()
            .filter(|&(_, &t)| matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) }))
            .map(|(i, &t)| (i, t))
            .collect();
        timings.count("endpoints", targets.len() as u64);
        let Some(mut problem) = problem else {
            let kept = basis.targeted_slot().as_mut().expect("a kept instance");
            for &(p, _) in &kept.pseudos {
                kept.problem.set_pseudo_overhead(p, c_scaled);
            }
            let cached = targets.len() as u64;
            ClassifyCounts {
                cached,
                ..ClassifyCounts::default()
            }
            .record(timings);
            timings.count("targets", kept.pseudos.len() as u64);
            return Ok::<_, RetimeError>(());
        };
        let sinks: Vec<NodeId> = targets.iter().map(|&(_, t)| t).collect();
        let (classified, counts) = crate::cutset::classify_cached(&mut basis, &sinks, cfg.threads);
        let mut pseudos = Vec::new();
        let (mut always_ed, mut never_ed) = (0, 0);
        for (&(sink_idx, _), (class, g)) in targets.iter().zip(classified) {
            match class {
                SinkClass::AlwaysErrorDetecting => always_ed += 1,
                SinkClass::NeverErrorDetecting => never_ed += 1,
                SinkClass::Target => {
                    let p = problem.add_pseudo_target(&g, c_scaled);
                    pseudos.push((p, sink_idx));
                }
            }
        }
        counts.record(timings);
        timings.count("targets", pseudos.len() as u64);
        *basis.targeted_slot() = Some(TargetedInstance {
            problem: ParametricProblem::new(problem),
            pseudos,
            always_ed,
            never_ed,
        });
        Ok(())
    })?;
    let kept = basis
        .targeted_slot()
        .as_mut()
        .expect("classify keeps the instance");
    // Only a shared basis keeps the closure for a later run to resume.
    // A run's own basis solves its instance once with
    // `RetimingProblem::solve`, which frees the closure before the label
    // checks.
    let sol = phases.stage(Stage::Solve, |timings| {
        timings.count("solver_invocations", 1);
        if shared {
            let resumed = kept.problem.resumes();
            timings.count("warm_hits", u64::from(resumed));
            timings.count("cold_solves", u64::from(!resumed));
            return kept.problem.solve().cloned();
        }
        timings.count("cold_solves", 1);
        kept.problem.problem().solve()
    })?;
    let predicted_saved = kept
        .pseudos
        .iter()
        .filter(|&&(p, _)| sol.r[p] == -1)
        .count();
    let (targets, always_ed, never_ed) = (kept.pseudos.len(), kept.always_ed, kept.never_ed);
    let mut outcome = phases.stage(Stage::Commit, |timings| {
        let model = AreaModel::new(lib, cfg.overhead);
        let delays = basis.into_delays();
        let outcome = RetimeOutcome::assemble(cloud, clock, delays, &model, sol.cut)?;
        outcome.legalize.record_counters(timings);
        Ok::<_, RetimeError>(outcome)
    })?;
    outcome.phases = phases;
    Ok(GrarReport {
        outcome,
        always_ed,
        never_ed,
        targets,
        predicted_saved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_flow::MinCostFlow;
    use retime_netlist::bench;
    use retime_retime::{base_retime, Regions, RetimingSolution, COMMERCIAL_MOVEMENT_PENALTY};
    use retime_sta::TimingAnalysis;
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
        // The flow's own instance, kept in a shared basis, solved by the
        // reference engine: the same optimum, and the flow's cut.
        let mut basis = None;
        let report =
            grar_with_basis(&cloud, &lib, clock, &cfg, BasisSlot::Shared(&mut basis)).unwrap();
        let kept = basis.as_ref().unwrap().targeted().unwrap();
        let (problem, production) = kept.problem.last_solved().unwrap();
        let reference = problem.solve_with(MinCostFlow::solve_reference).unwrap();
        assert_eq!(production.objective_scaled, reference.objective_scaled);
        assert_eq!(production.cut, report.outcome.cut);

        // Larger instances, where the reference engine is too slow: the
        // min cut certifies itself instead. On the G-RAR problem exactly
        // as the flow builds it, and on the base problem under the
        // commercial movement penalty, the verifier's own closure form
        // of the problem solves to a preflow certificate that passes
        // `check_closure_certificate` (optimum and inclusion-minimal),
        // and its members are the production labels. Run with
        // `--release`.
        let synth4x = {
            let base = retime_circuits::paper_suite()
                .into_iter()
                .find(|s| s.name == "s35932")
                .expect("in suite");
            retime_circuits::CircuitSpec {
                name: "synth4x",
                flops: base.flops * 4,
                nce: base.nce * 4,
                gates: base.gates * 4,
                inputs: base.inputs * 4,
                outputs: base.outputs * 4,
                seed: 0x4_35932,
                ..base
            }
        };
        let suite = retime_circuits::paper_suite()
            .into_iter()
            .filter(|s| matches!(s.name, "s35932" | "plasma"))
            .chain([synth4x])
            .map(|spec| {
                let circuit = spec.build().unwrap();
                let clock = circuit
                    .calibrated_clock(&lib, DelayModel::PathBased)
                    .unwrap();
                (spec.name.to_string(), circuit.cloud, clock)
            });
        let loops = [4096, 32768].map(|gates| {
            let netlist = retime_circuits::inverter_loop(gates).unwrap();
            let cloud = CombCloud::extract(&netlist).unwrap();
            let clock = retime_circuits::relaxed_clock(&cloud, &lib).unwrap();
            (format!("inverter_loop_{gates}"), cloud, clock)
        });
        for (name, cloud, clock) in suite.chain(loops) {
            let certify = |flow: &str, p: &RetimingProblem, sol: &RetimingSolution| {
                let mut closure = retime_verify::retiming_closure(p);
                let cert = closure.solve_certified().unwrap();
                retime_verify::check_closure_certificate(&closure, &cert)
                    .unwrap_or_else(|e| panic!("{name} {flow}: {e}"));
                let labels: Vec<i64> = cert.members.iter().map(|&m| -i64::from(m)).collect();
                assert_eq!(sol.r, labels, "{name} {flow}: labels");
            };
            let mut basis = None;
            grar_with_basis(&cloud, &lib, clock, &cfg, BasisSlot::Shared(&mut basis)).unwrap();
            let kept = basis.as_ref().unwrap().targeted().unwrap();
            let (problem, sol) = kept.problem.last_solved().unwrap();
            certify("grar", problem, sol);
            let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
            let mut base = RetimingProblem::build(&cloud, &Regions::compute(&sta).unwrap());
            base.set_movement_penalty(COMMERCIAL_MOVEMENT_PENALTY);
            certify("base", &base, &base.solve().unwrap());
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
        assert!(report.outcome.phases.total() > Duration::ZERO);
        // The G-RAR flow runs no seed/swap stages.
        assert_eq!(report.outcome.phases.get(Stage::Seed), Duration::ZERO);
        assert_eq!(report.outcome.phases.get(Stage::Swap), Duration::ZERO);
        // Only master-backed sinks count as endpoints (z's master is
        // external to the cloud).
        assert!(report.outcome.phases.counter("endpoints") > 0);
        assert!(report.outcome.phases.counter("endpoints") < cloud.sinks().len() as u64);
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
        let mut basis = None;
        let mut targets = 0;
        let mut probes = PhaseTimings::new();
        for c in EdlOverhead::SWEEP {
            let cfg = GrarConfig::new(c);
            let cold = grar(&cloud, &lib, clock, &cfg).unwrap();
            let shared = BasisSlot::Shared(&mut basis);
            let warm = grar_with_basis(&cloud, &lib, clock, &cfg, shared).unwrap();
            assert_eq!(warm.targets, cold.targets);
            assert_eq!(warm.always_ed, cold.always_ed);
            assert_eq!(warm.never_ed, cold.never_ed);
            assert_eq!(warm.outcome.cut, cold.outcome.cut, "cut at {c}");
            assert_eq!(warm.outcome.ed_sinks, cold.outcome.ed_sinks);
            assert_eq!(warm.outcome.final_delays, cold.outcome.final_delays);
            assert_eq!(warm.predicted_saved, cold.predicted_saved);
            assert_eq!(
                warm.outcome.total_area.to_bits(),
                cold.outcome.total_area.to_bits()
            );
            targets = warm.targets;
            probes.merge(&warm.outcome.phases);
        }
        assert!(targets > 0, "clock must be tight enough to create targets");
        // The first probe solves from nothing; each later one re-prices
        // the pseudo targets and resumes the kept cut.
        assert_eq!(probes.counter("cold_solves"), 1);
        assert_eq!(probes.counter("warm_hits"), 2);
        // The shared basis classifies each endpoint once; the later
        // probes read every class from its cache.
        let endpoints = probes.counter("endpoints");
        assert_eq!(probes.counter("cached"), endpoints * 2 / 3);
        // Legalization upsized copies: the basis stays pristine.
        let pristine = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let basis = basis.unwrap();
        assert_eq!(basis.sta().delays(), pristine.delays());
        // The kept instance certifies as last solved, at c = 2.
        let kept = basis.targeted().expect("G-RAR kept its instance");
        let (problem, warm) = kept.problem.last_solved().expect("probe ran");
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
