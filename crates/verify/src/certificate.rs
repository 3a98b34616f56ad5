//! The retiming-certificate checker.
//!
//! [`verify_certificate`] takes a finished flow result (base, G-RAR, or
//! virtual-library) and re-derives everything it claims from scratch:
//! the region bounds and target cut-sets come from a fresh STA pass on
//! the *original* library delays (the cut-sets from the definitional
//! per-sink classification, not the production kernel), the ILP is
//! rebuilt and the labels checked against it, timing and EDL typing are
//! recomputed from the outcome's final (legalized) delays, the area
//! bill is recounted against the library, and the retimed netlist is
//! simulated against the original. For G-RAR and base retiming the
//! checker additionally certifies optimality, not just feasibility: it
//! rebuilds the instance the flow solved — G-RAR's with its pseudo
//! targets (its movement penalty is a pure tie-break), base retiming's
//! with no targets under the commercial movement penalty — solves its
//! own closure form of it ([`retiming_closure`]) as a certified minimum
//! cut, checks the cut's preflow certificate in linear time
//! ([`check_closure_certificate`]), and demands that the outcome reach
//! the certified optimum. The solver that produces the certificate is
//! not trusted; only the check is.
//!
//! Soundness across flows: the virtual-library flow only *tightens*
//! retiming regions (Free → Forbidden when freezing cones, Free →
//! Mandatory when forcing targets), so every flow's cut must satisfy the
//! base region bounds the checker rebuilds — ILP feasibility is checked
//! for all three flows, optimality for G-RAR and base retiming. The
//! tightened regions depend on the flow's typing, which the checker
//! does not replay, so a virtual-library result is not proved optimal
//! here; `retime-vl`'s tests certify RVL-RAR's instance solves with
//! [`verify_retiming_solution`].

use retime_core::{classify_each, IlpFormulation};
use retime_engine::{parallel_map, PhaseTimings, Stage};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, Cut, Netlist, NodeId, NodeKind};
use retime_retime::{
    AreaModel, FlowTiming, Regions, RetimeOutcome, RetimingProblem, RetimingSolution,
    BREADTH_SCALE, COMMERCIAL_MOVEMENT_PENALTY,
};
use retime_sim::equivalent;
use retime_sta::{
    cut_timing, error_detecting_masters, is_error_detecting, CutTiming, DelayModel, SinkClass,
    TwoPhaseClock,
};

use crate::error::VerifyError;
use crate::flowcheck::{check_closure_certificate, retiming_closure};

/// Which flow produced the certificate under check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// Resiliency-unaware base retiming, certified optimal for its
    /// instance under the commercial movement penalty.
    Base,
    /// G-RAR, certified optimal for its Eq. 14 instance.
    Grar,
    /// A virtual-library variant (EVL/NVL/RVL), whose tightened regions
    /// the checker cannot rebuild: feasibility only.
    Vl,
}

impl FlowKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Base => "base",
            FlowKind::Grar => "grar",
            FlowKind::Vl => "vl",
        }
    }
}

/// Everything the checker re-derives a certificate from: the circuit and
/// the run parameters the flow was given. Deliberately *not* the flow's
/// internal state — the whole point is an independent reconstruction.
#[derive(Debug, Clone, Copy)]
pub struct VerifySetup<'a> {
    /// The original (pre-retiming) netlist.
    pub netlist: &'a Netlist,
    /// The combinational cloud the flow retimed.
    pub cloud: &'a CombCloud,
    /// The cell library.
    pub lib: &'a Library,
    /// The two-phase clock the flow targeted.
    pub clock: TwoPhaseClock,
    /// The delay model the flow classified with.
    pub model: DelayModel,
    /// The EDL area overhead `c`.
    pub overhead: EdlOverhead,
}

/// Knobs of a verification run.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Random stimulus cycles for the functional-equivalence check
    /// (`0` skips simulation).
    pub cycles: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// Worker threads for the classification fan-out (`0` = auto).
    pub threads: usize,
    /// Monte Carlo samples for the statistical-yield cross-check (`0`
    /// skips it; ignored outside `DelayModel::Statistical`).
    pub mc_samples: usize,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            cycles: 256,
            seed: 0x5EED_CE27,
            threads: 0,
            mc_samples: 4096,
        }
    }
}

/// What a successful verification established.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Target masters found by the checker's own classification.
    pub targets: usize,
    /// Targets whose whole cut-set the certificate retimed through
    /// (each independently confirmed non-error-detecting; statistically,
    /// at its canonical placement).
    pub targets_saved: usize,
    /// Stimulus cycles simulated without divergence.
    pub cycles: usize,
    /// Wall-clock of the verification, under [`Stage::Verify`], plus
    /// `verify_checks` / `verify_targets` / `verify_cycles` counters —
    /// merge into the flow's own [`PhaseTimings`] to publish.
    pub phases: PhaseTimings,
}

/// Independently re-validates a finished flow result. See the module
/// docs for what is re-derived and from where.
///
/// # Errors
/// Returns the first failed check as a diagnosis-specific
/// [`VerifyError`].
pub fn verify_certificate(
    setup: &VerifySetup<'_>,
    kind: FlowKind,
    outcome: &RetimeOutcome,
    opts: &VerifyOptions,
) -> Result<VerifyReport, VerifyError> {
    let cloud = setup.cloud;
    let mut phases = PhaseTimings::new();
    let mut checks = 0;

    // Labels: rebuild regions + targets from scratch, check the cut and
    // its retiming labels against the Eq. (10) ILP, and (G-RAR, base)
    // certify optimality from a min cut's preflow. Yields, in sink order,
    // `(pseudo flow node, sink idx)` per target master, the sinks
    // classified never-error-detecting, and the full label assignment.
    let (pseudos, never_ed, full) = phases.stage(Stage::Verify, |_| {
        let _span = retime_trace::span("verify_labels");
        let sta = FlowTiming::new(cloud, setup.lib, setup.clock, setup.model).map_err(internal)?;
        let regions = sta.regions().map_err(internal)?;
        let mut problem = RetimingProblem::build(cloud, &regions);
        let targets: Vec<(usize, NodeId)> = cloud
            .sinks()
            .iter()
            .enumerate()
            .filter(|&(_, &t)| matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) }))
            .map(|(i, &t)| (i, t))
            .collect();
        let sinks: Vec<NodeId> = targets.iter().map(|&(_, t)| t).collect();
        let classified = reference_classes(&sta, &sinks, opts.threads);
        let c_scaled = (setup.overhead.value() * BREADTH_SCALE as f64).round() as i64;
        let stat_mode = matches!(setup.model, DelayModel::Statistical(_));
        let (mut pseudos, mut never_ed) = (Vec::new(), Vec::new());
        // Statistically, each target's g(t), aligned with `pseudos`.
        let mut cut_sets = Vec::new();
        for (&(sink_idx, _), (class, g)) in targets.iter().zip(classified) {
            match class {
                SinkClass::Target => {
                    let p = problem.add_pseudo_target(&g, c_scaled);
                    pseudos.push((p, sink_idx));
                    if stat_mode {
                        cut_sets.push(g);
                    }
                }
                SinkClass::NeverErrorDetecting => never_ed.push(sink_idx),
                SinkClass::AlwaysErrorDetecting => {}
            }
        }

        outcome
            .cut
            .validate(cloud)
            .map_err(|e| VerifyError::IllegalCut {
                detail: e.to_string(),
            })?;
        if !outcome.cut.check_paths(cloud) {
            return Err(VerifyError::IllegalCut {
                detail: "a source→sink path does not cross exactly one slave latch".into(),
            });
        }
        let moved: Vec<bool> = cloud.node_ids().map(|v| outcome.cut.is_moved(v)).collect();
        let full = problem.full_assignment_for(&moved);
        let ilp = IlpFormulation::from_problem(&problem);
        if !ilp.is_feasible(&full) {
            return Err(VerifyError::LabelInfeasible {
                violated: first_violation(&ilp, &full),
            });
        }
        checks += 3;

        match kind {
            FlowKind::Grar => certify_optimal(&problem, &moved)?,
            FlowKind::Base => certify_optimal(&base_instance(cloud, &regions), &moved)?,
            FlowKind::Vl => {}
        }
        checks += u64::from(kind != FlowKind::Vl);
        if stat_mode {
            let credited: Vec<(usize, Vec<NodeId>)> = pseudos
                .iter()
                .zip(cut_sets)
                .filter(|&(&(p, _), _)| full[p] == -1)
                .map(|(&(_, sink_idx), g)| (sink_idx, g))
                .collect();
            if let Some(i) = broken_stat_promise(&sta, &credited, &never_ed, opts.threads) {
                return Err(VerifyError::CutSetInconsistent {
                    sink: cloud.node_name(cloud.sinks()[i]).to_string(),
                });
            }
            checks += 1;
        }
        Ok((pseudos, never_ed, full))
    })?;
    // Timing + EDL typing: a from-scratch arrival pass of the final cut
    // over the final (legalized) delays must reproduce the stored
    // CutTiming exactly, the window must be legal, the EDL flags must
    // match the arrival-based rule, and every reclaimed target must
    // really land outside the window.
    phases.stage(Stage::Verify, |_| {
        let _span = retime_trace::span("verify_timing");
        let fresh = cut_timing(cloud, &outcome.final_delays, &setup.clock, &outcome.cut);
        if let Some(&v) = fresh.setup_violations.first() {
            return Err(VerifyError::WindowViolation {
                kind: "setup",
                node: cloud.node_name(v).to_string(),
            });
        }
        if let Some(&v) = fresh.capture_violations.first() {
            return Err(VerifyError::WindowViolation {
                kind: "capture",
                node: cloud.node_name(v).to_string(),
            });
        }
        if fresh != outcome.timing {
            return Err(VerifyError::TimingMismatch {
                detail: timing_diff(cloud, &outcome.timing, &fresh),
            });
        }
        // EDL typing: the EDL rule on the margined arrivals of an exact
        // replay over the final delays. Statistically the replay must
        // also reproduce the claimed `StatSummary` bit for bit, and its
        // analytic yields are then cross-checked against an independent
        // plain Monte Carlo that shares no propagation code with the
        // canonical-form engine.
        let (arrivals, summary) = FlowTiming::final_arrivals(
            cloud,
            &outcome.final_delays,
            &setup.clock,
            &outcome.cut,
            &fresh,
        );
        let detail = match (&outcome.stat, &summary) {
            (Some(claimed), Some(replayed)) if claimed == replayed => None,
            (None, None) => None,
            (Some(_), Some(_)) => {
                Some("statistical summary differs from an exact replay over the final delays")
            }
            (None, Some(_)) => Some("statistical flow produced no StatSummary"),
            (Some(_), None) => Some("deterministic flow carries a StatSummary"),
        };
        if let Some(detail) = detail {
            return Err(VerifyError::TimingMismatch {
                detail: detail.into(),
            });
        }
        if let Some(summary) = &summary {
            if opts.mc_samples > 0 {
                let mc = crate::mc::mc_yields(
                    cloud,
                    &outcome.final_delays,
                    setup.clock,
                    &outcome.cut,
                    opts.mc_samples,
                    opts.seed,
                );
                for (i, (&sampled, &analytic)) in mc.yields.iter().zip(&summary.yields).enumerate()
                {
                    let tolerance = crate::mc::mc_tolerance(analytic, mc.samples);
                    if (sampled - analytic).abs() > tolerance {
                        return Err(VerifyError::YieldMismatch {
                            sink: cloud.node_name(cloud.sinks()[i]).to_string(),
                            analytic,
                            monte_carlo: sampled,
                            tolerance,
                        });
                    }
                }
                checks += 1;
            }
            checks += 1;
        }
        let flags = error_detecting_masters(cloud, &setup.clock, &arrivals);
        if flags.len() != outcome.ed_sinks.len() {
            return Err(internal(format!(
                "certificate carries {} EDL flags for {} sinks",
                outcome.ed_sinks.len(),
                flags.len()
            )));
        }
        if let Some(i) = (0..flags.len()).find(|&i| flags[i] != outcome.ed_sinks[i]) {
            return Err(VerifyError::EdlFlagMismatch {
                sink: cloud.node_name(cloud.sinks()[i]).to_string(),
                claimed: outcome.ed_sinks[i],
                recomputed: flags[i],
            });
        }
        // Cut-set soundness under the deterministic models: a target
        // whose whole g(t) was retimed through, and any never-ED
        // sink, must time outside the window. This holds for every
        // placement that moves g(t), and legalization only speeds
        // gates up: both can only lower the max-plus sink arrival.
        // The statistical promise is narrower and was checked with
        // the labels (`broken_stat_promise`).
        if summary.is_none() {
            let credited = pseudos
                .iter()
                .filter(|&&(p, _)| full[p] == -1)
                .map(|&(_, i)| i);
            let mut promised = credited.chain(never_ed.iter().copied());
            if let Some(i) = promised.find(|&i| is_error_detecting(arrivals[i], &setup.clock)) {
                return Err(VerifyError::CutSetInconsistent {
                    sink: cloud.node_name(cloud.sinks()[i]).to_string(),
                });
            }
        }
        checks += 4;
        Ok(())
    })?;
    // Area: recount the sequential breakdown and the combinational bill
    // against the library.
    phases.stage(Stage::Verify, |_| {
        let _span = retime_trace::span("verify_area");
        let area_model = AreaModel::new(setup.lib, setup.overhead);
        let seq = area_model.sequential(cloud, &outcome.cut, &outcome.ed_sinks);
        let counts: [(&'static str, usize, usize); 3] = [
            ("slaves", outcome.seq.slaves, seq.slaves),
            ("masters", outcome.seq.masters, seq.masters),
            ("edl", outcome.seq.edl, seq.edl),
        ];
        for (field, claimed, recomputed) in counts {
            if claimed != recomputed {
                return Err(VerifyError::AreaMismatch {
                    field,
                    claimed: claimed as f64,
                    recomputed: recomputed as f64,
                });
            }
        }
        let comb =
            area_model.combinational(cloud).map_err(internal)? + outcome.legalize.area_penalty;
        let figures: [(&'static str, f64, f64); 5] = [
            ("slave_area", outcome.seq.slave_area, seq.slave_area),
            ("master_area", outcome.seq.master_area, seq.master_area),
            ("edl_area", outcome.seq.edl_area, seq.edl_area),
            ("comb_area", outcome.comb_area, comb),
            ("total_area", outcome.total_area, comb + seq.total()),
        ];
        for (field, claimed, recomputed) in figures {
            if (claimed - recomputed).abs() > 1e-9 {
                return Err(VerifyError::AreaMismatch {
                    field,
                    claimed,
                    recomputed,
                });
            }
        }
        checks += 8;
        Ok(())
    })?;
    // Functional equivalence: the retimed netlist must compute the same
    // cycle-level outputs as the original under random stimulus.
    phases.stage(Stage::Verify, |_| {
        let _span = retime_trace::span("verify_equivalence");
        if opts.cycles == 0 {
            return Ok(());
        }
        let retimed =
            outcome
                .cut
                .apply(cloud, setup.netlist)
                .map_err(|e| VerifyError::IllegalCut {
                    detail: e.to_string(),
                })?;
        match equivalent(setup.netlist, &retimed, opts.cycles, opts.seed).map_err(internal)? {
            Ok(()) => {}
            Err(cycle) => return Err(VerifyError::NotEquivalent { cycle }),
        }
        checks += 1;
        Ok(())
    })?;

    let targets_saved = pseudos.iter().filter(|&&(p, _)| full[p] == -1).count();
    phases.count("verify_checks", checks);
    phases.count("verify_targets", pseudos.len() as u64);
    phases.count("verify_cycles", opts.cycles as u64);
    Ok(VerifyReport {
        targets: pseudos.len(),
        targets_saved,
        cycles: opts.cycles,
        phases,
    })
}

/// Checks a raw [`RetimingSolution`] against its [`RetimingProblem`]:
/// label/cut agreement, ILP feasibility, objective accounting, and
/// optimality against a certified minimum cut (see the module docs).
///
/// # Errors
/// Returns the first failed check as a diagnosis-specific
/// [`VerifyError`].
pub fn verify_retiming_solution(
    problem: &RetimingProblem,
    sol: &RetimingSolution,
) -> Result<(), VerifyError> {
    if sol.r.len() != problem.node_count() {
        return Err(internal(format!(
            "solution carries {} labels for {} flow nodes",
            sol.r.len(),
            problem.node_count()
        )));
    }
    let ilp = IlpFormulation::from_problem(problem);
    if !ilp.is_feasible(&sol.r) {
        return Err(VerifyError::LabelInfeasible {
            violated: first_violation(&ilp, &sol.r),
        });
    }
    let moved: Vec<bool> = sol.r[..problem.cloud_len()]
        .iter()
        .map(|&x| x == -1)
        .collect();
    if let Some(v) =
        (0..problem.cloud_len()).find(|&v| sol.cut.is_moved(NodeId(v as u32)) != moved[v])
    {
        return Err(VerifyError::IllegalCut {
            detail: format!("cut disagrees with label r({v}) = {}", sol.r[v]),
        });
    }
    let recomputed = problem.objective_scaled_for(&moved);
    if recomputed != sol.objective_scaled {
        return Err(VerifyError::ObjectiveMismatch {
            reported: sol.objective_scaled,
            recomputed,
        });
    }
    certify_optimal(problem, &moved)
}

/// The base flow's instance: the regions with no pseudo targets, under
/// the commercial movement penalty.
fn base_instance(cloud: &CombCloud, regions: &Regions) -> RetimingProblem {
    let mut problem = RetimingProblem::build(cloud, regions);
    problem.set_movement_penalty(COMMERCIAL_MOVEMENT_PENALTY);
    problem
}

/// Proves the cloud assignment `moved` an optimum of `problem`. The
/// verifier's own closure form of the problem is solved as a certified
/// minimum cut and its certificate checked; the assignment's closure
/// weight, with the mirror and pseudo labels it implies, must then reach
/// the certified maximum. Runs in a `verify_optimality` span.
fn certify_optimal(problem: &RetimingProblem, moved: &[bool]) -> Result<(), VerifyError> {
    let _span = retime_trace::span("verify_optimality");
    let mut closure = retiming_closure(problem);
    let cert = closure.solve_certified().map_err(internal)?;
    check_closure_certificate(&closure, &cert)?;
    let (w, labels) = (closure.weights(), problem.full_assignment_for(moved));
    let best: i64 = (0..w.len())
        .filter(|&v| cert.members[v])
        .map(|v| w[v])
        .sum();
    let weight: i64 = (0..w.len())
        .filter(|&v| labels[v] == -1)
        .map(|v| w[v])
        .sum();
    // The labels are a feasible closure (the caller checked them against
    // the ILP), so they weigh at most the certified maximum.
    if weight < best {
        // Closure weight is a constant minus the penalized objective.
        let moves = moved.iter().filter(|&&m| m).count() as i64;
        let achieved = problem.objective_scaled_for(moved) + problem.movement_penalty() * moves;
        return Err(VerifyError::Suboptimal {
            certificate: achieved,
            optimum: achieved + weight - best,
        });
    }
    Ok(())
}

/// The sink classes and cut-sets the certificate is checked against:
/// the definitional per-sink [`retime_core::classify_and_cut_set`] in the
/// analysis's arithmetic ([`classify_each`]), never the production
/// `classify_many` kernel, so a bug in that kernel cannot certify itself.
fn reference_classes(
    sta: &FlowTiming<'_>,
    sinks: &[NodeId],
    threads: usize,
) -> Vec<(SinkClass, Vec<NodeId>)> {
    match sta {
        FlowTiming::Nominal(sta) => classify_each(sta, sinks, threads).0,
        FlowTiming::Statistical(sta) => classify_each(sta, sinks, threads).0,
    }
}

/// The statistical cut-set promise, where it holds. Clark's max is not
/// monotone in `m + z·σ`, so a cut past g(t) can lower a sink's mean yet
/// pass more sigma (plasma's `rfK_30.d`). Each credited `(sink index,
/// g(t))` must time outside the window with exactly the fan-in closure
/// of g(t) moved, and each never-ED sink at the initial placement. Each
/// placement is replayed as a whole-cloud [`Cut`] through
/// [`FlowTiming::cut_arrivals`] and the EDL rule, not the classifier's
/// cone walk; no summary is built. Returns the first sink that breaks
/// its promise.
fn broken_stat_promise(
    sta: &FlowTiming<'_>,
    credited: &[(usize, Vec<NodeId>)],
    never_ed: &[usize],
    threads: usize,
) -> Option<usize> {
    let _span = retime_trace::span("verify_stat_promises");
    let cloud = sta.cloud();
    let flagged = |cut: &Cut, i: usize| is_error_detecting(sta.cut_arrivals(cut)[i], sta.clock());
    let canonical = |(i, g): &(usize, Vec<NodeId>)| {
        let mut moved = vec![false; cloud.len()];
        let mut stack = g.clone();
        while let Some(v) = stack.pop() {
            if !std::mem::replace(&mut moved[v.index()], true) {
                stack.extend(cloud.fanin(v));
            }
        }
        let cut = Cut::from_moved(cloud, moved);
        let legal = cut.validate(cloud).is_ok() && cut.check_paths(cloud);
        (!legal || flagged(&cut, *i)).then_some(*i)
    };
    let initial = sta.cut_arrivals(&Cut::initial(cloud));
    let flagged_initially = |&i: &usize| is_error_detecting(initial[i], sta.clock());
    never_ed
        .iter()
        .copied()
        .find(flagged_initially)
        .or_else(|| {
            let broken = parallel_map(threads, credited, canonical);
            broken.into_iter().flatten().next()
        })
}

fn internal(e: impl ToString) -> VerifyError {
    VerifyError::Internal(e.to_string())
}

/// Renders the first violated bound or difference constraint of an
/// infeasible assignment.
fn first_violation(ilp: &IlpFormulation, r: &[i64]) -> String {
    for (v, (&(lo, hi), &rv)) in ilp.bounds.iter().zip(r).enumerate() {
        if rv < lo || rv > hi {
            return format!("bound {lo} ≤ r({v}) ≤ {hi} violated by r({v}) = {rv}");
        }
    }
    for &(u, v, w) in &ilp.constraints {
        if r[u] - r[v] > w {
            return format!(
                "constraint r({u}) − r({v}) ≤ {w} violated by {} − {}",
                r[u], r[v]
            );
        }
    }
    "reported infeasible, yet no violated constraint found".into()
}

/// Renders what differs between the stored and recomputed cut timing.
fn timing_diff(cloud: &CombCloud, stored: &CutTiming, fresh: &CutTiming) -> String {
    for (i, &t) in cloud.sinks().iter().enumerate() {
        let name = cloud.node_name(t);
        if stored.sink_arrivals.get(i) != fresh.sink_arrivals.get(i) {
            return format!(
                "arrival at {name}: stored {:?}, recomputed {:?}",
                stored.sink_arrivals.get(i),
                fresh.sink_arrivals.get(i)
            );
        }
    }
    "violation lists differ".into()
}
