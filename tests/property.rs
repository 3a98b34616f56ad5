//! Property-based tests over random circuits: solver exactness, cut
//! legality, functional preservation, and timing soundness.

use proptest::prelude::*;

use resilient_retiming::circuits::SynthConfig;
use resilient_retiming::flow::MinCostFlow;
use resilient_retiming::grar::{
    classify_and_cut_set, classify_many, exhaustive_best, grar, GrarConfig,
};
use resilient_retiming::liberty::{EdlOverhead, Library};
use resilient_retiming::netlist::{CombCloud, Cut, NodeId, NodeKind};
use resilient_retiming::retime::{Regions, RetimingProblem, BREADTH_SCALE};
use resilient_retiming::sim::equivalent;
use resilient_retiming::sta::{
    BackwardPass, DelayModel, IncrementalTiming, NodeDelays, SinkClass, StatParams, TimingAnalysis,
    TwoPhaseClock,
};
use resilient_retiming::verify::{verify_retiming_solution, VerifyError};
use retime_stat::{StatBackward, StatTiming};

/// A frozen copy of the whole-cloud classification that cone-local
/// classification replaced: every backward pass sweeps the entire
/// topological order, `worst_initial` folds over every source, and the
/// canonical cut is timed by a full `cut_timing` /
/// `cut_sink_canons`. It shares no cone walk with the code under test,
/// so `classify_matches_whole_cloud_reference` pins the optimized path
/// to the original semantics bit for bit.
mod reference {
    use resilient_retiming::liberty::{DelayArc, Sense};
    use resilient_retiming::netlist::{CombCloud, Cut, NodeId};
    use resilient_retiming::sta::{relaunch, NodeDelays, SinkClass, TimingAnalysis, TwoPhaseClock};
    use retime_stat::propagate::{gate_canon, relaunch_canon};
    use retime_stat::{Canon, StatTiming};

    const EPS: f64 = 1e-9;

    /// Whole-cloud backward pass from one sink over values `V`.
    pub struct Pass<V> {
        pub sink: NodeId,
        pub from_output: Vec<Option<V>>,
        pub through: Vec<Option<V>>,
    }

    pub type DetPass = Pass<DelayArc>;
    pub type StatPass = Pass<Canon>;

    impl<V: Copy> Pass<V> {
        fn sweep(
            cloud: &CombCloud,
            t: NodeId,
            zero: V,
            max: impl Fn(V, V) -> V,
            through_gate: impl Fn(V, NodeId) -> V,
        ) -> Pass<V> {
            let n = cloud.len();
            let mut from_output = vec![None; n];
            let mut through = vec![None; n];
            through[t.index()] = Some(zero);
            let mut in_cone = vec![false; n];
            in_cone[t.index()] = true;
            for &v in cloud.topo().iter().rev() {
                if v == t {
                    continue;
                }
                let node = cloud.node(v);
                let mut best: Option<V> = None;
                for &w in &node.fanout {
                    if !in_cone[w.index()] {
                        continue;
                    }
                    if let Some(thr) = through[w.index()] {
                        best = Some(match best {
                            None => thr,
                            Some(acc) => max(acc, thr),
                        });
                    }
                }
                if let Some(fo) = best {
                    in_cone[v.index()] = true;
                    from_output[v.index()] = Some(fo);
                    if node.is_gate() {
                        through[v.index()] = Some(through_gate(fo, v));
                    }
                }
            }
            Pass {
                sink: t,
                from_output,
                through,
            }
        }

        pub fn in_cone(&self, v: NodeId) -> bool {
            v == self.sink || self.from_output[v.index()].is_some()
        }
    }

    impl Pass<DelayArc> {
        pub fn run(cloud: &CombCloud, delays: &NodeDelays, t: NodeId) -> DetPass {
            Pass::sweep(
                cloud,
                t,
                DelayArc::default(),
                |a, b| DelayArc {
                    rise: a.rise.max(b.rise),
                    fall: a.fall.max(b.fall),
                },
                |fo, v| {
                    let arc = delays.arc(v);
                    match delays.sense(v) {
                        Sense::Positive => DelayArc {
                            rise: arc.rise + fo.rise,
                            fall: arc.fall + fo.fall,
                        },
                        Sense::Negative => DelayArc {
                            rise: arc.fall + fo.fall,
                            fall: arc.rise + fo.rise,
                        },
                        Sense::NonUnate => {
                            DelayArc::symmetric((arc.rise + fo.rise).max(arc.fall + fo.fall))
                        }
                    }
                },
            )
        }
    }

    impl Pass<Canon> {
        pub fn run(cloud: &CombCloud, delays: &NodeDelays, t: NodeId) -> StatPass {
            Pass::sweep(
                cloud,
                t,
                Canon::default(),
                |a, b| a.max(&b),
                |fo, v| gate_canon(delays, v).add(&fo),
            )
        }
    }

    /// The frontier rule of Eqs. (8)–(9) over every cone node, given the
    /// edge arrival `a(u, v)` and host arrival `host(s)`.
    fn frontier<V>(
        cloud: &CombCloud,
        bp: &Pass<V>,
        pi: f64,
        a: impl Fn(NodeId, NodeId) -> Option<f64>,
        host: impl Fn(NodeId) -> Option<f64>,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        for i in 0..cloud.len() {
            let v = NodeId(i as u32);
            if v == bp.sink || bp.from_output[i].is_none() {
                continue;
            }
            let node = cloud.node(v);
            let ok_beyond = node
                .fanout
                .iter()
                .any(|&n| matches!(a(v, n), Some(x) if x <= pi + EPS));
            let bad_before = if node.is_source() {
                matches!(host(v), Some(x) if x > pi + EPS)
            } else {
                node.fanin
                    .iter()
                    .any(|&k| matches!(a(k, v), Some(x) if x > pi + EPS))
            };
            if ok_beyond && bad_before {
                out.push(v);
            }
        }
        out
    }

    /// The cut moving exactly the union of `g`'s fan-in closures, or
    /// `None` when it fails `Cut::validate`.
    fn canonical_cut(cloud: &CombCloud, g: &[NodeId]) -> Option<Cut> {
        let mut cut = Cut::initial(cloud);
        let mut stack: Vec<NodeId> = g.to_vec();
        while let Some(u) = stack.pop() {
            if !cut.is_moved(u) {
                cut.set_moved(u, true);
                stack.extend(cloud.node(u).fanin.iter().copied());
            }
        }
        cut.validate(cloud).ok().map(|_| cut)
    }

    fn sink_index(cloud: &CombCloud, t: NodeId) -> usize {
        cloud
            .sinks()
            .iter()
            .position(|&x| x == t)
            .expect("t is a sink")
    }

    pub fn classify(sta: &TimingAnalysis<'_>, bp: &DetPass) -> (SinkClass, Vec<NodeId>) {
        let cloud = sta.cloud();
        let clock = *sta.clock();
        let pi = clock.period();
        let d = sta.delays();
        let a = |u: NodeId, v: NodeId| {
            let through = bp.through[v.index()]?;
            let open = clock.slave_open() + d.latch_ckq();
            let dfu = sta.df_arc(u);
            Some(
                (open + through.max())
                    .max(dfu.rise + d.latch_dq() + through.rise)
                    .max(dfu.fall + d.latch_dq() + through.fall),
            )
        };
        let host = |s: NodeId| {
            let fo = bp.from_output[s.index()]?;
            let re = relaunch(DelayArc::symmetric(d.launch()), &clock, d);
            Some((re.rise + fo.rise).max(re.fall + fo.fall))
        };
        let worst_initial = cloud
            .sources()
            .iter()
            .filter_map(|&s| host(s))
            .fold(f64::NEG_INFINITY, f64::max);
        if worst_initial <= pi + EPS {
            return (SinkClass::NeverErrorDetecting, Vec::new());
        }
        let g = frontier(cloud, bp, pi, a, host);
        if g.is_empty() {
            return (SinkClass::AlwaysErrorDetecting, Vec::new());
        }
        match canonical_cut(cloud, &g) {
            Some(cut)
                if sta.cut_timing(&cut).sink_arrivals[sink_index(cloud, bp.sink)] <= pi + EPS =>
            {
                (SinkClass::Target, g)
            }
            _ => (SinkClass::AlwaysErrorDetecting, Vec::new()),
        }
    }

    pub fn classify_stat(
        st: &StatTiming<'_>,
        clock: &TwoPhaseClock,
        d: &NodeDelays,
        sb: &StatPass,
    ) -> (SinkClass, Vec<NodeId>) {
        let cloud = st.cloud();
        let pi = st.period();
        let a = |u: NodeId, v: NodeId| {
            let through = sb.through[v.index()]?;
            let open = clock.slave_open() + d.latch_ckq();
            let path = st.df_canon(u).add_const(d.latch_dq()).add(&through);
            Some(st.margined(&through.add_const(open).max(&path)))
        };
        let host = |s: NodeId| {
            let fo = sb.from_output[s.index()]?;
            let launch = Canon::constant(d.launch());
            Some(st.margined(&relaunch_canon(&launch, clock, d).add(&fo)))
        };
        let worst_initial = cloud
            .sources()
            .iter()
            .filter_map(|&s| host(s))
            .fold(f64::NEG_INFINITY, f64::max);
        if worst_initial <= pi + EPS {
            return (SinkClass::NeverErrorDetecting, Vec::new());
        }
        let g = frontier(cloud, sb, pi, a, host);
        if g.is_empty() {
            return (SinkClass::AlwaysErrorDetecting, Vec::new());
        }
        match canonical_cut(cloud, &g) {
            Some(cut)
                if st.margined(&st.cut_sink_canons(&cut)[sink_index(cloud, sb.sink)])
                    <= pi + EPS =>
            {
                (SinkClass::Target, g)
            }
            _ => (SinkClass::AlwaysErrorDetecting, Vec::new()),
        }
    }
}

fn small_config() -> impl Strategy<Value = SynthConfig> {
    (
        2usize..12,  // flops
        20usize..60, // gates
        2usize..6,   // inputs
        1usize..4,   // outputs
        0usize..4,   // deep sinks
        any::<u64>(),
    )
        .prop_map(|(flops, gates, inputs, outputs, deep, seed)| SynthConfig {
            name: "prop".into(),
            flops,
            gates,
            inputs,
            outputs,
            levels: 10,
            deep_sinks: deep.min(flops),
            hard_sinks: 0,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn solvers_agree_with_exhaustive_oracle(cfg in small_config()) {
        let n = cfg.generate().expect("generates");
        let cloud = CombCloud::extract(&n).expect("extracts");
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(10.0),
            DelayModel::PathBased,
        ).expect("sta builds");
        let regions = Regions::compute(&sta).expect("regions");
        let problem = RetimingProblem::build(&cloud, &regions);
        if let Some((best, _)) = exhaustive_best(&problem, 18) {
            for sol in [
                problem.solve(),
                problem.solve_with(MinCostFlow::solve),
                problem.solve_with(MinCostFlow::solve_reference),
            ] {
                prop_assert_eq!(sol.expect("solves").objective_scaled, best);
            }
        }
    }

    #[test]
    fn grar_problems_match_oracle_and_certify(cfg in small_config()) {
        // Full G-RAR problems (pseudo targets from sink classification)
        // must hit the exhaustive optimum on every engine, and the
        // independent certificate checker must accept the genuine
        // solution while rejecting any mutation of it.
        let n = cfg.generate().expect("generates");
        let cloud = CombCloud::extract(&n).expect("extracts");
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        ).expect("sta builds");
        let crit = cloud.sinks().iter().map(|&t| sta0.df(t)).fold(0.0f64, f64::max);
        // Borderline clock so a mix of never / target / always sinks
        // shows up and pseudo targets actually enter the problem.
        let clock = TwoPhaseClock::from_max_delay(crit * 1.1 + 0.05);
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased)
            .expect("sta builds");
        let regions = Regions::compute(&sta).expect("regions");
        let mut problem = RetimingProblem::build(&cloud, &regions);
        let sinks: Vec<NodeId> = cloud
            .sinks()
            .iter()
            .copied()
            .filter(|&t| matches!(cloud.node(t).kind, NodeKind::Sink { master: Some(_) }))
            .collect();
        let c_scaled =
            (EdlOverhead::HIGH.value() * BREADTH_SCALE as f64).round() as i64;
        for (class, g) in classify_many(&sta, &sinks, 0) {
            if class == SinkClass::Target {
                problem.add_pseudo_target(&g, c_scaled);
            }
        }
        if let Some((best, _)) = exhaustive_best(&problem, 18) {
            for (engine, sol) in [
                ("min cut", problem.solve()),
                ("ssp", problem.solve_with(MinCostFlow::solve)),
                ("reference", problem.solve_with(MinCostFlow::solve_reference)),
            ] {
                prop_assert_eq!(sol.expect("solves").objective_scaled, best, "engine {}", engine);
            }
        }
        let sol = problem.solve().expect("solves");
        // The genuine certificate passes the independent re-validation.
        prop_assert_eq!(verify_retiming_solution(&problem, &sol), Ok(()));
        // A misreported objective is caught by the cost recomputation.
        let mut wrong_cost = sol.clone();
        wrong_cost.objective_scaled += 1;
        prop_assert!(matches!(
            verify_retiming_solution(&problem, &wrong_cost),
            Err(VerifyError::ObjectiveMismatch { .. })
        ));
        // A flipped retiming label either breaks ILP feasibility or
        // disagrees with the claimed cut — rejected either way.
        let mut flipped = sol.clone();
        flipped.r[0] = -1 - flipped.r[0];
        prop_assert!(verify_retiming_solution(&problem, &flipped).is_err());
    }

    #[test]
    fn grar_cuts_are_legal_and_equivalent(cfg in small_config()) {
        let n = cfg.generate().expect("generates");
        let cloud = CombCloud::extract(&n).expect("extracts");
        let lib = Library::fdsoi28();
        // A clock loose enough to always be feasible on random circuits.
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        ).expect("sta builds");
        let crit = cloud.sinks().iter().map(|&t| sta.df(t)).fold(0.0f64, f64::max);
        let clock = TwoPhaseClock::from_max_delay(crit * 1.5 + 0.2);
        let report = grar(&cloud, &lib, clock, &GrarConfig::new(EdlOverhead::HIGH))
            .expect("grar runs");
        // Legality.
        report.outcome.cut.validate(&cloud).expect("valid cut");
        prop_assert!(report.outcome.cut.check_paths(&cloud));
        // Functional preservation.
        let retimed = report.outcome.cut.apply(&cloud, &n).expect("applies");
        prop_assert_eq!(equivalent(&n, &retimed, 60, 5).expect("sims"), Ok(()));
        // Books balance.
        let expect = report.outcome.comb_area + report.outcome.seq.total();
        prop_assert!((report.outcome.total_area - expect).abs() < 1e-9);
    }

    #[test]
    fn parallel_classify_matches_sequential(cfg in small_config()) {
        // The parallel backward-pass/cut-set fan-out must be bit-identical
        // to the sequential reference path: same SinkClass, same g(t),
        // regardless of thread count or clock tightness.
        let n = cfg.generate().expect("generates");
        let cloud = CombCloud::extract(&n).expect("extracts");
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        ).expect("sta builds");
        let crit = cloud.sinks().iter().map(|&t| sta0.df(t)).fold(0.0f64, f64::max);
        // Sweep loose, borderline, and tight clocks so all three sink
        // classes (never / target / always) are exercised.
        for factor in [2.0, 1.2, 0.9] {
            let clock = TwoPhaseClock::from_max_delay(crit * factor + 0.05);
            let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased)
                .expect("sta builds");
            let targets: Vec<NodeId> = cloud
                .sinks()
                .iter()
                .copied()
                .filter(|&t| matches!(cloud.node(t).kind, NodeKind::Sink { master: Some(_) }))
                .collect();
            let reference: Vec<_> = targets
                .iter()
                .map(|&t| {
                    let bp = sta.backward(t);
                    classify_and_cut_set(&sta, &bp)
                })
                .collect();
            for threads in [1, 2, 4, 0] {
                let got = classify_many(&sta, &targets, threads);
                prop_assert_eq!(&got, &reference, "threads={}", threads);
            }
            // One pass reused across every target (the per-worker
            // scratch of the fan-out) must agree with fresh passes.
            let mut reused = BackwardPass::new(&cloud);
            for (&t, want) in targets.iter().zip(&reference) {
                reused.rerun(&cloud, sta.delays(), t);
                prop_assert_eq!(reused.sink(), t);
                prop_assert_eq!(&classify_and_cut_set(&sta, &reused), want);
            }
        }
    }

    #[test]
    fn classify_matches_whole_cloud_reference(cfg in small_config()) {
        // The cone-local classification must equal the frozen
        // whole-cloud reference below — same class, same g(t) — under
        // every delay model and fan-out width, and a backward pass
        // reused across sinks must equal the reference sweep node for
        // node (stale slots from an earlier, larger cone would show).
        let n = cfg.generate().expect("generates");
        let cloud = CombCloud::extract(&n).expect("extracts");
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        ).expect("sta builds");
        let crit = cloud.sinks().iter().map(|&t| sta0.df(t)).fold(0.0f64, f64::max);
        let targets: Vec<NodeId> = cloud
            .sinks()
            .iter()
            .copied()
            .filter(|&t| matches!(cloud.node(t).kind, NodeKind::Sink { master: Some(_) }))
            .collect();
        for model in [
            DelayModel::PathBased,
            DelayModel::GateBased,
            DelayModel::Statistical(StatParams::DEFAULT),
        ] {
            for factor in [2.0, 1.2, 0.9] {
                let clock = TwoPhaseClock::from_max_delay(crit * factor + 0.05);
                let sta = TimingAnalysis::new(&cloud, &lib, clock, model).expect("sta builds");
                let want: Vec<_> = if matches!(model, DelayModel::Statistical(_)) {
                    let st = StatTiming::new(&cloud, sta.delays(), clock);
                    targets
                        .iter()
                        .map(|&t| {
                            let sb = reference::StatPass::run(&cloud, sta.delays(), t);
                            reference::classify_stat(&st, &clock, sta.delays(), &sb)
                        })
                        .collect()
                } else {
                    targets
                        .iter()
                        .map(|&t| {
                            let bp = reference::DetPass::run(&cloud, sta.delays(), t);
                            reference::classify(&sta, &bp)
                        })
                        .collect()
                };
                for threads in [1, 2, 4] {
                    let got = classify_many(&sta, &targets, threads);
                    prop_assert_eq!(&got, &want, "{} x{} threads={}", model, factor, threads);
                }
            }
            // Reuse across every ordered pair of sinks, against the
            // reference sweep.
            let delays = NodeDelays::from_library(&cloud, &lib, model).expect("delays");
            let mut det = BackwardPass::new(&cloud);
            let mut stat = StatBackward::new(&cloud);
            for &a in cloud.sinks() {
                for &b in cloud.sinks() {
                    for t in [a, b] {
                        det.rerun(&cloud, &delays, t);
                        stat.rerun(&cloud, &delays, t);
                        let want = reference::DetPass::run(&cloud, &delays, t);
                        let want_stat = reference::StatPass::run(&cloud, &delays, t);
                        for i in 0..cloud.len() {
                            let v = NodeId(i as u32);
                            prop_assert_eq!(det.in_cone(v), want.in_cone(v));
                            prop_assert_eq!(det.from_output(v), want.from_output[i]);
                            prop_assert_eq!(det.through(v), want.through[i]);
                            prop_assert_eq!(stat.in_cone(v), want_stat.in_cone(v));
                            prop_assert_eq!(stat.from_output(v), want_stat.from_output[i]);
                            prop_assert_eq!(stat.through(v), want_stat.through[i]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_sta_matches_full_recompute(cfg in small_config()) {
        // The dirty-region engine must stay bit-identical to a fresh
        // from-scratch analysis after every edit in a random sequence of
        // delay scalings and cut moves — arrivals, EDL flags, and both
        // violation sets.
        let n = cfg.generate().expect("generates");
        let cloud = CombCloud::extract(&n).expect("extracts");
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        ).expect("sta builds");
        let crit = cloud.sinks().iter().map(|&t| sta0.df(t)).fold(0.0f64, f64::max);
        // Tight enough that EDL flags and violations actually flip as
        // delays and latch positions change.
        let clock = TwoPhaseClock::from_max_delay(crit * 0.85 + 0.05);
        let mut inc = IncrementalTiming::new(
            &cloud,
            &lib,
            clock,
            DelayModel::PathBased,
            Cut::initial(&cloud),
        ).expect("engine builds");

        // Deterministic pseudo-random op sequence seeded by the config.
        let gates: Vec<NodeId> = (0..cloud.len())
            .map(|i| NodeId(i as u32))
            .filter(|&v| matches!(cloud.node(v).kind, NodeKind::Gate { .. }))
            .collect();
        prop_assert!(!gates.is_empty(), "configs always synthesize gates");
        let mut rng = cfg.seed | 1;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        // Snapshots of (delays, cut, timing) after each step, re-verified
        // across thread counts below.
        let mut snapshots: Vec<(NodeDelays, Cut)> = Vec::new();
        let mut results = Vec::new();
        for step in 0..12 {
            if step % 3 == 2 {
                // Cut move: grow the moved set by the fan-in closure of a
                // random non-sink node (closures never contain sinks, so
                // the cut stays valid).
                let v = NodeId((next() as usize % cloud.len()) as u32);
                if cloud.node(v).is_sink() {
                    continue;
                }
                let mut cut = inc.cut().clone();
                for u in cloud.fanin_cone(v) {
                    cut.set_moved(u, true);
                }
                cut.validate(&cloud).expect("closure cuts are valid");
                inc.set_cut(&cut);
            } else {
                // Delay edit: scale a random gate up or down.
                let g = gates[next() as usize % gates.len()];
                let k = [0.8, 0.9, 1.1, 1.25][next() as usize % 4];
                inc.scale_node(g, k);
            }
            let got = inc.cut_timing();
            let fresh = TimingAnalysis::with_delays(&cloud, inc.delays().clone(), clock);
            let want = fresh.cut_timing(inc.cut());
            // Equal as values, and bit-identical as floats (`==` alone
            // would let -0.0 pass for 0.0).
            prop_assert_eq!(&got, &want, "divergence at step {}", step);
            for (a, b) in got.sink_arrivals.iter().zip(&want.sink_arrivals) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            snapshots.push((inc.delays().clone(), inc.cut().clone()));
            results.push(got);
        }
        prop_assert_eq!(inc.stats().full_passes, 1, "repairs must stay incremental");
        // The same snapshots re-timed under different RETIME_THREADS-style
        // fan-outs must reproduce the incremental results bit-for-bit
        // (fresh analyses are per-item, so index-ordered parallel_map
        // keeps them deterministic).
        for threads in [1usize, 4, 0] {
            let replayed = resilient_retiming::engine::parallel_map(
                threads,
                &snapshots,
                |(delays, cut)| {
                    TimingAnalysis::with_delays(&cloud, delays.clone(), clock).cut_timing(cut)
                },
            );
            prop_assert_eq!(&replayed, &results, "threads={}", threads);
        }
    }

    #[test]
    fn initial_cut_always_pathsafe(cfg in small_config()) {
        let n = cfg.generate().expect("generates");
        let cloud = CombCloud::extract(&n).expect("extracts");
        let cut = Cut::initial(&cloud);
        prop_assert!(cut.check_paths(&cloud));
        prop_assert_eq!(cut.slave_count(&cloud), cloud.sources().len());
    }

    #[test]
    fn moved_closure_of_random_node_is_legal(cfg in small_config()) {
        // Moving the full fan-in closure of any node yields a valid cut
        // with preserved function, unless it includes a sink.
        let n = cfg.generate().expect("generates");
        let cloud = CombCloud::extract(&n).expect("extracts");
        for pick in 0..cloud.len().min(8) {
            let v = resilient_retiming::netlist::NodeId((pick * 7 % cloud.len()) as u32);
            let mut cut = Cut::initial(&cloud);
            for u in cloud.fanin_cone(v) {
                cut.set_moved(u, true);
            }
            if cut.validate(&cloud).is_err() {
                continue;
            }
            prop_assert!(cut.check_paths(&cloud));
            let retimed = cut.apply(&cloud, &n).expect("applies");
            prop_assert_eq!(equivalent(&n, &retimed, 40, 11).expect("sims"), Ok(()));
        }
    }
}
