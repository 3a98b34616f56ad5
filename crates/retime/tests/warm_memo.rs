//! The warm slot's solved-instance memo against fresh cold solves.
//!
//! Random combinational circuits go through random sequences of flow
//! calls — a re-run of the same problem, a new clock period, a
//! different movement penalty, a resiliency pseudo target with a new
//! EDL overhead — with one [`RetimingSweep`] answering every call. After
//! **every** call:
//!
//! * the memo's labels must equal an unslotted
//!   [`RetimingProblem::solve`] of the same problem bit for bit (a
//!   changed problem is solved by the same production solve; an
//!   identical one is answered with the cached labels),
//! * the memo's cached problem and solution must pass the verifier's
//!   certificate ([`verify_retiming_solution`]: ILP feasibility, cut and
//!   objective agreement, optimality against an independent reference
//!   min-cost-flow solve),
//! * the call must count as a hit exactly when its problem is identical
//!   to the previous call's.
//!
//! Deterministic cases ride along: a hit returns the cached labels
//! bit-identically, and a poisoned copy of the cached labels is refused
//! by the certificate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retime_liberty::Library;
use retime_netlist::{bench, CombCloud, NodeId};
use retime_retime::{PhaseTimings, Regions, RetimingProblem, RetimingSweep, BREADTH_SCALE};
use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};
use retime_verify::{verify_retiming_solution, VerifyError};

/// A random combinational circuit in `.bench` form: `inputs` primary
/// inputs, then `gates` gates over earlier signals; every gate without
/// fanout drives a primary output.
fn random_bench(inputs: usize, gates: usize, rng: &mut StdRng) -> String {
    const BINARY: [&str; 4] = ["AND", "OR", "NAND", "NOR"];
    let mut signals: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
    let mut src: String = signals.iter().map(|s| format!("INPUT({s})\n")).collect();
    let mut used = vec![false; inputs + gates];
    let mut body = String::new();
    for g in 0..gates {
        let a = rng.random_range(0..signals.len());
        used[a] = true;
        if rng.random_bool(0.3) {
            body.push_str(&format!("g{g} = NOT({})\n", signals[a]));
        } else {
            let b = rng.random_range(0..signals.len());
            used[b] = true;
            let op = BINARY[rng.random_range(0..BINARY.len())];
            body.push_str(&format!("g{g} = {op}({}, {})\n", signals[a], signals[b]));
        }
        signals.push(format!("g{g}"));
    }
    for (s, _) in signals.iter().zip(&used).skip(inputs).filter(|(_, &u)| !u) {
        src.push_str(&format!("OUTPUT({s})\n"));
    }
    src + &body
}

/// A uniformly random element of `items`.
fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

/// The cloud's worst sink arrival, for choosing clock periods.
fn critical_delay(cloud: &CombCloud, lib: &Library) -> f64 {
    let sta = TimingAnalysis::new(
        cloud,
        lib,
        TwoPhaseClock::from_max_delay(1.0),
        DelayModel::PathBased,
    )
    .expect("probe sta builds");
    cloud
        .sinks()
        .iter()
        .map(|&t| sta.df(t))
        .fold(0.0f64, f64::max)
}

/// One flow call's problem: regions at `scale × critical`, a movement
/// penalty, and optionally a pseudo target over `gates` at overhead
/// `c_scaled`. `None` when the period leaves no feasible regions.
fn problem_at(
    cloud: &CombCloud,
    lib: &Library,
    critical: f64,
    scale: f64,
    penalty: i64,
    pseudo: Option<(&[NodeId], i64)>,
) -> Option<RetimingProblem> {
    let clock = TwoPhaseClock::from_max_delay(critical * scale);
    let sta = TimingAnalysis::new(cloud, lib, clock, DelayModel::PathBased).ok()?;
    let regions = Regions::compute(&sta).ok()?;
    let mut prob = RetimingProblem::build(cloud, &regions);
    prob.set_movement_penalty(penalty);
    if let Some((gates, c_scaled)) = pseudo {
        prob.add_pseudo_target(gates, c_scaled);
    }
    Some(prob)
}

/// Three inputs reconverging on one output, with a pseudo target.
fn reconverge() -> RetimingProblem {
    let n = bench::parse(
        "t",
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\ng = AND(a, b)\nh = OR(g, c)\nz = NOT(h)\n",
    )
    .unwrap();
    let cloud = CombCloud::extract(&n).unwrap();
    let lib = Library::fdsoi28();
    let critical = critical_delay(&cloud, &lib);
    let gates = [cloud.find("g").unwrap(), cloud.find("c").unwrap()];
    problem_at(
        &cloud,
        &lib,
        critical,
        2.0,
        1,
        Some((&gates, BREADTH_SCALE)),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random edit sequences: every memo answer matches a fresh cold
    /// solve and certifies, and hits happen exactly on unchanged
    /// problems.
    #[test]
    fn memo_matches_fresh_cold_solves_across_random_edits(
        inputs in 2usize..5,
        gates in 3usize..14,
        steps in 2usize..9,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = random_bench(inputs, gates, &mut rng);
        let netlist = bench::parse("rand", &src).expect("generated bench parses");
        let cloud = CombCloud::extract(&netlist).expect("generated cloud extracts");
        let lib = Library::fdsoi28();
        let critical = critical_delay(&cloud, &lib);
        let gate_ids: Vec<NodeId> = (0..cloud.len() as u32)
            .map(NodeId)
            .filter(|&v| cloud.node(v).is_gate())
            .collect();

        let mut sweep = RetimingSweep::default();
        let mut timings = PhaseTimings::new();
        let mut expected = PhaseTimings::new();
        let mut previous = None;
        let (mut scale, mut penalty, mut pseudo) = (2.0, 1, None::<(usize, i64)>);
        for step in 0..steps {
            match rng.random_range(0..4) {
                0 => {} // re-run the same problem
                1 => scale = pick(&mut rng, &[1.05, 1.2, 1.5, 2.0, 4.0]),
                2 => penalty = pick(&mut rng, &[1, BREADTH_SCALE / 50]),
                _ => {
                    let first = rng.random_range(0..gate_ids.len());
                    let c = [BREADTH_SCALE / 2, BREADTH_SCALE, 2 * BREADTH_SCALE];
                    pseudo = Some((first, pick(&mut rng, &c)));
                }
            }
            let target = pseudo.map(|(first, c)| (&gate_ids[first..], c));
            let Some(prob) = problem_at(&cloud, &lib, critical, scale, penalty, target) else {
                continue;
            };
            let hit = previous.as_ref() == Some(&prob);
            expected.count(if hit { "warm_hits" } else { "cold_solves" }, 1);

            let memo = sweep
                .solve_for(&prob, &mut timings)
                .expect("memo solves a feasible problem");
            let cold = prob.solve().expect("an unslotted solve of a feasible problem");
            prop_assert_eq!(&memo.r, &cold.r, "step {}: labels", step);
            prop_assert_eq!(memo.objective_scaled, cold.objective_scaled, "step {}", step);
            let (cached, warm) = sweep.last_solved().expect("a probe ran");
            prop_assert!(cached == &prob, "step {}: the memo holds the last problem", step);
            prop_assert_eq!(&warm.r, &cold.r, "step {}: cached labels", step);
            if let Err(err) = verify_retiming_solution(cached, warm) {
                panic!("step {step}: memo certificate rejected: {err}");
            }
            previous = Some(prob);
            for counter in ["warm_hits", "cold_solves"] {
                prop_assert_eq!(timings.counter(counter), expected.counter(counter), "step {}", step);
            }
        }
    }
}

#[test]
fn memo_hit_is_bit_identical_to_the_cached_solution() {
    let prob = reconverge();
    let mut sweep = RetimingSweep::default();
    let mut timings = PhaseTimings::new();
    let first = sweep.solve_for(&prob, &mut timings).unwrap();
    let cached = sweep.last_solved().unwrap().1.r.clone();
    let second = sweep.solve_for(&prob, &mut timings).unwrap();
    assert_eq!(sweep.last_solved().unwrap().1.r, cached);
    assert_eq!(first.r, second.r);
    assert_eq!(first.cut, second.cut);
    assert_eq!(timings.counter("warm_hits"), 1);
    assert_eq!(timings.counter("cold_solves"), 1);
}

#[test]
fn memo_poisoned_labels_are_refused_by_the_certificate() {
    let prob = reconverge();
    let mut sweep = RetimingSweep::default();
    sweep.solve_for(&prob, &mut PhaseTimings::new()).unwrap();
    let (cached_prob, cached) = sweep.last_solved().unwrap();
    verify_retiming_solution(cached_prob, cached).unwrap();
    // A hit hands the cached labels back, so a damaged cache reaches
    // the verifier exactly as this copy does: push one label out of
    // its region bounds.
    let mut poisoned = cached.clone();
    poisoned.r[0] -= 1;
    let err = verify_retiming_solution(cached_prob, &poisoned).unwrap_err();
    assert!(matches!(err, VerifyError::LabelInfeasible { .. }), "{err}");
}
