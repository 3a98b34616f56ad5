//! Differential testing of the warm-start layer against cold solves.
//!
//! Random *feasible-by-construction* instances (same scheme as
//! `tests/differential.rs`: plan a flow arc by arc, size capacities and
//! demands around the plan) are pushed through random sequences of
//! parametric perturbations — cost re-pricings and demand re-plannings,
//! both of which keep the instance feasible — with a [`ParametricSweep`]
//! answering every probe warm. After **every** step:
//!
//! * the warm objective must equal a cold network-simplex solve of the
//!   same perturbed instance *and* the deliberately-slow reference SSP,
//! * the warm solution must pass the verifier's full warm contract
//!   ([`retime_verify::check_warm_solution`]: primal/dual certificate +
//!   cold-objective equality) — every warm outcome is certified, none is
//!   trusted.
//!
//! Negative paths ride along as deterministic tests: a structurally
//! mutated instance (`add_arc`) must be rejected as a stale basis and
//! transparently re-primed by the sweep, and a poisoned cached
//! certificate must surface as [`VerifyError::WarmStartMismatch`].

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retime_flow::{ArcId, FlowError, MinCostFlow, ParametricSweep, WarmOutcome};
use retime_verify::{check_warm_solution, VerifyError};

/// A random feasible instance plus its per-arc plan, which the
/// perturbation steps re-use to *stay* feasible: each arc can always
/// carry its own planned amount (`cap ≥ plan`), so demands derived as
/// the sum of per-arc planned excesses are routable by construction —
/// for any per-arc plan within capacity.
struct PlannedInstance {
    problem: MinCostFlow,
    caps: Vec<i64>,
    plans: Vec<i64>,
    dag_negative: bool,
}

fn random_instance(nodes: usize, arcs: usize, dag_negative: bool, seed: u64) -> PlannedInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = MinCostFlow::new(nodes);
    let mut caps = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..arcs {
        let a = rng.random_range(0..nodes);
        let b = rng.random_range(0..nodes);
        if a == b {
            continue;
        }
        let (from, to) = if dag_negative && a > b {
            (b, a)
        } else {
            (a, b)
        };
        let planned = rng.random_range(0..=4i64);
        let cap = planned + rng.random_range(1..=4i64);
        let cost = if dag_negative {
            rng.random_range(-4..=8i64)
        } else {
            rng.random_range(0..=8i64)
        };
        p.add_arc(from, to, cap, cost);
        p.add_demand(to, planned);
        p.add_demand(from, -planned);
        caps.push(cap);
        plans.push(planned);
    }
    PlannedInstance {
        problem: p,
        caps,
        plans,
        dag_negative,
    }
}

/// Applies one random parametric step to the instance: either re-price
/// a random arc (cost change; range chosen so no negative cycle can
/// appear) or re-plan a random arc's shipped amount within its capacity
/// (demand change; feasibility preserved — see [`PlannedInstance`]).
fn perturb(inst: &mut PlannedInstance, rng: &mut StdRng) {
    if inst.plans.is_empty() {
        return;
    }
    let a = rng.random_range(0..inst.plans.len());
    if rng.random_bool(0.5) {
        let cost = if inst.dag_negative {
            rng.random_range(-4..=8i64)
        } else {
            rng.random_range(0..=8i64)
        };
        inst.problem.set_cost(ArcId(a), cost);
    } else {
        let new_plan = rng.random_range(0..=inst.caps[a]);
        let delta = new_plan - inst.plans[a];
        let (from, to, _, _) = inst.problem.arc_info(ArcId(a));
        inst.problem.add_demand(to, delta);
        inst.problem.add_demand(from, -delta);
        inst.plans[a] = new_plan;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random perturbation sequences: every warm probe must match a cold
    /// simplex solve and the reference SSP on the objective, and pass
    /// the verifier's warm contract.
    #[test]
    fn warm_matches_cold_across_random_sequences(
        nodes in 2usize..12,
        arcs in 1usize..20,
        steps in 1usize..7,
        seed in any::<u64>(),
        dag_negative in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3779B97F4A7C15);
        let mut inst = random_instance(nodes, arcs, dag_negative, seed);
        let mut sweep = ParametricSweep::new(inst.problem.clone());
        for step in 0..=steps {
            if step > 0 {
                perturb(&mut inst, &mut rng);
                // Replay the same numeric edits onto the sweep's owned
                // copy (structure is shared, so copying the current
                // costs/demands wholesale is equivalent).
                for a in 0..inst.problem.arc_count() {
                    let id = ArcId(a);
                    sweep.problem_mut().set_cost(id, inst.problem.cost_of(id));
                }
                for v in 0..inst.problem.node_count() {
                    sweep.problem_mut().set_demand(v, inst.problem.demand(v));
                }
            }
            let warm = sweep.solve().expect("warm solve of a feasible instance");
            let cold = inst
                .problem
                .solve_network_simplex()
                .expect("cold simplex solves a feasible instance");
            prop_assert_eq!(warm.cost, cold.cost, "step {}: warm vs cold objective", step);
            let reference = inst
                .problem
                .solve_reference()
                .expect("reference SSP solves a feasible instance");
            prop_assert_eq!(
                warm.cost, reference.cost,
                "step {}: warm vs reference objective", step
            );
            if let Err(err) = check_warm_solution(&inst.problem, &warm, &cold) {
                panic!("step {step}: warm contract rejected: {err}");
            }
        }
    }
}

#[test]
fn stale_basis_after_add_arc_is_rejected_then_reprimed() {
    let mut inst = random_instance(8, 12, false, 0xDECAF);
    let mut basis = inst.problem.solve_cold_capture().expect("capture solve");
    // Direct API: the structural mutation must be rejected, not absorbed.
    inst.problem.add_arc(0, 7, 3, 1);
    let err = inst.problem.solve_warm(&mut basis).unwrap_err();
    assert!(matches!(err, FlowError::StaleBasis { .. }), "{err:?}");

    // Sweep API: the same mutation triggers a transparent cold re-prime.
    let mut inst = random_instance(8, 12, false, 0xDECAF);
    let mut sweep = ParametricSweep::new(inst.problem.clone());
    sweep.solve().expect("prime");
    sweep.problem_mut().add_arc(0, 7, 3, 1);
    inst.problem.add_arc(0, 7, 3, 1);
    let warm = sweep.solve().expect("re-primed solve");
    let cold = inst.problem.solve_network_simplex().expect("cold solve");
    assert_eq!(warm.cost, cold.cost);
    assert_eq!(
        sweep.stats().cold_solves,
        2,
        "stale basis costs a cold solve"
    );
}

#[test]
fn poisoned_potentials_surface_as_warm_start_mismatch() {
    let inst = random_instance(9, 14, false, 0xC0FFEE);
    let mut sweep = ParametricSweep::new(inst.problem.clone());
    sweep.solve().expect("prime");
    // Corrupt the cached dual certificate. A uniform shift of every
    // potential would still be a valid dual (reduced costs are
    // shift-invariant), so poison a single endpoint in the direction
    // that breaks complementary slackness on arc 0: inflate the head's
    // potential if the arc has slack, deflate it if the arc carries
    // flow. The next probe of the unchanged instance is a verbatim warm
    // hit, so the poison reaches the verifier — which must refuse it
    // with `WarmStartMismatch`.
    let (_, to, cap, _) = inst.problem.arc_info(ArcId(0));
    let basis = sweep.basis_mut().expect("basis primed");
    let f = basis.solution().flows[0];
    let delta = if f < cap { 7_777 } else { -7_777 };
    basis.potentials_mut()[to] += delta;
    let warm = sweep.solve().expect("warm hit");
    let cold = inst.problem.solve_network_simplex().expect("cold solve");
    let err = check_warm_solution(&inst.problem, &warm, &cold).unwrap_err();
    assert!(
        matches!(err, VerifyError::WarmStartMismatch { .. }),
        "{err}"
    );
}

#[test]
fn warm_hit_is_bit_identical_and_counted() {
    let inst = random_instance(10, 18, true, 0xBEEF);
    let mut sweep = ParametricSweep::new(inst.problem.clone());
    let first = sweep.solve().expect("prime");
    let second = sweep.solve().expect("hit");
    assert_eq!(first, second, "an unchanged re-solve is returned verbatim");
    let stats = sweep.stats();
    assert_eq!(stats.cold_solves, 1);
    assert_eq!(stats.warm_hits, 1);
}

#[test]
fn direct_solve_warm_reports_the_repair_path_taken() {
    let mut inst = random_instance(10, 16, false, 0xFACADE);
    let mut basis = inst.problem.solve_cold_capture().expect("capture");
    let (_, outcome) = inst.problem.solve_warm(&mut basis).expect("hit");
    assert_eq!(outcome, WarmOutcome::Hit);
    inst.problem.set_cost(ArcId(0), 11);
    let (_, outcome) = inst.problem.solve_warm(&mut basis).expect("resume");
    assert!(matches!(outcome, WarmOutcome::CostResume(_)), "{outcome:?}");
    let (from, to, _, _) = inst.problem.arc_info(ArcId(0));
    inst.problem.add_demand(to, 1);
    inst.problem.add_demand(from, -1);
    let (_, outcome) = inst.problem.solve_warm(&mut basis).expect("delta");
    assert_eq!(outcome, WarmOutcome::DemandDelta);
}
