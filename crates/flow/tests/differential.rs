//! Differential testing of the min-cost-flow reference oracle.
//!
//! Random instances are *feasible by construction*: a flow is planned
//! arc by arc, capacities are the planned flow plus slack, and node
//! demands are exactly the planned flow's excess. The reference solver
//! ([`MinCostFlow::solve_reference`]) must solve every one, and its
//! solution must pass the verifier's full certificate check
//! ([`retime_verify::check_flow_solution`]: capacity bounds, flow
//! conservation against the stored demands, cost recomputation, and
//! complementary slackness with its own potentials).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retime_flow::MinCostFlow;
use retime_verify::check_flow_solution;

/// Builds a random feasible instance from scalar parameters.
///
/// When `dag_negative` is set every arc runs from a lower- to a
/// higher-numbered node, so the graph is acyclic and negative costs
/// cannot form a negative directed cycle. Otherwise arcs run in either
/// direction but all costs are non-negative — no negative cycle exists
/// in either mode, which the solver requires.
fn random_instance(nodes: usize, arcs: usize, dag_negative: bool, seed: u64) -> MinCostFlow {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = MinCostFlow::new(nodes);
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
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The reference solver solves every feasible instance with a
    /// certifiable answer.
    #[test]
    fn reference_certifies_on_random_instances(
        nodes in 2usize..12,
        arcs in 0usize..24,
        seed in any::<u64>(),
        dag_negative in any::<bool>(),
    ) {
        let p = random_instance(nodes, arcs, dag_negative, seed);
        let reference = p
            .solve_reference()
            .expect("reference SSP solves a feasible instance");
        if let Err(err) = check_flow_solution(&p, &reference) {
            panic!("reference SSP: certificate rejected: {err}");
        }
    }
}
