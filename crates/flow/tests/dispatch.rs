//! [`MinCostFlow::solve`] picks its engine by node count alone: one node
//! below [`SSP_MIN_NODES`] runs the network simplex, exactly
//! [`SSP_MIN_NODES`] runs successive shortest paths. The engine that ran
//! is read back from the trace spans it emitted (`network_simplex` vs
//! `ssp`); either way the optimum equals the reference solver's.
//!
//! Tracing is process-global, so this file holds a single test.

use retime_flow::{MinCostFlow, SSP_MIN_NODES};

/// A hub (node 0) feeding a row of nodes `1 … n−1` joined left to right.
/// Every hub arc carries at most 2 units at a cost that varies along the
/// row; every 128th node needs 4 units, so it takes 2 straight from the
/// hub and pulls the rest through the cheapest of its left neighbours.
fn hub_and_row(n: usize) -> MinCostFlow {
    let mut p = MinCostFlow::new(n);
    let mut supply = 0;
    for i in 1..n {
        p.add_arc(0, i, 2, 1 + (i % 7) as i64);
        if i + 1 < n {
            p.add_arc(i, i + 1, 8, 1);
        }
        if i % 128 == 0 {
            p.set_demand(i, 4);
            supply += 4;
        }
    }
    p.set_demand(0, -supply);
    p
}

/// Solves `p` with tracing on and returns the cost and the names of the
/// root spans the solve recorded.
fn traced_solve(p: &MinCostFlow) -> (i64, Vec<&'static str>) {
    let _ = retime_trace::take_records();
    retime_trace::set_enabled(true);
    let sol = p.solve();
    retime_trace::set_enabled(false);
    let roots = retime_trace::take_records()
        .into_iter()
        .filter(|r| r.depth == 0)
        .map(|r| r.name)
        .collect();
    (sol.expect("the instance is feasible").cost, roots)
}

#[test]
fn solve_switches_engine_at_the_node_threshold() {
    for (n, engine) in [
        (SSP_MIN_NODES - 1, "network_simplex"),
        (SSP_MIN_NODES, "ssp"),
    ] {
        let p = hub_and_row(n);
        let (cost, roots) = traced_solve(&p);
        assert_eq!(roots, [engine], "{n} nodes");
        let reference = p.solve_reference().expect("reference solves the instance");
        assert_eq!(cost, reference.cost, "{n} nodes: {engine} vs reference");
    }
}
