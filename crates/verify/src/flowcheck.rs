//! Primal/dual certificate checking of min-cost-flow solutions.
//!
//! A [`FlowSolution`] carries everything needed to prove itself: the
//! per-arc flows are a *primal* certificate (capacity + conservation),
//! the node potentials a *dual* one. Optimality follows from
//! complementary slackness between the two — no re-solve required.

use retime_flow::{ArcId, FlowSolution, MinCostFlow};

use crate::error::VerifyError;

/// Checks that `sol` is a valid **optimal** solution of `p`:
///
/// 1. every arc flow lies in `[0, cap]`,
/// 2. net inflow at every node equals its demand,
/// 3. the reported cost equals `Σ cost(a) · flow(a)`,
/// 4. complementary slackness holds against the returned potentials
///    (`f < cap ⇒ y(to) − y(from) ≤ cost`, `f > 0 ⇒ y(to) − y(from) ≥
///    cost`), which certifies optimality.
///
/// # Errors
/// Returns [`VerifyError::FlowCertificate`] naming the first failed
/// condition.
pub fn check_flow_solution(p: &MinCostFlow, sol: &FlowSolution) -> Result<(), VerifyError> {
    let fail = |detail: String| Err(VerifyError::FlowCertificate { detail });
    if sol.flows.len() != p.arc_count() {
        return fail(format!(
            "solution carries {} arc flows for {} arcs",
            sol.flows.len(),
            p.arc_count()
        ));
    }
    if sol.potentials.len() != p.node_count() {
        return fail(format!(
            "solution carries {} potentials for {} nodes",
            sol.potentials.len(),
            p.node_count()
        ));
    }
    let mut inflow = vec![0i64; p.node_count()];
    let mut cost = 0i64;
    for a in 0..p.arc_count() {
        let (from, to, cap, arc_cost) = p.arc_info(ArcId(a));
        let f = sol.flows[a];
        if f < 0 || f > cap {
            return fail(format!(
                "arc {a} ({from} → {to}) flow {f} outside [0, {cap}]"
            ));
        }
        inflow[to] += f;
        inflow[from] -= f;
        cost += f * arc_cost;
    }
    for (v, &net) in inflow.iter().enumerate() {
        if net != p.demand(v) {
            return fail(format!(
                "node {v} receives net flow {net} but demands {}",
                p.demand(v)
            ));
        }
    }
    if cost != sol.cost {
        return fail(format!(
            "reported cost {} differs from recomputed {cost}",
            sol.cost
        ));
    }
    for a in 0..p.arc_count() {
        let (from, to, cap, arc_cost) = p.arc_info(ArcId(a));
        let f = sol.flows[a];
        let dual_gain = sol.potentials[to] - sol.potentials[from];
        if f < cap && dual_gain > arc_cost {
            return fail(format!(
                "slack arc {a} ({from} → {to}) has dual gain {dual_gain} > cost {arc_cost}"
            ));
        }
        if f > 0 && dual_gain < arc_cost {
            return fail(format!(
                "used arc {a} ({from} → {to}) has dual gain {dual_gain} < cost {arc_cost}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> MinCostFlow {
        let mut p = MinCostFlow::new(4);
        p.add_arc(0, 1, 6, 1);
        p.add_arc(0, 2, 6, 4);
        p.add_arc(1, 3, 4, 1);
        p.add_arc(2, 3, 6, 1);
        p.set_demand(0, -6);
        p.set_demand(3, 6);
        p
    }

    #[test]
    fn accepts_every_engine() {
        let p = diamond();
        check_flow_solution(&p, &p.solve().unwrap()).unwrap();
        check_flow_solution(&p, &p.solve_reference().unwrap()).unwrap();
    }

    #[test]
    fn rejects_corrupted_flows() {
        let p = diamond();
        let mut sol = p.solve().unwrap();
        sol.flows[0] += 1; // breaks conservation at node 1
        let err = check_flow_solution(&p, &sol).unwrap_err();
        assert!(matches!(err, VerifyError::FlowCertificate { .. }), "{err}");
    }

    #[test]
    fn rejects_wrong_cost_and_suboptimal_routing() {
        let p = diamond();
        let mut sol = p.solve().unwrap();
        sol.cost += 1;
        assert!(check_flow_solution(&p, &sol).is_err());

        // Reroute 2 units over the expensive arc: conserving but no
        // longer slack-complementary with any correct dual.
        let mut sol = p.solve().unwrap();
        assert_eq!(sol.flows, vec![4, 2, 4, 2]);
        sol.flows = vec![2, 4, 2, 4];
        sol.cost = 2 + 16 + 2 + 4;
        let err = check_flow_solution(&p, &sol).unwrap_err();
        assert!(err.to_string().contains("dual gain"), "{err}");
    }
}
