//! Certificate checking of flow solutions: no re-solve required.
//!
//! * [`check_closure_certificate`] proves a minimum cut's closure
//!   optimal from the maximum preflow the cut ends with: a preflow's
//!   sink inflow bounds the capacity of every cut, so a cut of exactly
//!   that capacity is minimum. This is how the verifier certifies
//!   G-RAR; [`retiming_closure`] rebuilds the closure form of a
//!   [`RetimingProblem`] for it.
//! * [`check_flow_solution`] checks a [`FlowSolution`] of the
//!   min-cost-flow form: the per-arc flows are a *primal* certificate
//!   (capacity + conservation), the node potentials a *dual* one, and
//!   optimality follows from complementary slackness between the two.

use retime_core::IlpFormulation;
use retime_flow::{ArcId, Closure, ClosureCertificate, CsrIndex, FlowSolution, MinCostFlow};
use retime_retime::RetimingProblem;

use crate::error::VerifyError;

/// The maximum-weight closure form of a retiming problem, rebuilt from
/// its Eq. (10) ILP: selecting `v` means `r(v) = −1`. The weights are
/// the objective coefficients with the movement penalty folded in (the
/// Eq. 14 demands), each zero-weight difference constraint
/// `r(u) − r(v) ≤ 0` makes `v` require `u`, and the bounds force nodes
/// in (`U = −1`) or out (`L = 0`). Constraints of weight 1 cannot bind
/// binary labels.
///
/// A labelling's closure weight is a constant minus its objective with
/// the penalty, so a maximum closure is an optimum retiming.
pub fn retiming_closure(problem: &RetimingProblem) -> Closure {
    let ilp = IlpFormulation::from_problem(problem);
    let (eps, cloud) = (problem.movement_penalty(), problem.cloud_len());
    let mut closure = Closure::new(problem.node_count());
    for (v, coef) in problem.objective_coefficients().into_iter().enumerate() {
        closure.set_weight(v, if v < cloud { coef - eps } else { coef });
    }
    closure.add_weight(problem.host(), eps * cloud as i64);
    for &(u, v, w) in &ilp.constraints {
        if w == 0 {
            closure.require(v, u);
        }
    }
    for (v, &(lo, hi)) in ilp.bounds.iter().enumerate() {
        if hi == -1 {
            closure.force_in(v);
        }
        if lo == 0 {
            closure.force_out(v);
        }
    }
    closure
}

/// Checks, in `O(n + m)` and without solving anything, that `cert`
/// proves its members the inclusion-minimal maximum-weight closure of
/// `closure`. The network is the one [`ClosureCertificate`] describes.
/// Passes only if:
///
/// 1. the forced membership is exactly the forcing closed under the
///    requirements (recomputed here), and the members honour it and
///    every requirement;
/// 2. every arc flow lies in `[0, cap]`, and a requirement that touches
///    a fixed node carries none;
/// 3. every node except the source keeps non-negative excess;
/// 4. the sink inflow equals the capacity of the cut the members
///    induce;
/// 5. the free members are exactly the free nodes that reach the sink
///    in the residual graph.
///
/// By 3, every cut's capacity is at least the sink inflow, so by 4 the
/// members' cut is minimum and their closure maximum. Every minimum
/// cut's sink side then contains every node that reaches the sink, so
/// by 5 no optimum closure omits a member.
///
/// Records the arcs it checked as an `arcs` counter on the open trace
/// span.
///
/// # Errors
/// Returns [`VerifyError::FlowCertificate`] naming the first failed
/// condition.
pub fn check_closure_certificate(
    closure: &Closure,
    cert: &ClosureCertificate,
) -> Result<(), VerifyError> {
    let fail = |detail: String| Err(VerifyError::FlowCertificate { detail });
    let (w, reqs) = (closure.weights(), closure.requirements());
    let n = w.len();
    let lens = [
        cert.members.len(),
        cert.forced.len(),
        cert.weight_flow.len(),
    ];
    if lens != [n; 3] || cert.requirement_flow.len() != reqs.len() {
        return fail("certificate shaped for another instance".into());
    }
    // Requirement `i` is listed at the node that requires as half `2i`
    // and at the node it requires as half `2i + 1`.
    let ends: Vec<u32> = reqs
        .iter()
        .flat_map(|&(v, u)| [v as u32, u as u32])
        .collect();
    let halves = CsrIndex::build(n, &ends);
    let touching = |x: usize| halves.out(x).iter().map(|&h| (h as usize / 2, h % 2 == 1));

    // 1. Forcing: whatever requires a forced-out node is out, whatever
    // a forced-in node requires is in.
    let mut forced: Vec<Option<bool>> = vec![None; n];
    let mut stack = closure.forced_out().to_vec();
    while let Some(x) = stack.pop() {
        if forced[x].is_none() {
            forced[x] = Some(false);
            stack.extend(
                touching(x)
                    .filter(|&(_, required)| required)
                    .map(|(i, _)| reqs[i].0),
            );
        }
    }
    stack.extend_from_slice(closure.forced_in());
    while let Some(x) = stack.pop() {
        match forced[x] {
            Some(false) => return fail(format!("the forcing is infeasible at node {x}")),
            Some(true) => {}
            None => {
                forced[x] = Some(true);
                stack.extend(
                    touching(x)
                        .filter(|&(_, required)| !required)
                        .map(|(i, _)| reqs[i].1),
                );
            }
        }
    }
    if let Some(v) = (0..n).find(|&v| cert.forced[v] != forced[v]) {
        return fail(format!(
            "node {v} reported forced {:?}, the forcing closes to {:?}",
            cert.forced[v], forced[v]
        ));
    }
    if let Some(v) = (0..n).find(|&v| forced[v].is_some_and(|f| f != cert.members[v])) {
        return fail(format!("membership of node {v} breaks its forcing"));
    }
    if let Some(i) = (0..reqs.len()).find(|&i| cert.members[reqs[i].0] && !cert.members[reqs[i].1])
    {
        let (v, u) = reqs[i];
        return fail(format!("member {v} requires non-member {u}"));
    }

    // 2–3. Capacities and excess. Source arcs feed negative-weight
    // nodes, sink arcs drain positive-weight ones, and "v requires u"
    // is an uncapacitated arc u → v.
    let free = |v: usize| forced[v].is_none();
    let mut excess = vec![0i128; n];
    let (mut sink_inflow, mut arcs) = (0i128, 0u64);
    for v in 0..n {
        let f = cert.weight_flow[v];
        let cap = if free(v) { w[v].abs() } else { 0 };
        if f < 0 || f > cap {
            return fail(format!(
                "weight arc of node {v} carries {f} outside [0, {cap}]"
            ));
        }
        if w[v] < 0 {
            excess[v] += i128::from(f);
        } else {
            excess[v] -= i128::from(f);
            sink_inflow += i128::from(f);
        }
        arcs += u64::from(cap > 0);
    }
    for (i, &(v, u)) in reqs.iter().enumerate() {
        let f = cert.requirement_flow[i];
        if f < 0 || (f > 0 && !(free(v) && free(u))) {
            return fail(format!("requirement {i} ({u} → {v}) carries {f}"));
        }
        excess[v] += i128::from(f);
        excess[u] -= i128::from(f);
        arcs += u64::from(free(v) && free(u));
    }
    if let Some(v) = (0..n).find(|&v| excess[v] < 0) {
        return fail(format!("node {v} has excess {} < 0", excess[v]));
    }

    // 4. Sink inflow against the members' cut.
    let cut: i128 = (0..n)
        .filter(|&v| free(v) && cert.members[v] == (w[v] < 0))
        .map(|v| i128::from(w[v].abs()))
        .sum();
    if sink_inflow != cut {
        return fail(format!(
            "sink inflow {sink_inflow} differs from the members' cut capacity {cut}"
        ));
    }

    // 5. Backward search from the sink over residual arcs. By 3 and 4
    // no residual arc enters the members' side of their cut, so no path
    // to the sink runs through the source. "v requires u" leaves
    // residual capacity on u → v always, and on v → u when it carries
    // flow.
    let mut reach: Vec<bool> = (0..n)
        .map(|v| free(v) && w[v] > 0 && cert.weight_flow[v] < w[v])
        .collect();
    let mut queue: Vec<usize> = (0..n).filter(|&v| reach[v]).collect();
    while let Some(y) = queue.pop() {
        for (i, required) in touching(y) {
            let (v, u) = reqs[i];
            let x = if required { v } else { u };
            if free(v) && free(u) && (!required || cert.requirement_flow[i] > 0) && !reach[x] {
                reach[x] = true;
                queue.push(x);
            }
        }
    }
    if let Some(v) = (0..n).find(|&v| free(v) && reach[v] != cert.members[v]) {
        return fail(format!(
            "node {v}: member {} but reaches the sink {}",
            cert.members[v], reach[v]
        ));
    }
    retime_trace::counter("arcs", arcs);
    Ok(())
}

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
    fn accepts_the_reference_engine() {
        let p = diamond();
        check_flow_solution(&p, &p.solve_reference().unwrap()).unwrap();
    }

    #[test]
    fn rejects_corrupted_flows() {
        let p = diamond();
        let mut sol = p.solve_reference().unwrap();
        sol.flows[0] += 1; // breaks conservation at node 1
        let err = check_flow_solution(&p, &sol).unwrap_err();
        assert!(matches!(err, VerifyError::FlowCertificate { .. }), "{err}");
    }

    #[test]
    fn rejects_wrong_cost_and_suboptimal_routing() {
        let p = diamond();
        let mut sol = p.solve_reference().unwrap();
        sol.cost += 1;
        assert!(check_flow_solution(&p, &sol).is_err());

        // Reroute 2 units over the expensive arc: conserving but no
        // longer slack-complementary with any correct dual.
        let mut sol = p.solve_reference().unwrap();
        assert_eq!(sol.flows, vec![4, 2, 4, 2]);
        sol.flows = vec![2, 4, 2, 4];
        sol.cost = 2 + 16 + 2 + 4;
        let err = check_flow_solution(&p, &sol).unwrap_err();
        assert!(err.to_string().contains("dual gain"), "{err}");
    }
}
