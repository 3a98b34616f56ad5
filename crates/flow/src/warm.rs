//! Warm-start / parametric re-solve layer for [`MinCostFlow`].
//!
//! The retiming pipeline solves the *same* Eq. 14 network over and over
//! with small numeric edits: binary-search period probes slide region
//! bounds (pure **cost** changes on the frozen arena), the EDL overhead
//! sweep `c ∈ {0.5, 1.0, 2.0}` moves node coefficients (pure **demand**
//! changes), and service ECO re-submissions replay a cached netlist with
//! a different overhead. A cold solve throws the previous optimum away
//! each time; this module keeps it:
//!
//! * [`WarmBasis`] — a snapshot of one solved instance: the costs and
//!   demands it was solved at, the optimal flows/potentials, and (when
//!   the simplex produced it) the spanning-tree basis.
//! * [`MinCostFlow::solve_warm`] — diffs the live instance against the
//!   snapshot and dispatches to the cheapest sound repair:
//!   * *nothing changed* — return the cached solution verbatim,
//!   * *costs changed* — resume the network simplex from the old tree
//!     (dual repair re-prices the potentials, then ordinary
//!     strongly-feasible pivoting),
//!   * *demands changed* — route the demand delta through the residual
//!     graph of the old optimum (successive shortest paths; optimal
//!     because an optimal residual graph has no negative cycles),
//!   * *both changed / no tree* — fall back to a fresh cold solve.
//! * [`ParametricSweep`] — the driver call sites use: owns the instance
//!   and the basis, re-primes on [`FlowError::StaleBasis`], and tallies
//!   [`SweepStats`].
//!
//! # What "identical" means here
//!
//! Minimum-cost flow instances routinely have many optimal vertex
//! solutions; a warm resume may legitimately stop at a *different*
//! optimal basis than a cold solve would reach. The contract is
//! therefore: the warm objective **equals** the cold objective, the warm
//! flows satisfy bounds and conservation, and the warm potentials are a
//! valid dual certificate (`retime-verify`'s `check_flow_solution`
//! re-derives all three independently — the differential suite in
//! `tests/warm_differential.rs` certifies every warm outcome). A
//! no-change re-solve returns the cached solution bit-identically.
//!
//! Structural mutation ([`MinCostFlow::add_arc`]) invalidates a
//! snapshot; [`MinCostFlow::solve_warm`] rejects it with
//! [`FlowError::StaleBasis`] and [`ParametricSweep`] transparently
//! re-primes with a cold solve.

use crate::error::FlowError;
use crate::mincost::{ArcId, FlowSolution, MinCostFlow};
use crate::simplex::BasisSnapshot;

/// How a [`MinCostFlow::solve_warm`] call obtained its solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmOutcome {
    /// Neither costs nor demands moved since the capture — the cached
    /// solution was returned verbatim (bit-identical).
    Hit,
    /// Only costs moved — the simplex resumed from the snapshot tree;
    /// the payload is the number of repair pivots it needed.
    CostResume(u64),
    /// Only demands moved — the delta was routed through the residual
    /// graph of the previous optimum.
    DemandDelta,
    /// Costs *and* demands moved (or no tree snapshot was available) —
    /// the instance was re-solved cold and the basis re-primed.
    Cold,
}

/// A snapshot of one solved [`MinCostFlow`] instance, reusable to
/// warm-start the next solve of a numerically-perturbed copy.
///
/// Capture one with [`MinCostFlow::solve_cold_capture`]; feed it to
/// [`MinCostFlow::solve_warm`] (or let [`ParametricSweep`] manage it).
/// The snapshot records the *instance shape* (node/arc counts), the
/// costs and demands the solve ran at, the optimal solution, and — when
/// captured through the simplex — the final spanning-tree basis.
#[derive(Debug, Clone)]
pub struct WarmBasis {
    n: usize,
    user_arcs: usize,
    costs: Vec<i64>,
    demands: Vec<i64>,
    solution: FlowSolution,
    tree: Option<BasisSnapshot>,
}

impl WarmBasis {
    /// The cached optimal solution from the capture solve.
    #[must_use]
    pub fn solution(&self) -> &FlowSolution {
        &self.solution
    }

    /// Whether the snapshot still matches `p` structurally (same node
    /// and user-arc counts). Numeric edits (`set_cost`, `set_demand`)
    /// keep a basis usable; `add_arc` does not.
    #[must_use]
    pub fn matches(&self, p: &MinCostFlow) -> bool {
        self.n == p.node_count() && self.user_arcs == p.arc_count()
    }

    /// Mutable access to the cached dual potentials.
    ///
    /// This is a **fault-injection hook** for the differential test
    /// harness: corrupting the cached certificate and re-solving an
    /// unchanged instance must surface as a `WarmStartMismatch` from the
    /// independent verifier, proving that every warm outcome really is
    /// re-certified rather than trusted. Production code has no reason
    /// to call this.
    pub fn potentials_mut(&mut self) -> &mut [i64] {
        &mut self.solution.potentials
    }
}

impl MinCostFlow {
    /// Solves cold with the network simplex and captures a [`WarmBasis`]
    /// (solution + costs/demands + spanning tree) for later warm
    /// re-solves. The solve itself is identical to
    /// [`MinCostFlow::solve_network_simplex`].
    ///
    /// # Errors
    /// Same as [`MinCostFlow::solve_network_simplex`].
    pub fn solve_cold_capture(&self) -> Result<WarmBasis, FlowError> {
        let (solution, tree) = self.simplex_cold(true)?;
        Ok(WarmBasis {
            n: self.node_count(),
            user_arcs: self.arc_count(),
            costs: (0..self.arc_count())
                .map(|a| self.cost_of(ArcId(a)))
                .collect(),
            demands: (0..self.node_count()).map(|v| self.demand(v)).collect(),
            solution,
            tree,
        })
    }

    /// Re-solves this instance starting from `basis`, choosing the
    /// cheapest sound repair for what actually changed (see the module
    /// docs for the dispatch table). On success the basis is updated in
    /// place to describe the new optimum, ready for the next probe.
    ///
    /// # Errors
    /// [`FlowError::StaleBasis`] when the basis does not match the
    /// instance structurally (e.g. after [`MinCostFlow::add_arc`]) — the
    /// basis is left untouched and the caller must re-prime with
    /// [`MinCostFlow::solve_cold_capture`]. Otherwise the same errors as
    /// a cold solve.
    pub fn solve_warm(
        &self,
        basis: &mut WarmBasis,
    ) -> Result<(FlowSolution, WarmOutcome), FlowError> {
        if !basis.matches(self) {
            return Err(FlowError::StaleBasis {
                detail: format!(
                    "basis captured on {} nodes / {} arcs, instance has {} nodes / {} arcs",
                    basis.n,
                    basis.user_arcs,
                    self.node_count(),
                    self.arc_count()
                ),
            });
        }
        let _span = retime_trace::span("solve_warm");
        let costs_changed = (0..self.arc_count()).any(|a| self.cost_of(ArcId(a)) != basis.costs[a]);
        let demands_changed = (0..self.node_count()).any(|v| self.demand(v) != basis.demands[v]);
        match (costs_changed, demands_changed) {
            (false, false) => {
                // Unchanged instance: the cached optimum *is* the answer,
                // returned verbatim. (A corrupted cache flows through to
                // the verifier, which is exactly the point — see
                // `WarmBasis::potentials_mut`.)
                retime_trace::counter("warm_hits", 1);
                Ok((basis.solution.clone(), WarmOutcome::Hit))
            }
            (true, false) => {
                let Some(tree) = basis.tree.as_ref() else {
                    return self.warm_reprime(basis);
                };
                retime_trace::attr_str("path", "cost_resume");
                let (solution, tree, repair_pivots) =
                    self.simplex_resume(tree, &basis.solution.flows)?;
                basis.costs = (0..self.arc_count())
                    .map(|a| self.cost_of(ArcId(a)))
                    .collect();
                basis.solution = solution.clone();
                basis.tree = Some(tree);
                Ok((solution, WarmOutcome::CostResume(repair_pivots)))
            }
            (false, true) => {
                retime_trace::attr_str("path", "demand_delta");
                let solution = self.ssp_delta(basis)?;
                basis.demands = (0..self.node_count()).map(|v| self.demand(v)).collect();
                basis.solution = solution.clone();
                // Delta routing moves flows off the old basis; the tree
                // no longer describes them, so drop it. The next pure
                // cost probe after a demand probe re-primes cold.
                basis.tree = None;
                Ok((solution, WarmOutcome::DemandDelta))
            }
            (true, true) => self.warm_reprime(basis),
        }
    }

    /// Cold fallback inside the warm path: full capture solve, basis
    /// replaced wholesale.
    fn warm_reprime(
        &self,
        basis: &mut WarmBasis,
    ) -> Result<(FlowSolution, WarmOutcome), FlowError> {
        retime_trace::attr_str("path", "cold_fallback");
        *basis = self.solve_cold_capture()?;
        Ok((basis.solution.clone(), WarmOutcome::Cold))
    }

    /// Demand-only repair: route the demand delta through the residual
    /// graph of the previous optimum by successive shortest paths.
    ///
    /// Sound because the previous flow is optimal, so its residual graph
    /// has no negative cycle; adding a min-cost routing of the delta
    /// yields a min-cost flow for the new demands. Potentials are
    /// re-derived from the final residual graph exactly the way the SSP
    /// engine derives its own certificate.
    fn ssp_delta(&self, basis: &WarmBasis) -> Result<FlowSolution, FlowError> {
        let n = self.node_count();
        let total: i64 = (0..n).map(|v| self.demand(v)).sum();
        if total != 0 {
            return Err(FlowError::UnbalancedDemands { total });
        }
        let _span = retime_trace::span("ssp_delta");
        let s = n;
        let t = n + 1;
        let nn = n + 2;
        // Paired-edge residual adjacency seeded at the previous optimum:
        // user arc `a` is edges `2a` (remaining capacity, cost c) and
        // `2a + 1` (current flow, cost −c); delta arcs follow.
        let mut head: Vec<usize> = Vec::with_capacity(2 * self.arc_count() + 2 * n);
        let mut cap: Vec<i64> = Vec::with_capacity(head.capacity());
        let mut cost: Vec<i64> = Vec::with_capacity(head.capacity());
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nn];
        let mut push_pair = |from: usize, to: usize, fwd_cap: i64, rev_cap: i64, w: i64| {
            adj[from].push(head.len());
            head.push(to);
            cap.push(fwd_cap);
            cost.push(w);
            adj[to].push(head.len());
            head.push(from);
            cap.push(rev_cap);
            cost.push(-w);
        };
        for a in 0..self.arc_count() {
            let (from, to, arc_cap, arc_cost) = self.arc_info(ArcId(a));
            let f = basis.solution.flows[a];
            if f < 0 || f > arc_cap {
                return Err(FlowError::StaleBasis {
                    detail: format!("cached flow {f} out of bounds on arc {a}"),
                });
            }
            push_pair(from, to, arc_cap - f, f, arc_cost);
        }
        let mut required = 0i64;
        for v in 0..n {
            let delta = self.demand(v) - basis.demands[v];
            if delta < 0 {
                push_pair(s, v, -delta, 0, 0);
            } else if delta > 0 {
                push_pair(v, t, delta, 0, 0);
                required += delta;
            }
        }

        // Successive shortest paths: queue-based Bellman-Ford per
        // augmentation (residual costs may be negative).
        let mut shipped = 0i64;
        let mut augmentations = 0u64;
        while shipped < required {
            augmentations += 1;
            let mut dist = vec![i64::MAX; nn];
            let mut parent = vec![usize::MAX; nn];
            let mut in_queue = vec![false; nn];
            let mut relaxations = vec![0usize; nn];
            let mut queue = std::collections::VecDeque::new();
            dist[s] = 0;
            queue.push_back(s);
            in_queue[s] = true;
            while let Some(u) = queue.pop_front() {
                in_queue[u] = false;
                for &e in &adj[u] {
                    if cap[e] == 0 {
                        continue;
                    }
                    let v = head[e];
                    let nd = dist[u] + cost[e];
                    if nd < dist[v] {
                        dist[v] = nd;
                        parent[v] = e;
                        relaxations[v] += 1;
                        if relaxations[v] > nn {
                            return Err(FlowError::NegativeCycle);
                        }
                        if !in_queue[v] {
                            in_queue[v] = true;
                            queue.push_back(v);
                        }
                    }
                }
            }
            if dist[t] == i64::MAX {
                return Err(FlowError::Infeasible);
            }
            let mut push = required - shipped;
            let mut v = t;
            while v != s {
                let e = parent[v];
                push = push.min(cap[e]);
                v = head[e ^ 1];
            }
            let mut v = t;
            while v != s {
                let e = parent[v];
                cap[e] -= push;
                cap[e ^ 1] += push;
                v = head[e ^ 1];
            }
            shipped += push;
        }
        retime_trace::counter("delta_augmentations", augmentations);
        retime_trace::counter("delta_shipped", shipped as u64);

        // New flows: the reverse-edge capacity of a user arc *is* its
        // flow (it started at the old flow and tracked every push).
        let mut flows = Vec::with_capacity(self.arc_count());
        let mut total_cost = 0i64;
        for a in 0..self.arc_count() {
            let f = cap[2 * a + 1];
            flows.push(f);
            total_cost += f * cost[2 * a];
        }
        // Fresh dual certificate from the final residual graph: shortest
        // distances from a virtual everywhere-source to a fixpoint.
        let mut pot = vec![0i64; nn];
        let mut in_queue = vec![true; nn];
        let mut relaxations = vec![0usize; nn];
        let mut queue: std::collections::VecDeque<usize> = (0..nn).collect();
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            for &e in &adj[u] {
                if cap[e] == 0 {
                    continue;
                }
                let v = head[e];
                let nd = pot[u] + cost[e];
                if nd < pot[v] {
                    pot[v] = nd;
                    relaxations[v] += 1;
                    if relaxations[v] > nn {
                        return Err(FlowError::NegativeCycle);
                    }
                    if !in_queue[v] {
                        in_queue[v] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        pot.truncate(n);
        Ok(FlowSolution {
            cost: total_cost,
            flows,
            potentials: pot,
        })
    }
}

/// Counters a [`ParametricSweep`] accumulates across its probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Probes answered verbatim from the cache (nothing changed).
    pub warm_hits: u64,
    /// Probes answered by resuming the simplex from the old tree.
    pub cost_resumes: u64,
    /// Probes answered by routing a demand delta.
    pub demand_deltas: u64,
    /// Probes answered by a full cold solve (first probe, both-changed
    /// fallbacks, and stale-basis re-primes).
    pub cold_solves: u64,
    /// Total pivots spent inside warm simplex resumes.
    pub repair_pivots: u64,
}

/// Drives a sequence of warm re-solves over one owned [`MinCostFlow`]
/// instance: mutate costs/demands through [`ParametricSweep::problem_mut`]
/// between calls to [`ParametricSweep::solve`], and the sweep reuses the
/// previous optimum wherever a sound repair exists.
///
/// ```
/// use retime_flow::{MinCostFlow, ParametricSweep, ArcId};
///
/// # fn main() -> Result<(), retime_flow::FlowError> {
/// let mut p = MinCostFlow::new(3);
/// let a = p.add_arc(0, 1, 10, 1);
/// p.add_arc(1, 2, 10, 1);
/// p.add_arc(0, 2, 10, 3);
/// p.set_demand(0, -5);
/// p.set_demand(2, 5);
/// let mut sweep = ParametricSweep::new(p);
/// let first = sweep.solve()?; // cold prime
/// assert_eq!(first.cost, 10);
/// sweep.problem_mut().set_cost(a, 4); // slide a cost, keep the basis
/// let second = sweep.solve()?; // warm resume
/// assert_eq!(second.cost, 15); // direct route wins now
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParametricSweep {
    problem: MinCostFlow,
    basis: Option<WarmBasis>,
    stats: SweepStats,
}

impl ParametricSweep {
    /// Wraps `problem`; the first [`ParametricSweep::solve`] primes the
    /// basis cold.
    #[must_use]
    pub fn new(problem: MinCostFlow) -> ParametricSweep {
        ParametricSweep {
            problem,
            basis: None,
            stats: SweepStats::default(),
        }
    }

    /// The wrapped instance.
    #[must_use]
    pub fn problem(&self) -> &MinCostFlow {
        &self.problem
    }

    /// Mutable access for sliding costs/demands between probes. Numeric
    /// edits keep the basis; a structural edit (`add_arc`) is detected
    /// on the next [`ParametricSweep::solve`] and re-primed cold.
    pub fn problem_mut(&mut self) -> &mut MinCostFlow {
        &mut self.problem
    }

    /// The counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// The current basis, when one has been primed. Harnesses certify
    /// warm probes by checking `basis().solution()` against an
    /// independent cold solve of [`ParametricSweep::problem`].
    #[must_use]
    pub fn basis(&self) -> Option<&WarmBasis> {
        self.basis.as_ref()
    }

    /// The current basis, when one has been primed (for inspection and
    /// fault injection in tests).
    pub fn basis_mut(&mut self) -> Option<&mut WarmBasis> {
        self.basis.as_mut()
    }

    /// Solves the instance as it currently stands, warm from the
    /// previous basis when one is primed.
    ///
    /// # Errors
    /// The underlying solver errors ([`FlowError::Infeasible`] etc.).
    /// [`FlowError::StaleBasis`] never escapes — it triggers a cold
    /// re-prime instead.
    pub fn solve(&mut self) -> Result<FlowSolution, FlowError> {
        if let Some(basis) = self.basis.as_mut() {
            match self.problem.solve_warm(basis) {
                Ok((solution, outcome)) => {
                    match outcome {
                        WarmOutcome::Hit => self.stats.warm_hits += 1,
                        WarmOutcome::CostResume(p) => {
                            self.stats.cost_resumes += 1;
                            self.stats.repair_pivots += p;
                        }
                        WarmOutcome::DemandDelta => self.stats.demand_deltas += 1,
                        WarmOutcome::Cold => self.stats.cold_solves += 1,
                    }
                    return Ok(solution);
                }
                Err(FlowError::StaleBasis { .. }) => {
                    // Structural drift: drop the basis and re-prime below.
                    self.basis = None;
                }
                Err(other) => {
                    // A genuinely failed solve leaves the cache unusable.
                    self.basis = None;
                    return Err(other);
                }
            }
        }
        self.stats.cold_solves += 1;
        match self.problem.solve_cold_capture() {
            Ok(basis) => {
                let solution = basis.solution().clone();
                self.basis = Some(basis);
                Ok(solution)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> MinCostFlow {
        let mut p = MinCostFlow::new(4);
        p.add_arc(0, 1, 5, 2);
        p.add_arc(0, 2, 5, 1);
        p.add_arc(2, 1, 5, 0);
        p.add_arc(1, 3, 10, 1);
        p.add_arc(2, 3, 2, 4);
        p.set_demand(0, -6);
        p.set_demand(3, 6);
        p
    }

    #[test]
    fn unchanged_resolve_is_a_verbatim_hit() {
        let p = diamond();
        let mut basis = p.solve_cold_capture().unwrap();
        let cold = basis.solution().clone();
        let (warm, outcome) = p.solve_warm(&mut basis).unwrap();
        assert_eq!(outcome, WarmOutcome::Hit);
        assert_eq!(warm, cold, "a hit must be bit-identical");
    }

    #[test]
    fn cost_change_resumes_and_matches_cold() {
        let mut p = diamond();
        let mut basis = p.solve_cold_capture().unwrap();
        p.set_cost(ArcId(1), 6); // the formerly-cheap route gets expensive
        let (warm, outcome) = p.solve_warm(&mut basis).unwrap();
        assert!(matches!(outcome, WarmOutcome::CostResume(_)));
        let cold = p.solve_network_simplex().unwrap();
        assert_eq!(warm.cost, cold.cost);
        assert_eq!(warm.cost, p.solve().unwrap().cost);
        // The refreshed basis answers the unchanged instance verbatim.
        let (again, outcome) = p.solve_warm(&mut basis).unwrap();
        assert_eq!(outcome, WarmOutcome::Hit);
        assert_eq!(again, warm);
    }

    #[test]
    fn demand_change_routes_the_delta() {
        let mut p = diamond();
        let mut basis = p.solve_cold_capture().unwrap();
        p.set_demand(0, -4);
        p.set_demand(3, 4);
        let (warm, outcome) = p.solve_warm(&mut basis).unwrap();
        assert_eq!(outcome, WarmOutcome::DemandDelta);
        assert_eq!(warm.cost, p.solve().unwrap().cost);
        // Raising demand back up also routes (positive delta).
        p.set_demand(0, -6);
        p.set_demand(3, 6);
        let (warm, outcome) = p.solve_warm(&mut basis).unwrap();
        assert_eq!(outcome, WarmOutcome::DemandDelta);
        assert_eq!(warm.cost, p.solve().unwrap().cost);
    }

    #[test]
    fn both_changed_falls_back_cold() {
        let mut p = diamond();
        let mut basis = p.solve_cold_capture().unwrap();
        p.set_cost(ArcId(0), 7);
        p.set_demand(0, -3);
        p.set_demand(3, 3);
        let (warm, outcome) = p.solve_warm(&mut basis).unwrap();
        assert_eq!(outcome, WarmOutcome::Cold);
        assert_eq!(warm.cost, p.solve().unwrap().cost);
    }

    #[test]
    fn structural_mutation_is_rejected_as_stale() {
        let mut p = diamond();
        let mut basis = p.solve_cold_capture().unwrap();
        p.add_arc(0, 3, 3, 1);
        let err = p.solve_warm(&mut basis).unwrap_err();
        assert!(matches!(err, FlowError::StaleBasis { .. }), "{err:?}");
    }

    #[test]
    fn sweep_reprimes_after_structural_mutation() {
        let mut sweep = ParametricSweep::new(diamond());
        sweep.solve().unwrap();
        sweep.problem_mut().add_arc(0, 3, 3, 1);
        let sol = sweep.solve().unwrap();
        assert_eq!(sol.cost, sweep.problem().solve().unwrap().cost);
        assert_eq!(sweep.stats().cold_solves, 2, "stale basis re-primes cold");
    }

    #[test]
    fn sweep_counts_outcomes() {
        let mut sweep = ParametricSweep::new(diamond());
        sweep.solve().unwrap(); // cold prime
        sweep.solve().unwrap(); // hit
        sweep.problem_mut().set_cost(ArcId(1), 6);
        sweep.solve().unwrap(); // cost resume
        sweep.problem_mut().set_demand(0, -4);
        sweep.problem_mut().set_demand(3, 4);
        sweep.solve().unwrap(); // demand delta
        let stats = sweep.stats();
        assert_eq!(stats.cold_solves, 1);
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.cost_resumes, 1);
        assert_eq!(stats.demand_deltas, 1);
    }

    #[test]
    fn period_probe_shape_cost_sequence() {
        // Bound-edge costs sliding monotonically, as a binary period
        // search produces: each probe must match a cold solve.
        let mut p = MinCostFlow::new(3);
        let up = p.add_arc(0, 2, 50, 8); // v -> host, cost = hi
        let down = p.add_arc(2, 0, 50, 0); // host -> v, cost = -lo
        p.add_arc(0, 1, 10, 1);
        p.add_arc(1, 2, 10, 1);
        p.set_demand(0, -7);
        p.set_demand(2, 7);
        let mut sweep = ParametricSweep::new(p);
        for (hi, lo) in [(8, 0), (5, -1), (3, -2), (4, -1)] {
            sweep.problem_mut().set_cost(up, hi);
            sweep.problem_mut().set_cost(down, lo);
            let warm = sweep.solve().unwrap();
            let cold = sweep.problem().solve_network_simplex().unwrap();
            assert_eq!(warm.cost, cold.cost, "probe (hi={hi}, lo={lo})");
        }
        assert!(sweep.stats().cost_resumes >= 3);
    }
}
