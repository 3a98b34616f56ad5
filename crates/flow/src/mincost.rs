//! Minimum-cost b-flow with dual extraction: successive shortest paths
//! and the reference solver.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

use crate::csr::CsrGraph;
use crate::error::FlowError;

/// Identifier of an arc added with [`MinCostFlow::add_arc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArcId(pub usize);

/// Practically-infinite capacity for uncapacitated arcs.
pub const INF_CAP: i64 = i64::MAX / 4;

/// A minimum-cost flow problem over node demands.
///
/// Sign convention (matching the paper's Eq. 13/14): `demand(v)` is the
/// required *excess* `inflow − outflow` at `v`. Demands must sum to zero.
///
/// Arc costs may be negative (the retiming reduction produces `−1`-cost
/// host edges for the `V_m` region bounds); negative *cycles* are not
/// supported and cannot arise from difference-constraint duals of a
/// feasible system.
///
/// Arcs live in a flat paired array (arc `2i` is user arc `i`, `2i + 1`
/// its residual reverse). The first solve freezes a [`CsrGraph`] over
/// the instance — user arcs plus the super-source/sink demand arcs —
/// and every subsequent solve reuses it, so repeated solves of the same
/// instance (engine cross-checks, certificate re-solves) pay for
/// adjacency construction exactly once. Mutators invalidate the frozen
/// arena.
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    n: usize,
    // Paired edge representation: edge 2i is the i-th arc, 2i+1 its
    // residual reverse.
    head: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<i64>,
    demand: Vec<i64>,
    user_arcs: usize,
    frozen: OnceLock<CsrGraph>,
}

/// An optimal flow with its dual certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSolution {
    /// Total cost `Σ cost(a) · flow(a)`.
    pub cost: i64,
    /// Flow per user arc (indexed by [`ArcId`]).
    pub flows: Vec<i64>,
    /// Optimal node potentials `y`: for every arc `(u, v)` with residual
    /// capacity, `y(v) − y(u) ≤ cost(u, v)`, with equality on arcs carrying
    /// flow. These are the LP duals the retiming reduction reads back as
    /// `r(v) = −(y(v) − y(host))`.
    pub potentials: Vec<i64>,
}

impl MinCostFlow {
    /// Creates a problem over `n` nodes with zero demands.
    pub fn new(n: usize) -> MinCostFlow {
        MinCostFlow {
            n,
            head: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            demand: vec![0; n],
            user_arcs: 0,
            frozen: OnceLock::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of user arcs.
    pub fn arc_count(&self) -> usize {
        self.user_arcs
    }

    /// Adds a directed arc with the given capacity and per-unit cost.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or `from == to`.
    pub fn add_arc(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> ArcId {
        assert!(from < self.n && to < self.n, "arc endpoint out of range");
        assert_ne!(from, to, "self-loops are not supported");
        assert!(cap >= 0, "capacity must be non-negative");
        let id = ArcId(self.user_arcs);
        self.push_edge(from, to, cap, cost);
        self.user_arcs += 1;
        self.frozen = OnceLock::new();
        id
    }

    /// Adds an uncapacitated arc.
    pub fn add_uncapacitated(&mut self, from: usize, to: usize, cost: i64) -> ArcId {
        self.add_arc(from, to, INF_CAP, cost)
    }

    /// Sets the demand (required `inflow − outflow`) of a node.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn set_demand(&mut self, v: usize, demand: i64) {
        assert!(v < self.n, "node out of range");
        self.demand[v] = demand;
        self.frozen = OnceLock::new();
    }

    /// Adds to the demand of a node.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn add_demand(&mut self, v: usize, delta: i64) {
        assert!(v < self.n, "node out of range");
        self.demand[v] += delta;
        self.frozen = OnceLock::new();
    }

    /// The current demand of a node.
    pub fn demand(&self, v: usize) -> i64 {
        self.demand[v]
    }

    /// The `(from, to, capacity, cost)` of a user arc — the public
    /// introspection hook external certificate checkers use to audit a
    /// [`FlowSolution`] (conservation, capacity bounds, complementary
    /// slackness) without re-deriving the instance.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn arc_info(&self, id: ArcId) -> (usize, usize, i64, i64) {
        assert!(id.0 < self.user_arcs, "arc id out of range");
        let e = 2 * id.0;
        (
            self.head[e + 1] as usize,
            self.head[e] as usize,
            self.cap[e],
            self.cost[e],
        )
    }

    fn push_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) {
        self.head.push(to as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.head.push(from as u32);
        self.cap.push(0);
        self.cost.push(-cost);
    }

    /// The frozen CSR arena over the instance plus its super-source /
    /// super-sink demand arcs (nodes `n` and `n + 1`): built on first
    /// use, reused by every subsequent solve until a mutator invalidates
    /// it. Arc ids below `2 · arc_count()` are the user arc pairs in
    /// insertion order; demand-arc pairs follow in node order — exactly
    /// the layout the pre-CSR solvers produced, so results are
    /// bit-identical.
    pub(crate) fn frozen(&self) -> &CsrGraph {
        self.frozen.get_or_init(|| {
            let s = self.n;
            let t = self.n + 1;
            let mut tail: Vec<u32> = Vec::with_capacity(self.head.len() + 2 * self.n);
            let mut head = self.head.clone();
            let mut cap = self.cap.clone();
            let mut cost = self.cost.clone();
            for e in 0..self.head.len() {
                tail.push(self.head[e ^ 1]);
            }
            let mut push_pair = |from: usize, to: usize, c: i64| {
                tail.push(from as u32);
                head.push(to as u32);
                cap.push(c);
                cost.push(0);
                tail.push(to as u32);
                head.push(from as u32);
                cap.push(0);
                cost.push(0);
            };
            for v in 0..self.n {
                let b = self.demand[v];
                if b < 0 {
                    push_pair(s, v, -b);
                } else if b > 0 {
                    push_pair(v, t, b);
                }
            }
            CsrGraph::new(self.n + 2, tail, head, cap, cost)
        })
    }

    /// Solves by primal-dual successive shortest paths with Johnson
    /// potentials. Retiming itself solves its Eq. 14 instances as a
    /// minimum cut ([`crate::Closure`]); this engine serves the general
    /// weights of the classic minimum-period retiming and differential
    /// tests.
    ///
    /// # Errors
    /// [`FlowError::UnbalancedDemands`] if demands do not sum to zero,
    /// [`FlowError::Infeasible`] if the demands cannot be routed,
    /// [`FlowError::NegativeCycle`] if the costs form a negative cycle.
    pub fn solve(&self) -> Result<FlowSolution, FlowError> {
        let total: i64 = self.demand.iter().sum();
        if total != 0 {
            return Err(FlowError::UnbalancedDemands { total });
        }
        let s = self.n;
        let t = self.n + 1;
        let g = self.frozen();
        let required: i64 = self.demand.iter().filter(|&&b| b > 0).sum();
        // Per-solve residual state: one flat copy of the frozen caps.
        let mut caps = g.caps().to_vec();
        let nn = g.node_count();

        let solve_span = retime_trace::span("ssp");

        // Initial potentials via Bellman-Ford from the super source
        // (costs may be negative).
        let mut pot = bellman_ford_from(g, &caps, s)?;

        // Primal-dual (SSP with blocking flow): each phase runs one
        // Dijkstra on reduced costs, then saturates the *entire*
        // admissible (zero-reduced-cost) subgraph with a blocking flow.
        // Retiming duals have tiny arc costs (weights in {−1, 0, 1}), so
        // only a handful of phases occur regardless of circuit size.
        let mut shipped = 0i64;
        let mut phases = 0u64;
        let mut dist = vec![i64::MAX; nn];
        while shipped < required {
            // Each phase (Dijkstra + blocking flow) traces as one span
            // carrying the amount it shipped.
            let _phase = retime_trace::span("ssp_phase");
            phases += 1;
            // Dijkstra on reduced costs.
            dist.iter_mut().for_each(|d| *d = i64::MAX);
            let mut heap: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
            dist[s] = 0;
            heap.push(Reverse((0, s)));
            while let Some(Reverse((d, u))) = heap.pop() {
                if d > dist[u] {
                    continue;
                }
                for &e in g.out(u) {
                    let e = e as usize;
                    if caps[e] == 0 {
                        continue;
                    }
                    let v = g.head(e);
                    // Nodes unreachable from the super source in the
                    // initial residual graph stay unreachable (reverse
                    // arcs only appear along augmented, hence reachable,
                    // paths), so they can be skipped outright.
                    if pot[u] == i64::MAX || pot[v] == i64::MAX {
                        continue;
                    }
                    let rc = g.cost(e) + pot[u] - pot[v];
                    debug_assert!(rc >= 0, "negative reduced cost {rc}");
                    let nd = d.saturating_add(rc);
                    if nd < dist[v] {
                        dist[v] = nd;
                        heap.push(Reverse((nd, v)));
                    }
                }
            }
            if dist[t] == i64::MAX {
                return Err(FlowError::Infeasible);
            }
            // Update potentials, capping at dist[t]: nodes beyond (or
            // unreachable from) the sink this round advance by dist[t],
            // which preserves non-negative reduced costs on every residual
            // arc across rounds.
            let dt = dist[t];
            for v in 0..nn {
                if pot[v] != i64::MAX && dist[v] != i64::MAX {
                    pot[v] += dist[v].min(dt);
                } else if pot[v] != i64::MAX {
                    pot[v] += dt;
                }
            }
            // Blocking flow over the admissible subgraph (residual arcs
            // with zero reduced cost under the updated potentials).
            let pushed = blocking_flow(g, &mut caps, s, t, required - shipped, &pot);
            debug_assert!(pushed > 0, "Dijkstra reached t, so flow must move");
            if pushed == 0 {
                return Err(FlowError::Infeasible);
            }
            retime_trace::counter("pushed", pushed as u64);
            shipped += pushed;
        }
        retime_trace::counter("phases", phases);
        retime_trace::counter("shipped", shipped as u64);
        drop(solve_span);

        // Flows on user arcs: reverse-edge capacity equals the flow.
        let mut flows = Vec::with_capacity(self.user_arcs);
        let mut cost = 0i64;
        for a in 0..self.user_arcs {
            let f = caps[2 * a + 1];
            flows.push(f);
            cost += f * self.cost[2 * a];
        }
        // Final duals: shortest distances in the residual graph from a
        // virtual everywhere-source (Bellman-Ford to a fixpoint). The
        // optimal residual graph has no negative cycles, so this
        // terminates and certifies optimality.
        let potentials = residual_potentials(g, &caps, self.n);
        Ok(FlowSolution {
            cost,
            flows,
            potentials,
        })
    }

    /// Solves by *plain* successive shortest paths: one Bellman–Ford
    /// shortest-path computation per augmentation over the residual
    /// graph, pushing a single path's bottleneck at a time — no Johnson
    /// potentials, no Dijkstra, no blocking flow.
    ///
    /// Deliberately the simplest correct min-cost-flow algorithm in the
    /// crate: it shares no search machinery with [`MinCostFlow::solve`]
    /// — it does not even touch the frozen CSR arena, building its own
    /// throwaway adjacency lists instead — so it serves as the
    /// differential reference the production retiming solve (a minimum
    /// cut) and [`MinCostFlow::solve`] are cross-checked against (see
    /// `retime-verify`). Quadratic-ish and slow — not a production path.
    ///
    /// # Errors
    /// [`FlowError::UnbalancedDemands`] if demands do not sum to zero,
    /// [`FlowError::Infeasible`] if the demands cannot be routed,
    /// [`FlowError::NegativeCycle`] if relaxation fails to converge.
    pub fn solve_reference(&self) -> Result<FlowSolution, FlowError> {
        let total: i64 = self.demand.iter().sum();
        if total != 0 {
            return Err(FlowError::UnbalancedDemands { total });
        }
        // Private working copy with super source / sink appended — the
        // same instance encoding `solve` freezes, rebuilt here
        // from scratch on plain nested adjacency lists.
        let s = self.n;
        let t = self.n + 1;
        let nn = self.n + 2;
        let mut head: Vec<usize> = Vec::with_capacity(self.head.len() + 2 * self.n);
        let mut cap: Vec<i64> = Vec::with_capacity(self.cap.len() + 2 * self.n);
        let mut cost: Vec<i64> = Vec::with_capacity(self.cost.len() + 2 * self.n);
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nn];
        let mut push_pair = |from: usize, to: usize, c: i64, w: i64| {
            adj[from].push(head.len());
            head.push(to);
            cap.push(c);
            cost.push(w);
            adj[to].push(head.len());
            head.push(from);
            cap.push(0);
            cost.push(-w);
        };
        for a in 0..self.user_arcs {
            let e = 2 * a;
            push_pair(
                self.head[e + 1] as usize,
                self.head[e] as usize,
                self.cap[e],
                self.cost[e],
            );
        }
        let mut required = 0i64;
        for v in 0..self.n {
            let b = self.demand[v];
            if b < 0 {
                push_pair(s, v, -b, 0);
            } else if b > 0 {
                push_pair(v, t, b, 0);
                required += b;
            }
        }

        let solve_span = retime_trace::span("reference_ssp");
        let mut shipped = 0i64;
        let mut augmentations = 0u64;
        while shipped < required {
            augmentations += 1;
            // Queue-based Bellman-Ford with parent-edge tracking; costs
            // in the residual graph may be negative, so no Dijkstra.
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
            // Bottleneck of the shortest path, then push along it. The
            // paired edge representation makes `e ^ 1` the reverse arc,
            // whose head is the tail of `e`.
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
        retime_trace::counter("augmentations", augmentations);
        retime_trace::counter("shipped", shipped as u64);
        drop(solve_span);

        let mut flows = Vec::with_capacity(self.user_arcs);
        let mut total_cost = 0i64;
        for a in 0..self.user_arcs {
            let f = cap[2 * a + 1];
            flows.push(f);
            total_cost += f * self.cost[2 * a];
        }
        // Duals from the residual graph, using the reference engine's own
        // adjacency (see `reference_residual_potentials`).
        let potentials = reference_residual_potentials(&adj, &head, &cap, &cost, self.n);
        Ok(FlowSolution {
            cost: total_cost,
            flows,
            potentials,
        })
    }
}

/// Dinic-style blocking flow restricted to admissible arcs (residual
/// capacity > 0 and zero reduced cost under `pot`). Returns the amount
/// pushed, at most `limit`.
fn blocking_flow(
    g: &CsrGraph,
    caps: &mut [i64],
    s: usize,
    t: usize,
    limit: i64,
    pot: &[i64],
) -> i64 {
    // BFS levels over admissible arcs.
    let nn = g.node_count();
    let mut level = vec![usize::MAX; nn];
    let mut queue = std::collections::VecDeque::new();
    level[s] = 0;
    queue.push_back(s);
    while let Some(u) = queue.pop_front() {
        for &e in g.out(u) {
            let e = e as usize;
            let v = g.head(e);
            if caps[e] > 0
                && level[v] == usize::MAX
                && pot[u] != i64::MAX
                && pot[v] != i64::MAX
                && g.cost(e) + pot[u] - pot[v] == 0
            {
                level[v] = level[u] + 1;
                queue.push_back(v);
            }
        }
    }
    if level[t] == usize::MAX {
        return 0;
    }
    let mut iter = vec![0usize; nn];
    let mut total = 0i64;
    while total < limit {
        let pushed = blocking_dfs(g, caps, s, t, limit - total, &level, &mut iter, pot);
        if pushed == 0 {
            break;
        }
        total += pushed;
    }
    total
}

#[allow(clippy::too_many_arguments)]
fn blocking_dfs(
    g: &CsrGraph,
    caps: &mut [i64],
    u: usize,
    t: usize,
    limit: i64,
    level: &[usize],
    iter: &mut [usize],
    pot: &[i64],
) -> i64 {
    if u == t {
        return limit;
    }
    let out = g.out(u);
    while iter[u] < out.len() {
        let e = out[iter[u]] as usize;
        let v = g.head(e);
        if caps[e] > 0
            && level[v] == level[u] + 1
            && pot[v] != i64::MAX
            && g.cost(e) + pot[u] - pot[v] == 0
        {
            let d = blocking_dfs(g, caps, v, t, limit.min(caps[e]), level, iter, pot);
            if d > 0 {
                caps[e] -= d;
                caps[e ^ 1] += d;
                return d;
            }
        }
        iter[u] += 1;
    }
    0
}

/// Bellman-Ford distances from `src` over residual arcs; `i64::MAX` marks
/// unreachable nodes.
///
/// # Errors
/// Returns [`FlowError::NegativeCycle`] when relaxation fails to converge.
fn bellman_ford_from(g: &CsrGraph, caps: &[i64], src: usize) -> Result<Vec<i64>, FlowError> {
    let nn = g.node_count();
    let mut dist = vec![i64::MAX; nn];
    dist[src] = 0;
    // SPFA-style queue-based relaxation with a negative-cycle guard: a
    // node relaxed more than n times lies on (or behind) a negative cycle.
    let mut in_queue = vec![false; nn];
    let mut relaxations = vec![0usize; nn];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    in_queue[src] = true;
    while let Some(u) = queue.pop_front() {
        in_queue[u] = false;
        for &e in g.out(u) {
            let e = e as usize;
            if caps[e] == 0 {
                continue;
            }
            let v = g.head(e);
            let nd = dist[u] + g.cost(e);
            if nd < dist[v] {
                dist[v] = nd;
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
    Ok(dist)
}

/// Shortest distances from a virtual source connected to every node with
/// zero cost, over the residual graph — valid dual potentials for the
/// original problem.
fn residual_potentials(g: &CsrGraph, caps: &[i64], n_orig: usize) -> Vec<i64> {
    let nn = g.node_count();
    let mut dist = vec![0i64; nn];
    let mut in_queue = vec![true; nn];
    let mut relaxations = vec![0usize; nn];
    let mut queue: std::collections::VecDeque<usize> = (0..nn).collect();
    while let Some(u) = queue.pop_front() {
        in_queue[u] = false;
        for &e in g.out(u) {
            let e = e as usize;
            if caps[e] == 0 {
                continue;
            }
            let v = g.head(e);
            let nd = dist[u] + g.cost(e);
            if nd < dist[v] {
                dist[v] = nd;
                relaxations[v] += 1;
                debug_assert!(
                    relaxations[v] <= nn,
                    "optimal residual graph must be free of negative cycles"
                );
                if relaxations[v] > nn {
                    // Defensive: abandon refinement rather than loop.
                    dist.truncate(n_orig);
                    return dist;
                }
                if !in_queue[v] {
                    in_queue[v] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    dist.truncate(n_orig);
    dist
}

/// [`residual_potentials`] for the reference engine's private adjacency
/// lists — kept separate so the reference path shares no CSR machinery
/// with the engines it checks.
fn reference_residual_potentials(
    adj: &[Vec<usize>],
    head: &[usize],
    cap: &[i64],
    cost: &[i64],
    n_orig: usize,
) -> Vec<i64> {
    let nn = adj.len();
    let mut dist = vec![0i64; nn];
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
            let nd = dist[u] + cost[e];
            if nd < dist[v] {
                dist[v] = nd;
                relaxations[v] += 1;
                debug_assert!(
                    relaxations[v] <= nn,
                    "optimal residual graph must be free of negative cycles"
                );
                if relaxations[v] > nn {
                    dist.truncate(n_orig);
                    return dist;
                }
                if !in_queue[v] {
                    in_queue[v] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    dist.truncate(n_orig);
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_route() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 10, 1);
        p.add_arc(1, 2, 10, 1);
        p.add_arc(0, 2, 10, 3);
        p.set_demand(0, -5);
        p.set_demand(2, 5);
        let sol = p.solve().unwrap();
        assert_eq!(sol.cost, 10);
        assert_eq!(sol.flows, vec![5, 5, 0]);
    }

    #[test]
    fn splits_over_capacity() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 3, 1);
        p.add_arc(1, 2, 3, 1);
        p.add_arc(0, 2, 10, 3);
        p.set_demand(0, -5);
        p.set_demand(2, 5);
        let sol = p.solve().unwrap();
        // 3 units via the cheap route (cost 6), 2 via the direct (cost 6).
        assert_eq!(sol.cost, 12);
        assert_eq!(sol.flows, vec![3, 3, 2]);
    }

    #[test]
    fn unbalanced_rejected() {
        let mut p = MinCostFlow::new(2);
        p.add_arc(0, 1, 10, 1);
        p.set_demand(0, -5);
        p.set_demand(1, 4);
        assert_eq!(p.solve(), Err(FlowError::UnbalancedDemands { total: -1 }));
    }

    #[test]
    fn infeasible_detected() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 2, 1); // bottleneck of 2 < demand of 5
        p.add_arc(1, 2, 10, 1);
        p.set_demand(0, -5);
        p.set_demand(2, 5);
        assert_eq!(p.solve(), Err(FlowError::Infeasible));
    }

    #[test]
    fn negative_costs_supported() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 10, -2);
        p.add_arc(1, 2, 10, 1);
        p.add_arc(0, 2, 10, 0);
        p.set_demand(0, -4);
        p.set_demand(2, 4);
        let sol = p.solve().unwrap();
        assert_eq!(sol.cost, -4);
        assert_eq!(sol.flows, vec![4, 4, 0]);
    }

    #[test]
    fn dual_feasibility_certificate() {
        let mut p = MinCostFlow::new(4);
        let arcs = [
            (0usize, 1usize, 5i64, 2i64),
            (0, 2, 5, 1),
            (2, 1, 5, 0),
            (1, 3, 10, 1),
            (2, 3, 2, 4),
        ];
        for &(u, v, cap, cost) in &arcs {
            p.add_arc(u, v, cap, cost);
        }
        p.set_demand(0, -6);
        p.set_demand(3, 6);
        let sol = p.solve().unwrap();
        // Check complementary slackness against every arc.
        for (i, &(u, v, cap, cost)) in arcs.iter().enumerate() {
            let f = sol.flows[i];
            let y = &sol.potentials;
            if f < cap {
                assert!(y[v] - y[u] <= cost, "dual violated on unsaturated arc {i}");
            }
            if f > 0 {
                assert!(y[v] - y[u] >= cost, "dual violated on flowing arc {i}");
            }
        }
    }

    #[test]
    fn zero_demands_zero_flow() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 10, 1);
        p.add_arc(1, 2, 10, 1);
        let sol = p.solve().unwrap();
        assert_eq!(sol.cost, 0);
        assert_eq!(sol.flows, vec![0, 0]);
    }

    #[test]
    fn uncapacitated_helper() {
        let mut p = MinCostFlow::new(2);
        p.add_uncapacitated(0, 1, 7);
        p.set_demand(0, -1_000_000);
        p.set_demand(1, 1_000_000);
        let sol = p.solve().unwrap();
        assert_eq!(sol.cost, 7_000_000);
    }

    #[test]
    fn negative_cycle_detected() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 10, -4);
        p.add_arc(1, 0, 10, -4);
        p.add_arc(0, 2, 10, 1);
        p.set_demand(0, -1);
        p.set_demand(2, 1);
        assert_eq!(p.solve(), Err(FlowError::NegativeCycle));
    }

    #[test]
    fn zero_cost_cycle_is_fine() {
        // The retiming reduction's host edges form zero-cost cycles
        // ((v,h) cost −1 with (h,v) cost +1); these must be handled.
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 10, -1);
        p.add_arc(1, 0, 10, 1);
        p.add_arc(0, 2, 10, 2);
        p.set_demand(1, -3);
        p.set_demand(2, 3);
        let sol = p.solve().unwrap();
        assert_eq!(sol.cost, 3 * (1 + 2));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut p = MinCostFlow::new(2);
        p.add_arc(1, 1, 1, 1);
    }

    #[test]
    fn repeated_solves_reuse_the_frozen_arena() {
        // Two solves of the untouched instance hit the same CsrGraph
        // (pointer-equal), and a mutation invalidates it.
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 10, 1);
        p.add_arc(1, 2, 10, 1);
        p.set_demand(0, -5);
        p.set_demand(2, 5);
        let first = p.solve().unwrap();
        let g1 = p.frozen() as *const _;
        let caps1 = p.frozen().caps().to_vec();
        let second = p.solve().unwrap();
        let g2 = p.frozen() as *const _;
        assert_eq!(first, second, "repeat solve must be bit-identical");
        assert_eq!(g1, g2, "untouched instance reuses the frozen CSR");
        p.set_demand(0, -4);
        p.set_demand(2, 4);
        assert_ne!(
            p.frozen().caps(),
            &caps1[..],
            "mutators must invalidate the frozen CSR"
        );
        assert_eq!(p.solve().unwrap().cost, 8);
    }

    #[test]
    fn reference_matches_fast_engine_on_basics() {
        // Every scenario the fast SSP is unit-tested on, replayed
        // through the reference solver: identical objective, and an
        // identical error on the degenerate instances.
        let build = |arcs: &[(usize, usize, i64, i64)], demands: &[(usize, i64)], n: usize| {
            let mut p = MinCostFlow::new(n);
            for &(u, v, cap, cost) in arcs {
                p.add_arc(u, v, cap, cost);
            }
            for &(v, b) in demands {
                p.set_demand(v, b);
            }
            p
        };
        let cases: Vec<MinCostFlow> = vec![
            build(
                &[(0, 1, 10, 1), (1, 2, 10, 1), (0, 2, 10, 3)],
                &[(0, -5), (2, 5)],
                3,
            ),
            build(
                &[(0, 1, 3, 1), (1, 2, 3, 1), (0, 2, 10, 3)],
                &[(0, -5), (2, 5)],
                3,
            ),
            build(
                &[(0, 1, 10, -2), (1, 2, 10, 1), (0, 2, 10, 0)],
                &[(0, -4), (2, 4)],
                3,
            ),
            build(
                &[(0, 1, 10, -1), (1, 0, 10, 1), (0, 2, 10, 2)],
                &[(1, -3), (2, 3)],
                3,
            ),
            build(
                &[(0, 2, 10, 1), (1, 2, 10, 2), (2, 3, 10, 1), (2, 4, 10, 3)],
                &[(0, -3), (1, -2), (3, 4), (4, 1)],
                5,
            ),
        ];
        for (i, p) in cases.iter().enumerate() {
            let fast = p.solve().expect("fast engine solves");
            let slow = p.solve_reference().expect("reference solves");
            assert_eq!(fast.cost, slow.cost, "objective mismatch on case {i}");
        }
    }

    #[test]
    fn reference_rejects_degenerate_instances() {
        let mut p = MinCostFlow::new(2);
        p.add_arc(0, 1, 10, 1);
        p.set_demand(0, -5);
        p.set_demand(1, 4);
        assert_eq!(
            p.solve_reference(),
            Err(FlowError::UnbalancedDemands { total: -1 })
        );

        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 2, 1);
        p.add_arc(1, 2, 10, 1);
        p.set_demand(0, -5);
        p.set_demand(2, 5);
        assert_eq!(p.solve_reference(), Err(FlowError::Infeasible));

        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 10, -4);
        p.add_arc(1, 0, 10, -4);
        p.add_arc(0, 2, 10, 1);
        p.set_demand(0, -1);
        p.set_demand(2, 1);
        assert_eq!(p.solve_reference(), Err(FlowError::NegativeCycle));
    }

    #[test]
    fn reference_dual_certificate_holds() {
        let mut p = MinCostFlow::new(4);
        let arcs = [
            (0usize, 1usize, 5i64, 2i64),
            (0, 2, 5, 1),
            (2, 1, 5, 0),
            (1, 3, 10, 1),
            (2, 3, 2, 4),
        ];
        for &(u, v, cap, cost) in &arcs {
            p.add_arc(u, v, cap, cost);
        }
        p.set_demand(0, -6);
        p.set_demand(3, 6);
        let sol = p.solve_reference().unwrap();
        for (i, &(u, v, cap, cost)) in arcs.iter().enumerate() {
            let f = sol.flows[i];
            let y = &sol.potentials;
            assert_eq!(p.arc_info(ArcId(i)), (u, v, cap, cost));
            if f < cap {
                assert!(y[v] - y[u] <= cost, "dual violated on unsaturated arc {i}");
            }
            if f > 0 {
                assert!(y[v] - y[u] >= cost, "dual violated on flowing arc {i}");
            }
        }
    }

    #[test]
    fn multi_source_multi_sink() {
        let mut p = MinCostFlow::new(5);
        p.add_arc(0, 2, 10, 1);
        p.add_arc(1, 2, 10, 2);
        p.add_arc(2, 3, 10, 1);
        p.add_arc(2, 4, 10, 3);
        p.set_demand(0, -3);
        p.set_demand(1, -2);
        p.set_demand(3, 4);
        p.set_demand(4, 1);
        let sol = p.solve().unwrap();
        // Conservation check at the hub.
        assert_eq!(sol.flows[0] + sol.flows[1], sol.flows[2] + sol.flows[3]);
        assert_eq!(sol.flows[2], 4);
        assert_eq!(sol.flows[3], 1);
    }
}
