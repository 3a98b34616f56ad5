//! Minimum-cost b-flow with dual extraction: the Eq. (14) instance and
//! the reference solver tests check the production minimum cut against.

use crate::error::FlowError;
pub use crate::maxflow::INF_CAP;

/// Identifier of an arc added with [`MinCostFlow::add_arc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArcId(pub usize);

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
/// its residual reverse). Production never solves this form: retiming
/// solves its Eq. (14) instances as a minimum cut ([`crate::Closure`]),
/// and [`MinCostFlow::solve_reference`] is the test oracle.
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
    }

    /// Adds to the demand of a node.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn add_demand(&mut self, v: usize, delta: i64) {
        assert!(v < self.n, "node out of range");
        self.demand[v] += delta;
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

    /// Solves by *plain* successive shortest paths: one Bellman–Ford
    /// shortest-path computation per augmentation over the residual
    /// graph, pushing a single path's bottleneck at a time — no Johnson
    /// potentials, no Dijkstra, no blocking flow.
    ///
    /// Deliberately the simplest correct min-cost-flow algorithm: it
    /// shares no search machinery with the production minimum cut — not
    /// even the CSR index, building its own throwaway adjacency lists
    /// instead — so it serves as the oracle the min cut is tested
    /// against. Quadratic-ish and slow — not a production path.
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
        // Private working copy with super source / sink appended, on
        // plain nested adjacency lists.
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
        let potentials = residual_potentials(&adj, &head, &cap, &cost, self.n);
        Ok(FlowSolution {
            cost: total_cost,
            flows,
            potentials,
        })
    }
}

/// Shortest distances from a virtual source connected to every node with
/// zero cost, over the residual graph — valid dual potentials for the
/// original problem.
fn residual_potentials(
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

    fn build(arcs: &[(usize, usize, i64, i64)], demands: &[(usize, i64)], n: usize) -> MinCostFlow {
        let mut p = MinCostFlow::new(n);
        for &(u, v, cap, cost) in arcs {
            p.add_arc(u, v, cap, cost);
        }
        for &(v, b) in demands {
            p.set_demand(v, b);
        }
        p
    }

    #[test]
    fn simple_two_route() {
        let p = build(
            &[(0, 1, 10, 1), (1, 2, 10, 1), (0, 2, 10, 3)],
            &[(0, -5), (2, 5)],
            3,
        );
        let sol = p.solve_reference().unwrap();
        assert_eq!(sol.cost, 10);
        assert_eq!(sol.flows, vec![5, 5, 0]);
    }

    #[test]
    fn splits_over_capacity() {
        let p = build(
            &[(0, 1, 3, 1), (1, 2, 3, 1), (0, 2, 10, 3)],
            &[(0, -5), (2, 5)],
            3,
        );
        let sol = p.solve_reference().unwrap();
        // 3 units via the cheap route (cost 6), 2 via the direct (cost 6).
        assert_eq!(sol.cost, 12);
        assert_eq!(sol.flows, vec![3, 3, 2]);
    }

    #[test]
    fn negative_costs_supported() {
        let p = build(
            &[(0, 1, 10, -2), (1, 2, 10, 1), (0, 2, 10, 0)],
            &[(0, -4), (2, 4)],
            3,
        );
        let sol = p.solve_reference().unwrap();
        assert_eq!(sol.cost, -4);
        assert_eq!(sol.flows, vec![4, 4, 0]);
    }

    #[test]
    fn zero_demands_zero_flow() {
        let p = build(&[(0, 1, 10, 1), (1, 2, 10, 1)], &[], 3);
        let sol = p.solve_reference().unwrap();
        assert_eq!(sol.cost, 0);
        assert_eq!(sol.flows, vec![0, 0]);
    }

    #[test]
    fn uncapacitated_helper() {
        let mut p = MinCostFlow::new(2);
        p.add_uncapacitated(0, 1, 7);
        p.set_demand(0, -1_000_000);
        p.set_demand(1, 1_000_000);
        let sol = p.solve_reference().unwrap();
        assert_eq!(sol.cost, 7_000_000);
    }

    #[test]
    fn zero_cost_cycle_is_fine() {
        // The retiming reduction's host edges form zero-cost cycles
        // ((v,h) cost −1 with (h,v) cost +1); these must be handled.
        let p = build(
            &[(0, 1, 10, -1), (1, 0, 10, 1), (0, 2, 10, 2)],
            &[(1, -3), (2, 3)],
            3,
        );
        let sol = p.solve_reference().unwrap();
        assert_eq!(sol.cost, 3 * (1 + 2));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut p = MinCostFlow::new(2);
        p.add_arc(1, 1, 1, 1);
    }

    #[test]
    fn reference_rejects_degenerate_instances() {
        let p = build(&[(0, 1, 10, 1)], &[(0, -5), (1, 4)], 2);
        assert_eq!(
            p.solve_reference(),
            Err(FlowError::UnbalancedDemands { total: -1 })
        );

        // A bottleneck of 2 < demand of 5.
        let p = build(&[(0, 1, 2, 1), (1, 2, 10, 1)], &[(0, -5), (2, 5)], 3);
        assert_eq!(p.solve_reference(), Err(FlowError::Infeasible));

        let p = build(
            &[(0, 1, 10, -4), (1, 0, 10, -4), (0, 2, 10, 1)],
            &[(0, -1), (2, 1)],
            3,
        );
        assert_eq!(p.solve_reference(), Err(FlowError::NegativeCycle));
    }

    #[test]
    fn reference_dual_certificate_holds() {
        let arcs = [
            (0usize, 1usize, 5i64, 2i64),
            (0, 2, 5, 1),
            (2, 1, 5, 0),
            (1, 3, 10, 1),
            (2, 3, 2, 4),
        ];
        let p = build(&arcs, &[(0, -6), (3, 6)], 4);
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
        let p = build(
            &[(0, 2, 10, 1), (1, 2, 10, 2), (2, 3, 10, 1), (2, 4, 10, 3)],
            &[(0, -3), (1, -2), (3, 4), (4, 1)],
            5,
        );
        let sol = p.solve_reference().unwrap();
        // Conservation check at the hub.
        assert_eq!(sol.flows[0] + sol.flows[1], sol.flows[2] + sol.flows[3]);
        assert_eq!(sol.flows[2], 4);
        assert_eq!(sol.flows[3], 1);
    }
}
