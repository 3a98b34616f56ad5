//! Maximum flow by FIFO push-relabel with global relabelling.
//!
//! Only the first phase of push-relabel runs: it ends with a maximum
//! *preflow*, whose sink excess is the maximum flow value and whose
//! residual graph already identifies a minimum cut. Nodes left holding
//! excess cannot reach the sink, so the set of nodes that can — see
//! [`MaxFlow::sink_side`] — is the inclusion-minimal sink side of a
//! minimum cut, the same set any maximum flow's residual graph yields.
//! Callers that want the minimal *source* side solve the reversed
//! network (see [`crate::Closure`]).
//!
//! The solver keeps its preflow. [`MaxFlow::set_capacity`] edits one
//! arc in place, and the next solve between the same terminals resumes
//! the kept preflow instead of starting from nothing: the parametric
//! maximum flow of Gallo, Grigoriadis and Tarjan (SIAM J. Comput. 1989),
//! where arcs only grow between solves. Any preflow is a valid start
//! for push-relabel, and the sink side of a maximum preflow does not
//! depend on which one the solver reaches, so a resumed solve returns
//! the same cut as a solve from nothing.

use std::sync::OnceLock;

use crate::csr::CsrIndex;
use crate::error::FlowError;

/// Practically-infinite capacity.
pub const INF_CAP: i64 = i64::MAX / 4;

/// A maximum-flow problem / solver (push-relabel).
///
/// Used as the engine behind [`crate::Closure`] and available directly for
/// cut-style analyses.
///
/// Edges live in a flat paired array (`e ^ 1` is the residual reverse of
/// `e`); adjacency is a lazily-built [`CsrIndex`], invalidated by
/// [`MaxFlow::add_edge`] and reused across repeated solves, cut queries
/// and flow reads. The residual capacities of the last solve's maximum
/// preflow are kept: [`MaxFlow::set_capacity`] re-prices one edge
/// against them, and the next [`MaxFlow::solve`] between the same
/// terminals resumes them.
#[derive(Debug, Clone)]
pub struct MaxFlow {
    n: usize,
    head: Vec<u32>,
    cap: Vec<i64>,
    /// Residual capacities of the kept preflow; empty when none is kept.
    residual: Vec<i64>,
    /// The source and sink of the kept preflow, if one is kept.
    kept: Option<(usize, usize)>,
    index: OnceLock<CsrIndex>,
}

impl MaxFlow {
    /// Creates an empty network over `n` nodes.
    pub fn new(n: usize) -> MaxFlow {
        MaxFlow {
            n,
            head: Vec::new(),
            cap: Vec::new(),
            residual: Vec::new(),
            kept: None,
            index: OnceLock::new(),
        }
    }

    /// Adds a directed edge with the given capacity and returns its id:
    /// the number of edges added before it, the index
    /// [`MaxFlow::set_capacity`] and [`MaxFlow::flows`] use. Drops any
    /// kept preflow.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or the capacity is negative.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> usize {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        assert!(cap >= 0, "capacity must be non-negative");
        self.head.push(to as u32);
        self.cap.push(cap);
        self.head.push(from as u32);
        self.cap.push(0);
        self.residual.clear();
        self.kept = None;
        self.index = OnceLock::new();
        self.cap.len() / 2 - 1
    }

    /// Sets the capacity of edge `edge` (an id from
    /// [`MaxFlow::add_edge`]) in place. The kept preflow survives when the
    /// edge still carries its flow: the capacity rose, or fell to no less
    /// than the flow. An edge into the last solve's sink may also fall
    /// below its flow: the flow is cut to the new capacity, and the
    /// difference stays at the edge's tail as excess, which is still a
    /// preflow. Any other cut below the flow drops the preflow, and the
    /// next solve starts from nothing.
    ///
    /// # Panics
    /// Panics if `edge` is out of range or the capacity is negative.
    pub fn set_capacity(&mut self, edge: usize, cap: i64) {
        assert!(cap >= 0, "capacity must be non-negative");
        let e = 2 * edge;
        let old = std::mem::replace(&mut self.cap[e], cap);
        let Some((_, t)) = self.kept else {
            return;
        };
        let flow = old - self.residual[e];
        if cap >= flow {
            self.residual[e] = cap - flow;
        } else if self.head[e] as usize == t {
            self.residual[e] = 0;
            self.residual[e ^ 1] = cap;
        } else {
            self.residual.clear();
            self.kept = None;
        }
    }

    /// Whether a preflow is kept, so that the next [`MaxFlow::solve`]
    /// between the last solve's terminals resumes it.
    pub fn has_preflow(&self) -> bool {
        self.kept.is_some()
    }

    /// The CSR adjacency index, built on first use. Directed-edge ids at
    /// each node come back ascending (insertion order), so solves are
    /// deterministic.
    fn index(&self) -> &CsrIndex {
        self.index.get_or_init(|| {
            let tails: Vec<u32> = (0..self.head.len()).map(|e| self.head[e ^ 1]).collect();
            CsrIndex::build(self.n, &tails)
        })
    }

    /// Computes the maximum flow value from `s` to `t`, keeping the
    /// residual capacities of a maximum preflow (query them with
    /// [`MaxFlow::sink_side`] and [`MaxFlow::flows`]). Traces as a `min_cut` span carrying the
    /// `pushes`, `relabels` and `global_relabels` it took.
    ///
    /// A solve between the terminals of a kept preflow resumes it: the
    /// excess its flows leave at each node stays, and whatever source
    /// capacity is left is pushed out. Otherwise the solve starts from
    /// the empty preflow. Both then run the same loop: one global
    /// relabel, every node with excess and a label below `n` active, and
    /// FIFO discharges until none is.
    ///
    /// # Errors
    /// Returns [`FlowError::BadNode`] for out-of-range endpoints.
    pub fn solve(&mut self, s: usize, t: usize) -> Result<i64, FlowError> {
        for &v in &[s, t] {
            if v >= self.n {
                return Err(FlowError::BadNode {
                    node: v,
                    len: self.n,
                });
            }
        }
        if s == t {
            return Ok(0);
        }
        self.index();
        let _span = retime_trace::span("min_cut");
        if self.kept != Some((s, t)) {
            self.residual.clone_from(&self.cap);
        }
        self.kept = Some((s, t));
        let MaxFlow {
            n,
            head,
            cap: capacity,
            residual: cap,
            index,
            ..
        } = self;
        let n = *n;
        let index = index.get().expect("index built above");
        let mut excess = vec![0i64; n];
        // The excess the kept flows leave (none on the empty preflow).
        for e in (0..cap.len()).step_by(2) {
            let flow = capacity[e] - cap[e];
            if flow != 0 {
                excess[head[e] as usize] += flow;
                excess[head[e ^ 1] as usize] -= flow;
            }
        }
        for &e in index.out(s) {
            let e = e as usize;
            let c = std::mem::take(&mut cap[e]);
            cap[e ^ 1] += c;
            excess[head[e] as usize] += c;
        }
        let mut label = distances_to(head, cap, index, t);
        label[s] = n;
        let mut global_relabels = 1u64;
        let mut current = vec![0usize; n];
        let mut active: std::collections::VecDeque<usize> = (0..n)
            .filter(|&v| v != s && v != t && excess[v] > 0 && label[v] < n)
            .collect();
        let (mut pushes, mut relabels, mut since_global) = (0u64, 0u64, 0usize);
        while let Some(u) = active.pop_front() {
            // Discharge `u` until its excess is gone or it can no longer
            // reach `t` (label `n`: its excess stays, off the min cut).
            while excess[u] > 0 && label[u] < n {
                let out = index.out(u);
                let Some(&e) = out.get(current[u]) else {
                    relabels += 1;
                    since_global += 1;
                    current[u] = 0;
                    label[u] = out
                        .iter()
                        .filter(|&&e| cap[e as usize] > 0)
                        .map(|&e| label[head[e as usize] as usize] + 1)
                        .min()
                        .unwrap_or(n)
                        .min(n);
                    if since_global >= n {
                        // Exact distances only ever raise labels, which
                        // can make earlier arcs admissible again.
                        label = distances_to(head, cap, index, t);
                        label[s] = n;
                        current.iter_mut().for_each(|c| *c = 0);
                        global_relabels += 1;
                        since_global = 0;
                    }
                    continue;
                };
                let e = e as usize;
                let v = head[e] as usize;
                if cap[e] > 0 && label[u] == label[v] + 1 {
                    let delta = excess[u].min(cap[e]);
                    cap[e] -= delta;
                    cap[e ^ 1] += delta;
                    excess[u] -= delta;
                    if excess[v] == 0 && v != t {
                        active.push_back(v);
                    }
                    excess[v] += delta;
                    pushes += 1;
                } else {
                    current[u] += 1;
                }
            }
        }
        retime_trace::counter("pushes", pushes);
        retime_trace::counter("relabels", relabels);
        retime_trace::counter("global_relabels", global_relabels);
        Ok(excess[t])
    }

    /// The flow on every edge of the kept preflow, in the order the
    /// edges were added. Right after a [`MaxFlow::solve`] it is a maximum
    /// preflow, conserving at every node except that nodes may keep
    /// excess.
    ///
    /// # Panics
    /// Panics if no preflow is kept: the network has not been solved
    /// since its last edge was added, or [`MaxFlow::set_capacity`]
    /// dropped the preflow.
    pub fn flows(&self) -> Vec<i64> {
        assert_eq!(self.residual.len(), self.cap.len(), "solve first");
        (0..self.cap.len())
            .step_by(2)
            .map(|e| self.cap[e] - self.residual[e])
            .collect()
    }

    /// Nodes that reach `t` in the residual graph of the kept preflow:
    /// right after `solve(_, t)`, the inclusion-minimal sink side of a
    /// minimum cut.
    ///
    /// # Panics
    /// Panics if no preflow is kept (see [`MaxFlow::flows`]).
    pub fn sink_side(&self, t: usize) -> Vec<bool> {
        assert_eq!(self.residual.len(), self.cap.len(), "solve first");
        distances_to(&self.head, &self.residual, self.index(), t)
            .into_iter()
            .map(|d| d < self.n)
            .collect()
    }
}

/// Residual-graph distance from every node to `t` (backward BFS over
/// arcs with residual capacity); `n` marks nodes that cannot reach `t`.
fn distances_to(head: &[u32], cap: &[i64], index: &CsrIndex, t: usize) -> Vec<usize> {
    let n = index.node_count();
    let mut dist = vec![n; n];
    let mut queue = Vec::with_capacity(n);
    dist[t] = 0;
    queue.push(t);
    let mut next = 0;
    while let Some(&w) = queue.get(next) {
        next += 1;
        for &e in index.out(w) {
            // `e` leaves `w`; its reverse `e ^ 1` enters `w` from `x`.
            let e = e as usize;
            let x = head[e] as usize;
            if cap[e ^ 1] > 0 && dist[x] == n {
                dist[x] = dist[w] + 1;
                queue.push(x);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_diamond() {
        let mut g = MaxFlow::new(4);
        g.add_edge(0, 1, 3);
        g.add_edge(0, 2, 2);
        g.add_edge(1, 3, 2);
        g.add_edge(2, 3, 3);
        g.add_edge(1, 2, 1);
        assert_eq!(g.solve(0, 3).unwrap(), 5);
        // A maximum flow here: the preflow conserves at 1 and 2.
        let f = g.flows();
        assert_eq!(f[0] + f[1], 5);
        assert_eq!(f[0], f[2] + f[4]);
        assert_eq!(f[1] + f[4], f[3]);
    }

    #[test]
    fn disconnected_zero() {
        let mut g = MaxFlow::new(4);
        g.add_edge(0, 1, 10);
        g.add_edge(2, 3, 10);
        assert_eq!(g.solve(0, 3).unwrap(), 0);
        assert_eq!(g.sink_side(3), vec![false, false, true, true]);
    }

    #[test]
    fn sink_side_is_the_minimal_one() {
        // Two minimum cuts of value 1: {0} | {1, 2, 3} and {0, 1, 2} | {3}.
        // Node 1 keeps excess it cannot pass on; the sink side is the
        // smaller one.
        let mut g = MaxFlow::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 10);
        g.add_edge(2, 3, 1);
        assert_eq!(g.solve(0, 3).unwrap(), 1);
        assert_eq!(g.sink_side(3), vec![false, false, false, true]);
    }

    #[test]
    fn bad_node_rejected() {
        let mut g = MaxFlow::new(2);
        assert!(matches!(
            g.solve(0, 7),
            Err(FlowError::BadNode { node: 7, .. })
        ));
    }

    #[test]
    fn same_source_sink() {
        let mut g = MaxFlow::new(2);
        g.add_edge(0, 1, 5);
        assert_eq!(g.solve(0, 0).unwrap(), 0);
    }

    #[test]
    fn adding_edges_after_solve_invalidates_the_index() {
        let mut g = MaxFlow::new(3);
        g.add_edge(0, 1, 2);
        assert_eq!(g.solve(0, 2).unwrap(), 0);
        g.add_edge(1, 2, 2);
        assert_eq!(g.solve(0, 2).unwrap(), 2);
    }

    /// The network of `classic_diamond` under capacities `caps`, solved
    /// from nothing.
    fn diamond(caps: [i64; 5]) -> MaxFlow {
        let mut g = MaxFlow::new(4);
        for ((u, v), c) in [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)]
            .into_iter()
            .zip(caps)
        {
            g.add_edge(u, v, c);
        }
        g.solve(0, 3).unwrap();
        g
    }

    #[test]
    fn raised_capacities_resume_the_preflow() {
        let mut g = diamond([3, 2, 2, 3, 1]);
        // Raise a source arc and a sink arc: both keep the preflow.
        g.set_capacity(1, 4);
        g.set_capacity(2, 5);
        assert!(g.has_preflow());
        assert_eq!(g.solve(0, 3).unwrap(), 6);
        assert_eq!(g.sink_side(3), diamond([3, 4, 5, 3, 1]).sink_side(3));
    }

    #[test]
    fn sink_arc_lowered_below_its_flow_keeps_a_preflow() {
        let mut g = diamond([3, 2, 2, 3, 1]);
        // Edge 3 (2 → 3) carries 3 units; cut it to 1. The two units it
        // can no longer pass stay at node 2 as excess.
        assert_eq!(g.flows()[3], 3);
        g.set_capacity(3, 1);
        assert!(g.has_preflow());
        let f = g.flows();
        assert_eq!(f[3], 1);
        assert_eq!(f[1] + f[4] - f[3], 2, "node 2 holds the excess");
        assert_eq!(g.solve(0, 3).unwrap(), 3);
        assert_eq!(g.sink_side(3), diamond([3, 2, 2, 1, 1]).sink_side(3));
    }

    #[test]
    fn interior_arc_lowered_below_its_flow_drops_the_preflow() {
        let mut g = diamond([3, 2, 2, 3, 1]);
        // Edge 4 (1 → 2) carries a unit in every maximum flow.
        assert_eq!(g.flows()[4], 1);
        g.set_capacity(4, 0);
        assert!(!g.has_preflow());
        assert_eq!(g.solve(0, 3).unwrap(), 4);
        let cold = diamond([3, 2, 2, 3, 0]);
        assert_eq!(g.flows(), cold.flows(), "solved from nothing");
        assert_eq!(g.sink_side(3), cold.sink_side(3));
    }

    #[test]
    fn other_terminals_start_from_nothing() {
        let mut g = diamond([3, 2, 2, 3, 1]);
        assert_eq!(g.solve(0, 2).unwrap(), 3);
        let mut cold = MaxFlow::new(4);
        for (u, v, c) in [(0, 1, 3), (0, 2, 2), (1, 3, 2), (2, 3, 3), (1, 2, 1)] {
            cold.add_edge(u, v, c);
        }
        cold.solve(0, 2).unwrap();
        assert_eq!(g.flows(), cold.flows());
    }

    #[test]
    fn long_chain_with_a_back_loop() {
        // A path 0 → 1 → … → n−1 whose every node also feeds node 1 back:
        // one unit must cross the whole chain.
        let n = 2000;
        let mut g = MaxFlow::new(n);
        for v in 0..n - 1 {
            g.add_edge(v, v + 1, 1);
            if v > 1 {
                g.add_edge(v, 1, INF_CAP);
            }
        }
        assert_eq!(g.solve(0, n - 1).unwrap(), 1);
    }
}
