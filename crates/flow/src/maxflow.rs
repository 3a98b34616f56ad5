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
/// and flow reads. Each solve starts from the
/// edge capacities, so solving again answers for the whole network.
#[derive(Debug, Clone)]
pub struct MaxFlow {
    n: usize,
    head: Vec<u32>,
    cap: Vec<i64>,
    residual: Vec<i64>,
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
            index: OnceLock::new(),
        }
    }

    /// Adds a directed edge with the given capacity.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or the capacity is negative.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        assert!(cap >= 0, "capacity must be non-negative");
        self.head.push(to as u32);
        self.cap.push(cap);
        self.head.push(from as u32);
        self.cap.push(0);
        self.residual.clear();
        self.index = OnceLock::new();
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
        self.residual.clone_from(&self.cap);
        let MaxFlow {
            n,
            head,
            residual: cap,
            index,
            ..
        } = self;
        let n = *n;
        let index = index.get().expect("index built above");
        let mut excess = vec![0i64; n];
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

    /// The flow on every edge after the last [`MaxFlow::solve`], in the
    /// order the edges were added: a maximum preflow, conserving at every
    /// node except that nodes may keep excess.
    ///
    /// # Panics
    /// Panics if the network has not been solved since its last edge
    /// was added.
    pub fn flows(&self) -> Vec<i64> {
        assert_eq!(self.residual.len(), self.cap.len(), "solve first");
        (0..self.cap.len())
            .step_by(2)
            .map(|e| self.cap[e] - self.residual[e])
            .collect()
    }

    /// Nodes that reach `t` in the residual graph of the last
    /// [`MaxFlow::solve`]: after `solve(_, t)`, the inclusion-minimal sink
    /// side of a minimum cut.
    ///
    /// # Panics
    /// Panics if the network has not been solved since its last edge
    /// was added.
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
