//! Maximum-weight closure via minimum cut.
//!
//! A *closure* is a node set `S` closed under its requirement edges:
//! `v ∈ S` and `v requires u` implies `u ∈ S`. The maximum-weight closure
//! is found with the classic project-selection min-cut reduction.
//!
//! The retiming ILP of the paper (Eq. 10) has binary variables
//! (`r(v) ∈ {−1, 0}`); selecting the set of *moved* nodes is exactly a
//! closure problem (a node can be moved through only if every fanin was),
//! so this solver is the production retiming solve.
//!
//! Forcing is resolved before the cut: whatever a forced-in node
//! requires is in, whatever requires a forced-out node is out, and only
//! the free nodes enter the cut network. That network therefore has no
//! infinite source or sink arcs, so every preflow stays finite. It is
//! built reversed and solved by [`MaxFlow`]; the nodes that reach the
//! reversed sink in the residual graph are the inclusion-minimal optimal
//! source side of the original network.
//!
//! A [`Closure`] keeps that network and its maximum preflow after a
//! solve. Re-weighting a free node whose weight keeps its sign re-prices
//! the node's weight arc in place, and the next solve resumes the kept
//! preflow (see [`MaxFlow::set_capacity`]). In the reversed network a
//! positive weight is an arc *into* the solver's sink, so raising it is
//! the monotone case of parametric maximum flow. Any other edit —
//! a weight that changes sign, a new requirement or forcing — drops the
//! network, and the next solve builds it again and starts from nothing.
//! Either way the answer is the unique inclusion-minimal optimum.

use crate::csr::CsrIndex;
use crate::error::FlowError;
use crate::maxflow::{MaxFlow, INF_CAP};

/// An optimum closure with the maximum preflow that proves it optimal.
///
/// The preflow lives on the project-selection network of the free
/// nodes (those [`ClosureCertificate::forced`] leaves `None`): a source
/// arc `σ → v` of capacity `−w(v)` for each negative-weight node, a sink
/// arc `v → τ` of capacity `w(v)` for each positive-weight node, and an
/// uncapacitated arc `u → v` for each requirement "`v` requires `u`".
/// A finite cut's sink side, less `τ`, is a closure, and the cut's
/// capacity is the free positive weight minus the closure's weight. So
/// when the flow into `τ` equals the capacity of the members' cut and
/// every node but `σ` keeps non-negative excess, no cut is smaller, and
/// the members are an optimum closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureCertificate {
    /// Membership per node: the inclusion-minimal optimum closure.
    pub members: Vec<bool>,
    /// Each node's forced membership after closing the forcing under
    /// the requirements: `Some(true)` in, `Some(false)` out, `None` free.
    pub forced: Vec<Option<bool>>,
    /// Flow on each free node's weight arc (`σ → v` or `v → τ`); 0 for
    /// fixed and zero-weight nodes, which have none.
    pub weight_flow: Vec<i64>,
    /// Flow on each requirement's arc, indexed like
    /// [`Closure::requirements`]; 0 where an endpoint is fixed.
    pub requirement_flow: Vec<i64>,
}

/// The cut network of the free nodes, kept with its preflow between
/// solves.
#[derive(Debug, Clone)]
struct Network {
    /// Each node's forced membership (see [`ClosureCertificate::forced`]).
    fixed: Vec<Option<bool>>,
    /// Each free node's node in `g`; `u32::MAX` for fixed nodes. (Node
    /// and arc ids fit `u32`, as in [`MaxFlow`].)
    id: Vec<u32>,
    /// Each free nonzero-weight node's weight arc in `g`; `u32::MAX`
    /// for the rest.
    weight_arc: Vec<u32>,
    /// The reversed network: `src` stands for the original sink, `snk`
    /// for the original source.
    g: MaxFlow,
    src: usize,
    snk: usize,
}

/// A maximum-weight closure problem.
///
/// After a solve it keeps its cut network and maximum preflow, so that
/// solving again after [`Closure::set_weight`] resumes the last cut (see
/// the module docs).
#[derive(Debug, Clone)]
pub struct Closure {
    weights: Vec<i64>,
    requirements: Vec<(usize, usize)>,
    forced_in: Vec<usize>,
    forced_out: Vec<usize>,
    network: Option<Network>,
}

impl Closure {
    /// Creates a problem over `n` nodes with zero weights.
    pub fn new(n: usize) -> Closure {
        Closure {
            weights: vec![0; n],
            requirements: Vec::new(),
            forced_in: Vec::new(),
            forced_out: Vec::new(),
            network: None,
        }
    }

    /// Sets the weight gained by including node `v` in the closure
    /// (may be negative). When a solve has kept its network, a free node
    /// whose weight keeps its sign has its weight arc re-priced in place;
    /// a sign change drops the network.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn set_weight(&mut self, v: usize, w: i64) {
        let old = std::mem::replace(&mut self.weights[v], w);
        let Some(net) = &mut self.network else {
            return;
        };
        if net.fixed[v].is_some() {
            // Fixed nodes have no arc: their weight only enters the total.
        } else if old.signum() != w.signum() {
            self.network = None;
        } else if w != 0 {
            net.g.set_capacity(net.weight_arc[v] as usize, w.abs());
        }
    }

    /// Adds to a node's weight, as [`Closure::set_weight`] does.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn add_weight(&mut self, v: usize, w: i64) {
        self.set_weight(v, self.weights[v] + w);
    }

    /// Declares that selecting `v` requires selecting `u`. Drops a kept
    /// network.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn require(&mut self, v: usize, u: usize) {
        assert!(v < self.weights.len() && u < self.weights.len());
        if v != u {
            self.requirements.push((v, u));
            self.network = None;
        }
    }

    /// Forces `v` into the closure (with its requirements). Drops a kept
    /// network.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn force_in(&mut self, v: usize) {
        assert!(v < self.weights.len());
        self.forced_in.push(v);
        self.network = None;
    }

    /// Forces `v` out of the closure. Drops a kept network.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn force_out(&mut self, v: usize) {
        assert!(v < self.weights.len());
        self.forced_out.push(v);
        self.network = None;
    }

    /// Whether the next solve resumes a kept preflow rather than
    /// starting from nothing.
    pub fn has_preflow(&self) -> bool {
        self.network.as_ref().is_some_and(|net| net.g.has_preflow())
    }

    /// Solves the problem, returning the total weight of the optimum
    /// closure and the membership vector. Among optimal closures the
    /// inclusion-minimal one is returned (it is unique).
    ///
    /// # Errors
    /// Returns [`FlowError::Infeasible`] when a forced-in node
    /// transitively requires a forced-out node.
    pub fn solve(&mut self) -> Result<(i64, Vec<bool>), FlowError> {
        self.solve_cut()
    }

    /// [`Closure::solve`], plus the maximum preflow the minimum cut ends
    /// with, reported against this problem's own nodes and requirements
    /// so that a checker can prove the closure optimal without solving
    /// again (see [`ClosureCertificate`]).
    ///
    /// # Errors
    /// The same as [`Closure::solve`].
    pub fn solve_certified(&mut self) -> Result<ClosureCertificate, FlowError> {
        let (_, members) = self.solve_cut()?;
        let net = self.network.as_ref().expect("a solve keeps its network");
        // `build_network` adds the weight arcs of the free nodes in node
        // order, then the requirement arcs between free nodes in
        // requirement order; the flows come back in that order.
        let mut flows = net.g.flows().into_iter();
        let mut arc_flow = |has_arc: bool| {
            if has_arc {
                flows.next().expect("one flow per arc")
            } else {
                0
            }
        };
        let free = |v: usize| net.fixed[v].is_none();
        let weight_flow = (0..self.weights.len())
            .map(|v| arc_flow(free(v) && self.weights[v] != 0))
            .collect();
        let requirement_flow = self
            .requirements
            .iter()
            .map(|&(v, u)| arc_flow(free(v) && free(u)))
            .collect();
        debug_assert!(flows.next().is_none(), "every arc flow reported");
        Ok(ClosureCertificate {
            members,
            forced: net.fixed.clone(),
            weight_flow,
            requirement_flow,
        })
    }

    /// The weights, one per node.
    pub fn weights(&self) -> &[i64] {
        &self.weights
    }

    /// The requirements as `(v, u)` pairs, "selecting `v` requires `u`",
    /// in the order they were added (self-requirements dropped).
    pub fn requirements(&self) -> &[(usize, usize)] {
        &self.requirements
    }

    /// The nodes forced in, in the order they were forced.
    pub fn forced_in(&self) -> &[usize] {
        &self.forced_in
    }

    /// The nodes forced out, in the order they were forced.
    pub fn forced_out(&self) -> &[usize] {
        &self.forced_out
    }

    /// The one solve behind [`Closure::solve`] and
    /// [`Closure::solve_certified`]: builds the network unless one is
    /// kept, and solves it.
    fn solve_cut(&mut self) -> Result<(i64, Vec<bool>), FlowError> {
        if self.network.is_none() {
            self.network = Some(self.build_network()?);
        }
        let net = self.network.as_mut().expect("built above");
        let cut = net.g.solve(net.src, net.snk).expect("endpoints in range");
        let side = net.g.sink_side(net.snk);
        let fixed = &net.fixed;
        let members: Vec<bool> = (0..self.weights.len())
            .map(|v| fixed[v].unwrap_or_else(|| side[net.id[v] as usize]))
            .collect();
        let weight = members
            .iter()
            .zip(&self.weights)
            .filter(|(m, _)| **m)
            .map(|(_, w)| *w)
            .sum();
        debug_assert_eq!(
            weight,
            (0..self.weights.len())
                .map(|v| match fixed[v] {
                    Some(true) => self.weights[v],
                    Some(false) => 0,
                    None => self.weights[v].max(0),
                })
                .sum::<i64>()
                - cut,
            "closure weight = forced-in weight + free positive weight − cut"
        );
        Ok((weight, members))
    }

    /// The reversed cut network of the free nodes: a weight arc per free
    /// nonzero-weight node, in node order, then an uncapacitated arc per
    /// requirement between free nodes, in requirement order.
    fn build_network(&self) -> Result<Network, FlowError> {
        let n = self.weights.len();
        let fixed = self.propagate_forcing()?;
        // Free nodes get compact ids; `src` and `snk` stand for the
        // original sink and source, since the network is reversed.
        let mut id = vec![u32::MAX; n];
        let mut free = 0;
        for v in (0..n).filter(|&v| fixed[v].is_none()) {
            id[v] = free as u32;
            free += 1;
        }
        let (src, snk) = (free, free + 1);
        let mut g = MaxFlow::new(free + 2);
        let mut weight_arc = vec![u32::MAX; n];
        for v in (0..n).filter(|&v| fixed[v].is_none()) {
            let w = self.weights[v];
            if w > 0 {
                weight_arc[v] = g.add_edge(id[v] as usize, snk, w) as u32;
            } else if w < 0 {
                weight_arc[v] = g.add_edge(src, id[v] as usize, -w) as u32;
            }
        }
        for &(v, u) in &self.requirements {
            // Requirements out of a fixed node are settled: a forced-in
            // node's are forced in, and a free node never requires a
            // forced-out one.
            if fixed[v].is_none() && fixed[u].is_none() {
                g.add_edge(id[u] as usize, id[v] as usize, INF_CAP);
            }
        }
        Ok(Network {
            fixed,
            id,
            weight_arc,
            g,
            src,
            snk,
        })
    }

    /// Each node's forced membership (`Some(true)` in, `Some(false)`
    /// out, `None` free) after closing the forcing under the
    /// requirements.
    fn propagate_forcing(&self) -> Result<Vec<Option<bool>>, FlowError> {
        let n = self.weights.len();
        let tails: Vec<u32> = self.requirements.iter().map(|&(v, _)| v as u32).collect();
        let heads: Vec<u32> = self.requirements.iter().map(|&(_, u)| u as u32).collect();
        let requires = CsrIndex::build(n, &tails);
        let required_by = CsrIndex::build(n, &heads);
        let mut fixed = vec![None; n];
        let mut stack = Vec::new();
        for &v in &self.forced_out {
            if fixed[v].is_none() {
                fixed[v] = Some(false);
                stack.push(v);
            }
        }
        while let Some(u) = stack.pop() {
            for &r in required_by.out(u) {
                let v = tails[r as usize] as usize;
                if fixed[v].is_none() {
                    fixed[v] = Some(false);
                    stack.push(v);
                }
            }
        }
        for &v in &self.forced_in {
            stack.push(v);
        }
        while let Some(v) = stack.pop() {
            match fixed[v] {
                Some(false) => return Err(FlowError::Infeasible),
                Some(true) => continue,
                None => fixed[v] = Some(true),
            }
            stack.extend(requires.out(v).iter().map(|&r| heads[r as usize] as usize));
        }
        Ok(fixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_profitable_chain() {
        // 0 (+5) requires 1 (-2); 2 (-10) standalone.
        let mut c = Closure::new(3);
        c.set_weight(0, 5);
        c.set_weight(1, -2);
        c.set_weight(2, -10);
        c.require(0, 1);
        let (w, m) = c.solve().unwrap();
        assert_eq!(w, 3);
        assert_eq!(m, vec![true, true, false]);
    }

    #[test]
    fn certificate_carries_the_final_preflow() {
        let mut c = Closure::new(3);
        c.set_weight(0, 5);
        c.set_weight(1, -2);
        c.set_weight(2, -10);
        c.require(0, 1);
        let cert = c.solve_certified().unwrap();
        assert_eq!(cert.members, c.solve().unwrap().1);
        assert_eq!(cert.forced, vec![None; 3]);
        // Node 1's cost arc carries 2 into node 1, which the requirement
        // arc passes to node 0 and its gain arc to the sink: a flow of 2,
        // the capacity of the members' cut. Node 2's cost arc is
        // saturated too, but node 2 cannot pass its excess on: a preflow.
        assert_eq!(cert.weight_flow, vec![2, 2, 10]);
        assert_eq!(cert.requirement_flow, vec![2]);
    }

    #[test]
    fn certificate_reports_forcing_and_no_flow_at_fixed_nodes() {
        let mut c = Closure::new(3);
        c.set_weight(0, -4);
        c.set_weight(1, 1);
        c.set_weight(2, 100);
        c.require(0, 1);
        c.force_in(0);
        c.force_out(2);
        let cert = c.solve_certified().unwrap();
        assert_eq!(cert.forced, vec![Some(true), Some(true), Some(false)]);
        assert_eq!(cert.weight_flow, vec![0; 3]);
        assert_eq!(cert.requirement_flow, vec![0]);
        assert_eq!(cert.members, vec![true, true, false]);
    }

    #[test]
    fn reweighting_keeps_the_network_unless_a_sign_changes() {
        let mut c = Closure::new(3);
        c.set_weight(0, 5);
        c.set_weight(1, -8);
        c.set_weight(2, -10);
        c.require(0, 1);
        assert!(!c.has_preflow());
        assert_eq!(c.solve().unwrap(), (0, vec![false; 3]));
        assert!(c.has_preflow());
        // A gain that grows keeps the preflow, and the resumed cut now
        // takes the chain.
        c.set_weight(0, 9);
        assert!(c.has_preflow());
        assert_eq!(c.solve().unwrap(), (1, vec![true, true, false]));
        // A gain that turns into a cost drops the network.
        c.set_weight(0, -1);
        assert!(!c.has_preflow());
        assert_eq!(c.solve().unwrap(), (0, vec![false; 3]));
        c.require(2, 0);
        assert!(!c.has_preflow());
    }

    #[test]
    fn rejects_unprofitable_chain() {
        let mut c = Closure::new(2);
        c.set_weight(0, 5);
        c.set_weight(1, -8);
        c.require(0, 1);
        let (w, m) = c.solve().unwrap();
        assert_eq!(w, 0);
        assert_eq!(m, vec![false, false]);
    }

    #[test]
    fn forced_nodes() {
        let mut c = Closure::new(3);
        c.set_weight(0, -4);
        c.set_weight(1, 1);
        c.set_weight(2, 100);
        c.force_in(0);
        c.force_out(2);
        let (w, m) = c.solve().unwrap();
        assert_eq!(m, vec![true, true, false]);
        assert_eq!(w, -3);
    }

    #[test]
    fn infeasible_forcing() {
        let mut c = Closure::new(2);
        c.require(0, 1);
        c.force_in(0);
        c.force_out(1);
        assert_eq!(c.solve(), Err(FlowError::Infeasible));
    }

    #[test]
    fn diamond_requirements() {
        // 3 requires 1 and 2; both require 0.
        let mut c = Closure::new(4);
        c.set_weight(3, 10);
        c.set_weight(1, -3);
        c.set_weight(2, -3);
        c.set_weight(0, -2);
        c.require(3, 1);
        c.require(3, 2);
        c.require(1, 0);
        c.require(2, 0);
        let (w, m) = c.solve().unwrap();
        assert_eq!(w, 2);
        assert!(m.iter().all(|&x| x));
    }

    #[test]
    fn empty_closure_when_all_negative() {
        let mut c = Closure::new(3);
        for v in 0..3 {
            c.set_weight(v, -1);
        }
        let (w, m) = c.solve().unwrap();
        assert_eq!(w, 0);
        assert!(m.iter().all(|&x| !x));
    }

    #[test]
    fn self_requirement_ignored() {
        let mut c = Closure::new(1);
        c.set_weight(0, 4);
        c.require(0, 0);
        let (w, m) = c.solve().unwrap();
        assert_eq!(w, 4);
        assert!(m[0]);
    }
}
