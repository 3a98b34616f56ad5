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

use crate::csr::CsrIndex;
use crate::error::FlowError;
use crate::maxflow::{MaxFlow, INF_CAP};

/// A maximum-weight closure problem.
#[derive(Debug, Clone)]
pub struct Closure {
    weights: Vec<i64>,
    requirements: Vec<(usize, usize)>,
    forced_in: Vec<usize>,
    forced_out: Vec<usize>,
}

impl Closure {
    /// Creates a problem over `n` nodes with zero weights.
    pub fn new(n: usize) -> Closure {
        Closure {
            weights: vec![0; n],
            requirements: Vec::new(),
            forced_in: Vec::new(),
            forced_out: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// Sets the weight gained by including node `v` in the closure
    /// (may be negative).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn set_weight(&mut self, v: usize, w: i64) {
        self.weights[v] = w;
    }

    /// Adds to a node's weight.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn add_weight(&mut self, v: usize, w: i64) {
        self.weights[v] += w;
    }

    /// Declares that selecting `v` requires selecting `u`.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn require(&mut self, v: usize, u: usize) {
        assert!(v < self.weights.len() && u < self.weights.len());
        if v != u {
            self.requirements.push((v, u));
        }
    }

    /// Forces `v` into the closure (with its requirements).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn force_in(&mut self, v: usize) {
        assert!(v < self.weights.len());
        self.forced_in.push(v);
    }

    /// Forces `v` out of the closure.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn force_out(&mut self, v: usize) {
        assert!(v < self.weights.len());
        self.forced_out.push(v);
    }

    /// Solves the problem, returning the total weight of the optimum
    /// closure and the membership vector. Among optimal closures the
    /// inclusion-minimal one is returned (it is unique).
    ///
    /// # Errors
    /// Returns [`FlowError::Infeasible`] when a forced-in node
    /// transitively requires a forced-out node.
    pub fn solve(&self) -> Result<(i64, Vec<bool>), FlowError> {
        let n = self.weights.len();
        let fixed = self.propagate_forcing()?;
        // Free nodes get compact ids; `src` and `snk` stand for the
        // original sink and source, since the network is reversed.
        let mut id = vec![usize::MAX; n];
        let mut free = 0;
        for v in (0..n).filter(|&v| fixed[v].is_none()) {
            id[v] = free;
            free += 1;
        }
        let (src, snk) = (free, free + 1);
        let mut g = MaxFlow::new(free + 2);
        for v in (0..n).filter(|&v| fixed[v].is_none()) {
            let w = self.weights[v];
            if w > 0 {
                g.add_edge(id[v], snk, w);
            } else if w < 0 {
                g.add_edge(src, id[v], -w);
            }
        }
        for &(v, u) in &self.requirements {
            // Requirements out of a fixed node are settled: a forced-in
            // node's are forced in, and a free node never requires a
            // forced-out one.
            if fixed[v].is_none() && fixed[u].is_none() {
                g.add_edge(id[u], id[v], INF_CAP);
            }
        }
        let cut = g.solve(src, snk).expect("endpoints in range");
        let side = g.sink_side(snk);
        let members: Vec<bool> = (0..n)
            .map(|v| fixed[v].unwrap_or_else(|| side[id[v]]))
            .collect();
        let weight = members
            .iter()
            .zip(&self.weights)
            .filter(|(m, _)| **m)
            .map(|(_, w)| *w)
            .sum();
        debug_assert_eq!(
            weight,
            (0..n)
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
