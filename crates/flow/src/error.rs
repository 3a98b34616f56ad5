//! Error type shared by the flow solvers.

use std::error::Error;
use std::fmt;

/// Errors raised by the flow solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// Node demands do not sum to zero — no b-flow can exist.
    UnbalancedDemands {
        /// The (non-zero) demand total.
        total: i64,
    },
    /// The network cannot route the required demands.
    Infeasible,
    /// A node index was out of range.
    BadNode {
        /// The offending index.
        node: usize,
        /// Number of nodes in the network.
        len: usize,
    },
    /// The network contains a negative-cost cycle, which the successive-
    /// shortest-path engines cannot price. Retiming reductions never
    /// produce one: their cheapest cycles cost zero.
    NegativeCycle,
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::UnbalancedDemands { total } => {
                write!(f, "node demands sum to {total}, expected 0")
            }
            FlowError::Infeasible => f.write_str("no feasible flow satisfies the demands"),
            FlowError::BadNode { node, len } => {
                write!(f, "node index {node} out of range for {len} nodes")
            }
            FlowError::NegativeCycle => f.write_str("network contains a negative-cost cycle"),
        }
    }
}

impl Error for FlowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(FlowError::UnbalancedDemands { total: 3 }
            .to_string()
            .contains("sum to 3"));
        assert!(FlowError::Infeasible.to_string().contains("feasible"));
    }
}
