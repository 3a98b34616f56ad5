//! Optimization substrate: network-flow solvers.
//!
//! The paper solves its resiliency-aware retiming ILP by transforming it
//! into a min-cost network-flow problem (Eq. 14) and handing it to a
//! commercial network-simplex solver. This crate is the from-scratch
//! substitute:
//!
//! * [`MinCostFlow`] — minimum-cost b-flow with **dual (node potential)
//!   extraction**, the quantity the retiming recovers as `r(v)`.
//!   [`MinCostFlow::solve`] is the one production solve: it hands
//!   instances below [`SSP_MIN_NODES`] nodes to the spanning-tree
//!   network simplex ([`MinCostFlow::solve_network_simplex`], the
//!   algorithm class the paper uses) and larger ones to successive
//!   shortest paths with potentials ([`MinCostFlow::solve_ssp`]). Both
//!   engines stay public for differential tests and benchmarks; they
//!   return identical objective values, which the test-suite
//!   cross-checks on randomized instances. A third engine,
//!   [`MinCostFlow::solve_reference`], is a deliberately-slow plain
//!   successive-shortest-paths solver (one Bellman–Ford per
//!   augmentation) sharing no search machinery — not even the CSR
//!   arena — with the fast paths; it is the differential reference
//!   `retime-verify` audits the others against.
//! * [`MaxFlow`] — Dinic's algorithm.
//! * [`Closure`] — maximum-weight closure via min-cut. Because the
//!   retiming variables are binary (`r(v) ∈ {−1, 0}`), the retiming ILP is
//!   *also* a closure instance; this independent exact solver is the
//!   oracle used to validate the flow-based path end to end.
//!
//! The fast engines all run on one flat [`csr`] arc arena:
//! [`MinCostFlow`] freezes a [`CsrGraph`] (arc arrays + first-out index)
//! on first solve and reuses it until mutated, the simplex reads its arc
//! table straight out of that arena, and [`MaxFlow`] (hence [`Closure`])
//! shares the same [`CsrIndex`] adjacency. The simplex prices with one
//! fixed rule, rolling first-eligible (see [`simplex`]). The crate reads
//! no environment variables: every solve is a function of its instance.
//!
//! All quantities are `i64`; callers scale fractional breadths (the
//! `β = 1/k` fanout-sharing coefficients) to integers first.
//!
//! # Invariants
//!
//! * **Determinism.** Every solver is single-threaded and iterates its
//!   arc tables in insertion order (the CSR index preserves it); the
//!   same instance always yields the same flows, potentials, and
//!   pivot/augmentation sequence.
//! * **Tracing is observation-only.** Under `retime-trace` the solvers
//!   emit spans (`network_simplex`/`pivot_batch` with
//!   `pivot_count`/`degenerate_pivots` counters, `ssp`/`ssp_phase`
//!   with shipped amounts, `reference_ssp` with augmentation counts);
//!   the solve itself never branches on the tracing state.
//!
//! # Example
//!
//! ```
//! use retime_flow::MinCostFlow;
//!
//! # fn main() -> Result<(), retime_flow::FlowError> {
//! let mut p = MinCostFlow::new(3);
//! p.add_arc(0, 1, 10, 1);
//! p.add_arc(1, 2, 10, 1);
//! p.add_arc(0, 2, 10, 3);
//! p.set_demand(0, -5); // ships 5 units out
//! p.set_demand(2, 5); // receives 5 units
//! let sol = p.solve()?;
//! assert_eq!(sol.cost, 10); // via the cheap two-hop route
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod closure;
pub mod csr;
pub mod error;
pub mod maxflow;
pub mod mincost;
pub mod simplex;

pub use closure::Closure;
pub use csr::{CsrGraph, CsrIndex};
pub use error::FlowError;
pub use maxflow::MaxFlow;
pub use mincost::{ArcId, FlowSolution, MinCostFlow, SSP_MIN_NODES};
