//! Optimization substrate: network-flow solvers.
//!
//! The paper solves its resiliency-aware retiming ILP by transforming it
//! into a min-cost network-flow problem (Eq. 14) and handing it to a
//! commercial network-simplex solver. Every retiming label is binary
//! (`r(v) ∈ {−1, 0}`), so the same optimum is a maximum-weight closure
//! — one minimum cut — and that is how this crate solves it in
//! production:
//!
//! * [`Closure`] — maximum-weight closure via min-cut. It returns the
//!   inclusion-minimal optimal closure, the retiming that moves the
//!   fewest nodes among the optima. [`Closure::solve_certified`] also
//!   returns the maximum preflow the cut ends with, a
//!   [`ClosureCertificate`] that proves the closure optimal in linear
//!   time (`retime-verify` checks it).
//! * [`MaxFlow`] — FIFO push-relabel with global relabelling, the
//!   engine behind [`Closure`]. Its adjacency is a [`CsrIndex`].
//! * [`MinCostFlow`] — the Eq. (14) min-cost b-flow instance itself,
//!   with [`MinCostFlow::solve_reference`]: a deliberately-slow plain
//!   successive-shortest-paths solver (one Bellman–Ford per
//!   augmentation) that extracts the dual node potentials, the quantity
//!   the flow form of the retiming recovers as `r(v)`. It shares no
//!   search machinery with the min cut, and is the oracle tests check
//!   the min cut against; no production path runs it.
//!
//! The crate reads no environment variables: every solve is a function
//! of its instance.
//!
//! All quantities are `i64`; callers scale fractional breadths (the
//! `β = 1/k` fanout-sharing coefficients) to integers first.
//!
//! # Invariants
//!
//! * **Determinism.** Every solver is single-threaded and iterates its
//!   arc tables in insertion order (the CSR index preserves it); the
//!   same instance always yields the same flows, potentials, cuts and
//!   push/augmentation sequence.
//! * **Tracing is observation-only.** Under `retime-trace` the solvers
//!   emit spans (`min_cut` with `pushes`/`relabels`/`global_relabels`
//!   counters, `reference_ssp` with augmentation counts); the solve
//!   itself never branches on the tracing state.
//!
//! # Example
//!
//! ```
//! use retime_flow::Closure;
//!
//! # fn main() -> Result<(), retime_flow::FlowError> {
//! // Node 0 pays 5 but needs node 1, which costs 2; node 2 costs 10.
//! let mut c = Closure::new(3);
//! c.set_weight(0, 5);
//! c.set_weight(1, -2);
//! c.set_weight(2, -10);
//! c.require(0, 1);
//! let (weight, members) = c.solve()?;
//! assert_eq!(weight, 3);
//! assert_eq!(members, vec![true, true, false]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod closure;
pub mod csr;
pub mod error;
pub mod maxflow;
pub mod mincost;

pub use closure::{Closure, ClosureCertificate};
pub use csr::CsrIndex;
pub use error::FlowError;
pub use maxflow::MaxFlow;
pub use mincost::{ArcId, FlowSolution, MinCostFlow};
