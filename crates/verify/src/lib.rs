//! Independent certificate checking for retiming results.
//!
//! Every flow in this workspace (base retiming, G-RAR, the
//! virtual-library variants) emits a [`RetimeOutcome`] that *claims* a
//! lot: a legal slave-latch placement, an ILP-feasible set of retiming
//! labels, an arrival-consistent EDL assignment, a balanced area bill,
//! and — for G-RAR and base retiming — an optimal objective. This crate re-validates
//! those claims from scratch, sharing as little machinery with the
//! flows as possible:
//!
//! * [`verify_certificate`] — the end-to-end checker: rebuilds regions,
//!   cut-sets, and the Eq. (10) ILP from a fresh STA pass, recomputes
//!   timing and EDL typing from the final delays, recounts the area
//!   against the library, proves G-RAR and base retiming optimal from a
//!   certified minimum cut, and simulates the retimed netlist against the
//!   original under random stimulus.
//! * [`verify_retiming_solution`] — the same label/objective/optimality
//!   checks on a raw [`RetimingSolution`]; tests use it to certify the
//!   instances the checker cannot rebuild (RVL-RAR's tightened regions)
//!   and the G-RAR instance an overhead sweep kept and resumed.
//! * [`check_closure_certificate`] — linear-time proof that a minimum
//!   cut's closure is the inclusion-minimal optimum, from the maximum
//!   preflow the cut ends with ([`ClosureCertificate`]), checked
//!   against the closure form the verifier rebuilds itself
//!   ([`retiming_closure`]). Optimality is certified this way; nothing
//!   is solved twice.
//! * [`check_flow_solution`] — primal/dual certificate checking of a
//!   min-cost-flow solution (capacity, conservation, cost,
//!   complementary slackness), which the tests apply to the reference
//!   oracle [`MinCostFlow::solve_reference`].
//! * [`mc_yields`] — plain Monte Carlo timing-yield estimation over the
//!   statistical delay tables. Deliberately shares **no** propagation
//!   code with the analytic `retime-stat` engine; in statistical mode
//!   the checker demands the sampled yields agree with the analytic
//!   ones within [`mc_tolerance`], else
//!   [`VerifyError::YieldMismatch`].
//!
//! Failures are diagnosis-specific [`VerifyError`] variants, so a
//! corrupted label, a mistyped EDL flag, and a miscounted area each
//! report distinctly.
//!
//! The table binaries run the checker on every flow of every table when
//! `RETIME_VERIFY=1` (parsed once per binary by `retime_bench::RunConfig`;
//! this crate reads no environment), publishing its wall-clock and
//! counters through the shared `Stage::Verify` instrumentation.
//! Under `retime-trace`, each check stage additionally runs in its own
//! span (`verify_labels`, `verify_timing`, `verify_area`,
//! `verify_equivalence`), and the optimality proof in a
//! `verify_optimality` span carrying the `arcs` it checked — tracing is
//! observation-only.
//!
//! [`RetimeOutcome`]: retime_retime::RetimeOutcome
//! [`RetimingSolution`]: retime_retime::RetimingSolution
//! [`MinCostFlow::solve_reference`]: retime_flow::MinCostFlow::solve_reference
//! [`ClosureCertificate`]: retime_flow::ClosureCertificate

#![warn(missing_docs)]

pub mod certificate;
pub mod error;
pub mod flowcheck;
pub mod mc;

pub use certificate::{
    verify_certificate, verify_retiming_solution, FlowKind, VerifyOptions, VerifyReport,
    VerifySetup,
};
pub use error::VerifyError;
pub use flowcheck::{check_closure_certificate, check_flow_solution, retiming_closure};
pub use mc::{mc_tolerance, mc_yields, McYield};
