//! Independent certificate checking for retiming results.
//!
//! Every flow in this workspace (base retiming, G-RAR, the
//! virtual-library variants) emits a [`RetimeOutcome`] that *claims* a
//! lot: a legal slave-latch placement, an ILP-feasible set of retiming
//! labels, an arrival-consistent EDL assignment, a balanced area bill,
//! and — for G-RAR — an optimal objective. This crate re-validates
//! those claims from scratch, sharing as little machinery with the
//! flows as possible:
//!
//! * [`verify_certificate`] — the end-to-end checker: rebuilds regions,
//!   cut-sets, and the Eq. (10) ILP from a fresh STA pass, recomputes
//!   timing and EDL typing from the final delays, recounts the area
//!   against the library, re-solves G-RAR's flow problem with the
//!   deliberately-slow reference engine
//!   ([`MinCostFlow::solve_reference`], a min-cost flow, where
//!   production solves a minimum cut), and simulates the retimed
//!   netlist against the original under random stimulus.
//! * [`verify_retiming_solution`] — the same label/objective/optimality
//!   checks on a raw [`RetimingSolution`]; harnesses also use it to
//!   certify the answer a warm slot's memo served.
//! * [`check_flow_solution`] — primal/dual certificate checking of a
//!   min-cost-flow solution (capacity, conservation, cost,
//!   complementary slackness).
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
//! The benchmark harness runs the checker on every flow of every table
//! when `RETIME_VERIFY=1` (see [`enabled`]), publishing its wall-clock
//! and counters through the shared `Stage::Verify` instrumentation.
//! Under `retime-trace`, each check stage additionally runs in its own
//! span (`verify_labels`, `verify_timing`, `verify_area`,
//! `verify_equivalence`) — tracing is observation-only.
//!
//! [`RetimeOutcome`]: retime_retime::RetimeOutcome
//! [`RetimingSolution`]: retime_retime::RetimingSolution
//! [`MinCostFlow::solve_reference`]: retime_flow::MinCostFlow::solve_reference

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
pub use flowcheck::check_flow_solution;
pub use mc::{mc_tolerance, mc_yields, McYield};

/// Whether certificate verification was requested via the environment
/// (`RETIME_VERIFY=1`, `true`, or `on`).
pub fn enabled() -> bool {
    matches!(
        std::env::var("RETIME_VERIFY").ok().as_deref(),
        Some("1") | Some("true") | Some("on")
    )
}
