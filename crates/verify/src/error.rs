//! The verifier's failure vocabulary.
//!
//! Every way a retiming certificate can be wrong gets its own variant
//! with enough context to act on — a verifier that only says "invalid"
//! is barely better than no verifier.

use std::fmt;

/// A certificate-verification failure.
///
/// Variants are *diagnoses*, not just rejections: each names the
/// accounting layer that disagreed (labels, optimality, EDL typing,
/// area, timing, flow certificate, or simulation) and carries the
/// claimed-vs-recomputed values where they exist.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The cut is structurally illegal (not fanin-closed, a sink moved,
    /// or a latch-free path).
    IllegalCut {
        /// What the cut validator reported.
        detail: String,
    },
    /// The retiming labels violate the Eq. (10) ILP — a bound or a
    /// difference constraint fails under `IlpFormulation::is_feasible`.
    LabelInfeasible {
        /// The first violated bound or constraint, rendered.
        violated: String,
    },
    /// The certificate's objective does not match the one recomputed
    /// from its own labels (in `BREADTH_SCALE` units).
    ObjectiveMismatch {
        /// Objective the certificate claims.
        reported: i64,
        /// Objective recomputed from the labels.
        recomputed: i64,
    },
    /// A certified minimum cut reaches a strictly better objective than
    /// the certificate achieves (in `BREADTH_SCALE` units, movement
    /// penalty included) — the claimed optimum is wrong.
    Suboptimal {
        /// Objective the certificate's cut achieves.
        certificate: i64,
        /// Objective of the certified optimum.
        optimum: i64,
    },
    /// A sink's claimed EDL flag disagrees with a from-scratch timing
    /// pass over the final delays.
    EdlFlagMismatch {
        /// The sink's name.
        sink: String,
        /// The flag the certificate claims.
        claimed: bool,
        /// The flag the fresh `CutTiming` assigns.
        recomputed: bool,
    },
    /// A target master whose whole cut-set `g(t)` was retimed through
    /// still times inside the resiliency window (statistically: with
    /// exactly the fan-in closure of `g(t)` moved), or a never
    /// error-detecting sink does — the pseudo-node reward the solver
    /// collected was unsound.
    CutSetInconsistent {
        /// The target sink's name.
        sink: String,
    },
    /// A sequential-area figure disagrees with an independent recount
    /// against the library's latch/EDL overheads.
    AreaMismatch {
        /// Which figure (`"slaves"`, `"edl_area"`, `"total_area"`, …).
        field: &'static str,
        /// The value the certificate claims.
        claimed: f64,
        /// The independently recomputed value.
        recomputed: f64,
    },
    /// The certificate's stored `CutTiming` differs from a from-scratch
    /// STA pass over the final delays.
    TimingMismatch {
        /// What differed.
        detail: String,
    },
    /// The final placement violates setup or capture timing — the
    /// resiliency window is not legal.
    WindowViolation {
        /// `"setup"` or `"capture"`.
        kind: &'static str,
        /// The violating node's name.
        node: String,
    },
    /// A statistical certificate's analytic timing yield disagrees with
    /// the verifier's independent Monte Carlo estimate beyond the
    /// sampling tolerance — the canonical-form engine mis-models the
    /// delay distribution.
    YieldMismatch {
        /// The sink's name.
        sink: String,
        /// The yield the analytic engine claims.
        analytic: f64,
        /// The verifier's Monte Carlo estimate.
        monte_carlo: f64,
        /// The acceptance half-width (`mc_tolerance`).
        tolerance: f64,
    },
    /// A flow certificate fails its check: a min-cost-flow solution's
    /// capacity, conservation, cost accounting or complementary
    /// slackness, or a min cut's forcing, preflow, cut capacity or
    /// residual reach.
    FlowCertificate {
        /// What failed.
        detail: String,
    },
    /// The retimed netlist computed a different output than the
    /// original under random stimulus.
    NotEquivalent {
        /// First cycle at which the outputs diverged.
        cycle: usize,
    },
    /// The verifier itself could not run (STA or netlist failure while
    /// re-deriving the certificate inputs).
    Internal(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::IllegalCut { detail } => {
                write!(f, "illegal cut: {detail}")
            }
            VerifyError::LabelInfeasible { violated } => {
                write!(f, "retiming labels infeasible: {violated}")
            }
            VerifyError::ObjectiveMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "objective mismatch: certificate claims {reported}, labels recompute to \
                 {recomputed} (scaled units)"
            ),
            VerifyError::Suboptimal {
                certificate,
                optimum,
            } => write!(
                f,
                "suboptimal certificate: cut achieves {certificate}, the certified optimum \
                 is {optimum} (scaled units, movement penalty included)"
            ),
            VerifyError::EdlFlagMismatch {
                sink,
                claimed,
                recomputed,
            } => write!(
                f,
                "EDL flag mismatch at sink {sink}: certificate claims \
                 error_detecting={claimed}, fresh timing recomputes {recomputed}"
            ),
            VerifyError::CutSetInconsistent { sink } => write!(
                f,
                "cut-set inconsistency at target {sink}: every gate of g(t) was retimed \
                 through, yet the sink still times inside the resiliency window"
            ),
            VerifyError::AreaMismatch {
                field,
                claimed,
                recomputed,
            } => write!(
                f,
                "area mismatch in {field}: certificate claims {claimed}, recount gives \
                 {recomputed}"
            ),
            VerifyError::TimingMismatch { detail } => {
                write!(f, "timing mismatch: {detail}")
            }
            VerifyError::WindowViolation { kind, node } => {
                write!(f, "resiliency-window violation: {kind} fails at {node}")
            }
            VerifyError::YieldMismatch {
                sink,
                analytic,
                monte_carlo,
                tolerance,
            } => write!(
                f,
                "timing-yield mismatch at sink {sink}: analytic engine claims {analytic:.6}, \
                 Monte Carlo estimates {monte_carlo:.6} (tolerance ±{tolerance:.6})"
            ),
            VerifyError::FlowCertificate { detail } => {
                write!(f, "flow certificate failed: {detail}")
            }
            VerifyError::NotEquivalent { cycle } => write!(
                f,
                "functional mismatch: retimed netlist diverges from the original at \
                 cycle {cycle}"
            ),
            VerifyError::Internal(msg) => write!(f, "verifier could not run: {msg}"),
        }
    }
}

impl std::error::Error for VerifyError {}
