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
//!   against the library, proves G-RAR optimal from a certified
//!   minimum cut, and simulates the retimed netlist against the
//!   original under random stimulus.
//! * [`verify_retiming_solution`] — the same label/objective/optimality
//!   checks on a raw [`RetimingSolution`]; harnesses also use it to
//!   certify the answer a warm slot's memo served.
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
//! The benchmark harness runs the checker on every flow of every table
//! when `RETIME_VERIFY=1` (see [`enabled`]), publishing its wall-clock
//! and counters through the shared `Stage::Verify` instrumentation.
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

/// Parses a raw `RETIME_VERIFY` value: trimmed and case-insensitive,
/// `1`/`true`/`on` is on and `0`/`false`/`off` (or empty) is off. `Err`
/// carries the one-line warning to print — the same shape `RETIME_TRACE`
/// uses, so the knobs fail the same way.
///
/// # Errors
/// Returns the warning line when the value is unrecognized.
pub fn parse_verify_flag(raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "on" => Ok(true),
        "" | "0" | "false" | "off" => Ok(false),
        _ => Err(format!(
            "warning: unrecognized RETIME_VERIFY value {raw:?}; \
             want 1/true/on or 0/false/off — certification stays off"
        )),
    }
}

/// Whether certificate verification was requested via the environment
/// (`RETIME_VERIFY`, see [`parse_verify_flag`]). An unrecognized value
/// warns once on stderr and is treated as off.
pub fn enabled() -> bool {
    let Ok(raw) = std::env::var("RETIME_VERIFY") else {
        return false;
    };
    parse_verify_flag(&raw).unwrap_or_else(|warning| {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("{warning}"));
        false
    })
}

#[cfg(test)]
mod tests {
    use super::parse_verify_flag;

    #[test]
    fn verify_flag_parses_trimmed_and_case_insensitively() {
        for (raw, want) in [
            ("1", Some(true)),
            ("true", Some(true)),
            ("TRUE", Some(true)),
            (" 1", Some(true)),
            ("On\n", Some(true)),
            ("", Some(false)),
            ("0", Some(false)),
            ("off", Some(false)),
            (" False ", Some(false)),
            ("yes", None),
            ("2", None),
        ] {
            assert_eq!(parse_verify_flag(raw).ok(), want, "{raw:?}");
        }
        let warning = parse_verify_flag("yes").unwrap_err();
        assert!(warning.starts_with("warning: unrecognized RETIME_VERIFY value \"yes\""));
    }
}
