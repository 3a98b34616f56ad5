#![warn(missing_docs)]
//! Static timing analysis for two-phase latch-based resilient circuits.
//!
//! Implements the timing substrate the paper obtains from a commercial
//! synthesis tool (Section VI-B):
//!
//! * the two-phase clock model `Π = ⟨φ1, γ1, φ2, γ2⟩` with resiliency
//!   window `φ1` ([`TwoPhaseClock`], paper Fig. 1),
//! * forward arrival times `D^f(v)` and per-endpoint backward delays
//!   `D^b(v, t)` over a [`retime_netlist::CombCloud`], generic over the
//!   [`Arrival`] value they carry (per-transition delay arcs here,
//!   `retime-stat`'s canonical forms in statistical mode),
//! * both delay models compared in the paper's Table II:
//!   [`DelayModel::GateBased`] (sum of worst-case cell delays, as in the
//!   DAC'17 predecessor \[16\]) and [`DelayModel::PathBased`] (pin-to-pin
//!   rise/fall arcs restricted to *valid* transition combinations),
//! * the repositioned-slave arrival-time model `A(u, v, t)` of Eq. (5),
//!   written once over the [`Arrival`] algebra and compared against the
//!   clock through the arithmetic's margin ([`TimingAnalysis::margined`]),
//! * cut-feasibility checks for the time-borrowing constraints (6)/(7),
//! * arrival analysis of a concrete [`retime_netlist::Cut`] (used to decide
//!   which masters must be error-detecting) and near-critical-endpoint
//!   reporting (Table I).
//!
//! # Invariants
//!
//! * **Determinism.** Arrival folds follow the stored fanin order, and
//!   every pass is a from-scratch pass over the whole cloud, so results
//!   never depend on edit history or thread count.
//! * **Tracing is observation-only.** Under `retime-trace`,
//!   [`TimingAnalysis`] opens an `sta_full_pass` span around the forward
//!   and backward passes of [`TimingAnalysis::run`], and a
//!   `cut_timing` span around each [`TimingAnalysis::cut_timing`] and
//!   each delay-only [`cut_timing`]; the timing math never branches on
//!   the tracing state.
//!
//! # Example
//!
//! ```
//! use retime_liberty::Library;
//! use retime_netlist::{bench, CombCloud};
//! use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = bench::parse("d", "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")?;
//! let cloud = CombCloud::extract(&n)?;
//! let lib = Library::fdsoi28();
//! let clock = TwoPhaseClock::from_max_delay(0.5);
//! let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased)?;
//! assert!(sta.df(cloud.sinks()[0]) > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod backward;
pub mod clock;
pub mod forward;
pub mod model;

pub use analysis::{
    critical_delay, cut_timing, error_detecting_masters, is_error_detecting, CutTiming, SinkClass,
    TimingAnalysis, EPS,
};
pub use backward::{backward_through_gate, db_to_any_sink, BackwardPass};
pub use clock::TwoPhaseClock;
pub use forward::{arrivals_with_cut, arrivals_with_moved, pure_arrivals, relaunch, Arrival};
pub use model::{DelayModel, DelaySigma, NodeDelays, StaError, StatParamError, StatParams};
