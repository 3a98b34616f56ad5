//! The retiming problem shared by every flow, and the resiliency-unaware
//! **base retiming** flow the paper compares against.
//!
//! This crate hosts everything shared by the baseline, the virtual-library
//! flow, and G-RAR:
//!
//! * [`Regions`] — the `V_m` / `V_n` / `V_r` pre-division of Section IV-B
//!   (nodes that *must*, *must not*, or *may* have slaves retimed through
//!   them),
//! * [`RetimingProblem`] — the retiming graph of Section IV-A with host
//!   node, fanout-sharing breadths `β = 1/k` realized through mirror nodes
//!   (the `m_{G3}`/`m_{I2}` pseudo nodes of Fig. 5), and bound edges per
//!   \[24\]. [`RetimingProblem::solve`] is the one production solve:
//!   because the labels are binary, the Eq. (14) optimum is a
//!   maximum-weight closure, found with one push-relabel minimum cut.
//!   Solving the min-cost-flow dual with the reference engine
//!   ([`RetimingProblem::solve_with`]) is for test oracles only,
//! * [`AreaModel`] and [`SeqBreakdown`] — sequential/total area accounting
//!   with the EDL overhead `c`,
//! * [`base_retime`] — conventional min-area retiming that ignores
//!   resiliency, followed by arrival-based EDL assignment (the paper's
//!   *Base-Retiming* column),
//! * [`legalize()`] — the "size-only incremental compile" substitute that
//!   repairs residual timing violations by bounded gate upsizing.
//!
//! All solvers and passes are deterministic; under `retime-trace`,
//! [`base_retime`] runs under a `base_retime` root span with one child
//! span per stage (tracing is observation-only and never
//! changes results).
//!
//! # Example
//!
//! ```
//! use retime_liberty::{EdlOverhead, Library};
//! use retime_netlist::{bench, CombCloud};
//! use retime_retime::base_retime;
//! use retime_sta::{DelayModel, TwoPhaseClock};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = bench::parse("d", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = NOT(q)\n")?;
//! let cloud = CombCloud::extract(&n)?;
//! let lib = Library::fdsoi28();
//! let clock = TwoPhaseClock::from_max_delay(0.5);
//! let out = base_retime(
//!     &cloud,
//!     &lib,
//!     clock,
//!     DelayModel::PathBased,
//!     EdlOverhead::MEDIUM,
//! )?;
//! assert!(out.total_area > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod area;
pub mod base;
pub mod basis;
pub mod error;
pub mod legalize;
pub mod problem;
pub mod regions;

pub use area::{flop_design_area, master_backed_sinks, AreaModel, SeqBreakdown};
pub use base::{base_retime, base_retime_with_basis, RetimeOutcome};
pub use basis::{BasisSlot, FlowBasis, FlowTiming, OpenBasis, TargetedInstance};
pub use error::RetimeError;
pub use legalize::{legalize, LegalizeReport};
pub use problem::{
    ParametricProblem, RetimingProblem, RetimingSolution, BREADTH_SCALE,
    COMMERCIAL_MOVEMENT_PENALTY,
};
pub use regions::{Region, Regions};
pub use retime_engine::{PhaseTimings, Stage};
pub use retime_stat::StatSummary;
