//! **G-RAR** — Graph-based Resiliency-Aware Retiming, the paper's primary
//! contribution (Section IV).
//!
//! Starting from the classic retiming machinery of [`retime_retime`],
//! G-RAR couples the slave-latch placement with the binary decision of
//! making each master latch error-detecting:
//!
//! 1. compute the retiming regions `V_m`/`V_n`/`V_r` (Section IV-B),
//! 2. classify every master endpoint: always / never / *target*
//!    error-detecting, and compute the cut-set `g(t)` of each target by a
//!    reverse search with the Eq. (5) arrival model ([`cut_set`],
//!    Eqs. 8–9),
//! 3. extend the retiming graph with a pseudo node `P(t)` per target and a
//!    `−c` breadth edge to the host (Section IV-A, Fig. 5),
//! 4. solve the resulting ILP (Eq. 10): its labels are binary, so the
//!    optimum of the min-cost-flow dual (Eq. 14) is a maximum-weight
//!    closure, which the one production solve finds as a minimum cut,
//! 5. place the slaves, assign error-detecting masters by arrival, and
//!    legalize (the "size-only incremental compile" substitute).
//!
//! The [`ilp`] module also provides an exhaustive solver of the raw
//! Eq. (10) ILP for small instances, used as an exactness oracle.
//!
//! # Invariants
//!
//! * **Determinism.** The classification fan-out uses the flow engine's
//!   index-ordered [`retime_engine::parallel_map_with`] (one cone-local
//!   scratch per worker), so results are
//!   bit-identical across thread counts ([`GrarConfig::with_threads`],
//!   `RETIME_THREADS`).
//! * **Tracing is observation-only.** [`grar`] runs under a `grar` root
//!   span with one child span per pipeline stage (counters become span
//!   attributes); the flow never branches on the tracing state.
//!
//! # Example
//!
//! ```
//! use retime_core::{grar, GrarConfig};
//! use retime_liberty::{EdlOverhead, Library};
//! use retime_netlist::{bench, CombCloud};
//! use retime_sta::TwoPhaseClock;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = bench::parse("d", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = NOT(q)\n")?;
//! let cloud = CombCloud::extract(&n)?;
//! let lib = Library::fdsoi28();
//! let report = grar(
//!     &cloud,
//!     &lib,
//!     TwoPhaseClock::from_max_delay(0.5),
//!     &GrarConfig::new(EdlOverhead::MEDIUM),
//! )?;
//! assert!(report.outcome.total_area > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod cutset;
pub mod driver;
pub mod edl;
pub mod ilp;

pub use cutset::{
    classify_and_cut_set, classify_and_cut_set_stat, classify_many, cut_set, cut_set_stat,
};
pub use driver::{grar, grar_with_sweep, GrarConfig, GrarReport};
pub use edl::{insert_error_detection, EdlInsertion};
pub use ilp::{exhaustive_best, IlpFormulation};
pub use retime_engine::{PhaseTimings, Stage};
