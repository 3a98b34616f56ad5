//! Virtual-library resiliency-aware retiming (Section V of the paper).
//!
//! The virtual library lets a conventional, resiliency-unaware retimer
//! see the EDL trade-off through cell attributes: error-detecting latches
//! carry `(1 + c)×` area, non-error-detecting latches carry a setup
//! extended by the resiliency window. Three seeding variants are
//! evaluated, exactly as in the paper:
//!
//! * [`VlVariant::Evl`] — every master initially error-detecting,
//! * [`VlVariant::Nvl`] — every master initially non-error-detecting,
//! * [`VlVariant::Rvl`] — near-critical masters error-detecting, the
//!   rest regular.
//!
//! # The commercial-tool model
//!
//! The paper observes that commercial retiming makes latch-type decisions
//! in optimization steps *decoupled* from retiming and behaves
//! conservatively with exotic cells ("the synthesis tool is not designed
//! to robustly choose between latches with disparate trade-offs"). We
//! model that observed behavior directly (see `DESIGN.md`):
//!
//! * stages whose (typed) master already meets its constraint are **not
//!   touched** — their fan-in cones are frozen at the initial latch
//!   positions (timing-driven retiming only moves what violates). This
//!   reproduces the published signature exactly: RVL's final EDL count in
//!   Table VI equals Table I's NCE count (s1423: 54, s5378: 55, s9234:
//!   61, …) because the tool never rescues a stage it typed
//!   error-detecting;
//! * stages typed non-error-detecting and violating their tightened setup
//!   are retimed forward past the safe frontier `g(t)` where feasible;
//!   where infeasible the tool leaves a violation;
//! * the **post-retiming swap step** (Section V / VI-C) then re-types
//!   every master by its actual arrival: unnecessary error-detecting
//!   latches become plain (reclaiming `c ×` latch area), and violated
//!   non-error-detecting latches become error-detecting.
//!
//! The movable-master extension of Section VI-E is modelled as a greedy
//! forward master-merging pre-pass ([`movable::forward_merge_pass`]).
//!
//! Like every flow, [`vl_retime`] is deterministic across thread counts
//! (`RETIME_THREADS`, [`VlConfig::with_threads`]) and runs under a
//! `vl_retime` root span when `retime-trace` is enabled — tracing is
//! observation-only.

pub mod flow;
pub mod movable;

pub use flow::{vl_retime, vl_retime_with_basis, VlConfig, VlReport, VlVariant};
pub use movable::forward_merge_pass;
