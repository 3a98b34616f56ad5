//! The shared **flow-engine layer** every retiming flow runs on.
//!
//! The three flows the paper compares (base retiming, the virtual-library
//! variants, and G-RAR) all follow the same shape — STA and region
//! computation, per-endpoint classification, a network-flow solve, and a
//! commit/assembly step — but the seed tree implemented that shape three
//! times by hand, each with its own ad-hoc timing bookkeeping. This crate
//! extracts the shape:
//!
//! * [`Stage`] — the named phases a flow can execute,
//! * [`PhaseTimings`] — the uniform per-stage wall-clock / counter
//!   instrumentation every flow reports (the Table VII breakdown); a
//!   flow is straight-line code that runs each stage through
//!   [`PhaseTimings::stage`], which times it and hands its values back
//!   to the next stage as plain locals,
//! * [`parallel`] — scoped-thread fan-out primitives (`std::thread::scope`,
//!   no external dependencies) with deterministic, index-ordered results
//!   and optional per-worker scratch ([`parallel_map_with`]); the worker
//!   count honors the `RETIME_THREADS` environment variable.
//!
//! The crate depends only on std and `retime-trace`, so every layer of
//! the workspace — including `retime-sta`, which sits below the flow
//! crates — can use the fan-out primitives.
//!
//! # Invariants
//!
//! * **Determinism.** [`parallel_map`] returns results in input order
//!   regardless of scheduling, so parallel and sequential runs are
//!   bit-identical; `RETIME_THREADS=1` forces the sequential reference
//!   path, `0`/unset picks the machine's parallelism.
//! * **Tracing is observation-only.** When `retime-trace` is enabled,
//!   [`PhaseTimings::stage`] wraps each stage in a span (counters become
//!   span attributes); with tracing disabled the cost is one relaxed atomic
//!   load per stage, and results never depend on the tracing state.

#![warn(missing_docs)]

pub mod parallel;
mod phases;

pub use parallel::{parallel_map, parallel_map_with, parse_thread_override, thread_count};
pub use phases::{PhaseTimings, Stage};
