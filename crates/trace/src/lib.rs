#![warn(missing_docs)]
//! `retime-trace` — hierarchical span tracing for the retiming flows.
//!
//! The flat [`PhaseTimings`](../retime_engine) counters answer "how long
//! did each stage take"; this crate answers "where inside the stage" —
//! min-cut push/relabel work, STA full passes and cut timings,
//! per-check verification, per-job service work. It is std-only and
//! sits below every other workspace crate, so any layer can emit spans.
//!
//! # Span model
//!
//! A *span* is a named, nested slice of wall-clock time on one thread.
//! Opening a span with [`span`] returns a RAII [`SpanGuard`]; dropping
//! the guard closes the span. Guards must be dropped in LIFO order on
//! the thread that opened them (plain lexical scoping guarantees this).
//! While a span is open, [`counter`] / [`counter_f64`] / [`attr_str`]
//! attach typed key/value attributes to it; [`event_us`] records a
//! child span with explicit timestamps for durations observed elsewhere
//! (e.g. a job's queue wait, measured across threads).
//!
//! # Invariants
//!
//! * **Zero allocation when disabled.** [`span`] checks one relaxed
//!   atomic and returns an inert guard — no thread-local access, no
//!   clock read, no allocation. The trace-overhead bench asserts the
//!   disabled-mode cost stays under 2 % on s35932.
//! * **No effect on results.** Tracing writes only to its own buffers
//!   and exporters (a file / stderr); table rows are bit-identical with
//!   tracing on or off, asserted by test.
//! * **Deterministic span ids.** A span's id is derived by hashing its
//!   parent's id with a per-parent child sequence number (FNV-1a) — no
//!   wall-clock, no RNG — so a deterministic run yields the same id
//!   tree. Thread ids come from a process-wide counter in first-use
//!   order; with `RETIME_THREADS=1` they are fully reproducible.
//! * **Monotonic timestamps.** All timestamps are microseconds since a
//!   process-wide [`std::time::Instant`] epoch fixed when tracing is
//!   first enabled.
//!
//! # Exporters
//!
//! * [`chrome_trace`] renders the Chrome trace-event JSON format that
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//!   (`"X"` complete events; attributes become `args`), built on the
//!   deterministic [`json`] renderer (re-exported by `retime-serve`).
//! * [`render_profile`] prints a plain-text self-time table: top-N span
//!   names by *exclusive* time (inclusive minus children).
//! * [`check_chrome_trace`] independently validates an exported file:
//!   JSON well-formedness, required fields, and proper per-thread span
//!   nesting (the `trace-check` binary wraps it for CI).
//!
//! # Sessions
//!
//! [`TraceSession::with_config`] wires the whole thing to a
//! [`TraceConfig`]: `enabled` turns tracing on and prints the self-time
//! profile to stderr on exit; `out` (implies enabled) also writes the
//! Chrome trace there. This crate reads no environment: the binaries
//! fill the config from `RETIME_TRACE` / `RETIME_TRACE_OUT` through
//! `retime_bench::RunConfig`, which owns their warnings.

pub mod json;

mod export;
mod profile;
mod session;
mod span;

pub use export::{check_chrome_trace, chrome_trace, TraceCheck};
pub use profile::{render_profile, self_time, ProfileLine};
pub use session::{TraceConfig, TraceSession};
pub use span::{
    attr_str, counter, counter_f64, enabled, event_us, now_us, set_enabled, span, take_records,
    SpanGuard, SpanRecord, Value,
};
