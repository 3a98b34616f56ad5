//! `retime-serve` — a concurrent retiming service with content-addressed
//! result caching and backpressure.
//!
//! The table binaries answer "what does the paper's Table N look like";
//! this crate answers "retime this circuit for me, now, again" — the
//! batch flows wrapped in a daemon. A `retime-serve` process listens on
//! TCP, speaks newline-delimited JSON, and runs submissions through the
//! exact flow entry points (`base_retime` / `grar` / `vl_retime`) the
//! tables use, on a worker pool built from
//! [`retime_engine::parallel_map`].
//!
//! Four properties carry the design:
//!
//! 1. **Content-addressed caching** ([`canon`], [`cache`], [`disk`]): a
//!    job's key is the SHA-256 of its canonicalized netlist plus library
//!    and flow configuration, computed from one parse of the submission
//!    ([`job::read_inline`]); the circuit is built only on a miss, on a
//!    worker once the reactor has its canonical netlist. A text the
//!    daemon has read before is not read again: a memo of canonical
//!    texts, keyed by the raw bytes, feeds the key directly.
//!    Re-submitting the same circuit — even with shuffled statements or
//!    different whitespace — is answered from the cache, byte-identical
//!    to the first run, with zero solver work.
//!    With `--cache-dir` the cache gains a persistent sharded disk tier
//!    (temp-file + fsync + atomic rename; startup recovery quarantines
//!    torn writes), so restarts keep their warm results too.
//! 2. **Nonblocking I/O** (a crate-private epoll wrapper, [`reactor`]):
//!    connections live on a few reactor threads driving an epoll loop
//!    over nonblocking sockets with per-connection NDJSON buffers. Idle
//!    and slow clients cost buffers, not threads; stalled readers are
//!    disconnected at a write-buffer cap instead of buffering without
//!    bound.
//! 3. **Backpressure** ([`queue`]): the job queue is bounded; a
//!    submission past the bound gets a structured `overloaded` reply
//!    carrying `retry_after_ms` estimated from observed job wall-clock,
//!    never an unbounded backlog.
//! 4. **Observability** ([`metrics`]): cache hits/misses, queue depth,
//!    per-flow per-stage wall-clock (the service view of Table VII), and
//!    rejection counts export in Prometheus text format. Alongside the
//!    metrics, the daemon records `retime-trace` spans when
//!    `RETIME_TRACE`/`RETIME_TRACE_OUT` is set: one `submit` span per
//!    submission on its reactor (for inline text a `digest` of the raw
//!    bytes and a `memo=hit|miss` attribute; `parse` and `canonicalize`
//!    on a memo miss; `key`; and on a miss `to_netlist`, or a `parse` of
//!    the remembered canonical text), and one `job` root span per
//!    executed job (job id, circuit, and flow attached as attributes)
//!    with the queue wait, an inline miss's `build` and the `execute` as
//!    child spans, exported as Chrome-trace JSON on shutdown.
//!
//! Submissions may also arrive as EDIF 2.0.0 (`"format":"edif"` with an
//! inline `netlist`) and may ask for the edge-triggered → two-phase
//! conversion front door (`"convert":true`): the circuit is split into
//! master/slave latches by `retime-convert` — equivalence-proven by
//! simulation — before the flow runs, and the `convert` switch is a
//! cache-key dimension of its own.
//!
//! Protocol (one JSON object per line, both directions):
//!
//! ```text
//! → {"cmd":"submit","circuit":"s1196","flow":"grar","c":"medium"}
//! ← {"ok":true,"id":1,"status":"queued","cached":false,"key":"ab12…"}
//! → {"cmd":"result","id":1,"wait":true}
//! ← {"ok":true,"id":1,"status":"done","cached":false,…,"result":{…}}
//! → {"cmd":"metrics"}
//! ← {"ok":true,"metrics":"# HELP retime_serve_…"}
//! → {"cmd":"shutdown"}
//! ← {"ok":true,"draining":true}
//! ```
//!
//! See `DESIGN.md` §2c for the full protocol and policy specification.

pub mod cache;
pub mod canon;
pub mod client;
pub mod disk;
mod epoll;
pub mod hash;
pub mod job;
mod lru;
mod memo;
pub mod metrics;
pub mod queue;
pub mod reactor;
pub mod server;

pub use cache::{CacheConfig, CacheStats, CachedResult, HitTier, ResultCache};
pub use canon::{cache_key, canonical_bench, KeyClock, KeyConfig, KeyMaterial};
pub use client::Client;
pub use disk::{gc, shard_rel_path, DiskCache, DiskCacheConfig, GcReport, RecoveryStats};
pub use hash::{sha256, sha256_hex, Sha256};
pub use job::{
    build_canonical, build_inline, build_suite, canonical_netlist, execute, inline_key, prepare,
    read_inline, render_payload, resolve_circuit, resolve_spec, CanonicalNetlist, CircuitRef,
    InlineSource, InputFormat, JobOutput, JobSpec,
};
pub use metrics::Metrics;
pub use queue::{JobQueue, PushError};
pub use reactor::ConnLimits;
/// The deterministic JSON renderer/parser now lives in [`retime_trace`]
/// (the Chrome-trace exporter shares it); re-exported so serve call
/// sites keep their `crate::json::…` paths.
pub use retime_trace::json;
pub use retime_trace::json::Json;
pub use server::{Server, ServerConfig, ServerHandle};
