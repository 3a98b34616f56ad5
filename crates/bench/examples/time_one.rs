//! Times one end-to-end G-RAR run on a named suite circuit with the
//! phase breakdown the paper discusses in Section VI-D (the backward
//! delay queries dominate; the flow-solver step is a small share).
//!
//! ```text
//! cargo run --release -p retime-bench --example time_one -- s35932
//! RETIME_TRACE=1 cargo run --release -p retime-bench --example time_one -- s35932
//! ```
//!
//! With `RETIME_TRACE=1` the run is recorded and the self-time profile
//! is printed to stderr on exit (`RETIME_TRACE_OUT=path` also writes the
//! Chrome-trace JSON), like every table binary.

use retime_bench::{build_case, RunConfig};
use retime_circuits::paper_suite;
use retime_core::{grar, GrarConfig};
use retime_liberty::{EdlOverhead, Library};
use std::time::Instant;
fn main() {
    let cfg = RunConfig::from_env();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace);
    let lib = Library::fdsoi28();
    let name = std::env::args().nth(1).unwrap_or_else(|| "s35932".into());
    // Any suite circuit, whatever `RETIME_SUITE` selects.
    let spec = paper_suite().into_iter().find(|s| s.name == name).unwrap();
    let case = build_case(&spec, &lib);
    let t0 = Instant::now();
    let g = grar(
        &case.circuit.cloud,
        &lib,
        case.clock,
        &GrarConfig::new(EdlOverhead::HIGH),
    )
    .unwrap();
    let counters: Vec<String> = g
        .outcome
        .phases
        .counters()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "{name}: {:.2}s total; phases {}; counters {}; slaves={} edl={}",
        t0.elapsed().as_secs_f64(),
        g.outcome.phases,
        counters.join(" "),
        g.outcome.seq.slaves,
        g.outcome.seq.edl
    );
}
