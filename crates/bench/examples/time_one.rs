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

use retime_bench::load_suite;
use retime_core::{grar, GrarConfig};
use retime_liberty::{EdlOverhead, Library};
use std::time::Instant;
fn main() {
    let _trace = retime_bench::trace_session();
    let lib = Library::fdsoi28();
    let name = std::env::args().nth(1).unwrap_or_else(|| "s35932".into());
    std::env::set_var("RETIME_SUITE", "full");
    let case = load_suite(&lib)
        .into_iter()
        .find(|c| c.circuit.spec.name == name)
        .unwrap();
    let t0 = Instant::now();
    let g = grar(
        &case.circuit.cloud,
        &lib,
        case.clock,
        &GrarConfig::new(EdlOverhead::HIGH),
    )
    .unwrap();
    let counters: Vec<String> = g
        .phases
        .counters()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "{name}: {:.2}s total; phases {}; counters {}; slaves={} edl={}",
        t0.elapsed().as_secs_f64(),
        g.phases,
        counters.join(" "),
        g.outcome.seq.slaves,
        g.outcome.seq.edl
    );
}
