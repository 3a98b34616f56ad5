//! Cold-solve cost of the CSR network simplex against the primal-dual
//! SSP engine.
//!
//! Each measurement takes a fresh [`MinCostFlow`] from
//! [`RetimingProblem::flow_instance`] each round, so the timing includes
//! the CSR arena freeze — the number a user pays on a first solve.
//!
//! `--json` times both cold engines on three suite circuits of
//! increasing size (s1423, s13207, s35932) and writes
//! `BENCH_solver.json`. Every simplex objective is cross-checked against
//! the SSP on the way. The criterion path samples both engines on s1423
//! so an interactive `cargo bench` stays quick.
//!
//! [`MinCostFlow`]: retime_flow::MinCostFlow

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use retime_circuits::paper_suite;
use retime_liberty::Library;
use retime_retime::{Regions, RetimingProblem};
use retime_sta::{DelayModel, TimingAnalysis};

/// Rounds per measurement in `--json` mode (min is reported).
const ROUNDS: usize = 3;

/// Builds the Eq. 14 min-area retiming problem for a suite circuit.
fn build_problem(name: &str) -> RetimingProblem {
    let lib = Library::fdsoi28();
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} in suite"));
    let circuit = spec.build().expect("builds");
    let clock = circuit
        .calibrated_clock(&lib, DelayModel::PathBased)
        .expect("calibrates");
    let sta = TimingAnalysis::new(&circuit.cloud, &lib, clock, DelayModel::PathBased).expect("sta");
    let regions = Regions::compute(&sta).expect("regions");
    RetimingProblem::build(&circuit.cloud, &regions)
}

/// Minimum wall clock of `f` over `rounds` runs, in milliseconds.
fn time_min_ms<R>(rounds: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One cold solve: fresh instance (empty `OnceLock`, so the CSR freeze
/// is inside the timed region), simplex or SSP.
fn cold_solve(problem: &RetimingProblem, simplex: bool) -> i64 {
    let flow = problem.flow_instance();
    let sol = if simplex {
        flow.solve_network_simplex()
    } else {
        flow.solve()
    };
    sol.expect("solves").cost
}

fn bench_cold_engines(c: &mut Criterion) {
    let problem = build_problem("s1423");
    let mut group = c.benchmark_group("cold_solve_s1423");
    group.sample_size(10);
    for (name, simplex) in [("simplex", true), ("ssp", false)] {
        group.bench_function(name, |b| b.iter(|| cold_solve(&problem, simplex)));
    }
    group.finish();
}

/// Cold-engine comparison written to `BENCH_solver.json`; panics if the
/// simplex disagrees with the SSP on an objective.
fn run_json() {
    let mut circuit_entries = Vec::new();
    let mut s35932 = (f64::NAN, f64::NAN);
    for circuit in ["s1423", "s13207", "s35932"] {
        let problem = build_problem(circuit);
        let probe = problem.flow_instance();
        let (nodes, arcs) = (probe.node_count(), probe.arc_count());
        let expected = cold_solve(&problem, false);
        assert_eq!(
            cold_solve(&problem, true),
            expected,
            "{circuit}: simplex disagrees with SSP"
        );
        let simplex_ms = time_min_ms(ROUNDS, || cold_solve(&problem, true));
        let ssp_ms = time_min_ms(ROUNDS, || cold_solve(&problem, false));
        if circuit == "s35932" {
            s35932 = (simplex_ms, ssp_ms);
        }
        circuit_entries.push(format!(
            "    {{\"circuit\": \"{circuit}\", \"nodes\": {nodes}, \"arcs\": {arcs}, \
             \"simplex_ms\": {simplex_ms:.3}, \"ssp_ms\": {ssp_ms:.3}, \"cost\": {expected}}}"
        ));
        eprintln!("{circuit}: measured ({nodes} nodes, {arcs} arcs)");
    }

    let (s35932_simplex, s35932_ssp) = s35932;
    let json = format!(
        "{{\n  \"rounds\": {ROUNDS},\n  \"circuits\": [\n{}\n  ],\n  \
         \"s35932_simplex_ms\": {s35932_simplex:.3},\n  \
         \"s35932_ssp_ms\": {s35932_ssp:.3}\n}}\n",
        circuit_entries.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_solver.json");
    std::fs::write(&out, &json).expect("writes json");
    print!("{json}");
}

criterion_group!(benches, bench_cold_engines);

fn main() {
    if std::env::args().any(|a| a == "--json") {
        run_json();
    } else {
        benches();
    }
}
