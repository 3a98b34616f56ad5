//! Cold-solve cost of the CSR network simplex against the primal-dual
//! SSP engine — the evidence behind the node-count threshold at which
//! [`MinCostFlow::solve`] switches from one to the other.
//!
//! Each measurement takes a fresh [`MinCostFlow`] from
//! [`RetimingProblem::flow_instance`] each round, so the timing includes
//! the CSR arena freeze — the number a user pays on a first solve.
//!
//! `--json` times both cold engines and writes `BENCH_solver.json`:
//!
//! * the plain min-area problem of three suite circuits of increasing
//!   size (s1423, s13207, s35932),
//! * the G-RAR and base-retiming problems of plasma and of `synth4x`
//!   (s35932 scaled 4×, ~50k flow nodes) — the instances above the
//!   threshold, where SSP takes over.
//!
//! Every row records the engine [`MinCostFlow::solve`] picks (read from
//! its trace span), and every simplex objective is cross-checked against
//! the SSP on the way. The criterion path samples both engines on s1423
//! so an interactive `cargo bench` stays quick.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use retime_circuits::{paper_suite, CircuitSpec};
use retime_core::classify_many;
use retime_flow::MinCostFlow;
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{NodeId, NodeKind};
use retime_retime::{Regions, RetimingProblem, BREADTH_SCALE, COMMERCIAL_MOVEMENT_PENALTY};
use retime_sta::{DelayModel, SinkClass, TimingAnalysis};

/// Rounds per measurement in `--json` mode (min is reported).
const ROUNDS: usize = 3;

fn suite_spec(name: &str) -> CircuitSpec {
    paper_suite()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} in suite"))
}

/// s35932 scaled 4× (~41k cloud nodes) at s35932's own seed.
fn synth4x() -> CircuitSpec {
    let base = suite_spec("s35932");
    CircuitSpec {
        name: "synth4x",
        flops: base.flops * 4,
        nce: base.nce * 4,
        gates: base.gates * 4,
        inputs: base.inputs * 4,
        outputs: base.outputs * 4,
        ..base
    }
}

/// Builds a flow's Eq. 14 retiming problem for a circuit, the way the
/// flow itself builds it under a calibrated path-based clock: `min_area`
/// (no movement penalty, no targets), `base` (the commercial movement
/// penalty) or `grar` (one pseudo node per target at `c = 1`).
fn build_problem(spec: &CircuitSpec, flow: &str) -> RetimingProblem {
    let lib = Library::fdsoi28();
    let circuit = spec.build().expect("builds");
    let cloud = &circuit.cloud;
    let clock = circuit
        .calibrated_clock(&lib, DelayModel::PathBased)
        .expect("calibrates");
    let sta = TimingAnalysis::new(cloud, &lib, clock, DelayModel::PathBased).expect("sta");
    let regions = Regions::compute(&sta).expect("regions");
    let mut problem = RetimingProblem::build(cloud, &regions);
    match flow {
        "min_area" => {}
        "base" => problem.set_movement_penalty(COMMERCIAL_MOVEMENT_PENALTY),
        "grar" => {
            let sinks: Vec<NodeId> = cloud
                .sinks()
                .iter()
                .copied()
                .filter(|&t| matches!(cloud.node(t).kind, NodeKind::Sink { master: Some(_) }))
                .collect();
            let c_scaled = (EdlOverhead::MEDIUM.value() * BREADTH_SCALE as f64).round() as i64;
            for (class, g) in classify_many(&sta, &sinks, 0) {
                if class == SinkClass::Target {
                    problem.add_pseudo_target(&g, c_scaled);
                }
            }
        }
        other => panic!("unknown flow {other}"),
    }
    problem
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
        flow.solve_ssp()
    };
    sol.expect("solves").cost
}

/// The engine [`MinCostFlow::solve`] runs on `flow`: the name of the
/// root span a traced solve records.
fn picked_engine(flow: &MinCostFlow) -> &'static str {
    let _ = retime_trace::take_records();
    retime_trace::set_enabled(true);
    flow.solve().expect("solves");
    retime_trace::set_enabled(false);
    retime_trace::take_records()
        .into_iter()
        .find(|r| r.depth == 0)
        .expect("the solve records a span")
        .name
}

fn bench_cold_engines(c: &mut Criterion) {
    let problem = build_problem(&suite_spec("s1423"), "min_area");
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
    let mut cases: Vec<(CircuitSpec, &str)> = ["s1423", "s13207", "s35932"]
        .into_iter()
        .map(|name| (suite_spec(name), "min_area"))
        .collect();
    for spec in [suite_spec("plasma"), synth4x()] {
        cases.push((spec.clone(), "grar"));
        cases.push((spec, "base"));
    }

    let mut entries = Vec::new();
    for (spec, flow) in cases {
        let circuit = spec.name;
        let problem = build_problem(&spec, flow);
        let probe = problem.flow_instance();
        let (nodes, arcs) = (probe.node_count(), probe.arc_count());
        let engine = picked_engine(&probe);
        let expected = cold_solve(&problem, false);
        assert_eq!(
            cold_solve(&problem, true),
            expected,
            "{circuit} {flow}: simplex disagrees with SSP"
        );
        let simplex_ms = time_min_ms(ROUNDS, || cold_solve(&problem, true));
        let ssp_ms = time_min_ms(ROUNDS, || cold_solve(&problem, false));
        entries.push(format!(
            "    {{\"circuit\": \"{circuit}\", \"flow\": \"{flow}\", \"nodes\": {nodes}, \
             \"arcs\": {arcs}, \"simplex_ms\": {simplex_ms:.3}, \"ssp_ms\": {ssp_ms:.3}, \
             \"engine\": \"{engine}\", \"cost\": {expected}}}"
        ));
        eprintln!("{circuit} {flow}: measured ({nodes} nodes, {arcs} arcs)");
    }

    let json = format!(
        "{{\n  \"rounds\": {ROUNDS},\n  \"ssp_min_nodes\": {},\n  \"circuits\": [\n{}\n  ]\n}}\n",
        retime_flow::SSP_MIN_NODES,
        entries.join(",\n")
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
