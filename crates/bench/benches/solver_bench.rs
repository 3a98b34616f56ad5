//! Cold-solve cost of the production minimum cut against the
//! min-cost-flow SSP on the Eq. 14 retiming instances.
//!
//! Each measurement runs a whole [`RetimingProblem`] solve — network
//! build, solve and label check — the number a user pays per flow.
//!
//! `--json` times both and writes `BENCH_solver.json`:
//!
//! * the plain min-area problem of three suite circuits of increasing
//!   size (s1423, s13207, s35932),
//! * the G-RAR and base-retiming problems of plasma and of `synth4x`
//!   (s35932 scaled 4×, ~50k flow nodes),
//! * the G-RAR and base-retiming problems of the inverter loop
//!   ([`inverter_loop`]) at 4k, 16k and 32k gates — the adversarial
//!   family on which SSP is superlinear.
//!
//! Every row cross-checks the min-cut objective against the SSP on the
//! way. Rounds stop once a measurement has spent its time budget, so
//! the slow SSP rows run once. The criterion path samples both on s1423
//! so an interactive `cargo bench` stays quick.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use retime_circuits::{inverter_loop, paper_suite, relaxed_clock, CircuitSpec};
use retime_core::classify_many;
use retime_flow::MinCostFlow;
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, NodeId, NodeKind};
use retime_retime::{Regions, RetimingProblem, BREADTH_SCALE, COMMERCIAL_MOVEMENT_PENALTY};
use retime_sta::{DelayModel, SinkClass, TimingAnalysis, TwoPhaseClock};

/// Rounds per measurement in `--json` mode (min is reported).
const ROUNDS: usize = 3;

/// Time after which a measurement stops taking rounds, in milliseconds.
const BUDGET_MS: f64 = 2_000.0;

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

/// A benchmarked circuit: a suite entry under its calibrated clock, or
/// the inverter loop under the relaxed clock an inline submission gets.
fn circuit(name: &str, lib: &Library) -> (CombCloud, TwoPhaseClock) {
    if let Some(gates) = name.strip_prefix("inverter_loop_") {
        let netlist = inverter_loop(gates.parse().expect("gate count")).expect("builds");
        let cloud = CombCloud::extract(&netlist).expect("extracts");
        let clock = relaxed_clock(&cloud, lib).expect("sta");
        return (cloud, clock);
    }
    let spec = if name == "synth4x" {
        synth4x()
    } else {
        suite_spec(name)
    };
    let circuit = spec.build().expect("builds");
    let clock = circuit
        .calibrated_clock(lib, DelayModel::PathBased)
        .expect("calibrates");
    (circuit.cloud, clock)
}

/// Builds a flow's Eq. 14 retiming problem for a circuit, the way the
/// flow itself builds it: `min_area` (no movement penalty, no targets),
/// `base` (the commercial movement penalty) or `grar` (one pseudo node
/// per target at `c = 1`).
fn build_problem(name: &str, flow: &str) -> RetimingProblem {
    let lib = Library::fdsoi28();
    let (cloud, clock) = circuit(name, &lib);
    let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).expect("sta");
    let regions = Regions::compute(&sta).expect("regions");
    let mut problem = RetimingProblem::build(&cloud, &regions);
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

/// Minimum wall clock of `f` over up to `ROUNDS` runs, in
/// milliseconds, with the result of the first run. Stops early once the
/// runs have taken [`BUDGET_MS`].
fn time_min_ms<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut first = None;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        first.get_or_insert(out);
        best = best.min(ms);
        spent += ms;
        if spent >= BUDGET_MS {
            break;
        }
    }
    (best, first.expect("at least one round"))
}

/// The objective of the production minimum cut.
fn min_cut(problem: &RetimingProblem) -> i64 {
    problem.solve().expect("solves").objective_scaled
}

/// The objective of the min-cost-flow dual solved by SSP.
fn ssp(problem: &RetimingProblem) -> i64 {
    problem
        .solve_with(MinCostFlow::solve)
        .expect("solves")
        .objective_scaled
}

fn bench_cold_solves(c: &mut Criterion) {
    let problem = build_problem("s1423", "min_area");
    let mut group = c.benchmark_group("cold_solve_s1423");
    group.sample_size(10);
    group.bench_function("min_cut", |b| b.iter(|| min_cut(&problem)));
    group.bench_function("ssp", |b| b.iter(|| ssp(&problem)));
    group.finish();
}

/// Min cut vs SSP written to `BENCH_solver.json`; panics if the two
/// disagree on an objective.
fn run_json() {
    let mut cases: Vec<(&str, &str)> = ["s1423", "s13207", "s35932"]
        .into_iter()
        .map(|name| (name, "min_area"))
        .collect();
    for name in [
        "plasma",
        "synth4x",
        "inverter_loop_4096",
        "inverter_loop_16384",
        "inverter_loop_32768",
    ] {
        cases.push((name, "grar"));
        cases.push((name, "base"));
    }

    let mut entries = Vec::new();
    for (circuit, flow) in cases {
        let problem = build_problem(circuit, flow);
        let probe = problem.flow_instance();
        let (nodes, arcs) = (probe.node_count(), probe.arc_count());
        let (min_cut_ms, objective) = time_min_ms(|| min_cut(&problem));
        let (ssp_ms, expected) = time_min_ms(|| ssp(&problem));
        assert_eq!(
            objective, expected,
            "{circuit} {flow}: the min cut disagrees with SSP"
        );
        entries.push(format!(
            "    {{\"circuit\": \"{circuit}\", \"flow\": \"{flow}\", \"nodes\": {nodes}, \
             \"arcs\": {arcs}, \"min_cut_ms\": {min_cut_ms:.3}, \"ssp_ms\": {ssp_ms:.3}, \
             \"objective\": {objective}}}"
        ));
        eprintln!("{circuit} {flow}: measured ({nodes} nodes, {arcs} arcs)");
    }

    let json = format!(
        "{{\n  \"rounds\": {ROUNDS},\n  \"budget_ms\": {BUDGET_MS},\n  \"circuits\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_solver.json");
    std::fs::write(&out, &json).expect("writes json");
    print!("{json}");
}

criterion_group!(benches, bench_cold_solves);

fn main() {
    if std::env::args().any(|a| a == "--json") {
        run_json();
    } else {
        benches();
    }
}
