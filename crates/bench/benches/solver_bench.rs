//! Cold-solve cost of the CSR network simplex against the primal-dual
//! SSP engine, plus the warm-start payoff of the parametric sweep layer.
//!
//! Cold measurements take a fresh [`MinCostFlow`] from
//! [`RetimingProblem::flow_instance`] each round, so the timing includes
//! the CSR arena freeze — the number a user pays on a first solve.
//! Warm measurements time **only the re-solves**: one
//! [`retime_retime::RetimingSweep`] is primed outside the timed region
//! and then driven through the probe schedule, never rebuilding the
//! instance — the number an overhead sweep or period search pays per
//! probe after the first.
//!
//! `--json` times both cold engines on three suite circuits of
//! increasing size (s1423, s13207, s35932), runs the c-sweep +
//! period-search probe schedule warm vs cold, writes
//! `BENCH_solver.json`, and asserts that the warm sweep lands under 40%
//! of the cold-per-probe total on s35932. Every simplex objective is
//! cross-checked against the SSP, and every warm probe against an
//! independent cold solve, on the way. The criterion path samples both
//! engines on s1423 so an interactive `cargo bench` stays quick.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use retime_circuits::paper_suite;
use retime_liberty::Library;
use retime_netlist::CombCloud;
use retime_retime::{Regions, RetimingProblem, SolverEngine, BREADTH_SCALE};
use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};

/// Rounds per measurement in `--json` mode (min is reported).
const ROUNDS: usize = 3;

/// A suite circuit's Eq. 14 min-area retiming problem plus everything
/// the warm-sweep rows need to derive probe states (the cloud for
/// pseudo targets, the calibrated clock for period re-binds).
struct ProblemSetup {
    problem: RetimingProblem,
    cloud: CombCloud,
    clock: TwoPhaseClock,
    lib: Library,
}

/// Builds the Eq. 14 min-area retiming problem for a suite circuit.
fn build_setup(name: &str) -> ProblemSetup {
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
    let problem = RetimingProblem::build(&circuit.cloud, &regions);
    ProblemSetup {
        problem,
        cloud: circuit.cloud,
        clock,
        lib,
    }
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

/// The c-sweep + period-search probe schedule: three period re-binds
/// (cost-only changes, the shape of a binary period search) followed by
/// the `c / 2, c, 2c` EDL overhead re-pricings (demand-only changes).
/// Applies each mutation to `problem` and calls `solve` — six probes.
fn run_probe_schedule(
    problem: &mut RetimingProblem,
    pseudo: usize,
    periods: &[Regions],
    mut solve: impl FnMut(&RetimingProblem),
) {
    for regions in periods {
        problem.rebind_regions(regions);
        solve(problem);
    }
    for c_scaled in [BREADTH_SCALE / 2, BREADTH_SCALE, 2 * BREADTH_SCALE] {
        problem.set_pseudo_overhead(pseudo, c_scaled);
        solve(problem);
    }
}

/// Warm-vs-cold sweep measurement on one circuit. The problem gets a
/// resiliency pseudo target (so the overhead probes actually move
/// demands, exactly like G-RAR's `c` sweep) and period regions at
/// relaxed clocks; then the six-probe schedule is timed twice:
///
/// * **cold**: every probe pays a fresh `flow_instance()` build plus a
///   from-scratch simplex solve — the pre-warm-start per-probe cost;
/// * **warm**: a [`retime_retime::RetimingSweep`] is primed *outside*
///   the timed region and each probe only pays the basis repair
///   (simplex resume for cost probes, SSP delta-route for demand
///   probes) — never an instance rebuild.
///
/// Every warm probe is cross-checked against an independent cold solve
/// before any timing happens.
fn sweep_ms(setup: &mut ProblemSetup, circuit: &str) -> (f64, f64) {
    let gates: Vec<_> = setup.cloud.sinks().iter().take(2).copied().collect();
    let pseudo = setup.problem.add_pseudo_target(&gates, BREADTH_SCALE);
    let periods: Vec<Regions> = [1.5, 1.25, 1.1]
        .iter()
        .map(|scale| {
            let sta = TimingAnalysis::new(
                &setup.cloud,
                &setup.lib,
                TwoPhaseClock::from_max_delay(setup.clock.max_path_delay() * scale),
                DelayModel::PathBased,
            )
            .expect("probe sta");
            Regions::compute(&sta).expect("probe regions")
        })
        .collect();

    // Correctness gate: every warm probe must land on the cold optimum.
    let mut check = setup.problem.parametric_sweep();
    run_probe_schedule(&mut setup.problem, pseudo, &periods, |p| {
        let warm = check.solve_for(p).expect("warm probe solves");
        let cold = p
            .solve(SolverEngine::NetworkSimplex)
            .expect("cold probe solves");
        assert_eq!(
            warm.objective_scaled, cold.objective_scaled,
            "{circuit}: warm probe diverged from cold"
        );
    });
    drop(check);

    let mut cold_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        run_probe_schedule(&mut setup.problem, pseudo, &periods, |p| {
            std::hint::black_box(
                p.flow_instance()
                    .solve_network_simplex()
                    .expect("solves")
                    .cost,
            );
        });
        cold_best = cold_best.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let mut warm_best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let mut sweep = setup.problem.parametric_sweep();
        // Prime the basis outside the timed region: warm rows measure
        // only the re-solves, never the instance build.
        sweep.solve_for(&setup.problem).expect("prime solves");
        let t0 = Instant::now();
        run_probe_schedule(&mut setup.problem, pseudo, &periods, |p| {
            std::hint::black_box(sweep.solve_for(p).expect("warm probe solves"));
        });
        warm_best = warm_best.min(t0.elapsed().as_secs_f64() * 1e3);
        let stats = sweep.stats();
        assert_eq!(
            stats.cold_solves, 1,
            "{circuit}: a timed probe fell back to a cold solve"
        );
    }
    (cold_best, warm_best)
}

fn bench_cold_engines(c: &mut Criterion) {
    let problem = build_setup("s1423").problem;
    let mut group = c.benchmark_group("cold_solve_s1423");
    group.sample_size(10);
    for (name, simplex) in [("simplex", true), ("ssp", false)] {
        group.bench_function(name, |b| b.iter(|| cold_solve(&problem, simplex)));
    }
    group.finish();
}

/// Cold-engine and warm-sweep comparison written to `BENCH_solver.json`;
/// panics if the simplex disagrees with the SSP on an objective or the
/// warm sweep misses its bound on s35932.
fn run_json() {
    let mut circuit_entries = Vec::new();
    let mut s35932_cold = (f64::NAN, f64::NAN);
    let mut s35932_sweep = (f64::NAN, f64::NAN);
    for circuit in ["s1423", "s13207", "s35932"] {
        let mut setup = build_setup(circuit);
        let problem = &setup.problem;
        let probe = problem.flow_instance();
        let (nodes, arcs) = (probe.node_count(), probe.arc_count());
        let expected = cold_solve(problem, false);
        assert_eq!(
            cold_solve(problem, true),
            expected,
            "{circuit}: simplex disagrees with SSP"
        );
        let simplex_ms = time_min_ms(ROUNDS, || cold_solve(problem, true));
        let ssp_ms = time_min_ms(ROUNDS, || cold_solve(problem, false));
        // Warm-start payoff on the c-sweep + period-search schedule
        // (mutates the problem, so it runs after the cold rows).
        let (cold_sweep_ms, warm_sweep_ms) = sweep_ms(&mut setup, circuit);
        let warm_speedup = cold_sweep_ms / warm_sweep_ms;
        if circuit == "s35932" {
            s35932_cold = (simplex_ms, ssp_ms);
            s35932_sweep = (cold_sweep_ms, warm_sweep_ms);
        }
        circuit_entries.push(format!(
            "    {{\"circuit\": \"{circuit}\", \"nodes\": {nodes}, \"arcs\": {arcs}, \
             \"simplex_ms\": {simplex_ms:.3}, \"ssp_ms\": {ssp_ms:.3}, \
             \"cold_sweep_ms\": {cold_sweep_ms:.3}, \
             \"warm_sweep_ms\": {warm_sweep_ms:.3}, \
             \"warm_speedup\": {warm_speedup:.3}, \"cost\": {expected}}}"
        ));
        eprintln!("{circuit}: measured ({nodes} nodes, {arcs} arcs)");
    }

    let (s35932_simplex, s35932_ssp) = s35932_cold;
    let (s35932_cold_sweep, s35932_warm_sweep) = s35932_sweep;
    let warm_ratio = s35932_warm_sweep / s35932_cold_sweep;

    let json = format!(
        "{{\n  \"rounds\": {ROUNDS},\n  \"circuits\": [\n{}\n  ],\n  \
         \"s35932_simplex_ms\": {s35932_simplex:.3},\n  \
         \"s35932_ssp_ms\": {s35932_ssp:.3},\n  \
         \"s35932_cold_sweep_ms\": {s35932_cold_sweep:.3},\n  \
         \"s35932_warm_sweep_ms\": {s35932_warm_sweep:.3},\n  \
         \"s35932_warm_ratio\": {warm_ratio:.3}\n}}\n",
        circuit_entries.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_solver.json");
    std::fs::write(&out, &json).expect("writes json");
    print!("{json}");
    assert!(
        warm_ratio < 0.4,
        "warm c-sweep + period search on s35932 ({s35932_warm_sweep:.3} ms) \
         is not under 40% of the cold-per-probe total ({s35932_cold_sweep:.3} ms)"
    );
}

criterion_group!(benches, bench_cold_engines);

fn main() {
    if std::env::args().any(|a| a == "--json") {
        run_json();
    } else {
        benches();
    }
}
