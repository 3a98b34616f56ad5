//! Warm-slot bit-identity: the Table IV overhead sweep, run the way the
//! `table4` binary runs it (one [`WarmSlots`] per case: one shared
//! timing basis, base retiming and RVL-RAR re-priced after the first
//! probe, G-RAR classifying nothing twice and resuming one min cut),
//! must produce the same outcomes as cold per-overhead runs (a fresh
//! analysis and a solve from nothing each time). If any outcome moves, a
//! stale basis, result or solution leaked into it.

use retime_bench::{
    build_case, load_suite, map_cases, run_approaches, run_approaches_with, Approaches, BenchCase,
    SuiteMode, WarmSlots,
};
use retime_circuits::paper_suite;
use retime_liberty::{EdlOverhead, Library};
use retime_retime::RetimeOutcome;
use retime_sta::{DelayModel, TwoPhaseClock};

/// Asserts two flow outcomes are bit-identical in everything a table
/// prints or a certificate checks.
fn assert_same(label: &str, warm: &RetimeOutcome, cold: &RetimeOutcome) {
    assert_eq!(warm.cut, cold.cut, "{label}: cut moved");
    assert_eq!(warm.ed_sinks, cold.ed_sinks, "{label}: EDL flags moved");
    assert_eq!(warm.seq, cold.seq, "{label}: sequential breakdown moved");
    assert_eq!(
        warm.seq.total().to_bits(),
        cold.seq.total().to_bits(),
        "{label}: sequential area moved"
    );
    assert_eq!(
        warm.comb_area.to_bits(),
        cold.comb_area.to_bits(),
        "{label}: combinational area moved"
    );
    assert_eq!(
        warm.total_area.to_bits(),
        cold.total_area.to_bits(),
        "{label}: total area moved"
    );
    assert_eq!(warm.timing, cold.timing, "{label}: timing moved");
    let bits = |a: &[f64]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&warm.timing.sink_arrivals),
        bits(&cold.timing.sink_arrivals),
        "{label}: arrivals moved"
    );
    assert_eq!(
        warm.final_delays, cold.final_delays,
        "{label}: final delays moved"
    );
    assert_eq!(warm.legalize, cold.legalize, "{label}: legalization moved");
    assert_eq!(warm.stat, cold.stat, "{label}: statistical summary moved");
}

/// Asserts all three outcomes of a warm probe match a cold run,
/// RVL-RAR's typing counts and G-RAR's classification counts included.
fn assert_same_approaches(label: &str, warm: &Approaches, cold: &Approaches) {
    assert_same(&format!("{label} base"), &warm.base, &cold.base);
    assert_same(
        &format!("{label} rvl"),
        &warm.rvl.outcome,
        &cold.rvl.outcome,
    );
    let counts = |r: &retime_vl::VlReport| {
        [
            r.typed_ed,
            r.frozen_nodes,
            r.forced_targets,
            r.failed_targets,
            r.swapped,
        ]
    };
    assert_eq!(
        counts(&warm.rvl),
        counts(&cold.rvl),
        "{label} rvl: report counts moved"
    );
    assert_same(
        &format!("{label} grar"),
        &warm.grar.outcome,
        &cold.grar.outcome,
    );
    let counts =
        |g: &retime_core::GrarReport| [g.always_ed, g.never_ed, g.targets, g.predicted_saved];
    assert_eq!(
        counts(&warm.grar),
        counts(&cold.grar),
        "{label} grar: report counts moved"
    );
}

/// One probe through `slots`, checked against a cold run.
fn probe<'a>(case: &'a BenchCase, lib: &'a Library, c: EdlOverhead, slots: &mut WarmSlots<'a>) {
    let label = format!("{} P={} c={c}", case.circuit.spec.name, case.clock.period());
    let warm = run_approaches_with(case, lib, c, slots).expect("warm flows run");
    let cold = run_approaches(case, lib, c, DelayModel::PathBased).expect("cold flows run");
    assert_same_approaches(&label, &warm, &cold);
}

#[test]
fn table4_sweep_with_warm_slots_matches_cold_runs() {
    let lib = Library::fdsoi28();
    let cases = load_suite(SuiteMode::Tiny, &lib);
    let warm_paths = map_cases(&cases, |case| {
        let name = case.circuit.spec.name;
        let mut slots = WarmSlots::default();
        let mut warm_hits = 0;
        for c in EdlOverhead::SWEEP {
            let warm = run_approaches_with(case, &lib, c, &mut slots).expect("warm flows run");
            let cold =
                run_approaches(case, &lib, c, DelayModel::PathBased).expect("cold flows run");
            assert_same_approaches(&format!("{name} c={c}"), &warm, &cold);
            for outcome in [&warm.base, &warm.rvl.outcome, &warm.grar.outcome] {
                warm_hits += outcome.phases.counter("warm_hits");
            }
        }
        warm_hits
    });
    assert!(
        warm_paths.iter().all(|&n| n > 0),
        "every case must answer some probes warm: {warm_paths:?}"
    );
}

/// One set of slots driven across two circuits, and across one circuit
/// at two clocks, in an interleaved order: each switch must drop the
/// basis and the kept results, so every probe still matches a cold run.
#[test]
fn warm_slots_reused_across_cases_and_clocks_match_cold_runs() {
    let lib = Library::fdsoi28();
    let specs = paper_suite();
    let spec = |name: &str| specs.iter().find(|s| s.name == name).expect("in suite");
    let a = build_case(spec("s1196"), &lib);
    let b = build_case(spec("s1423"), &lib);
    // The same circuit under a looser clock: other timing, other
    // classes, other EDL flags.
    let a_loose = BenchCase {
        circuit: a.circuit.clone(),
        clock: TwoPhaseClock::from_max_delay(a.clock.max_path_delay() * 1.3),
        setup_time: a.setup_time,
    };
    let [low, mid, high] = EdlOverhead::SWEEP;
    let mut slots = WarmSlots::default();
    for (case, c) in [
        (&a, low),
        (&a, mid),
        (&b, low),
        (&b, high),
        (&a_loose, mid),
        (&a_loose, low),
        (&a, high),
        (&a, low),
    ] {
        probe(case, &lib, c, &mut slots);
    }
}

/// Every solve of every flow counts as either `cold_solves` (from
/// nothing) or `warm_hits` (re-priced or resumed), so the two add up to
/// `solver_invocations`: one cold solve per flow in a one-shot run, and
/// in a Table IV sweep one cold solve per flow on the case with every
/// later probe warm.
#[test]
fn every_solve_counts_as_cold_or_warm() {
    let lib = Library::fdsoi28();
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == "s1423")
        .expect("s1423 in suite");
    let case = build_case(&spec, &lib);
    // `(cold_solves, warm_hits, solver_invocations)` of each flow.
    let counts = |a: &Approaches| {
        [&a.base, &a.rvl.outcome, &a.grar.outcome].map(|o| {
            let n = |name| o.phases.counter(name);
            (n("cold_solves"), n("warm_hits"), n("solver_invocations"))
        })
    };
    let one_shot = run_approaches(&case, &lib, EdlOverhead::MEDIUM, DelayModel::PathBased)
        .expect("cold flows run");
    assert_eq!(counts(&one_shot), [(1, 0, 1); 3], "base, RVL-RAR, G-RAR");

    let mut slots = WarmSlots::default();
    let mut total = (0, 0, 0);
    for (k, c) in EdlOverhead::SWEEP.into_iter().enumerate() {
        let warm = run_approaches_with(&case, &lib, c, &mut slots).expect("warm flows run");
        let want = if k == 0 { (1, 0, 1) } else { (0, 1, 1) };
        assert_eq!(counts(&warm), [want; 3], "probe {k}");
        for (cold, hits, invocations) in counts(&warm) {
            total = (total.0 + cold, total.1 + hits, total.2 + invocations);
        }
    }
    assert_eq!(total, (3, 6, 9));
}
