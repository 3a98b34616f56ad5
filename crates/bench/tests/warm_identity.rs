//! Warm-slot bit-identity: the Table IV overhead sweep, run the way the
//! `table4` binary runs it (one [`WarmSlots`] per case, so a probe whose
//! instance is unchanged is answered from the memo), must produce the
//! same cuts, EDL flags and areas as cold per-overhead runs (an
//! unslotted solve each time). The memo is a pure solver-level cache;
//! if any outcome moves, a stale solution leaked into the result.

use retime_bench::{
    load_suite, map_cases, run_approaches, run_approaches_with, SuiteMode, WarmSlots,
};
use retime_liberty::{EdlOverhead, Library};
use retime_retime::RetimeOutcome;
use retime_sta::DelayModel;

/// Asserts two flow outcomes are bit-identical in everything a table
/// prints or a certificate checks.
fn assert_same(label: &str, warm: &RetimeOutcome, cold: &RetimeOutcome) {
    assert_eq!(warm.cut, cold.cut, "{label}: cut moved");
    assert_eq!(warm.ed_sinks, cold.ed_sinks, "{label}: EDL flags moved");
    assert_eq!(
        warm.seq.total().to_bits(),
        cold.seq.total().to_bits(),
        "{label}: sequential area moved"
    );
    assert_eq!(
        warm.total_area.to_bits(),
        cold.total_area.to_bits(),
        "{label}: total area moved"
    );
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
            assert_same(&format!("{name} base c={c}"), &warm.base, &cold.base);
            assert_same(
                &format!("{name} rvl c={c}"),
                &warm.rvl.outcome,
                &cold.rvl.outcome,
            );
            assert_same(
                &format!("{name} grar c={c}"),
                &warm.grar.outcome,
                &cold.grar.outcome,
            );
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
