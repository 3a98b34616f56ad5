//! Tracing integration tests.
//!
//! The enabled flag of `retime-trace` is process-global, so every test
//! that toggles it lives in this one file, serialized by a gate mutex
//! (each integration-test *file* is its own binary; tests in other files
//! never see the flag flipped).
//!
//! * **Golden structure.** Fixed, single-threaded runs on the paper's
//!   Fig. 4 instance — G-RAR (path-based, statistical, warm sweep), base
//!   retiming, RVL-RAR, and the certificate check of the G-RAR result —
//!   are exported and compared against golden snapshots of the
//!   structure-stable fields only — span names, nesting depth, and
//!   counter attributes. Timestamps, durations, ids, and
//!   thread ids are normalized away. Regenerate after an intentional
//!   change with
//!   `UPDATE_GOLDEN=1 cargo test -p retime-bench --test trace_integration`.
//! * **Chrome-trace validity.** The same export must pass
//!   [`retime_trace::check_chrome_trace`] (parse + nesting check).
//! * **Bit-identity.** The `table1` / `table4` row logic must produce
//!   byte-identical rows with tracing enabled and disabled — tracing is
//!   observation-only.
//! * **Free when off.** A suite G-RAR run with tracing disabled records
//!   no span.
//! * **Seed timing.** VL's seed stage times the initial cut (one
//!   `cut_timing` span) under deterministic RVL only.
//! * **One analysis per sweep.** A Table IV sweep on one case runs one
//!   whole-cloud pass, none in its commits, and classifies each
//!   master-backed sink once.
//! * **One min cut per sweep.** The sweep's later G-RAR probes resume
//!   the first probe's min cut, with less work.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

use retime_bench::{
    area_row, build_case, map_cases, run_approaches_with, table1_row, BenchCase, WarmSlots,
};
use retime_circuits::{paper_suite, Fig4};
use retime_core::{grar, grar_with_basis, GrarConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_retime::{base_retime, AreaModel, BasisSlot};
use retime_sta::{DelayModel, StatParams, TimingAnalysis, TwoPhaseClock};
use retime_trace::{SpanRecord, Value};
use retime_verify::{verify_certificate, FlowKind, VerifyOptions, VerifySetup};
use retime_vl::{vl_retime, VlConfig, VlVariant};

/// Serializes every test that records spans or toggles the global flag.
static GATE: Mutex<()> = Mutex::new(());

/// Runs `f` with tracing enabled and returns its value plus the spans it
/// recorded, leaving tracing disabled and the sink drained.
fn with_tracing<T>(f: impl FnOnce() -> T) -> (T, Vec<SpanRecord>) {
    let _ = retime_trace::take_records();
    retime_trace::set_enabled(true);
    let out = f();
    retime_trace::set_enabled(false);
    (out, retime_trace::take_records())
}

/// A clock loose enough for G-RAR to be feasible on Fig. 4 under the
/// library delays (the suite's calibration scheme).
fn feasible_clock(cloud: &retime_netlist::CombCloud, lib: &Library) -> TwoPhaseClock {
    let sta = TimingAnalysis::new(
        cloud,
        lib,
        TwoPhaseClock::from_max_delay(1.0),
        DelayModel::PathBased,
    )
    .expect("probe sta builds");
    let crit = cloud
        .sinks()
        .iter()
        .map(|&t| sta.df(t))
        .fold(0.0f64, f64::max);
    let latch = lib.latch();
    TwoPhaseClock::from_max_delay((crit + latch.d_to_q + latch.clk_to_q) / 0.7)
}

/// Renders the structure-stable view of a record list: depth-indented
/// span names with their attributes, no timestamps / ids / thread ids.
fn structure(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&"  ".repeat(r.depth as usize));
        out.push_str(r.name);
        for (k, v) in &r.attrs {
            match v {
                Value::U64(n) => out.push_str(&format!(" {k}={n}")),
                Value::F64(x) => out.push_str(&format!(" {k}={x}")),
                Value::Str(s) => out.push_str(&format!(" {k}={s}")),
            }
        }
        out.push('\n');
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "{name} drifted from its golden snapshot; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn fig4_grar_trace_matches_golden_structure() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let fig = Fig4::new();
    let lib = Library::fdsoi28();
    let clock = feasible_clock(&fig.cloud, &lib);
    // threads(1) keeps the run on this thread: one tid, one deterministic
    // record order, deterministic counter values.
    let (_, records) = with_tracing(|| {
        grar(
            &fig.cloud,
            &lib,
            clock,
            &GrarConfig::new(EdlOverhead::MEDIUM).with_threads(1),
        )
        .expect("grar on fig4")
    });
    assert!(!records.is_empty(), "the traced run recorded no spans");

    // The export of the same records must be a valid Chrome trace.
    let text = retime_trace::chrome_trace(&records);
    let check = retime_trace::check_chrome_trace(&text).expect("export validates");
    assert_eq!(check.events, records.len());

    check_golden("fig4_trace.txt", &structure(&records));
}

#[test]
fn fig4_statistical_grar_trace_matches_golden_structure() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let fig = Fig4::new();
    let lib = Library::fdsoi28();
    let clock = feasible_clock(&fig.cloud, &lib);
    // The same fixed run under the statistical delay model: the golden
    // additionally pins the canonical-form propagation spans — every
    // cut timed during the flow emits one `stat_cut_arrivals` span (a
    // single topological sweep, so it carries no counter).
    let (_, records) = with_tracing(|| {
        grar(
            &fig.cloud,
            &lib,
            clock,
            &GrarConfig::new(EdlOverhead::MEDIUM)
                .with_threads(1)
                .with_model(DelayModel::Statistical(StatParams::DEFAULT)),
        )
        .expect("statistical grar on fig4")
    });
    assert!(
        records.iter().any(|r| r.name == "stat_cut_arrivals"),
        "statistical mode must trace its canonical propagation"
    );

    let text = retime_trace::chrome_trace(&records);
    let check = retime_trace::check_chrome_trace(&text).expect("export validates");
    assert_eq!(check.events, records.len());

    check_golden("fig4_trace_stat.txt", &structure(&records));
}

#[test]
fn fig4_warm_sweep_trace_matches_golden_structure() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let fig = Fig4::new();
    let lib = Library::fdsoi28();
    let clock = feasible_clock(&fig.cloud, &lib);
    // The overhead sweep on one shared basis, which keeps G-RAR's
    // instance: the first probe solves it from nothing (`cold_solves`),
    // and each later probe re-prices it and resumes the kept min cut
    // (`warm_hits`). Only the first
    // probe's `sta` stage runs a full pass, and the later probes'
    // `classify` stages read the endpoint from the basis (`cached`).
    let mut basis = None;
    let (_, records) = with_tracing(|| {
        for c in EdlOverhead::SWEEP {
            grar_with_basis(
                &fig.cloud,
                &lib,
                clock,
                &GrarConfig::new(c).with_threads(1),
                BasisSlot::Shared(&mut basis),
            )
            .expect("grar warm sweep on fig4");
        }
    });
    assert!(!records.is_empty(), "the traced sweep recorded no spans");

    let text = retime_trace::chrome_trace(&records);
    let check = retime_trace::check_chrome_trace(&text).expect("export validates");
    assert_eq!(check.events, records.len());

    check_golden("fig4_trace_warm.txt", &structure(&records));
}

/// Checks that `records` export as a valid Chrome trace and match the
/// golden structure `name`.
fn check_trace_golden(name: &str, records: &[SpanRecord]) {
    assert!(!records.is_empty(), "the traced run recorded no spans");
    let text = retime_trace::chrome_trace(records);
    let check = retime_trace::check_chrome_trace(&text).expect("export validates");
    assert_eq!(check.events, records.len());
    check_golden(name, &structure(records));
}

#[test]
fn fig4_base_trace_matches_golden_structure() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let fig = Fig4::new();
    let lib = Library::fdsoi28();
    let clock = feasible_clock(&fig.cloud, &lib);
    let (_, records) = with_tracing(|| {
        base_retime(
            &fig.cloud,
            &lib,
            clock,
            DelayModel::PathBased,
            EdlOverhead::MEDIUM,
        )
        .expect("base retiming on fig4")
    });
    check_trace_golden("fig4_trace_base.txt", &records);
}

#[test]
fn fig4_rvl_trace_matches_golden_structure() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let fig = Fig4::new();
    let lib = Library::fdsoi28();
    let clock = feasible_clock(&fig.cloud, &lib);
    let (_, records) = with_tracing(|| {
        vl_retime(
            &fig.cloud,
            &lib,
            clock,
            &VlConfig::new(VlVariant::Rvl, EdlOverhead::MEDIUM).with_threads(1),
        )
        .expect("RVL-RAR on fig4")
    });
    check_trace_golden("fig4_trace_rvl.txt", &records);
}

/// Number of `name` spans nested (at any depth) under each `parent`
/// span, in record order, following the records' `parent` links.
fn nested_counts(records: &[SpanRecord], parent: &str, name: &str) -> Vec<usize> {
    let parent_of: HashMap<u64, u64> = records.iter().map(|r| (r.id, r.parent)).collect();
    let under = |mut id: u64, root: u64| {
        while let Some(&p) = parent_of.get(&id) {
            if p == root {
                return true;
            }
            id = p;
        }
        false
    };
    records
        .iter()
        .filter(|r| r.name == parent)
        .map(|p| {
            records
                .iter()
                .filter(|c| c.name == name && under(c.id, p.id))
                .count()
        })
        .collect()
}

#[test]
fn vl_seed_times_the_initial_cut_only_for_deterministic_rvl() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let fig = Fig4::new();
    let lib = Library::fdsoi28();
    let clock = feasible_clock(&fig.cloud, &lib);
    let stat = DelayModel::Statistical(StatParams::DEFAULT);
    for (variant, model, want) in [
        (VlVariant::Evl, DelayModel::PathBased, 0),
        (VlVariant::Nvl, DelayModel::PathBased, 0),
        (VlVariant::Rvl, stat, 0),
        (VlVariant::Rvl, DelayModel::PathBased, 1),
    ] {
        let cfg = VlConfig::new(variant, EdlOverhead::MEDIUM)
            .with_model(model)
            .with_threads(1);
        let (_, records) =
            with_tracing(|| vl_retime(&fig.cloud, &lib, clock, &cfg).expect("VL-RAR on fig4"));
        assert_eq!(
            nested_counts(&records, "seed", "cut_timing"),
            [want],
            "{} under {model:?}",
            variant.name()
        );
    }
}

/// Sum of the `name` counter over the spans called `span`.
fn counter_sum(records: &[SpanRecord], span: &str, name: &str) -> u64 {
    records
        .iter()
        .filter(|r| r.name == span)
        .flat_map(|r| &r.attrs)
        .filter_map(|(k, v)| match v {
            Value::U64(n) if *k == name => Some(*n),
            _ => None,
        })
        .sum()
}

/// A Table IV sweep on one suite case analyses the case once: one
/// whole-cloud pass, none in the commits (which legalize copies of the
/// delay tables), and each master-backed sink classified once across
/// RVL-RAR and the three G-RAR probes.
#[test]
fn table4_sweep_analyses_each_case_once() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let lib = Library::fdsoi28();
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == "s1423")
        .expect("s1423 in suite");
    let case = build_case(&spec, &lib);
    let (_, records) = with_tracing(|| {
        let mut slots = WarmSlots::default();
        for c in EdlOverhead::SWEEP {
            run_approaches_with(&case, &lib, c, &mut slots).expect("flows run");
        }
    });
    let passes = records.iter().filter(|r| r.name == "sta_full_pass").count();
    let in_commit: usize = nested_counts(&records, "commit", "sta_full_pass")
        .iter()
        .sum();
    assert_eq!(passes - in_commit, 1, "sta_full_pass spans outside commit");

    // Classification requests: every master-backed sink per G-RAR probe
    // (`endpoints`), and RVL-RAR's non-ED-typed masters. The ones not
    // answered from the basis (`cached`) are the sinks classified.
    let masters = retime_retime::master_backed_sinks(&case.circuit.cloud).len() as u64;
    let grar_probes = records.iter().filter(|r| r.name == "grar").count() as u64;
    let vl_runs = records.iter().filter(|r| r.name == "vl_retime").count() as u64;
    assert_eq!((grar_probes, vl_runs), (3, 1), "base and RVL-RAR re-price");
    let requests = counter_sum(&records, "classify", "endpoints") + vl_runs * masters
        - counter_sum(&records, "seed", "typed_ed");
    let cached = counter_sum(&records, "classify", "cached");
    assert_eq!(
        requests - cached,
        masters,
        "each master-backed sink classified once"
    );
    // The re-priced probes each report one solver invocation answered
    // from memory.
    assert_eq!(counter_sum(&records, "solve", "solver_invocations"), 9);
}

/// The spans nested (at any depth) under `records[i]`, on its thread.
fn descendants(records: &[SpanRecord], i: usize) -> impl Iterator<Item = &SpanRecord> {
    let root = &records[i];
    records[i + 1..]
        .iter()
        .filter(move |r| r.tid == root.tid)
        .take_while(move |r| r.depth > root.depth)
}

/// The `name` counter of one span (0 when absent).
fn counter(r: &SpanRecord, name: &str) -> u64 {
    r.attrs
        .iter()
        .find_map(|(k, v)| match v {
            Value::U64(n) if *k == name => Some(*n),
            _ => None,
        })
        .unwrap_or(0)
}

/// A Table IV sweep on a case with targets keeps G-RAR's instance in
/// the shared basis: the first probe solves its min cut from nothing,
/// and the two later probes re-price the pseudo targets and resume that
/// cut, each with less work.
/// The commits legalize delay tables alone: no whole-cloud pass.
#[test]
fn table4_sweep_resumes_the_grar_min_cut() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let lib = Library::fdsoi28();
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == "s1423")
        .expect("s1423 in suite");
    let case = build_case(&spec, &lib);
    let (_, records) = with_tracing(|| {
        let mut slots = WarmSlots::default();
        for c in EdlOverhead::SWEEP {
            run_approaches_with(&case, &lib, c, &mut slots).expect("flows run");
        }
    });
    // `(min cuts, pushes + relabels, cold_solves, warm_hits, targets)`
    // per G-RAR probe.
    let probes: Vec<(usize, u64, u64, u64, u64)> = (0..records.len())
        .filter(|&i| records[i].name == "grar")
        .map(|i| {
            let inner: Vec<&SpanRecord> = descendants(&records, i).collect();
            let cuts: Vec<&&SpanRecord> = inner.iter().filter(|r| r.name == "min_cut").collect();
            let work = cuts
                .iter()
                .map(|r| counter(r, "pushes") + counter(r, "relabels"))
                .sum();
            let stage = |name: &str, key: &str| {
                inner
                    .iter()
                    .filter(|r| r.name == name)
                    .map(|r| counter(r, key))
                    .sum::<u64>()
            };
            (
                cuts.len(),
                work,
                stage("solve", "cold_solves"),
                stage("solve", "warm_hits"),
                stage("classify", "targets"),
            )
        })
        .collect();
    assert_eq!(probes.len(), 3);
    let (_, first, ..) = probes[0];
    for (k, &(cuts, work, cold, warm, targets)) in probes.iter().enumerate() {
        assert_eq!(cuts, 1, "probe {k}: one min cut");
        assert!(targets > 0, "probe {k}: s1423 has targets");
        assert_eq!((cold, warm), if k == 0 { (1, 0) } else { (0, 1) });
        if k > 0 {
            assert!(work < first, "probe {k}: resumed {work} vs cold {first}");
        }
    }
    let in_commit: usize = nested_counts(&records, "commit", "sta_full_pass")
        .iter()
        .sum();
    assert_eq!(in_commit, 0, "sta_full_pass spans under commit");
}

#[test]
fn fig4_verify_trace_matches_golden_structure() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let fig = Fig4::new();
    let lib = Library::fdsoi28();
    let clock = feasible_clock(&fig.cloud, &lib);
    let c = EdlOverhead::MEDIUM;
    let report =
        grar(&fig.cloud, &lib, clock, &GrarConfig::new(c).with_threads(1)).expect("grar on fig4");
    let setup = VerifySetup {
        netlist: &fig.netlist,
        cloud: &fig.cloud,
        lib: &lib,
        clock,
        model: DelayModel::PathBased,
        overhead: c,
    };
    let opts = VerifyOptions {
        threads: 1,
        ..VerifyOptions::default()
    };
    let (_, records) = with_tracing(|| {
        verify_certificate(&setup, FlowKind::Grar, &report.outcome, &opts)
            .expect("the G-RAR result certifies")
    });
    check_trace_golden("fig4_trace_verify.txt", &records);
}

#[test]
fn table_rows_are_bit_identical_with_tracing_on_and_off() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let lib = Library::fdsoi28();
    let cases: Vec<BenchCase> = paper_suite()
        .into_iter()
        .take(2)
        .map(|spec| build_case(&spec, &lib))
        .collect();
    let model = AreaModel::new(&lib, EdlOverhead::MEDIUM);

    let table1 = |cases: &[BenchCase]| map_cases(cases, |case| table1_row(case, &lib, &model));
    let table4 = |cases: &[BenchCase]| -> Vec<Vec<String>> {
        map_cases(cases, |case| area_row(case, &lib, false, |o| o.seq.total()))
            .into_iter()
            .map(|(row, _)| row)
            .collect()
    };

    let t1_off = table1(&cases);
    let t4_off = table4(&cases);
    let ((t1_on, t4_on), records) = with_tracing(|| (table1(&cases), table4(&cases)));

    assert_eq!(t1_off, t1_on, "table1 rows changed under tracing");
    assert_eq!(t4_off, t4_on, "table4 rows changed under tracing");
    assert!(
        !records.is_empty(),
        "the traced table runs recorded no spans"
    );
}

/// Tracing off is free: with the flag cleared, a full G-RAR run on a
/// suite circuit opens no span (so allocates no record and reads no
/// clock) and the trace clock reads 0.
#[test]
fn disabled_tracing_records_nothing_on_a_suite_grar_run() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let lib = Library::fdsoi28();
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == "s1423")
        .expect("s1423 in suite");
    let case = build_case(&spec, &lib);
    retime_trace::set_enabled(false);
    let _ = retime_trace::take_records();
    grar(
        &case.circuit.cloud,
        &lib,
        case.clock,
        &GrarConfig::new(EdlOverhead::HIGH),
    )
    .expect("grar on s1423");
    assert!(
        retime_trace::take_records().is_empty(),
        "disabled tracing recorded spans"
    );
    assert_eq!(
        retime_trace::now_us(),
        0,
        "the disabled trace clock reads 0"
    );
}
