//! Benchmark harness regenerating every table of the paper's evaluation
//! (Section VI).
//!
//! One binary per table (`table1` … `table9`), each printing the same
//! rows the paper reports, on the calibrated synthetic suite:
//!
//! ```text
//! cargo run --release -p retime-bench --bin table5
//! ```
//!
//! The environment variable `RETIME_SUITE` selects the workload:
//! `full` (default — all twelve circuits), `small` (≤ 200 flip-flops),
//! or `tiny` (the four smallest; used by the smoke tests).
//!
//! With `RETIME_VERIFY=1`, every flow result additionally passes the
//! independent certificate checker of `retime-verify` (ILP feasibility,
//! optimality for G-RAR, timing/EDL/area recount, and functional
//! equivalence under random stimulus) before it is tabulated; the
//! verification wall-clock shows up as the `verify` phase of each
//! outcome's instrumentation.
//!
//! With `RETIME_TRACE=1`, every table binary records hierarchical
//! `retime-trace` spans and prints a self-time profile (top span names
//! by exclusive wall-clock) to stderr on exit; `RETIME_TRACE_OUT=path`
//! additionally writes the Chrome-trace JSON — load it in
//! <https://ui.perfetto.dev>. Tracing is observation-only: the stdout
//! table rows are bit-identical with it on or off (asserted by
//! `tests/trace_integration.rs`).
//!
//! Performance is measured end to end, and per layer, by the separate
//! `benchmark/` package (`bench_e2e`).

use std::time::Instant;

use retime_circuits::{paper_suite, SuiteCircuit};
use retime_core::{grar, grar_with_sweep, GrarConfig, GrarReport};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, Netlist};
use retime_retime::{
    base_retime, base_retime_sweep, flop_design_area, AreaModel, RetimeError, RetimeOutcome,
    RetimingSweep,
};
use retime_sta::{DelayModel, StatParams, TwoPhaseClock};
use retime_verify::{
    verify_certificate, verify_retiming_solution, FlowKind, VerifyOptions, VerifySetup,
};
use retime_vl::{vl_retime, vl_retime_with_sweep, VlConfig, VlReport, VlVariant};

/// A suite circuit with its calibrated clock.
pub struct BenchCase {
    /// The built circuit.
    pub circuit: SuiteCircuit,
    /// Clock calibrated to the published NCE target.
    pub clock: TwoPhaseClock,
    /// Time spent generating + calibrating.
    pub setup_time: std::time::Duration,
}

/// Which slice of the paper suite a run works on (the `RETIME_SUITE`
/// environment variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuiteMode {
    /// All twelve circuits (the default).
    #[default]
    Full,
    /// Circuits with ≤ 200 flip-flops.
    Small,
    /// The four smallest circuits (smoke tests, CI).
    Tiny,
}

impl SuiteMode {
    /// Parses a raw `RETIME_SUITE` value. `Err` carries the one-line
    /// warning to print — the same shape `RETIME_THREADS` uses (see
    /// [`retime_engine::parse_thread_override`]), so the two knobs fail
    /// the same way.
    ///
    /// # Errors
    /// Returns the warning line when the value is unrecognized.
    pub fn parse(raw: &str) -> Result<SuiteMode, String> {
        match raw {
            "full" => Ok(SuiteMode::Full),
            "small" => Ok(SuiteMode::Small),
            "tiny" => Ok(SuiteMode::Tiny),
            other => Err(format!(
                "warning: unrecognized RETIME_SUITE value {other:?}; \
                 accepted values are \"full\", \"small\", or \"tiny\" — \
                 running the full suite"
            )),
        }
    }

    /// The `RETIME_SUITE` selection, warning once on stderr for an
    /// unrecognized value (falls back to the full suite).
    pub fn from_env() -> SuiteMode {
        match std::env::var("RETIME_SUITE") {
            Ok(raw) => SuiteMode::parse(&raw).unwrap_or_else(|warning| {
                eprintln!("{warning}");
                SuiteMode::Full
            }),
            Err(_) => SuiteMode::Full,
        }
    }

    /// Restricts the suite definition to this slice.
    pub fn select(
        self,
        specs: Vec<retime_circuits::CircuitSpec>,
    ) -> Vec<retime_circuits::CircuitSpec> {
        match self {
            SuiteMode::Full => specs,
            SuiteMode::Small => specs.into_iter().filter(|s| s.flops <= 200).collect(),
            SuiteMode::Tiny => specs.into_iter().take(4).collect(),
        }
    }
}

/// Loads the benchmark suite honoring `RETIME_SUITE`
/// (`full` | `small` | `tiny`), building and calibrating the circuits in
/// parallel (`RETIME_THREADS` caps the fan-out). Case order always
/// follows the suite definition regardless of thread count.
///
/// An unrecognized `RETIME_SUITE` value falls back to the full suite
/// with a warning on stderr.
///
/// # Panics
/// Panics if a circuit fails to build — the suite is deterministic, so
/// this only happens on programming errors.
pub fn load_suite(lib: &Library) -> Vec<BenchCase> {
    let specs = SuiteMode::from_env().select(paper_suite());
    retime_engine::parallel_map(0, &specs, |spec| build_case(spec, lib))
}

/// Builds and calibrates one suite circuit.
///
/// # Panics
/// Panics if the circuit fails to build (programming error — the suite
/// is deterministic).
pub fn build_case(spec: &retime_circuits::CircuitSpec, lib: &Library) -> BenchCase {
    let t0 = Instant::now();
    let circuit = spec.build().expect("deterministic suite builds");
    let clock = circuit
        .calibrated_clock(lib, DelayModel::PathBased)
        .expect("calibration succeeds");
    BenchCase {
        circuit,
        clock,
        setup_time: t0.elapsed(),
    }
}

/// The three flows the paper compares (Tables IV–VIII).
pub struct Approaches {
    /// Resiliency-unaware base retiming.
    pub base: RetimeOutcome,
    /// RVL-RAR (the best virtual-library variant).
    pub rvl: VlReport,
    /// G-RAR.
    pub grar: GrarReport,
}

/// Whether `RETIME_VERIFY=1` requested self-certification of every flow
/// result (one switch shared by all table binaries).
pub fn verify_enabled() -> bool {
    retime_verify::enabled()
}

/// Starts the shared trace session every table binary opens first thing
/// in `main` — `RETIME_TRACE=1` turns span recording on,
/// `RETIME_TRACE_OUT=path` additionally writes the Chrome-trace JSON
/// (load it in <https://ui.perfetto.dev>). The returned guard must stay
/// alive for the whole run; dropping it prints the self-time profile to
/// stderr, so the table rows on stdout stay byte-identical either way.
pub fn trace_session() -> retime_trace::TraceSession {
    retime_trace::TraceSession::from_env()
}

/// One certification request against the independent checker of
/// `retime-verify` — the single home of the `RETIME_VERIFY` plumbing
/// that used to be hand-rolled in every table binary.
///
/// The common shape ([`Certification::of_case`]) certifies against a
/// suite case's own netlist, clock, and the path-based delay model;
/// Table II's per-delay-model runs override the model with
/// [`Certification::with_model`], and Table IX's movable-master runs
/// certify against the merged netlist via [`Certification::of_netlist`].
/// `retime-serve` drives the same type for `verify: true` jobs.
pub struct Certification<'a> {
    /// The circuit the flow actually retimed.
    pub netlist: &'a Netlist,
    /// Its retiming view.
    pub cloud: &'a CombCloud,
    /// The clock the flow ran under.
    pub clock: TwoPhaseClock,
    /// The delay model that drove the optimization.
    pub model: DelayModel,
    /// EDL overhead `c`.
    pub overhead: EdlOverhead,
    /// Which flow produced the outcome.
    pub kind: FlowKind,
    /// Names the run in the failure message.
    pub label: String,
}

impl<'a> Certification<'a> {
    /// A request against a suite case's circuit with the default
    /// path-based delay model; the failure label becomes
    /// `"<circuit> [<label>]"`.
    pub fn of_case(
        case: &'a BenchCase,
        c: EdlOverhead,
        kind: FlowKind,
        label: &str,
    ) -> Certification<'a> {
        Certification::of_netlist(
            &case.circuit.netlist,
            &case.circuit.cloud,
            case.clock,
            c,
            kind,
            format!("{} [{label}]", case.circuit.spec.name),
        )
    }

    /// A request against an explicit netlist/cloud pair (Table IX's
    /// merged netlists, `retime-serve`'s inline submissions).
    pub fn of_netlist(
        netlist: &'a Netlist,
        cloud: &'a CombCloud,
        clock: TwoPhaseClock,
        c: EdlOverhead,
        kind: FlowKind,
        label: String,
    ) -> Certification<'a> {
        Certification {
            netlist,
            cloud,
            clock,
            model: DelayModel::PathBased,
            overhead: c,
            kind,
            label,
        }
    }

    /// Overrides the delay model (Table II certifies each run against
    /// the model that drove it).
    #[must_use]
    pub fn with_model(mut self, model: DelayModel) -> Certification<'a> {
        self.model = model;
        self
    }

    /// Runs the checker unconditionally and merges the verification
    /// wall-clock and counters into the outcome's phase instrumentation
    /// (`Stage::Verify`).
    ///
    /// # Errors
    /// Returns [`RetimeError::Internal`] carrying the checker's
    /// diagnosis when the certificate is rejected.
    pub fn run(&self, lib: &Library, outcome: &mut RetimeOutcome) -> Result<(), RetimeError> {
        let setup = VerifySetup {
            netlist: self.netlist,
            cloud: self.cloud,
            lib,
            clock: self.clock,
            model: self.model,
            overhead: self.overhead,
        };
        let report = verify_certificate(&setup, self.kind, outcome, &VerifyOptions::default())
            .map_err(|e| {
                RetimeError::Internal(format!("certificate rejected for {}: {e}", self.label))
            })?;
        outcome.phases.merge(&report.phases);
        Ok(())
    }

    /// The table-binary guard: a no-op unless `RETIME_VERIFY=1`
    /// requested certification, then [`Certification::run`].
    ///
    /// # Panics
    /// Panics with the checker's diagnosis when the certificate is
    /// rejected.
    pub fn expect_pass(&self, lib: &Library, outcome: &mut RetimeOutcome) {
        if verify_enabled() {
            self.run(lib, outcome).expect("certificate accepted");
        }
    }
}

/// The delay model the table binaries run under — the
/// `RETIME_DELAY_MODE` environment knob: `path` (default), `gate`, or
/// `statistical` (alias `stat`). Statistical mode starts from
/// [`StatParams::DEFAULT`] and layers the `RETIME_YIELD` /
/// `RETIME_SIGMA` / `RETIME_CLOCK_SIGMA` / `RETIME_STAT_SEED` knobs on
/// top ([`retime_stat::params_from_env`]). An unrecognized value warns
/// once on stderr and falls back to path-based, following the
/// `RETIME_SUITE` convention.
pub fn delay_mode_from_env() -> DelayModel {
    match std::env::var("RETIME_DELAY_MODE") {
        Ok(raw) => match raw.trim() {
            "path" => DelayModel::PathBased,
            "gate" => DelayModel::GateBased,
            "statistical" | "stat" => {
                DelayModel::Statistical(retime_stat::params_from_env(StatParams::DEFAULT))
            }
            other => {
                eprintln!(
                    "warning: unrecognized RETIME_DELAY_MODE value {other:?}; accepted values \
                     are \"path\", \"gate\", or \"statistical\" — using the path-based model"
                );
                DelayModel::PathBased
            }
        },
        Err(_) => DelayModel::PathBased,
    }
}

/// Runs base retiming, RVL-RAR, and G-RAR on one case. With
/// `RETIME_VERIFY=1`, each of the three results must additionally pass
/// the independent certificate checker.
///
/// # Errors
/// Propagates flow failures and rejected certificates.
pub fn run_approaches(
    case: &BenchCase,
    lib: &Library,
    c: EdlOverhead,
) -> Result<Approaches, RetimeError> {
    run_approaches_model(case, lib, c, DelayModel::PathBased)
}

/// [`run_approaches`] under an explicit delay model — the statistical
/// Table IV section drives all three flows with
/// `DelayModel::Statistical`, and `RETIME_VERIFY=1` certifies each
/// outcome against the model that drove it (statistical certificates
/// include the exact `StatSummary` replay and the Monte Carlo yield
/// cross-check).
///
/// # Errors
/// Propagates flow failures and rejected certificates.
pub fn run_approaches_model(
    case: &BenchCase,
    lib: &Library,
    c: EdlOverhead,
    model: DelayModel,
) -> Result<Approaches, RetimeError> {
    let cloud = &case.circuit.cloud;
    let mut base = base_retime(cloud, lib, case.clock, model, c)?;
    let mut rvl = vl_retime(
        cloud,
        lib,
        case.clock,
        &VlConfig::new(VlVariant::Rvl, c).with_model(model),
    )?;
    let mut g = grar(
        cloud,
        lib,
        case.clock,
        &GrarConfig::new(c).with_model(model),
    )?;
    if verify_enabled() {
        Certification::of_case(case, c, FlowKind::Base, "base")
            .with_model(model)
            .run(lib, &mut base)?;
        Certification::of_case(case, c, FlowKind::Vl, "rvl")
            .with_model(model)
            .run(lib, &mut rvl.outcome)?;
        Certification::of_case(case, c, FlowKind::Grar, "grar")
            .with_model(model)
            .run(lib, &mut g.outcome)?;
    }
    Ok(Approaches { base, rvl, grar: g })
}

/// Per-flow solved-instance memos carried across an overhead sweep on
/// one case. Base retiming and RVL-RAR build the same Eq. 14 instance
/// for every `c` (their cuts do not depend on it), so each probe after
/// the first is a memo hit; G-RAR's pseudo overhead moves demands, so
/// its probes solve cold.
#[derive(Default)]
pub struct WarmSlots {
    /// Base retiming's memo.
    pub base: Option<RetimingSweep>,
    /// RVL-RAR's memo.
    pub rvl: Option<RetimingSweep>,
    /// G-RAR's memo.
    pub grar: Option<RetimingSweep>,
}

impl WarmSlots {
    /// Certifies every memo's last solution against its problem
    /// ([`verify_retiming_solution`]): the labels must satisfy the ILP,
    /// agree with the cut and the objective, and reach the optimum a
    /// checked min-cut certificate proves.
    ///
    /// # Errors
    /// Surfaces a rejected certificate as an internal error naming the
    /// offending flow.
    pub fn certify(&self) -> Result<(), RetimeError> {
        for (label, slot) in [
            ("base", &self.base),
            ("rvl", &self.rvl),
            ("grar", &self.grar),
        ] {
            let Some((problem, warm)) = slot.as_ref().and_then(RetimingSweep::last_solved) else {
                continue;
            };
            verify_retiming_solution(problem, warm).map_err(|e| {
                RetimeError::Internal(format!("{label} warm certificate rejected: {e}"))
            })?;
        }
        Ok(())
    }
}

/// [`run_approaches`] with solved-instance memos threaded through all
/// three flows — the overhead-sweep call sites (Table IV, the
/// benchmark's sweep) keep one [`WarmSlots`] per case so a `c` probe
/// whose instance did not change is answered from the memo. With
/// `RETIME_VERIFY=1` every memo's solution is additionally certified
/// optimal before the row is accepted.
///
/// # Errors
/// Propagates flow failures and rejected certificates, the memos'
/// included.
pub fn run_approaches_with(
    case: &BenchCase,
    lib: &Library,
    c: EdlOverhead,
    slots: &mut WarmSlots,
) -> Result<Approaches, RetimeError> {
    let cloud = &case.circuit.cloud;
    let mut base = base_retime_sweep(
        cloud,
        lib,
        case.clock,
        DelayModel::PathBased,
        c,
        &mut slots.base,
    )?;
    let mut rvl = vl_retime_with_sweep(
        cloud,
        lib,
        case.clock,
        &VlConfig::new(VlVariant::Rvl, c),
        &mut slots.rvl,
    )?;
    let mut g = grar_with_sweep(cloud, lib, case.clock, &GrarConfig::new(c), &mut slots.grar)?;
    if verify_enabled() {
        Certification::of_case(case, c, FlowKind::Base, "base").run(lib, &mut base)?;
        Certification::of_case(case, c, FlowKind::Vl, "rvl").run(lib, &mut rvl.outcome)?;
        Certification::of_case(case, c, FlowKind::Grar, "grar").run(lib, &mut g.outcome)?;
        slots.certify()?;
    }
    Ok(Approaches { base, rvl, grar: g })
}

/// Runs all three flows on every case in parallel (`RETIME_THREADS` caps
/// the fan-out). The result vector is index-aligned with `cases`, so
/// table output order is deterministic regardless of thread count.
///
/// # Errors
/// Each case reports its own flow failures.
pub fn run_suite(
    cases: &[BenchCase],
    lib: &Library,
    c: EdlOverhead,
) -> Vec<Result<Approaches, RetimeError>> {
    map_cases(cases, |case| run_approaches(case, lib, c))
}

/// Applies `f` to every case in parallel, preserving case order in the
/// result — the shared skeleton of the table binaries. Use this instead
/// of a `for` loop whenever per-case work is independent.
pub fn map_cases<T: Send>(cases: &[BenchCase], f: impl Fn(&BenchCase) -> T + Sync) -> Vec<T> {
    retime_engine::parallel_map(0, cases, f)
}

/// The deterministic Table I cells of one case: name, clock, flop count,
/// NCE count, flop-design area, and the paper reference. Shared by the
/// `table1` binary (which splices in its volatile setup-time column) and
/// the golden snapshot test.
///
/// # Panics
/// Panics if STA or the area model fails (programming error — the suite
/// circuits always time and cost out).
pub fn table1_row(case: &BenchCase, lib: &Library, model: &AreaModel<'_>) -> Vec<String> {
    let spec = &case.circuit.spec;
    let nce = case
        .circuit
        .nce_count(lib, DelayModel::PathBased, case.clock)
        .expect("sta runs");
    let area = flop_design_area(&case.circuit.cloud, model).expect("area computes");
    vec![
        spec.name.to_string(),
        format!("{:.3}", case.clock.max_path_delay()),
        spec.flops.to_string(),
        nce.to_string(),
        f2(area),
        format!(
            "(paper: P={} NCE={} area={})",
            spec.paper_p, spec.nce, spec.paper_area
        ),
    ]
}

/// The Table IV cells of one case — per EDL overhead of
/// [`EdlOverhead::SWEEP`]: base, RVL, RVL improvement %, G-RAR, G-RAR
/// improvement % — plus the raw per-overhead improvement percentages for
/// the table's average row. Shared by the `table4` binary and the golden
/// snapshot test.
///
/// # Panics
/// Panics if a flow fails (the suite circuits are always feasible).
pub fn table4_row(case: &BenchCase, lib: &Library) -> (Vec<String>, [f64; 3], [f64; 3]) {
    let mut row = vec![case.circuit.spec.name.to_string()];
    let mut rvl_impr = [0.0f64; 3];
    let mut g_impr = [0.0f64; 3];
    let mut slots = WarmSlots::default();
    for (k, c) in EdlOverhead::SWEEP.into_iter().enumerate() {
        let a = run_approaches_with(case, lib, c, &mut slots).expect("flows run");
        let base = a.base.seq.total();
        let rvl = a.rvl.outcome.seq.total();
        let g = a.grar.outcome.seq.total();
        rvl_impr[k] = pct_impr(base, rvl);
        g_impr[k] = pct_impr(base, g);
        row.extend([
            f2(base),
            f2(rvl),
            f2(pct_impr(base, rvl)),
            f2(g),
            f2(pct_impr(base, g)),
        ]);
    }
    (row, rvl_impr, g_impr)
}

/// The statistical Table IV cells of one case, at medium EDL overhead:
/// the three flows' sequential areas under the statistical model, then
/// G-RAR's yield picture. The yield and jitter columns are evaluated at
/// the worst endpoint the yield-aware rule did *not* flag — the sinks
/// whose timing the circuit must actually meet at `Π` (flagged
/// endpoints time into the resiliency window by design, so the global
/// minimum is a constant ~0 and says nothing). `MinYield` is that
/// endpoint's timing yield at the clock period and `dY/dsigc` its
/// `d yield / d σ_clock` by finite difference (≤ 0, since more jitter
/// can only hurt). Shared by the `table4` binary's statistical section
/// and its golden snapshot test.
///
/// # Panics
/// Panics if a flow fails, `model` is not statistical, or the outcome
/// carries no summary.
pub fn table4_stat_row(case: &BenchCase, lib: &Library, model: DelayModel) -> Vec<String> {
    assert!(
        matches!(model, DelayModel::Statistical(_)),
        "table4_stat_row wants a statistical model"
    );
    let a = run_approaches_model(case, lib, EdlOverhead::MEDIUM, model).expect("flows run");
    let outcome = &a.grar.outcome;
    let stat = outcome
        .stat
        .as_ref()
        .expect("statistical mode attaches a summary");
    let st = retime_stat::StatTiming::new(&case.circuit.cloud, &outcome.final_delays, case.clock);
    let canons = st.cut_sink_canons(&outcome.cut);
    let worst_uncovered = (0..canons.len())
        .filter(|&i| !st.needs_edl(&canons[i]))
        .min_by(|&i, &j| stat.yields[i].total_cmp(&stat.yields[j]));
    let (cov_yield, cov_sens) = worst_uncovered.map_or((1.0, 0.0), |i| {
        (stat.yields[i], st.jitter_sensitivity(&canons[i]))
    });
    vec![
        case.circuit.spec.name.to_string(),
        f2(a.base.seq.total()),
        f2(a.rvl.outcome.seq.total()),
        f2(a.grar.outcome.seq.total()),
        format!("{cov_yield:.4}"),
        a.grar.outcome.seq.edl.to_string(),
        format!("{cov_sens:.3}"),
    ]
}

/// The Table VIII cells of one case: the error rate (%) of base, RVL
/// and G-RAR per EDL overhead of [`EdlOverhead::SWEEP`], each flow
/// simulated with its own final delays (including any legalization
/// upsizing), as a signoff would. Returns the raw rates too, for the
/// table's average row. Shared by the `table8` binary and the golden
/// snapshot test.
///
/// # Panics
/// Panics if a flow fails (the suite circuits are always feasible).
pub fn table8_row(
    case: &BenchCase,
    lib: &Library,
    cfg: &retime_sim::ErrorRateConfig,
) -> (Vec<String>, [f64; 9]) {
    let cloud = &case.circuit.cloud;
    let mut row = vec![case.circuit.spec.name.to_string()];
    let mut rates = [0.0f64; 9];
    let mut col = 0;
    for c in EdlOverhead::SWEEP {
        let a = run_approaches(case, lib, c).expect("flows run");
        for (cut, ed, delays) in [
            (&a.base.cut, &a.base.ed_sinks, &a.base.final_delays),
            (
                &a.rvl.outcome.cut,
                &a.rvl.outcome.ed_sinks,
                &a.rvl.outcome.final_delays,
            ),
            (
                &a.grar.outcome.cut,
                &a.grar.outcome.ed_sinks,
                &a.grar.outcome.final_delays,
            ),
        ] {
            let rep = retime_sim::error_rate(cloud, delays, &case.clock, cut, ed, cfg);
            rates[col] = rep.rate_percent();
            row.push(format!("{:.2}", rep.rate_percent()));
            col += 1;
        }
    }
    (row, rates)
}

/// Percent improvement of `new` over `base` (positive = smaller/better).
pub fn pct_impr(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (base - new) / base
    }
}

/// Prints an aligned table with a title row.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("{line}");
    let header: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!(" {h:>w$} "))
        .collect();
    println!("{}", header.join("|"));
    println!("{line}");
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:>w$} "))
            .collect();
        println!("{}", cells.join("|"));
    }
    println!("{line}");
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Mean of a slice (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_runs_all_flows() {
        std::env::set_var("RETIME_SUITE", "tiny");
        let lib = Library::fdsoi28();
        let cases = load_suite(&lib);
        assert_eq!(cases.len(), 4);
        for case in &cases {
            let a = run_approaches(case, &lib, EdlOverhead::MEDIUM)
                .unwrap_or_else(|e| panic!("{} failed: {e}", case.circuit.spec.name));
            // The paper's headline ordering on sequential cost.
            assert!(
                a.grar.outcome.seq.total() <= a.base.seq.total() + 1e-6,
                "{}: G-RAR seq {} vs base {}",
                case.circuit.spec.name,
                a.grar.outcome.seq.total(),
                a.base.seq.total()
            );
        }
        std::env::remove_var("RETIME_SUITE");
    }

    #[test]
    fn parallel_suite_runs_are_deterministic() {
        // Two parallel runs over the same cases must yield identical
        // table rows, in the same order.
        let lib = Library::fdsoi28();
        let specs: Vec<_> = paper_suite().into_iter().take(3).collect();
        let cases: Vec<BenchCase> = specs.iter().map(|s| build_case(s, &lib)).collect();
        let row = |a: &Approaches| {
            vec![
                f2(a.base.seq.total()),
                f2(a.rvl.outcome.seq.total()),
                f2(a.grar.outcome.seq.total()),
                f2(a.grar.outcome.total_area),
                a.grar.targets.to_string(),
                a.grar.predicted_saved.to_string(),
            ]
        };
        let first: Vec<Vec<String>> = run_suite(&cases, &lib, EdlOverhead::MEDIUM)
            .iter()
            .map(|r| row(r.as_ref().expect("flows run")))
            .collect();
        let second: Vec<Vec<String>> = run_suite(&cases, &lib, EdlOverhead::MEDIUM)
            .iter()
            .map(|r| row(r.as_ref().expect("flows run")))
            .collect();
        assert_eq!(first, second);
        assert_eq!(first.len(), cases.len());
    }

    #[test]
    fn suite_mode_parses_known_values() {
        assert_eq!(SuiteMode::parse("full"), Ok(SuiteMode::Full));
        assert_eq!(SuiteMode::parse("small"), Ok(SuiteMode::Small));
        assert_eq!(SuiteMode::parse("tiny"), Ok(SuiteMode::Tiny));
    }

    #[test]
    fn suite_mode_warns_on_garbage_like_thread_override() {
        // The two env knobs fail the same way: a one-line
        // `warning: unrecognized <VAR> value "<raw>"; …` message.
        for raw in ["Tiny", "medium", ""] {
            let warning = SuiteMode::parse(raw).unwrap_err();
            assert!(
                warning.starts_with("warning: unrecognized RETIME_SUITE value"),
                "unexpected warning shape: {warning}"
            );
            assert!(warning.contains(&format!("{raw:?}")));
        }
        let threads = retime_engine::parse_thread_override("garbage").unwrap_err();
        assert!(threads.starts_with("warning: unrecognized RETIME_THREADS value"));
    }

    #[test]
    fn suite_mode_selects_slices() {
        let all = paper_suite();
        let n = all.len();
        assert_eq!(SuiteMode::Full.select(paper_suite()).len(), n);
        assert_eq!(SuiteMode::Tiny.select(paper_suite()).len(), 4);
        assert!(SuiteMode::Small
            .select(paper_suite())
            .iter()
            .all(|s| s.flops <= 200));
    }

    #[test]
    fn pct_impr_signs() {
        assert!(pct_impr(100.0, 90.0) > 0.0);
        assert!(pct_impr(100.0, 110.0) < 0.0);
        assert_eq!(pct_impr(0.0, 5.0), 0.0);
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
