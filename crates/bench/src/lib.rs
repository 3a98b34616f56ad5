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
//! Each binary parses one [`RunConfig`] first thing in `main`
//! ([`RunConfig::from_env`]; every `RETIME_*` knob is listed in
//! [`config`]) and passes it down. `RETIME_SUITE` selects the workload:
//! `full` (default — all twelve circuits), `small` (≤ 200 flip-flops),
//! or `tiny` (the four smallest; used by the smoke tests).
//!
//! With `RETIME_VERIFY=1`, the binaries certify every flow result with
//! the independent checker of `retime-verify` (ILP feasibility,
//! optimality for G-RAR, timing/EDL/area recount, and functional
//! equivalence under random stimulus) before it is tabulated, through
//! [`Approaches::certify`] or [`Certification::run`]; the verification
//! wall-clock shows up as the `verify` phase of each outcome's
//! instrumentation. The library's flow runners never certify on their
//! own.
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

pub mod config;

pub use config::{RunConfig, SuiteMode};

use retime_circuits::{paper_suite, SuiteCircuit};
use retime_core::{grar, grar_with_basis, GrarConfig, GrarReport};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, Netlist};
use retime_retime::{
    base_retime, base_retime_with_basis, flop_design_area, AreaModel, BasisSlot, FlowBasis,
    RetimeError, RetimeOutcome,
};
use retime_sta::{is_error_detecting, DelayModel, TwoPhaseClock};
use retime_verify::{
    verify_certificate, verify_retiming_solution, FlowKind, VerifyOptions, VerifySetup,
};
use retime_vl::{vl_retime, vl_retime_with_basis, VlConfig, VlReport, VlVariant};

/// A suite circuit with its calibrated clock.
pub struct BenchCase {
    /// The built circuit.
    pub circuit: SuiteCircuit,
    /// Clock calibrated to the published NCE target.
    pub clock: TwoPhaseClock,
    /// Time spent generating + calibrating.
    pub setup_time: std::time::Duration,
}

/// Loads the `suite` slice of the benchmark suite, building and
/// calibrating the circuits in parallel (`RETIME_THREADS` caps the
/// fan-out). Case order always follows the suite definition regardless
/// of thread count.
///
/// # Panics
/// Panics if a circuit fails to build — the suite is deterministic, so
/// this only happens on programming errors.
pub fn load_suite(suite: SuiteMode, lib: &Library) -> Vec<BenchCase> {
    let specs = suite.select(paper_suite());
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

/// One certification request against the independent checker of
/// `retime-verify`, which callers issue when [`RunConfig::verify`] is
/// set.
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
}

impl Approaches {
    /// Certifies all three outcomes against `model`, the delay model
    /// that drove them (statistical certificates include the exact
    /// `StatSummary` replay and the Monte Carlo yield cross-check).
    ///
    /// # Errors
    /// Returns the first rejected certificate.
    pub fn certify(
        &mut self,
        case: &BenchCase,
        lib: &Library,
        c: EdlOverhead,
        model: DelayModel,
    ) -> Result<(), RetimeError> {
        for (kind, label, outcome) in [
            (FlowKind::Base, "base", &mut self.base),
            (FlowKind::Vl, "rvl", &mut self.rvl.outcome),
            (FlowKind::Grar, "grar", &mut self.grar.outcome),
        ] {
            Certification::of_case(case, c, kind, label)
                .with_model(model)
                .run(lib, outcome)?;
        }
        Ok(())
    }
}

/// Runs one flow on `cloud` under `model`, uncertified, through the
/// library entry point a direct call uses: [`base_retime`], RVL-RAR
/// ([`vl_retime`] with [`VlVariant::Rvl`]) or [`grar`]. The one
/// [`FlowKind`] dispatch of the serve daemon, `retime-convert --retime`
/// and their tests.
///
/// # Errors
/// Propagates flow failures.
pub fn run_flow(
    flow: FlowKind,
    cloud: &CombCloud,
    lib: &Library,
    clock: TwoPhaseClock,
    model: DelayModel,
    c: EdlOverhead,
) -> Result<RetimeOutcome, RetimeError> {
    match flow {
        FlowKind::Base => base_retime(cloud, lib, clock, model, c),
        FlowKind::Vl => vl_retime(
            cloud,
            lib,
            clock,
            &VlConfig::new(VlVariant::Rvl, c).with_model(model),
        )
        .map(|r| r.outcome),
        FlowKind::Grar => {
            grar(cloud, lib, clock, &GrarConfig::new(c).with_model(model)).map(|r| r.outcome)
        }
    }
}

/// Runs base retiming, RVL-RAR, and G-RAR on one case under `model`,
/// uncertified (see [`Approaches::certify`]).
///
/// # Errors
/// Propagates flow failures.
pub fn run_approaches(
    case: &BenchCase,
    lib: &Library,
    c: EdlOverhead,
    model: DelayModel,
) -> Result<Approaches, RetimeError> {
    let cloud = &case.circuit.cloud;
    let base = base_retime(cloud, lib, case.clock, model, c)?;
    let rvl = vl_retime(
        cloud,
        lib,
        case.clock,
        &VlConfig::new(VlVariant::Rvl, c).with_model(model),
    )?;
    let grar = grar(
        cloud,
        lib,
        case.clock,
        &GrarConfig::new(c).with_model(model),
    )?;
    Ok(Approaches { base, rvl, grar })
}

/// The table binaries' shape: [`run_approaches`], certified when
/// `verify` is set ([`RunConfig::verify`]).
///
/// # Panics
/// Panics if a flow fails (the suite circuits are always feasible) or a
/// certificate is rejected.
pub fn table_flows(
    case: &BenchCase,
    lib: &Library,
    c: EdlOverhead,
    model: DelayModel,
    verify: bool,
) -> Approaches {
    let mut a = run_approaches(case, lib, c, model).expect("flows run");
    if verify {
        a.certify(case, lib, c, model)
            .expect("certificate accepted");
    }
    a
}

/// What an overhead sweep on one case keeps between its probes.
///
/// The overhead `c` moves only G-RAR's pseudo-target weights and the
/// area bill, so the slots hold the case's [`FlowBasis`] (its timing
/// analysis, regions and sink classifications), which every flow run
/// shares, and the first probe's base and RVL-RAR results, which later
/// probes re-price ([`RetimeOutcome::repriced`]) instead of re-running.
/// The basis also keeps G-RAR's Eq. 14 instance with its solved min
/// cut: each later G-RAR probe re-prices the pseudo targets and resumes
/// the cut ([`grar_with_basis`]).
///
/// The slots borrow the case's cloud and the library. A probe for
/// another case, library or clock clears them all first.
#[derive(Default)]
pub struct WarmSlots<'a> {
    basis: Option<FlowBasis<'a>>,
    base_outcome: Option<RetimeOutcome>,
    rvl_report: Option<VlReport>,
}

impl WarmSlots<'_> {
    /// Certifies G-RAR's kept instance as last solved against its
    /// problem ([`verify_retiming_solution`]): the resumed labels must
    /// satisfy the ILP, agree with the cut and the objective, and reach
    /// the optimum a checked min-cut certificate proves. Base retiming
    /// and RVL-RAR keep no instance; their one run per case is certified
    /// through [`Approaches::certify`].
    ///
    /// # Errors
    /// Surfaces a rejected certificate as an internal error.
    pub fn certify(&self) -> Result<(), RetimeError> {
        let grar = self
            .basis
            .as_ref()
            .and_then(FlowBasis::targeted)
            .and_then(|kept| kept.problem.last_solved());
        let Some((problem, warm)) = grar else {
            return Ok(());
        };
        verify_retiming_solution(problem, warm)
            .map_err(|e| RetimeError::Internal(format!("grar warm certificate rejected: {e}")))
    }
}

/// [`run_approaches`] under the path-based model for one probe of an
/// overhead sweep — the call sites (Table IV and V, the benchmark's
/// sweep) keep one [`WarmSlots`] per case. Every probe runs G-RAR on
/// the shared basis; the first probe then runs base retiming and
/// RVL-RAR and keeps their results, and later probes re-price them at
/// the new `c`. Every outcome is bit-identical to [`run_approaches`]'
/// at the same `c`. Uncertified, like [`run_approaches`]; certify the
/// kept G-RAR solution with [`WarmSlots::certify`].
///
/// # Errors
/// Propagates flow failures.
pub fn run_approaches_with<'a>(
    case: &'a BenchCase,
    lib: &'a Library,
    c: EdlOverhead,
    slots: &mut WarmSlots<'a>,
) -> Result<Approaches, RetimeError> {
    let cloud = &case.circuit.cloud;
    let model = DelayModel::PathBased;
    if !slots
        .basis
        .as_ref()
        .is_some_and(|b| b.is_for(cloud, lib, case.clock, model))
    {
        *slots = WarmSlots::default();
    }
    // G-RAR first: its min cut is the largest allocation of a probe,
    // and it then runs while no other result of the probe is alive.
    let grar = grar_with_basis(
        cloud,
        lib,
        case.clock,
        &GrarConfig::new(c),
        BasisSlot::Shared(&mut slots.basis),
    )?;
    let area = AreaModel::new(lib, c);
    let base = match &slots.base_outcome {
        Some(first) => first.repriced(cloud, &area),
        None => base_retime_with_basis(
            cloud,
            lib,
            case.clock,
            model,
            c,
            BasisSlot::Shared(&mut slots.basis),
        )?,
    };
    let rvl = match &slots.rvl_report {
        Some(first) => VlReport {
            outcome: first.outcome.repriced(cloud, &area),
            ..*first
        },
        None => vl_retime_with_basis(
            cloud,
            lib,
            case.clock,
            &VlConfig::new(VlVariant::Rvl, c),
            BasisSlot::Shared(&mut slots.basis),
        )?,
    };
    slots.base_outcome.get_or_insert_with(|| base.clone());
    slots.rvl_report.get_or_insert_with(|| rvl.clone());
    Ok(Approaches { base, rvl, grar })
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

/// The cells of one case of the Table IV and V layout — per EDL
/// overhead of [`EdlOverhead::SWEEP`]: base, RVL, RVL improvement %,
/// G-RAR, G-RAR improvement % of `area` — plus the improvement
/// percentages (RVL, G-RAR per overhead) for the table's average row.
/// The sweep keeps one [`WarmSlots`] per case; with `verify`, every
/// outcome and G-RAR's kept solution are certified first. Table IV
/// reads the sequential area, Table V the total area; shared by both
/// binaries and the golden snapshot test.
///
/// # Panics
/// Panics if a flow fails (the suite circuits are always feasible) or a
/// certificate is rejected.
pub fn area_row(
    case: &BenchCase,
    lib: &Library,
    verify: bool,
    area: fn(&RetimeOutcome) -> f64,
) -> (Vec<String>, [f64; 6]) {
    let mut row = vec![case.circuit.spec.name.to_string()];
    let mut impr = [0.0f64; 6];
    let mut slots = WarmSlots::default();
    for (k, c) in EdlOverhead::SWEEP.into_iter().enumerate() {
        let mut a = run_approaches_with(case, lib, c, &mut slots).expect("flows run");
        if verify {
            a.certify(case, lib, c, DelayModel::PathBased)
                .and_then(|()| slots.certify())
                .expect("certificate accepted");
        }
        let base = area(&a.base);
        let rvl = area(&a.rvl.outcome);
        let g = area(&a.grar.outcome);
        impr[2 * k] = pct_impr(base, rvl);
        impr[2 * k + 1] = pct_impr(base, g);
        row.extend([
            f2(base),
            f2(rvl),
            f2(impr[2 * k]),
            f2(g),
            f2(impr[2 * k + 1]),
        ]);
    }
    (row, impr)
}

/// The `average` row under [`area_row`]'s layout, from the means of its
/// improvement percentages.
pub fn area_average_row(means: [f64; 6]) -> Vec<String> {
    let mut avg = vec!["average".to_string()];
    for pair in means.chunks(2) {
        avg.extend([
            String::new(),
            String::new(),
            f2(pair[0]),
            String::new(),
            f2(pair[1]),
        ]);
    }
    avg
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
/// can only hurt). With `verify`, the three outcomes are certified
/// first. Shared by the `table4` binary's statistical section and its
/// golden snapshot test.
///
/// # Panics
/// Panics if a flow fails, a certificate is rejected, `model` is not
/// statistical, or the outcome carries no summary.
pub fn table4_stat_row(
    case: &BenchCase,
    lib: &Library,
    model: DelayModel,
    verify: bool,
) -> Vec<String> {
    assert!(
        matches!(model, DelayModel::Statistical(_)),
        "table4_stat_row wants a statistical model"
    );
    let a = table_flows(case, lib, EdlOverhead::MEDIUM, model, verify);
    let outcome = &a.grar.outcome;
    let stat = outcome
        .stat
        .as_ref()
        .expect("statistical mode attaches a summary");
    let margin = retime_stat::StatMargin::new(&outcome.final_delays, &case.clock);
    let worst_uncovered = (0..stat.arrivals.len())
        .filter(|&i| !is_error_detecting(margin.margined(&stat.arrivals[i]), &case.clock))
        .min_by(|&i, &j| stat.yields[i].total_cmp(&stat.yields[j]));
    let (cov_yield, cov_sens) = worst_uncovered.map_or((1.0, 0.0), |i| {
        (stat.yields[i], margin.jitter_sensitivity(&stat.arrivals[i]))
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
/// table's average row. With `verify`, the flows are certified first.
/// Shared by the `table8` binary and the golden snapshot test.
///
/// # Panics
/// Panics if a flow fails (the suite circuits are always feasible) or a
/// certificate is rejected.
pub fn table8_row(
    case: &BenchCase,
    lib: &Library,
    cfg: &retime_sim::ErrorRateConfig,
    verify: bool,
) -> (Vec<String>, [f64; 9]) {
    let cloud = &case.circuit.cloud;
    let mut row = vec![case.circuit.spec.name.to_string()];
    let mut rates = [0.0f64; 9];
    let mut col = 0;
    for c in EdlOverhead::SWEEP {
        let a = table_flows(case, lib, c, DelayModel::PathBased, verify);
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

/// Splits per-case `(row, values)` pairs into the table rows and, per
/// value column, the mean over the cases, for the table's average row.
pub fn rows_and_means<const N: usize>(
    per_case: Vec<(Vec<String>, [f64; N])>,
) -> (Vec<Vec<String>>, [f64; N]) {
    let means =
        std::array::from_fn(|k| mean(&per_case.iter().map(|(_, v)| v[k]).collect::<Vec<_>>()));
    (per_case.into_iter().map(|(row, _)| row).collect(), means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_runs_all_flows() {
        let lib = Library::fdsoi28();
        let cases = load_suite(SuiteMode::Tiny, &lib);
        assert_eq!(cases.len(), 4);
        for case in &cases {
            let a = run_approaches(case, &lib, EdlOverhead::MEDIUM, DelayModel::PathBased)
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
        let run = || {
            map_cases(&cases, |case| {
                row(&table_flows(
                    case,
                    &lib,
                    EdlOverhead::MEDIUM,
                    DelayModel::PathBased,
                    false,
                ))
            })
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert_eq!(first.len(), cases.len());
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
