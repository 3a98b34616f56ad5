//! The batch workloads — `grar_cold`, `sweep_all`, `convert_stat` — as
//! one pass in a fresh child process, the way the table binaries and
//! `retime-convert` run: each input once per process.

use std::path::{Path, PathBuf};
use std::time::Instant;

use retime_bench::{run_approaches_with, BenchCase, Certification, WarmSlots};
use retime_circuits::{paper_suite, CircuitSpec};
use retime_convert::{convert, Conversion, ConvertConfig};
use retime_core::{grar, GrarConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, Netlist, NodeId};
use retime_retime::{base_retime, RetimeOutcome};
use retime_sta::{DelayModel, StatParams, TwoPhaseClock};
use retime_trace::{render_profile, span, SpanRecord};
use retime_verify::FlowKind;
use retime_vl::{vl_retime, VlConfig, VlVariant};

use crate::layers;
use crate::mix::Rng;
use crate::report::{repeat_setup, vm_hwm_mib, write_trace, JobReport, PassReport};

/// Inputs whose outputs are certified by `retime-verify` on every run;
/// larger ones are pinned by `expected/seed-1.tsv` instead.
pub const CERTIFIED: [&str; 8] = [
    "s1196", "s1238", "s1423", "s1488", "s5378", "s9234", "s13207", "s15850",
];

/// `grar_cold`'s suite inputs (plus `synth4x`).
const GRAR_INPUTS: [&str; 4] = ["s35932", "s38417", "s38584", "plasma"];
/// `convert_stat`'s inputs, read back from EDIF text.
pub const CONVERT_INPUTS: [&str; 3] = ["s9234", "s13207", "s35932"];

/// s35932 scaled 4× (~41k cloud nodes), generated from `seed`.
pub fn synth4x(seed: u64) -> CircuitSpec {
    let base = suite_spec("s35932");
    CircuitSpec {
        name: "synth4x",
        flops: base.flops * 4,
        nce: base.nce * 4,
        gates: base.gates * 4,
        inputs: base.inputs * 4,
        outputs: base.outputs * 4,
        seed: Rng::new(seed).next_u64(),
        ..base
    }
}

fn suite_spec(name: &str) -> CircuitSpec {
    paper_suite()
        .into_iter()
        .find(|s| s.name == name)
        .expect("suite circuit")
}

/// Where `convert_stat`'s EDIF inputs live.
fn edif_path(out: &Path, name: &str) -> PathBuf {
    out.join("inputs").join(format!("{name}.edif"))
}

/// Writes `convert_stat`'s EDIF inputs — its set-up step.
fn write_edif_inputs(out: &Path) -> Result<f64, String> {
    std::fs::create_dir_all(out.join("inputs")).map_err(|e| format!("create inputs dir: {e}"))?;
    let mut build_ms = 0.0;
    for name in CONVERT_INPUTS {
        let tb = Instant::now();
        let circuit = suite_spec(name)
            .build()
            .map_err(|e| format!("build {name}: {e}"))?;
        build_ms += tb.elapsed().as_secs_f64() * 1e3;
        let text = retime_convert::edif::write(&circuit.netlist);
        std::fs::write(edif_path(out, name), text).map_err(|e| format!("write {name}: {e}"))?;
    }
    Ok(build_ms)
}

/// What a pass is asked to do besides timing its jobs.
pub struct PassOpts<'a> {
    pub workload: &'a str,
    pub seed: u64,
    /// Run the untimed checks: the G-RAR ≤ base comparison where the
    /// pass does not run base itself, certification, and for serve the
    /// in-process reference executions.
    pub check: bool,
    /// Certify every input, not only [`CERTIFIED`] ones.
    pub certify_all: bool,
    /// Record spans and report per-layer numbers.
    pub trace: bool,
    /// The short `--smoke` variant of the workload.
    pub smoke: bool,
    pub out: &'a Path,
}

/// One flow result inside a job.
struct FlowRun {
    flow: FlowKind,
    model: DelayModel,
    c: EdlOverhead,
    outcome: RetimeOutcome,
}

impl FlowRun {
    fn model_name(&self) -> &'static str {
        match self.model {
            DelayModel::Statistical(_) => "stat",
            _ => "path",
        }
    }

    /// `flow model c seq_cost edl slaves masters` — the row
    /// `expected/seed-1.tsv` pins for large inputs.
    fn row(&self) -> String {
        let s = &self.outcome.seq;
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.flow.name(),
            self.model_name(),
            self.c.value(),
            s.total(),
            s.edl,
            s.slaves,
            s.masters
        )
    }
}

/// The circuit a job's flows ran on.
struct Subject<'a> {
    netlist: &'a Netlist,
    cloud: &'a CombCloud,
    clock: TwoPhaseClock,
}

/// Where a job's circuit lives: a suite case built in set-up, or the
/// job's own conversion result.
enum Circuit<'a> {
    Case(&'a BenchCase),
    Converted(Box<Conversion>),
    /// The job failed before it had a circuit.
    Missing,
}

impl Circuit<'_> {
    fn subject(&self) -> Option<Subject<'_>> {
        match self {
            Circuit::Case(case) => Some(Subject {
                netlist: &case.circuit.netlist,
                cloud: &case.circuit.cloud,
                clock: case.clock,
            }),
            Circuit::Converted(conv) => Some(Subject {
                netlist: &conv.netlist,
                cloud: &conv.cloud,
                clock: conv.clock,
            }),
            Circuit::Missing => None,
        }
    }
}

/// A finished job: wall time, outputs, and what went wrong. Only the
/// first `timed` runs were measured and form the job's output; the rest
/// ran for the checks.
struct Job<'a> {
    input: String,
    ms: f64,
    circuit: Circuit<'a>,
    runs: Vec<FlowRun>,
    timed: usize,
    errors: Vec<String>,
}

/// Output checks that need no reference: a legal, path-safe cut that
/// meets timing, and G-RAR's sequential cost at most base's on the same
/// input, model and `c`.
fn cheap_checks(cloud: &CombCloud, runs: &[FlowRun], errors: &mut Vec<String>) {
    for r in runs {
        let what = format!("{}/{}/c={}", r.flow.name(), r.model_name(), r.c.value());
        if let Err(e) = r.outcome.cut.validate(cloud) {
            errors.push(format!("{what}: invalid cut: {e}"));
        }
        if !r.outcome.cut.check_paths(cloud) {
            errors.push(format!("{what}: a path crosses more than one slave"));
        }
        if !r.outcome.timing.is_feasible() {
            errors.push(format!("{what}: timing infeasible"));
        }
    }
    for g in runs.iter().filter(|r| r.flow == FlowKind::Grar) {
        let base = runs
            .iter()
            .find(|b| b.flow == FlowKind::Base && b.model == g.model && b.c == g.c);
        if let Some(b) = base {
            if g.outcome.seq.total() > b.outcome.seq.total() + 1e-9 {
                errors.push(format!(
                    "grar/{}/c={}: sequential cost {} above base {}",
                    g.model_name(),
                    g.c.value(),
                    g.outcome.seq.total(),
                    b.outcome.seq.total()
                ));
            }
        }
    }
}

/// Certifies one run with `retime-verify` (for statistical runs that
/// includes the Monte Carlo yield cross-check).
fn certify(lib: &Library, subject: &Subject<'_>, input: &str, run: &FlowRun) -> Result<(), String> {
    let label = format!("{input} [{}/{}]", run.flow.name(), run.model_name());
    Certification::of_netlist(
        subject.netlist,
        subject.cloud,
        subject.clock,
        run.c,
        run.flow,
        label,
    )
    .with_model(run.model)
    .run(lib, &mut run.outcome.clone())
    .map_err(|e| e.to_string())
}

fn digest(cloud: &CombCloud, runs: &[FlowRun]) -> String {
    let mut bytes = Vec::new();
    for r in runs {
        bytes.extend(r.row().into_bytes());
        bytes.extend((0..cloud.len()).map(|i| u8::from(r.outcome.cut.is_moved(NodeId(i as u32)))));
        bytes.extend(r.outcome.ed_sinks.iter().map(|&e| u8::from(e)));
    }
    retime_serve::sha256_hex(&bytes)
}

fn flow_error(e: impl std::fmt::Display) -> String {
    format!("flow failed: {e}")
}

/// The three flows as `retime-convert --retime` runs them, under `model`.
fn three_flows(
    subject: &Subject<'_>,
    lib: &Library,
    model: DelayModel,
    runs: &mut Vec<FlowRun>,
) -> Result<(), String> {
    let (cloud, clock, c) = (subject.cloud, subject.clock, EdlOverhead::MEDIUM);
    let base = {
        let _s = span("retime.base_retime");
        base_retime(cloud, lib, clock, model, c).map_err(|e| e.to_string())?
    };
    let vl = {
        let _s = span("vl.vl_retime");
        vl_retime(
            cloud,
            lib,
            clock,
            &VlConfig::new(VlVariant::Rvl, c).with_model(model),
        )
        .map_err(|e| e.to_string())?
    };
    let g = {
        let _s = span("core.grar");
        grar(cloud, lib, clock, &GrarConfig::new(c).with_model(model)).map_err(|e| e.to_string())?
    };
    for (flow, outcome) in [
        (FlowKind::Base, base),
        (FlowKind::Vl, vl.outcome),
        (FlowKind::Grar, g.outcome),
    ] {
        runs.push(FlowRun {
            flow,
            model,
            c,
            outcome,
        });
    }
    Ok(())
}

/// Builds and calibrates suite-style inputs, the table binaries' set-up
/// (`build_case`, split so each half is timed).
fn build_cases(specs: &[CircuitSpec], lib: &Library) -> Result<(Vec<BenchCase>, f64, f64), String> {
    let (mut build_ms, mut calibrate_ms) = (0.0, 0.0);
    let mut cases = Vec::with_capacity(specs.len());
    for spec in specs {
        let t0 = Instant::now();
        let circuit = {
            let _s = span("circuits.build");
            spec.build()
                .map_err(|e| format!("build {}: {e}", spec.name))?
        };
        let t1 = Instant::now();
        let clock = {
            let _s = span("sta.calibrate");
            circuit
                .calibrated_clock(lib, DelayModel::PathBased)
                .map_err(|e| format!("calibrate {}: {e}", spec.name))?
        };
        build_ms += (t1 - t0).as_secs_f64() * 1e3;
        calibrate_ms += t1.elapsed().as_secs_f64() * 1e3;
        cases.push(BenchCase {
            circuit,
            clock,
            setup_time: t0.elapsed(),
        });
    }
    Ok((cases, build_ms, calibrate_ms))
}

/// Opens the traced pass's per-job root span.
pub fn job_span(input: &str, id: &str) -> retime_trace::SpanGuard {
    let guard = span("job");
    retime_trace::attr_str("input", input);
    retime_trace::attr_str("job_id", id);
    guard
}

/// Collects the spans a job closed; with tracing on, appends the job's
/// self-time profile.
fn harvest(input: &str, records: &mut Vec<SpanRecord>, profiles: &mut String) {
    if !retime_trace::enabled() {
        return;
    }
    let job = retime_trace::take_records();
    profiles.push_str(&format!("## {input}\n{}\n", render_profile(&job, 14)));
    records.extend(job);
}

/// The flow runs of one job, timed as a whole.
fn run_job(
    opts: &PassOpts<'_>,
    lib: &Library,
    case: &BenchCase,
    id: usize,
) -> (Vec<FlowRun>, Vec<String>) {
    let input = case.circuit.spec.name;
    let (cloud, clock) = (&case.circuit.cloud, case.clock);
    let mut runs = Vec::new();
    let mut errors = Vec::new();
    let _job = job_span(input, &id.to_string());
    if opts.workload == "grar_cold" {
        let _s = span("core.grar");
        match grar(cloud, lib, clock, &GrarConfig::new(EdlOverhead::MEDIUM)) {
            Ok(g) => runs.push(FlowRun {
                flow: FlowKind::Grar,
                model: DelayModel::PathBased,
                c: EdlOverhead::MEDIUM,
                outcome: g.outcome,
            }),
            Err(e) => errors.push(flow_error(e)),
        }
        return (runs, errors);
    }
    let mut slots = WarmSlots::default();
    for c in EdlOverhead::SWEEP {
        let _s = span("bench.run_approaches_with");
        match run_approaches_with(case, lib, c, &mut slots) {
            Ok(a) => {
                for (flow, outcome) in [
                    (FlowKind::Base, a.base),
                    (FlowKind::Vl, a.rvl.outcome),
                    (FlowKind::Grar, a.grar.outcome),
                ] {
                    runs.push(FlowRun {
                        flow,
                        model: DelayModel::PathBased,
                        c,
                        outcome,
                    });
                }
            }
            Err(e) => errors.push(flow_error(e)),
        }
    }
    (runs, errors)
}

/// One `retime-convert --retime` style job: read and parse the EDIF
/// text, convert, then the three flows under both delay models.
fn convert_job(
    opts: &PassOpts<'_>,
    lib: &Library,
    input: &str,
    id: usize,
    edif_bytes: &mut usize,
) -> (Result<Conversion, String>, Vec<FlowRun>) {
    let mut runs = Vec::new();
    let _job = job_span(input, &id.to_string());
    let conv = std::fs::read_to_string(edif_path(opts.out, input))
        .map_err(|e| format!("read {input}.edif: {e}"))
        .and_then(|text| {
            *edif_bytes += text.len();
            let _s = span("convert.edif_parse");
            retime_convert::edif::parse(&text).map_err(|e| e.to_string())
        })
        .and_then(|source| {
            let _s = span("convert.convert");
            convert(&source, lib, &ConvertConfig::default()).map_err(|e| e.to_string())
        })
        .and_then(|conv| {
            let subject = Subject {
                netlist: &conv.netlist,
                cloud: &conv.cloud,
                clock: conv.clock,
            };
            three_flows(&subject, lib, DelayModel::PathBased, &mut runs)?;
            let stat = DelayModel::Statistical(StatParams::DEFAULT);
            three_flows(&subject, lib, stat, &mut runs)?;
            Ok(conv)
        });
    (conv, runs)
}

/// Runs one batch pass: set-up, the jobs back to back (each timed), then
/// the untimed checks.
///
/// # Errors
/// Set-up failures; flow failures and failed checks are reported per job.
pub fn run_pass(opts: &PassOpts<'_>) -> Result<PassReport, String> {
    let lib = Library::fdsoi28();
    retime_trace::set_enabled(opts.trace);
    let mut report = PassReport::default();
    let mut records = Vec::new();
    let mut profiles = String::new();
    let mut edif_bytes = 0usize;
    let certified = |input: &str| opts.check && (opts.certify_all || CERTIFIED.contains(&input));

    let (cases, setup_s) = match opts.workload {
        "grar_cold" | "sweep_all" => {
            let mut specs: Vec<CircuitSpec> = if opts.workload == "grar_cold" {
                GRAR_INPUTS.iter().map(|n| suite_spec(n)).collect()
            } else {
                paper_suite()
            };
            if opts.workload == "grar_cold" {
                specs.push(synth4x(opts.seed));
            }
            let ((cases, b, c), t) = repeat_setup(|| build_cases(&specs, &lib), drop)?;
            (report.build_ms, report.calibrate_ms) = (b, c);
            (cases, t)
        }
        "convert_stat" => {
            let (build_ms, t) = repeat_setup(|| write_edif_inputs(opts.out), drop)?;
            report.build_ms = build_ms;
            (Vec::new(), t)
        }
        other => return Err(format!("no batch workload {other:?}")),
    };
    report.setup_s = setup_s;
    harvest("setup", &mut records, &mut profiles);

    let mut jobs: Vec<Job<'_>> = Vec::new();
    for (id, case) in cases.iter().enumerate() {
        let t = Instant::now();
        let (runs, errors) = run_job(opts, &lib, case, id);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let input = case.circuit.spec.name;
        harvest(input, &mut records, &mut profiles);
        jobs.push(Job {
            input: input.to_string(),
            ms,
            circuit: Circuit::Case(case),
            timed: runs.len(),
            runs,
            errors,
        });
    }
    if opts.workload == "convert_stat" {
        for (id, input) in CONVERT_INPUTS.into_iter().enumerate() {
            let t = Instant::now();
            let (conv, runs) = convert_job(opts, &lib, input, id, &mut edif_bytes);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            harvest(input, &mut records, &mut profiles);
            let (circuit, errors) = match conv {
                Ok(conv) => (Circuit::Converted(Box::new(conv)), Vec::new()),
                Err(e) => (Circuit::Missing, vec![e]),
            };
            jobs.push(Job {
                input: input.to_string(),
                ms,
                circuit,
                timed: runs.len(),
                runs,
                errors,
            });
        }
    }
    retime_trace::set_enabled(false);
    report.rss_mib = vm_hwm_mib();
    report.pass_s = jobs.iter().map(|j| j.ms).sum::<f64>() / 1e3;

    // Untimed checks. grar_cold runs no base flow, so the G-RAR <= base
    // comparison gets one here; then the cheap checks on every job, and
    // certification (in parallel, one item per flow run) on the
    // certified inputs.
    let tc = Instant::now();
    if opts.check && opts.workload == "grar_cold" {
        for job in &mut jobs {
            let Circuit::Case(case) = job.circuit else {
                continue;
            };
            let c = EdlOverhead::MEDIUM;
            match base_retime(
                &case.circuit.cloud,
                &lib,
                case.clock,
                DelayModel::PathBased,
                c,
            ) {
                Ok(outcome) => job.runs.push(FlowRun {
                    flow: FlowKind::Base,
                    model: DelayModel::PathBased,
                    c,
                    outcome,
                }),
                Err(e) => job.errors.push(flow_error(e)),
            }
        }
    }
    let mut items = Vec::new();
    for (j, job) in jobs.iter_mut().enumerate() {
        if let Some(subject) = job.circuit.subject() {
            cheap_checks(subject.cloud, &job.runs, &mut job.errors);
            if certified(&job.input) {
                items.extend((0..job.runs.len()).map(|r| (j, r)));
            }
        }
    }
    let verdicts = retime_engine::parallel_map(0, &items, |&(j, r)| {
        let job = &jobs[j];
        let subject = job
            .circuit
            .subject()
            .expect("certified jobs have a circuit");
        certify(&lib, &subject, &job.input, &job.runs[r])
    });
    for (&(j, _), verdict) in items.iter().zip(verdicts) {
        if let Err(e) = verdict {
            jobs[j].errors.push(e);
        }
    }
    report.check_s = tc.elapsed().as_secs_f64();

    report.jobs = jobs
        .iter()
        .map(|j| {
            let timed = &j.runs[..j.timed];
            JobReport {
                id: j.input.clone(),
                input: j.input.clone(),
                ms: j.ms,
                digest: j
                    .circuit
                    .subject()
                    .map_or_else(String::new, |s| digest(s.cloud, timed)),
                rows: timed.iter().map(FlowRun::row).collect(),
                errors: j.errors.clone(),
                hit: None,
            }
        })
        .collect();
    if opts.trace {
        report.layers = layers::from_records(&records);
        let parse_ms = report.layers["convert.edif_parse_ms"];
        if parse_ms > 0.0 {
            report.layers.insert(
                "convert.edif_mib_per_s".into(),
                edif_bytes as f64 / (1024.0 * 1024.0) / (parse_ms / 1e3),
            );
        }
        write_trace(opts.out, opts.workload, &records)?;
        let profile_path = opts.out.join(format!("{}.profile.txt", opts.workload));
        std::fs::write(&profile_path, profiles)
            .map_err(|e| format!("write {}: {e}", profile_path.display()))?;
    }
    Ok(report)
}
