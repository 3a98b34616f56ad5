//! `bench_e2e` — one end-to-end benchmark of the default paths: the
//! G-RAR table flow, the Table IV overhead sweep, `retime-serve` inline
//! submissions, and `retime-convert --retime` with the statistical mode.
//!
//! ```text
//! bench_e2e run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!               [--json PATH] [--smoke] [--certify-all]
//! bench_e2e compare BASE.json NEW.json
//! ```
//!
//! `run` prints every metric as `workload metric value unit (n=samples)`
//! and, last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). It exits non-zero when any output check fails. `BENCHMARK.json`'s
//! command is `run`, given `--workload`, `--seed`, `--seconds` and
//! `--trace` once per workload. See README.md.

mod batch;
mod compare;
mod layers;
mod metrics;
mod mix;
mod report;
mod serve;
mod stats;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use retime_trace::json::{obj, Json};

use metrics::{Metric, END_TO_END, SERVE_GATED};
use report::{JobReport, PassReport, SETUP_REPS};
use stats::{median, percentile, tail_permille};

/// The four workloads, in report order.
const WORKLOADS: [&str; 4] = ["grar_cold", "sweep_all", "serve_inline", "convert_stat"];

/// Threads every flow and the serve pool use: the load is sized for a
/// 2-core machine.
const THREADS: usize = 2;

/// Default `--seconds`: `BENCHMARK.json`'s `run_seconds`, which the
/// benchmark command is run with.
const RUN_SECONDS: f64 = 25.0;

/// Measured serve passes per run, at most: it keeps a run's requests
/// under 1000, so the tail rule's percentile is the one `SERVE_TAIL`
/// names.
const MAX_SERVE_PASSES: usize = 4;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/seed-1.tsv")
}

struct RunOpts {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    smoke: bool,
    certify_all: bool,
}

/// A workload's outcome: counts, both metric sets, and the failures.
struct WorkloadResult {
    name: String,
    attempted: usize,
    errors: Vec<String>,
    failed: usize,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    /// Reported beside the end-to-end set but not gated.
    extra: Vec<Metric>,
    /// `(input, row)` outputs of the large inputs, for `expected/`.
    rows: Vec<(String, String)>,
}

fn main() {
    // Every flow reads its thread count from the environment; pin it and
    // drop any other knob so runs measure the defaults.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("RETIME_") {
            std::env::remove_var(&k);
        }
    }
    std::env::set_var("RETIME_THREADS", THREADS.to_string());

    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => run(&opts),
            Err(e) => usage(&e),
        },
        Some("pass") => pass(&args[1..]),
        Some("compare") if args.len() == 3 => match compare::run(&args[1], &args[2]) {
            Ok(regressed) => i32::from(regressed),
            Err(e) => {
                eprintln!("bench_e2e compare: {e}");
                2
            }
        },
        _ => usage("expected `run`, or `compare BASE.json NEW.json`"),
    };
    std::process::exit(code);
}

fn usage(msg: &str) -> i32 {
    eprintln!(
        "bench_e2e: {msg}\nusage: bench_e2e run [--workload {}] [--seed N] [--seconds S] \
         [--trace 0|1] [--json PATH] [--smoke] [--certify-all]\n       bench_e2e compare BASE.json NEW.json",
        WORKLOADS.join("|")
    );
    2
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        json: None,
        smoke: false,
        certify_all: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                opts.workloads = vec![w.clone()];
            }
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds wants a positive number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--json" => opts.json = Some(value()?.clone()),
            "--smoke" => opts.smoke = true,
            "--certify-all" => opts.certify_all = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.certify_all && opts.workloads.len() != WORKLOADS.len() {
        return Err(
            "--certify-all rewrites expected/seed-1.tsv for every workload; drop --workload".into(),
        );
    }
    Ok(opts)
}

fn run(opts: &RunOpts) -> i32 {
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("bench_e2e: cannot create {}: {e}", out.display());
        return 1;
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# bench_e2e seed={} seconds={} trace={} smoke={} available_parallelism={parallelism} threads={THREADS}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.smoke
    );
    let expected = if opts.seed == 1 && !opts.certify_all {
        match load_expected() {
            Ok(rows) => Some(rows),
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                return 1;
            }
        }
    } else {
        None
    };
    let mut results = Vec::new();
    for w in &opts.workloads {
        let mut r = run_workload(opts, w);
        if let Some(expected) = &expected {
            check_expected(&mut r, expected);
        }
        r.failed = r.failed.max(usize::from(!r.errors.is_empty()));
        for m in r.e2e.iter().chain(&r.extra).chain(&r.layers) {
            println!("{}", m.line(&r.name));
        }
        for e in r.errors.iter().take(20) {
            eprintln!("{} FAILED: {e}", r.name);
        }
        results.push(r);
    }
    let correct = results.iter().all(|r| r.errors.is_empty());
    if opts.certify_all && correct && opts.seed == 1 {
        if let Err(e) = write_expected(&results) {
            eprintln!("bench_e2e: {e}");
            return 1;
        }
    }
    if let Some(path) = &opts.json {
        let doc = result_json(opts, parallelism, &results);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("bench_e2e: cannot write {path}: {e}");
            return 1;
        }
    }
    let single = results.len() == 1;
    let metrics: Vec<(String, Json)> = results
        .iter()
        .flat_map(|r| {
            let set = if opts.trace { &r.layers } else { &r.e2e };
            set.iter().map(move |m| {
                let name = if single {
                    m.name.clone()
                } else {
                    format!("{}.{}", r.name, m.name)
                };
                (
                    name,
                    obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
        })
        .collect();
    println!(
        "{}",
        obj(vec![
            ("correct", Json::Bool(correct)),
            (
                "attempted",
                Json::Num(results.iter().map(|r| r.attempted).sum::<usize>() as f64)
            ),
            (
                "failed",
                Json::Num(results.iter().map(|r| r.failed).sum::<usize>() as f64)
            ),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    );
    i32::from(!correct)
}

fn result_json(opts: &RunOpts, parallelism: usize, results: &[WorkloadResult]) -> Json {
    obj(vec![
        ("bench", Json::Str("bench_e2e".into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("smoke", Json::Bool(opts.smoke)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("threads", Json::Num(THREADS as f64)),
        (
            "workloads",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("name", Json::Str(r.name.clone())),
                            ("correct", Json::Bool(r.errors.is_empty())),
                            ("attempted", Json::Num(r.attempted as f64)),
                            ("failed", Json::Num(r.failed as f64)),
                            (
                                "metrics",
                                Json::Arr(
                                    r.e2e
                                        .iter()
                                        .chain(&r.extra)
                                        .chain(&r.layers)
                                        .map(Metric::to_json)
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The end-to-end metrics: the fastest set-up of the run, jobs of one
/// pass over the median pass time (nearest rank), and the median of the
/// passes' peak RSS.
///
/// Set-up takes tens of milliseconds, and on a shared 2-vCPU machine all
/// of a pass's set-ups can fall in a stretch where the host runs this
/// process 1.5–1.8× slower; the fastest of all of them is the set-up
/// cost, where a median would jump with the share of slow stretches.
fn end_to_end(passes: &[PassReport]) -> Vec<Metric> {
    let [setup, jobs_per_s, rss] = END_TO_END;
    let each = |f: fn(&PassReport) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let n = passes.len();
    let jobs = passes.first().map_or(0, |p| p.jobs.len()) as f64;
    let pass_s = each(|p| p.pass_s);
    vec![
        Metric::new(
            setup.name,
            each(|p| p.setup_s)
                .into_iter()
                .fold(f64::INFINITY, f64::min),
            setup.unit,
            n * SETUP_REPS,
            each(|p| p.setup_s),
        ),
        Metric::new(
            jobs_per_s.name,
            jobs / percentile(&pass_s, 500),
            jobs_per_s.unit,
            n,
            pass_s.iter().map(|s| jobs / s).collect(),
        ),
        Metric::new(
            rss.name,
            median(&each(|p| p.rss_mib)),
            rss.unit,
            n,
            each(|p| p.rss_mib),
        ),
    ]
}

/// `serve_inline`'s request latencies: over every request of the run, and
/// as each pass measured them. The tail is the percentile the tail rule
/// picks for the run's request count.
fn serve_latencies(passes: &[PassReport]) -> Vec<Metric> {
    let pick = |keep: fn(&JobReport) -> bool| -> Vec<Vec<f64>> {
        passes
            .iter()
            .map(|p| p.jobs.iter().filter(|j| keep(j)).map(|j| j.ms).collect())
            .collect()
    };
    let latency = |name: &str, per: Vec<Vec<f64>>, permille: usize| {
        let all = per.concat();
        Metric::new(
            name,
            percentile(&all, permille),
            "ms",
            all.len(),
            per.iter().map(|v| percentile(v, permille)).collect(),
        )
    };
    let all = pick(|_| true);
    let tail = tail_permille(all.iter().map(Vec::len).sum());
    let [p50, p_tail, hit, miss] = SERVE_GATED.map(|d| d.name);
    vec![
        latency(p50, all.clone(), 500),
        latency(p_tail, all, tail),
        latency(hit, pick(|j| j.hit == Some(true)), 500),
        latency(miss, pick(|j| j.hit == Some(false)), 500),
    ]
}

/// Runs one pass in a fresh child process (`bench_e2e pass ...`), the way
/// the table binaries, `retime-convert` and a newly started daemon run:
/// every pass starts cold and reports its own peak RSS. Returns the
/// report and the pass's wall time, s.
fn run_pass(
    opts: &RunOpts,
    workload: &str,
    check: bool,
    trace: bool,
) -> Result<(PassReport, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "pass",
        "--workload",
        workload,
        "--seed",
        &opts.seed.to_string(),
    ]);
    for (on, flag) in [
        (check, "--check"),
        (opts.certify_all, "--certify-all"),
        (trace, "--trace"),
        (opts.smoke, "--smoke"),
    ] {
        if on {
            cmd.arg(flag);
        }
    }
    let t = Instant::now();
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("pass exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Ok((
        PassReport::parse(text.lines().last().unwrap_or_default())?,
        wall,
    ))
}

/// The child side of [`run_pass`]: one pass, reported as a JSON line.
fn pass(args: &[String]) -> i32 {
    let mut workload = String::new();
    let mut seed = 1;
    let (mut check, mut certify_all, mut trace, mut smoke) = (false, false, false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = it.next().cloned().unwrap_or_default(),
            "--seed" => seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(1),
            "--check" => check = true,
            "--certify-all" => certify_all = true,
            "--trace" => trace = true,
            "--smoke" => smoke = true,
            _ => return usage(&format!("pass: unknown argument {arg:?}")),
        }
    }
    let out = out_dir();
    let opts = batch::PassOpts {
        workload: &workload,
        seed,
        check,
        certify_all,
        trace,
        smoke,
        out: &out,
    };
    let report = if workload == "serve_inline" {
        serve::run_pass(&opts)
    } else {
        batch::run_pass(&opts)
    };
    match report {
        Ok(report) => {
            println!("{}", report.to_json().render());
            0
        }
        Err(e) => {
            eprintln!("bench_e2e pass: {e}");
            1
        }
    }
}

/// Runs a workload's passes: untimed checks ride on the first pass;
/// untraced passes repeat while another one (and, with `--trace 1`, the
/// traced pass after it) fits in `--seconds`, each charged its wall time
/// less its checks. `serve_inline` stops at [`MAX_SERVE_PASSES`].
fn run_workload(opts: &RunOpts, workload: &str) -> WorkloadResult {
    let mut r = WorkloadResult {
        name: workload.to_string(),
        attempted: 0,
        errors: Vec::new(),
        failed: 0,
        e2e: Vec::new(),
        layers: Vec::new(),
        extra: Vec::new(),
        rows: Vec::new(),
    };
    let serve = workload == "serve_inline";
    let max_passes = if serve { MAX_SERVE_PASSES } else { usize::MAX };
    let mut passes: Vec<PassReport> = Vec::new();
    let mut spent = 0.0;
    let mut est = 0.0;
    loop {
        let reserve = if opts.trace { est } else { 0.0 };
        if !passes.is_empty()
            && (opts.smoke || passes.len() == max_passes || spent + est + reserve > opts.seconds)
        {
            break;
        }
        match run_pass(opts, workload, passes.is_empty(), false) {
            Ok((p, wall)) => {
                est = wall - p.check_s;
                spent += est;
                passes.push(p);
            }
            Err(e) => {
                r.errors.push(e);
                return r;
            }
        }
    }
    let traced = if opts.trace {
        match run_pass(opts, workload, false, true) {
            Ok((p, _)) => Some(p),
            Err(e) => {
                r.errors.push(e);
                None
            }
        }
    } else {
        None
    };

    let mut digests: HashMap<String, String> = HashMap::new();
    for (i, p) in passes.iter().chain(&traced).enumerate() {
        for j in &p.jobs {
            r.attempted += 1;
            let who = if j.id == j.input {
                j.input.clone()
            } else {
                format!("{} {}", j.input, j.id)
            };
            let mut bad = !j.errors.is_empty();
            r.errors
                .extend(j.errors.iter().map(|e| format!("{who}: {e}")));
            let seen = digests
                .entry(j.id.clone())
                .or_insert_with(|| j.digest.clone());
            if *seen != j.digest {
                r.errors
                    .push(format!("{who}: output differs between passes"));
                bad = true;
            }
            r.failed += usize::from(bad);
            if i == 0 && !batch::CERTIFIED.contains(&j.input.as_str()) {
                r.rows
                    .extend(j.rows.iter().map(|row| (j.input.clone(), row.clone())));
            }
        }
    }
    r.e2e = end_to_end(&passes);
    if serve {
        let answered: Vec<bool> = passes
            .iter()
            .flat_map(|p| p.jobs.iter().filter_map(|j| j.hit))
            .collect();
        let hit_ratio =
            answered.iter().filter(|&&h| h).count() as f64 / answered.len().max(1) as f64;
        if (hit_ratio - 0.75).abs() > 1e-12 {
            r.errors
                .push(format!("cache hit ratio {hit_ratio}, want 0.75"));
        }
        r.extra = serve_latencies(&passes);
        r.extra.push(Metric::new(
            "serve.cache_hit_ratio",
            hit_ratio,
            "ratio",
            answered.len(),
            vec![hit_ratio],
        ));
    }
    if let Some(t) = &traced {
        // Per-layer values with their sample counts: the traced pass's,
        // and those the untraced passes measured.
        let mut values: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        let each = |f: fn(&PassReport) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
        let n = passes.len();
        let mut job_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for j in passes.iter().flat_map(|p| &p.jobs) {
            job_ms.entry(&j.input).or_default().push(j.ms);
        }
        for (input, ms) in job_ms {
            values.insert(format!("job_ms.{input}"), (median(&ms), ms.len()));
        }
        values.insert(
            "trace.overhead_pct".into(),
            (100.0 * (t.pass_s / median(&each(|p| p.pass_s)) - 1.0), n),
        );
        values.insert(
            "circuits.build_ms".into(),
            (median(&each(|p| p.build_ms)), n),
        );
        values.insert(
            "sta.calibrate_ms".into(),
            (median(&each(|p| p.calibrate_ms)), n),
        );
        for m in &r.extra {
            values.insert(m.name.clone(), (m.value, m.n));
        }
        for (k, &v) in &t.layers {
            values.entry(k.clone()).or_insert((v, 1));
        }
        let path = out_dir().join(format!("{workload}.trace.json"));
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if let Err(e) = retime_trace::check_chrome_trace(&text) {
                    r.errors.push(format!("{}: {e}", path.display()));
                }
            }
            Err(e) => r.errors.push(format!("{}: {e}", path.display())),
        }
        r.layers = metrics::per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let (v, n) = values.get(&name).copied().unwrap_or((0.0, 1));
                Metric::new(name, v, unit, n, vec![v])
            })
            .collect();
    }
    r
}

/// `workload \t input \t row` lines of `expected/seed-1.tsv`.
fn load_expected() -> Result<Vec<(String, String, String)>, String> {
    let path = expected_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut parts = l.splitn(3, '\t');
            Some((
                parts.next()?.to_string(),
                parts.next()?.to_string(),
                parts.next()?.to_string(),
            ))
        })
        .collect())
}

/// At seed 1 the large inputs' outputs must be exactly the pinned rows.
fn check_expected(r: &mut WorkloadResult, expected: &[(String, String, String)]) {
    let mut want: Vec<(&str, &str)> = expected
        .iter()
        .filter(|(w, _, _)| *w == r.name)
        .map(|(_, i, row)| (i.as_str(), row.as_str()))
        .collect();
    let mut got: Vec<(&str, &str)> = r
        .rows
        .iter()
        .map(|(i, row)| (i.as_str(), row.as_str()))
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    if want != got {
        let missing = want.iter().find(|w| !got.contains(w));
        r.errors.push(format!(
            "large-input outputs differ from expected/seed-1.tsv (first pinned row not produced: {})",
            missing.map_or("none".to_string(), |(i, row)| format!("{i} {row}"))
        ));
    }
}

/// Rewrites `expected/seed-1.tsv` from a run of every workload.
fn write_expected(results: &[WorkloadResult]) -> Result<(), String> {
    let mut rows: Vec<(&str, &str, &str)> = results
        .iter()
        .flat_map(|r| {
            r.rows
                .iter()
                .map(|(input, row)| (r.name.as_str(), input.as_str(), row.as_str()))
        })
        .collect();
    rows.sort_unstable();
    let mut text = String::from(
        "# Outputs of large inputs at --seed 1, written by `bench_e2e run --certify-all --seed 1`\n\
         # workload\tinput\tflow\tmodel\tc\tseq_cost\tedl\tslaves\tmasters\n",
    );
    for (w, i, row) in rows {
        text.push_str(&format!("{w}\t{i}\t{row}\n"));
    }
    let path = expected_path();
    std::fs::create_dir_all(path.parent().expect("expected dir"))
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))
}
