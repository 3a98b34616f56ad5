//! What one pass reports to the parent process: a JSON line on stdout.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use retime_trace::json::{obj, parse, Json};
use retime_trace::SpanRecord;

/// Set-up repetitions per pass. Set-up takes tens of milliseconds, so one
/// burst of load from outside the benchmark can double a single timing;
/// the fastest of five back-to-back set-ups is the pass's set-up time.
pub const SETUP_REPS: usize = 5;

/// Runs `setup` [`SETUP_REPS`] times, handing every result but the last
/// to `discard`; returns the last result and the fastest time, s.
///
/// # Errors
/// The first set-up failure.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let t = Instant::now();
        last = Some(setup()?);
        fastest = fastest.min(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), fastest))
}

/// One job: a circuit through the workload's flows, or one serve request.
#[derive(Debug, Clone, Default)]
pub struct JobReport {
    /// What must give the same output in every pass: the input for batch
    /// jobs, the cache key for serve requests.
    pub id: String,
    pub input: String,
    pub ms: f64,
    /// Digest of the job's output (placement, EDL flags, areas or payload).
    pub digest: String,
    /// `flow model c seq_cost edl slaves masters` per flow run.
    pub rows: Vec<String>,
    pub errors: Vec<String>,
    /// Serve requests: answered from the cache.
    pub hit: Option<bool>,
}

/// One pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Input build (and for serve, daemon start until ready), the fastest
    /// of [`SETUP_REPS`], s.
    pub setup_s: f64,
    /// The measured part: batch jobs back to back, or the serve clients'
    /// run from first request to last reply, s.
    pub pass_s: f64,
    /// Untimed checks after the measured part, s.
    pub check_s: f64,
    /// Peak resident set of the pass process, MiB.
    pub rss_mib: f64,
    pub build_ms: f64,
    pub calibrate_ms: f64,
    pub jobs: Vec<JobReport>,
    /// Per-layer numbers of a traced pass.
    pub layers: BTreeMap<String, f64>,
}

fn strs(v: &[String]) -> Json {
    Json::Arr(v.iter().cloned().map(Json::Str).collect())
}

fn str_list(v: Option<&Json>) -> Vec<String> {
    match v {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|x| x.as_str().map(str::to_string))
            .collect(),
        _ => Vec::new(),
    }
}

impl PassReport {
    pub fn to_json(&self) -> Json {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                let mut fields = vec![
                    ("id", Json::Str(j.id.clone())),
                    ("input", Json::Str(j.input.clone())),
                    ("ms", Json::Num(j.ms)),
                    ("digest", Json::Str(j.digest.clone())),
                    ("rows", strs(&j.rows)),
                    ("errors", strs(&j.errors)),
                ];
                if let Some(hit) = j.hit {
                    fields.push(("hit", Json::Bool(hit)));
                }
                obj(fields)
            })
            .collect();
        obj(vec![
            ("setup_s", Json::Num(self.setup_s)),
            ("pass_s", Json::Num(self.pass_s)),
            ("check_s", Json::Num(self.check_s)),
            ("rss_mib", Json::Num(self.rss_mib)),
            ("build_ms", Json::Num(self.build_ms)),
            ("calibrate_ms", Json::Num(self.calibrate_ms)),
            ("jobs", Json::Arr(jobs)),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Num(v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the child's report line.
    ///
    /// # Errors
    /// Malformed JSON.
    pub fn parse(line: &str) -> Result<PassReport, String> {
        let v = parse(line)?;
        let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let jobs = match v.get("jobs") {
            Some(Json::Arr(jobs)) => jobs
                .iter()
                .map(|j| {
                    let text = |k: &str| {
                        j.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    JobReport {
                        id: text("id"),
                        input: text("input"),
                        ms: num(j, "ms"),
                        digest: text("digest"),
                        rows: str_list(j.get("rows")),
                        errors: str_list(j.get("errors")),
                        hit: j.get("hit").and_then(Json::as_bool),
                    }
                })
                .collect(),
            _ => return Err("pass report without jobs".into()),
        };
        let layers = match v.get("layers") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, x)| x.as_f64().map(|x| (k.clone(), x)))
                .collect(),
            _ => BTreeMap::new(),
        };
        Ok(PassReport {
            setup_s: num(&v, "setup_s"),
            pass_s: num(&v, "pass_s"),
            check_s: num(&v, "check_s"),
            rss_mib: num(&v, "rss_mib"),
            build_ms: num(&v, "build_ms"),
            calibrate_ms: num(&v, "calibrate_ms"),
            jobs,
            layers,
        })
    }
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Writes a traced pass's spans as `out/<workload>.trace.json`.
///
/// # Errors
/// I/O failures.
pub fn write_trace(out: &Path, workload: &str, records: &[SpanRecord]) -> Result<(), String> {
    let path = out.join(format!("{workload}.trace.json"));
    std::fs::write(&path, retime_trace::chrome_trace(records))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_its_json_line() {
        let report = PassReport {
            setup_s: 0.25,
            pass_s: 4.5,
            check_s: 1.0,
            rss_mib: 70.5,
            build_ms: 12.0,
            calibrate_ms: 30.0,
            jobs: vec![JobReport {
                id: "k3".into(),
                input: "s5378".into(),
                ms: 41.5,
                digest: "ab".into(),
                rows: vec!["grar\tpath\t1\t10\t0\t3\t4".into()],
                errors: vec!["bad".into()],
                hit: Some(true),
            }],
            layers: [("trace.spans".to_string(), 12.0)].into_iter().collect(),
        };
        let back = PassReport::parse(&report.to_json().render()).expect("parses");
        assert_eq!(back.to_json().render(), report.to_json().render());
    }
}
