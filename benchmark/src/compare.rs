//! `bench_e2e compare BASE.json NEW.json`: one row per (workload,
//! end-to-end metric), each ok, regressed or unresolved; `serve_inline`
//! adds its gated request latencies.

use std::collections::BTreeMap;

use retime_trace::json::{parse, Json};

use crate::metrics::{Better, END_TO_END, SERVE_GATED};
use crate::stats::{median, quartiles};

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a change of
    /// that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far `new` may fall behind `base`: the larger of `bound` × the
/// base median and the absolute `floor`.
pub fn allowance(base: &[f64], bound: f64, floor: f64) -> f64 {
    (bound * median(base).abs()).max(floor)
}

/// Compares the values one metric took on each side (one per run, or
/// one per pass of a single run).
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let allowed = allowance(base, bound, floor);
    let worse_by = match better {
        Better::Lower => median(new) - median(base),
        Better::Higher => median(base) - median(new),
    };
    let iqr = |xs: &[f64]| {
        let (q1, q3) = quartiles(xs);
        q3 - q1
    };
    let all_better = match better {
        Better::Lower => new.iter().all(|n| base.iter().all(|b| n < b)),
        Better::Higher => new.iter().all(|n| base.iter().all(|b| n > b)),
    };
    if iqr(base).max(iqr(new)) > allowed && !all_better {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One workload's results on one side: the failure share of each run and
/// each metric's values.
#[derive(Default)]
struct Side {
    failed_frac: Vec<f64>,
    metrics: BTreeMap<String, Vec<f64>>,
}

/// Reads a result file: a single run (`{"workloads": [...]}`) or a set of
/// runs (`{"runs": [...]}`). With several runs a metric contributes one
/// value per run; with one run, its value in each pass.
fn load(path: &str) -> Result<BTreeMap<String, Side>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs: Vec<&Json> = match root.get("runs") {
        Some(Json::Arr(runs)) => runs.iter().collect(),
        _ => vec![&root],
    };
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for run in &runs {
        if run.get("smoke").and_then(Json::as_bool) == Some(true) {
            return Err(format!("{path}: a --smoke run is not a measurement"));
        }
        let Some(Json::Arr(workloads)) = run.get("workloads") else {
            return Err(format!("{path}: missing `workloads`"));
        };
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
            let num = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let side = sides.entry(name.to_string()).or_default();
            side.failed_frac
                .push(num("failed") / num("attempted").max(1.0));
            let Some(Json::Arr(metrics)) = w.get("metrics") else {
                continue;
            };
            for m in metrics {
                let mname = m.get("name").and_then(Json::as_str).unwrap_or("?");
                let values = side.metrics.entry(mname.to_string()).or_default();
                if runs.len() > 1 {
                    values.extend(m.get("value").and_then(Json::as_f64));
                } else if let Some(Json::Arr(s)) = m.get("per_pass") {
                    values.extend(s.iter().filter_map(Json::as_f64));
                }
            }
        }
    }
    Ok(sides)
}

/// Prints the comparison table; returns whether any row regressed.
///
/// # Errors
/// Unreadable or malformed result files, and smoke runs.
pub fn run(base_path: &str, new_path: &str) -> Result<bool, String> {
    let base = load(base_path)?;
    let new = load(new_path)?;
    let mut regressed = false;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "bound", "better"
    );
    for (workload, b_side) in &base {
        let Some(n_side) = new.get(workload) else {
            println!("{workload:<14} (missing from {new_path})");
            continue;
        };
        for def in END_TO_END.iter().chain(&SERVE_GATED) {
            let (Some(b), Some(n)) = (b_side.metrics.get(def.name), n_side.metrics.get(def.name))
            else {
                continue;
            };
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let verdict = judge(b, n, def.better, def.bound, def.floor);
            regressed |= verdict == Verdict::Regressed;
            let (mb, mn) = (median(b), median(n));
            println!(
                "{workload:<14} {:<20} {mb:>14.6} {mn:>14.6} {:>8.2}% {:>7.1}% {:>7}  {}",
                def.name,
                if mb != 0.0 {
                    100.0 * (mn - mb) / mb
                } else {
                    0.0
                },
                100.0 * def.bound,
                def.better.name(),
                verdict.name()
            );
        }
        // Any increase in the failure share is a regression.
        let (fb, fnew) = (median(&b_side.failed_frac), median(&n_side.failed_frac));
        let verdict = if fnew > fb {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{workload:<14} {:<20} {fb:>14.6} {fnew:>14.6} {:>9} {:>8} {:>7}  {}",
            "failed_frac",
            "",
            "0",
            "lower",
            verdict.name()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_bound_is_ok_beyond_is_regressed() {
        let base = [100.0, 101.0, 99.0, 100.0];
        // Throughput 5 % lower: inside a 10 % bound.
        let near = [95.0, 95.5, 94.5, 95.0];
        assert_eq!(judge(&base, &near, Better::Higher, 0.10, 0.0), Verdict::Ok);
        // 20 % lower: a regression.
        let far = [80.0, 80.5, 79.5, 80.0];
        assert_eq!(
            judge(&base, &far, Better::Higher, 0.10, 0.0),
            Verdict::Regressed
        );
        // Improvements are never regressions.
        let up = [150.0, 151.0, 149.0, 150.0];
        assert_eq!(judge(&base, &up, Better::Higher, 0.10, 0.0), Verdict::Ok);
        // Direction matters: 20 % more latency regresses.
        assert_eq!(
            judge(
                &base,
                &[120.0, 121.0, 119.0, 120.0],
                Better::Lower,
                0.10,
                0.0
            ),
            Verdict::Regressed
        );
    }

    #[test]
    fn absolute_floor_widens_small_bounds() {
        // A 4 ms setup that grows by 5 ms is +125 %, but under the 10 ms
        // floor it is not a regression.
        let base = [0.004, 0.004, 0.004];
        let new = [0.009, 0.009, 0.009];
        assert_eq!(judge(&base, &new, Better::Lower, 0.10, 0.010), Verdict::Ok);
        assert_eq!(
            judge(&base, &new, Better::Lower, 0.10, 0.0),
            Verdict::Regressed
        );
        assert_eq!(allowance(&base, 0.10, 0.010), 0.010);
        assert!((allowance(&[1.0], 0.10, 0.010) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let base = [60.0, 100.0, 140.0, 100.0, 70.0, 130.0];
        let new = [90.0, 95.0, 85.0, 92.0];
        assert_eq!(
            judge(&base, &new, Better::Higher, 0.10, 0.0),
            Verdict::Unresolved
        );
        // ...unless every new run beats every base run.
        let clear = [150.0, 160.0, 155.0];
        assert_eq!(judge(&base, &clear, Better::Higher, 0.10, 0.0), Verdict::Ok);
    }
}
