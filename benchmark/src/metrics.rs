//! Metric definitions and the measured values a run reports.

use retime_trace::json::{obj, Json};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric with the regression bound `compare` applies:
/// the larger of `bound` (a share of the base median) and `floor` (in
/// the metric's unit).
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub floor: f64,
}

/// The end-to-end metrics every workload reports (`BENCHMARK.json`
/// mirrors this table; a unit test keeps the two in step).
pub const END_TO_END: [Def; 3] = [
    Def {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.010,
    },
    Def {
        name: "jobs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.24,
        floor: 0.0,
    },
    Def {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
    },
];

/// `serve_inline`'s request latencies. `BENCHMARK.json` lists them per
/// layer, because every end-to-end metric there applies to every
/// workload; `compare` gates them like end-to-end metrics wherever a
/// result reports them.
pub const SERVE_GATED: [Def; 4] = [
    serve_latency("serve.latency_p50_ms"),
    serve_latency(SERVE_TAIL),
    serve_latency("serve.hit_p50_ms"),
    serve_latency("serve.miss_p50_ms"),
];

/// The tail latency a `serve_inline` run reports: p90, the percentile the
/// tail rule picks for its 100–999 requests.
pub const SERVE_TAIL: &str = "serve.latency_p90_ms";

const fn serve_latency(name: &'static str) -> Def {
    Def {
        name,
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
    }
}

/// Inputs across all workloads; each gets a `job_ms.<input>` row.
pub const INPUTS: [&str; 13] = [
    "s1196", "s1238", "s1423", "s1488", "s5378", "s9234", "s13207", "s15850", "s35932", "s38417",
    "s38584", "plasma", "synth4x",
];

/// Per-layer metrics besides `job_ms.<input>`, with their units. Every
/// workload reports all of them; a layer a workload does not exercise
/// reads 0.
pub const PER_LAYER: [(&str, &str, Better); 42] = [
    ("core.classify_ms", "ms", Better::Lower),
    ("core.classify_share", "ratio", Better::Lower),
    ("core.targets", "count", Better::Lower),
    ("flow.solve_ms", "ms", Better::Lower),
    ("flow.ssp_phase_ms", "ms", Better::Lower),
    ("flow.ssp_delta_ms", "ms", Better::Lower),
    ("flow.pivot_batch_ms", "ms", Better::Lower),
    ("flow.solver_invocations", "count", Better::Lower),
    ("flow.cold_solves", "count", Better::Lower),
    ("flow.warm_hits", "count", Better::Higher),
    ("flow.cost_resumes", "count", Better::Higher),
    ("flow.demand_deltas", "count", Better::Higher),
    ("flow.warm_ratio", "ratio", Better::Higher),
    ("sta.stage_ms", "ms", Better::Lower),
    ("sta.full_pass_ms", "ms", Better::Lower),
    ("sta.cut_timing_ms", "ms", Better::Lower),
    ("sta.repair_ms", "ms", Better::Lower),
    ("sta.reevaluated", "count", Better::Lower),
    ("retime.commit_ms", "ms", Better::Lower),
    ("retime.legalize_rounds", "count", Better::Lower),
    ("vl.seed_ms", "ms", Better::Lower),
    ("vl.swap_ms", "ms", Better::Lower),
    ("circuits.build_ms", "ms", Better::Lower),
    ("sta.calibrate_ms", "ms", Better::Lower),
    ("serve.request_parse_ms", "ms", Better::Lower),
    ("serve.resolve_ms", "ms", Better::Lower),
    ("serve.key_ms", "ms", Better::Lower),
    ("netlist.parse_ms", "ms", Better::Lower),
    ("netlist.extract_ms", "ms", Better::Lower),
    ("serve.execute_ms", "ms", Better::Lower),
    ("serve.queue_wait_ms", "ms", Better::Lower),
    ("serve.cache_hit_ratio", "ratio", Better::Higher),
    ("serve.latency_p50_ms", "ms", Better::Lower),
    (SERVE_TAIL, "ms", Better::Lower),
    ("serve.hit_p50_ms", "ms", Better::Lower),
    ("serve.miss_p50_ms", "ms", Better::Lower),
    ("convert.edif_parse_ms", "ms", Better::Lower),
    ("convert.edif_mib_per_s", "MiB/s", Better::Higher),
    ("convert.convert_ms", "ms", Better::Lower),
    ("stat.cut_arrivals_ms", "ms", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.spans", "count", Better::Lower),
];

/// One measured value: the reported number, how many observations it
/// summarizes (passes, set-ups or requests), and the same quantity as each
/// pass measured it, which is what `compare` judges one run's spread by.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub per_pass: Vec<f64>,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        n: usize,
        per_pass: Vec<f64>,
    ) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
            per_pass,
        }
    }

    /// `workload metric value unit (n=samples)`.
    pub fn line(&self, workload: &str) -> String {
        format!(
            "{workload} {} {} {} (n={})",
            self.name, self.value, self.unit, self.n
        )
    }

    pub fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(self.unit.to_string())),
            ("n", Json::Num(self.n as f64)),
            (
                "per_pass",
                Json::Arr(self.per_pass.iter().map(|&x| Json::Num(x)).collect()),
            ),
        ])
    }
}

/// Every per-layer metric — the table above, then one `job_ms.<input>`
/// row per input — with its unit and direction, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .chain(
            INPUTS
                .iter()
                .map(|i| (format!("job_ms.{i}"), "ms", Better::Lower)),
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_trace::json::parse;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this table defines, with the same units, directions and
    /// bounds, and give the run length `run` defaults to.
    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let root = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            root.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
        let Some(Json::Arr(e2e)) = root.get("end_to_end") else {
            panic!("end_to_end list");
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, def) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.name())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let Some(Json::Arr(layers)) = root.get("per_layer") else {
            panic!("per_layer list");
        };
        let field = |l: &Json, key: &str| {
            l.get(key)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        };
        let listed: Vec<(String, String, String)> = layers
            .iter()
            .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.name().to_string()))
            .collect();
        assert_eq!(listed, expected);
    }

    /// A serve run measures 200 to 800 requests (one to
    /// `MAX_SERVE_PASSES` passes), 120 with `--smoke`: the tail rule picks
    /// p90 for all of them, the percentile `SERVE_TAIL` names.
    #[test]
    fn serve_tail_is_the_percentile_the_rule_picks() {
        let per_pass = crate::mix::KEYS * crate::mix::REPEATS;
        let smoke = crate::mix::SMOKE_KEYS * crate::mix::REPEATS;
        for n in (1..=crate::MAX_SERVE_PASSES)
            .map(|p| p * per_pass)
            .chain([smoke])
        {
            let permille = crate::stats::tail_permille(n);
            assert_eq!(format!("serve.latency_p{}_ms", permille / 10), SERVE_TAIL);
        }
    }
}
