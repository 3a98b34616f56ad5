//! Per-layer numbers harvested from the spans a traced pass recorded:
//! the flows' pipeline-stage spans and the solver, STA, stat, EDIF and
//! serve spans that already exist in the program, plus the `<layer>.<call>`
//! spans this benchmark opens around its own calls.

use std::collections::BTreeMap;

use retime_engine::Stage;
use retime_trace::{self_time, SpanRecord, Value};

use crate::stats::median;

/// Span-derived per-layer values of one traced pass, keyed by metric
/// name (times in ms summed over the pass; serve times per job).
pub fn from_records(records: &[SpanRecord]) -> BTreeMap<String, f64> {
    let lines = self_time(records);
    let incl = |name: &str| {
        lines
            .iter()
            .find(|l| l.name == name)
            .map_or(0.0, |l| l.incl_us as f64 / 1e3)
    };
    let excl = |name: &str| {
        lines
            .iter()
            .find(|l| l.name == name)
            .map_or(0.0, |l| l.excl_us as f64 / 1e3)
    };
    // Flow counters arrive as attributes of the pipeline-stage spans
    // (the same deltas `PhaseTimings` holds); the solver's own spans
    // repeat some of them, so only stage spans are summed.
    let stage_names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
    let count = |attr: &str| -> f64 {
        records
            .iter()
            .filter(|r| stage_names.contains(&r.name))
            .flat_map(|r| &r.attrs)
            .filter_map(|(k, v)| match v {
                Value::U64(n) if *k == attr => Some(*n),
                _ => None,
            })
            .sum::<u64>() as f64
    };
    let per_job = |name: &str| {
        let durs: Vec<f64> = records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.dur_us as f64 / 1e3)
            .collect();
        median(&durs)
    };

    let flows = incl("grar") + incl("base_retime") + incl("vl_retime");
    let invocations = count("solver_invocations");
    let warm = count("warm_hits") + count("cost_resumes") + count("demand_deltas");
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("core.classify_ms", incl("classify"));
    put(
        "core.classify_share",
        if flows > 0.0 {
            incl("classify") / flows
        } else {
            0.0
        },
    );
    put("core.targets", count("targets"));
    put("flow.solve_ms", incl("solve"));
    put("flow.ssp_phase_ms", excl("ssp_phase"));
    put("flow.ssp_delta_ms", excl("ssp_delta"));
    put("flow.pivot_batch_ms", excl("pivot_batch"));
    put("flow.solver_invocations", invocations);
    put("flow.cold_solves", count("cold_solves"));
    put("flow.warm_hits", count("warm_hits"));
    put("flow.cost_resumes", count("cost_resumes"));
    put("flow.demand_deltas", count("demand_deltas"));
    put(
        "flow.warm_ratio",
        if invocations > 0.0 {
            warm / invocations
        } else {
            0.0
        },
    );
    put("sta.stage_ms", incl("sta"));
    put("sta.full_pass_ms", excl("sta_full_pass"));
    put("sta.cut_timing_ms", excl("cut_timing"));
    put(
        "sta.repair_ms",
        excl("sta_repair_pure") + excl("sta_repair_cut"),
    );
    put("sta.reevaluated", count("sta_reevaluated"));
    put("retime.commit_ms", incl("commit"));
    put("retime.legalize_rounds", count("legalize_rounds"));
    put("vl.seed_ms", incl("seed"));
    put("vl.swap_ms", incl("swap"));
    put("serve.execute_ms", per_job("execute"));
    put("serve.queue_wait_ms", per_job("queue_wait"));
    put("convert.edif_parse_ms", incl("edif_parse"));
    put("convert.convert_ms", incl("convert.convert"));
    put("stat.cut_arrivals_ms", incl("stat_cut_arrivals"));
    put("trace.spans", records.len() as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            tid: 1,
            depth: u32::from(parent != 0),
            start_us: 0,
            dur_us,
            seq: id,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn stage_counters_and_self_times() {
        let mut classify = rec(2, 1, "classify", 3000);
        classify.attrs.push(("targets", Value::U64(7)));
        let mut solve = rec(3, 1, "solve", 1000);
        solve.attrs.push(("solver_invocations", Value::U64(1)));
        solve.attrs.push(("demand_deltas", Value::U64(1)));
        // The solver's own span repeats a counter; it must not count twice.
        let mut warm = rec(4, 3, "solve_warm", 600);
        warm.attrs.push(("demand_deltas", Value::U64(1)));
        let records = vec![
            rec(1, 0, "grar", 5000),
            classify,
            solve,
            warm,
            rec(5, 4, "ssp_delta", 500),
        ];
        let m = from_records(&records);
        assert_eq!(m["core.classify_ms"], 3.0);
        assert_eq!(m["core.classify_share"], 0.6);
        assert_eq!(m["core.targets"], 7.0);
        assert_eq!(m["flow.solve_ms"], 1.0);
        assert_eq!(m["flow.ssp_delta_ms"], 0.5);
        assert_eq!(m["flow.demand_deltas"], 1.0);
        assert_eq!(m["flow.warm_ratio"], 1.0);
        assert_eq!(m["trace.spans"], 5.0);
        assert_eq!(m["vl.swap_ms"], 0.0);
    }
}
