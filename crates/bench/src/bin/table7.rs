//! Table VII: run-time comparison, plus the G-RAR phase breakdown
//! backing the paper's "network simplex < 2 % of run-time" observation.

use std::time::Duration;

use retime_bench::{f2, load_suite, map_cases, print_table, table_flows, RunConfig};
use retime_core::{PhaseTimings, Stage};
use retime_liberty::{EdlOverhead, Library};
use retime_sta::DelayModel;

fn main() {
    let cfg = RunConfig::from_env();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace.clone());
    let lib = Library::fdsoi28();
    let cases = load_suite(cfg.suite, &lib);
    let rows = map_cases(&cases, |case| {
        let mut row = vec![case.circuit.spec.name.to_string()];
        let mut solver_share: f64 = 0.0;
        for c in EdlOverhead::SWEEP {
            let a = table_flows(case, &lib, c, DelayModel::PathBased, cfg.verify);
            row.push(f2(ms(flow_time(&a.base.phases))));
            row.push(f2(ms(flow_time(&a.rvl.outcome.phases))));
            row.push(f2(ms(flow_time(&a.grar.outcome.phases))));
            let phases = &a.grar.outcome.phases;
            let flow = flow_time(phases);
            if !flow.is_zero() {
                let share = phases.get(Stage::Solve).as_secs_f64() / flow.as_secs_f64();
                solver_share = solver_share.max(100.0 * share);
            }
        }
        row.push(format!("{solver_share:.1}%"));
        row
    });
    print_table(
        "Table VII: run-time (ms) comparison (plus worst G-RAR solver share)",
        &[
            "Circuit", "Base(L)", "RVL(L)", "G(L)", "Base(M)", "RVL(M)", "G(M)", "Base(H)",
            "RVL(H)", "G(H)", "solver%",
        ],
        &rows,
    );
    println!("(paper: all ISCAS89 complete within 10 CPU minutes; Plasma < 62 min; the network-simplex step is < 2 % of G-RAR's run-time)");
}

/// The time of a flow's own stages: a certified run also carries the
/// checker's `Verify` stage.
fn flow_time(phases: &PhaseTimings) -> Duration {
    phases.total() - phases.get(Stage::Verify)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
