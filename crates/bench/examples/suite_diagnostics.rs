//! Per-circuit diagnostic sweep over the benchmark suite: endpoint
//! classification, initial near-criticality, and the three flows'
//! slave/EDL decisions side by side.
//!
//! ```text
//! RETIME_SUITE=small cargo run --release -p retime-bench --example suite_diagnostics
//! ```

use retime_bench::{load_suite, run_approaches, RunConfig};
use retime_core::classify_and_cut_set;
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{Cut, NodeKind};
use retime_sta::{is_error_detecting, DelayModel, SinkClass, TimingAnalysis};

fn main() {
    let cfg = RunConfig::from_env();
    let lib = Library::fdsoi28();
    for case in load_suite(cfg.suite, &lib) {
        let cloud = &case.circuit.cloud;
        let sta = TimingAnalysis::new(cloud, &lib, case.clock, DelayModel::PathBased)
            .expect("sta builds");
        let (mut always, mut never, mut target, mut g_total) = (0usize, 0usize, 0usize, 0usize);
        for &t in cloud.sinks() {
            if !matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) }) {
                continue;
            }
            let bp = sta.backward(t);
            match classify_and_cut_set(&sta, &bp) {
                (SinkClass::AlwaysErrorDetecting, _) => always += 1,
                (SinkClass::NeverErrorDetecting, _) => never += 1,
                (SinkClass::Target, g) => {
                    target += 1;
                    g_total += g.len();
                }
            }
        }
        let init = sta.cut_timing(&Cut::initial(cloud));
        let init_ed = init
            .sink_arrivals
            .iter()
            .filter(|&&a| is_error_detecting(a, &case.clock))
            .count();
        let a = run_approaches(&case, &lib, EdlOverhead::HIGH, DelayModel::PathBased)
            .expect("flows run");
        println!(
            "{:8} P={:.3} always={always:4} never={never:4} target={target:4} avg|g|={:4.1} init_ed={init_ed:4} | \
             base s={:4} e={:4} | rvl s={:4} e={:4} | G s={:4} e={:4} (saved {})",
            case.circuit.spec.name,
            case.clock.max_path_delay(),
            if target > 0 { g_total as f64 / target as f64 } else { 0.0 },
            a.base.seq.slaves,
            a.base.seq.edl,
            a.rvl.outcome.seq.slaves,
            a.rvl.outcome.seq.edl,
            a.grar.outcome.seq.slaves,
            a.grar.outcome.seq.edl,
            a.grar.predicted_saved,
        );
    }
}
