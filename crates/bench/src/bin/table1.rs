//! Table I: circuit information of the original flop-based designs.

use retime_bench::{load_suite, map_cases, print_table, table1_row, Certification, RunConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_retime::{base_retime, AreaModel};
use retime_sta::DelayModel;
use retime_verify::FlowKind;

fn main() {
    let cfg = RunConfig::from_env();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace.clone());
    let lib = Library::fdsoi28();
    let cases = load_suite(cfg.suite, &lib);
    let model = AreaModel::new(&lib, EdlOverhead::MEDIUM);
    let rows = map_cases(&cases, |case| {
        if cfg.verify {
            // Table I itself runs no retiming; under RETIME_VERIFY=1 it
            // still self-certifies a base run per case so every table
            // binary exercises the checker.
            let mut base = base_retime(
                &case.circuit.cloud,
                &lib,
                case.clock,
                DelayModel::PathBased,
                EdlOverhead::MEDIUM,
            )
            .expect("base flow runs");
            Certification::of_case(case, EdlOverhead::MEDIUM, FlowKind::Base, "base")
                .run(&lib, &mut base)
                .expect("certificate accepted");
        }
        let mut row = table1_row(case, &lib, &model);
        // The setup-time column is wall-clock (non-deterministic), so it
        // lives only in the binary, not in the snapshot-tested cells.
        row.insert(4, format!("{}", case.setup_time.as_millis()));
        row
    });
    print_table(
        "Table I: circuit information of original flop-based designs",
        &[
            "Circuit",
            "P (ns)",
            "flop #",
            "NCE #",
            "Setup (ms)",
            "Area",
            "Reference",
        ],
        &rows,
    );
}
