//! Table VI: number of slave and error-detecting master latches decided
//! by the three approaches.

use retime_bench::{load_suite, map_cases, print_table, table_flows, RunConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_sta::DelayModel;

fn main() {
    let cfg = RunConfig::from_env();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace.clone());
    let lib = Library::fdsoi28();
    let cases = load_suite(cfg.suite, &lib);
    let per_case = map_cases(&cases, |case| {
        let mut per_c: Vec<[String; 6]> = Vec::new();
        for c in EdlOverhead::SWEEP {
            let a = table_flows(case, &lib, c, DelayModel::PathBased, cfg.verify);
            per_c.push([
                a.base.seq.slaves.to_string(),
                a.base.seq.edl.to_string(),
                a.rvl.outcome.seq.slaves.to_string(),
                a.rvl.outcome.seq.edl.to_string(),
                a.grar.outcome.seq.slaves.to_string(),
                a.grar.outcome.seq.edl.to_string(),
            ]);
        }
        let mut case_rows = Vec::new();
        for (approach, idx) in [("Base", 0usize), ("RVL", 2), ("G", 4)] {
            case_rows.push(vec![
                case.circuit.spec.name.to_string(),
                approach.to_string(),
                per_c[0][idx].clone(),
                per_c[0][idx + 1].clone(),
                per_c[1][idx].clone(),
                per_c[1][idx + 1].clone(),
                per_c[2][idx].clone(),
                per_c[2][idx + 1].clone(),
            ]);
        }
        case_rows
    });
    let rows: Vec<Vec<String>> = per_case.into_iter().flatten().collect();
    print_table(
        "Table VI: slave and error-detecting master latch counts",
        &[
            "Circuit",
            "Approach",
            "slave#(L)",
            "EDL#(L)",
            "slave#(M)",
            "EDL#(M)",
            "slave#(H)",
            "EDL#(H)",
        ],
        &rows,
    );
    println!("(paper: G-RAR assigns the fewest EDLs on circuits above s1238; RVL's EDL count tracks the NCE count)");
}
