//! Table IX: fixed-master vs movable-master RVL-RAR.

use retime_bench::{
    f2, load_suite, map_cases, print_table, rows_and_means, Certification, RunConfig,
};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::CombCloud;
use retime_verify::FlowKind;
use retime_vl::{forward_merge_pass, vl_retime, VlConfig, VlVariant};

fn main() {
    let cfg = RunConfig::from_env();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace.clone());
    let lib = Library::fdsoi28();
    let cases = load_suite(cfg.suite, &lib);
    let (mut rows, means) = rows_and_means(map_cases(&cases, |case| {
        let mut row = vec![case.circuit.spec.name.to_string()];
        let mut case_diffs = [0.0f64; 3];
        // Movable masters: the forward merge pre-pass repositions master
        // latches before the standard RVL flow.
        let (moved_netlist, moves) =
            forward_merge_pass(&case.circuit.netlist, 64).expect("merge pass runs");
        let moved_cloud = CombCloud::extract(&moved_netlist).expect("cloud extracts");
        for (k, c) in EdlOverhead::SWEEP.into_iter().enumerate() {
            let mut fixed = vl_retime(
                &case.circuit.cloud,
                &lib,
                case.clock,
                &VlConfig::new(VlVariant::Rvl, c),
            )
            .expect("fixed RVL runs");
            let mut movable = vl_retime(
                &moved_cloud,
                &lib,
                case.clock,
                &VlConfig::new(VlVariant::Rvl, c),
            )
            .expect("movable RVL runs");
            // The movable run certifies against the merged netlist and
            // its cloud — the circuit it actually retimed.
            if cfg.verify {
                Certification::of_case(case, c, FlowKind::Vl, "rvl/fixed")
                    .run(&lib, &mut fixed.outcome)
                    .expect("certificate accepted");
                Certification::of_netlist(
                    &moved_netlist,
                    &moved_cloud,
                    case.clock,
                    c,
                    FlowKind::Vl,
                    format!("{} [rvl/movable]", case.circuit.spec.name),
                )
                .run(&lib, &mut movable.outcome)
                .expect("certificate accepted");
            }
            let fa = fixed.outcome.total_area;
            let ma = movable.outcome.total_area;
            let diff = if fa > 0.0 {
                100.0 * (fa - ma) / fa
            } else {
                0.0
            };
            case_diffs[k] = diff;
            row.extend([f2(fa), f2(ma), format!("{diff:.2}")]);
        }
        row.push(format!("({moves} master moves)"));
        (row, case_diffs)
    }));
    let mut avg = vec!["average".to_string()];
    for m in means {
        avg.extend([String::new(), String::new(), f2(m)]);
    }
    rows.push(avg);
    print_table(
        "Table IX: fixed-master vs movable-master RVL-RAR (total area)",
        &[
            "Circuit",
            "fixed(L)",
            "movable(L)",
            "diff%(L)",
            "fixed(M)",
            "movable(M)",
            "diff%(M)",
            "fixed(H)",
            "movable(H)",
            "diff%(H)",
            "notes",
        ],
        &rows,
    );
    println!("(paper averages: −0.73 / 0.01 / −0.28 % — little to no gain)");
}
