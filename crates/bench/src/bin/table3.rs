//! Table III: area comparison of the three virtual-library variants.

use retime_bench::{
    f2, load_suite, map_cases, print_table, rows_and_means, Certification, RunConfig,
};
use retime_liberty::{EdlOverhead, Library};
use retime_verify::FlowKind;
use retime_vl::{vl_retime, VlConfig, VlVariant};

fn main() {
    let cfg = RunConfig::from_env();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace.clone());
    let lib = Library::fdsoi28();
    let cases = load_suite(cfg.suite, &lib);
    let (mut rows, means) = rows_and_means(map_cases(&cases, |case| {
        let mut row = vec![case.circuit.spec.name.to_string()];
        let mut areas = [0.0f64; 9];
        let mut col = 0;
        for c in EdlOverhead::SWEEP {
            for variant in [VlVariant::Nvl, VlVariant::Evl, VlVariant::Rvl] {
                let mut rep = vl_retime(
                    &case.circuit.cloud,
                    &lib,
                    case.clock,
                    &VlConfig::new(variant, c),
                )
                .expect("VL flow runs");
                if cfg.verify {
                    Certification::of_case(case, c, FlowKind::Vl, variant.name())
                        .run(&lib, &mut rep.outcome)
                        .expect("certificate accepted");
                }
                areas[col] = rep.outcome.total_area;
                row.push(f2(rep.outcome.total_area));
                col += 1;
            }
        }
        (row, areas)
    }));
    rows.push(
        std::iter::once("average".to_string())
            .chain(means.map(f2))
            .collect(),
    );
    print_table(
        "Table III: area comparison of virtual library approaches (total area)",
        &[
            "Circuit", "NVL(L)", "EVL(L)", "RVL(L)", "NVL(M)", "EVL(M)", "RVL(M)", "NVL(H)",
            "EVL(H)", "RVL(H)",
        ],
        &rows,
    );
    println!("(paper: RVL matches or beats NVL and beats EVL at every overhead)");
}
