//! Table V: total area — Base-Retiming vs RVL-RAR vs G-RAR.

use retime_bench::{
    area_average_row, area_row, load_suite, map_cases, print_table, rows_and_means, RunConfig,
};
use retime_liberty::Library;

fn main() {
    let cfg = RunConfig::from_env();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace.clone());
    let lib = Library::fdsoi28();
    let cases = load_suite(cfg.suite, &lib);
    let (mut rows, means) = rows_and_means(map_cases(&cases, |case| {
        area_row(case, &lib, cfg.verify, |o| o.total_area)
    }));
    rows.push(area_average_row(means));
    print_table(
        "Table V: total area (Base vs RVL-RAR vs G-RAR)",
        &[
            "Circuit", "Base(L)", "RVL(L)", "RVLImpr%", "G(L)", "GImpr%", "Base(M)", "RVL(M)",
            "RVLImpr%", "G(M)", "GImpr%", "Base(H)", "RVL(H)", "RVLImpr%", "G(H)", "GImpr%",
        ],
        &rows,
    );
    println!("(paper averages, G-RAR: 6.96 / 9.52 / 14.73 %; RVL: −0.29 / 2.85 / 9.59 %)");
}
