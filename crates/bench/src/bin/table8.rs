//! Table VIII: error-rate (%) comparison by random-input timed
//! simulation.

use retime_bench::{load_suite, map_cases, mean, print_table, table8_row};
use retime_liberty::Library;
use retime_sim::ErrorRateConfig;

fn main() {
    let _trace = retime_bench::trace_session();
    let lib = Library::fdsoi28();
    let cases = load_suite(&lib);
    let cfg = ErrorRateConfig {
        cycles: 2000,
        seed: 0xE0_5EED,
    };
    let per_case = map_cases(&cases, |case| table8_row(case, &lib, &cfg));
    let mut rows = Vec::new();
    let mut avgs: Vec<Vec<f64>> = vec![Vec::new(); 9];
    for (row, rates) in per_case {
        for (col, r) in rates.into_iter().enumerate() {
            avgs[col].push(r);
        }
        rows.push(row);
    }
    let mut avg = vec!["average".to_string()];
    for a in &avgs {
        avg.push(format!("{:.2}", mean(a)));
    }
    rows.push(avg);
    print_table(
        "Table VIII: error-rate (%) comparison",
        &[
            "Circuit", "Base(L)", "RVL(L)", "G(L)", "Base(M)", "RVL(M)", "G(M)", "Base(H)",
            "RVL(H)", "G(H)",
        ],
        &rows,
    );
    println!("(paper averages: Base 21.02 %, RVL ≈ 1.96 %, G 14.84 / 9.04 / 9.05 %)");
}
