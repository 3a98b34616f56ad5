//! Table VIII: error-rate (%) comparison by random-input timed
//! simulation.

use retime_bench::{f2, load_suite, map_cases, print_table, rows_and_means, table8_row, RunConfig};
use retime_liberty::Library;
use retime_sim::ErrorRateConfig;

fn main() {
    let cfg = RunConfig::from_env();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace.clone());
    let lib = Library::fdsoi28();
    let cases = load_suite(cfg.suite, &lib);
    let sim = ErrorRateConfig {
        cycles: 2000,
        seed: 0xE0_5EED,
    };
    let (mut rows, means) = rows_and_means(map_cases(&cases, |case| {
        table8_row(case, &lib, &sim, cfg.verify)
    }));
    rows.push(
        std::iter::once("average".to_string())
            .chain(means.map(f2))
            .collect(),
    );
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
