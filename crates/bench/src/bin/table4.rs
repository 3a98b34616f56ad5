//! Table IV: sequential logic area — Base-Retiming vs RVL-RAR vs G-RAR.
//!
//! With `RETIME_DELAY_MODE=statistical`, a second section re-runs the
//! three flows under the first-order statistical delay model and
//! reports the yield picture per circuit: worst per-sink timing yield
//! at the clock period, yield-aware EDL count, and the
//! jitter-sensitivity column `d yield / d σ_clock`.

use retime_bench::{
    area_average_row, area_row, load_suite, map_cases, print_table, rows_and_means,
    table4_stat_row, RunConfig,
};
use retime_liberty::Library;
use retime_sta::DelayModel;

fn main() {
    let cfg = RunConfig::from_env_with_model();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace.clone());
    let lib = Library::fdsoi28();
    let cases = load_suite(cfg.suite, &lib);
    let (mut rows, means) = rows_and_means(map_cases(&cases, |case| {
        area_row(case, &lib, cfg.verify, |o| o.seq.total())
    }));
    rows.push(area_average_row(means));
    print_table(
        "Table IV: sequential logic area (Base vs RVL-RAR vs G-RAR)",
        &[
            "Circuit", "Base(L)", "RVL(L)", "RVLImpr%", "G(L)", "GImpr%", "Base(M)", "RVL(M)",
            "RVLImpr%", "G(M)", "GImpr%", "Base(H)", "RVL(H)", "RVLImpr%", "G(H)", "GImpr%",
        ],
        &rows,
    );
    println!("(paper averages, G-RAR: 20.41 / 23.87 / 29.62 % for low / medium / high)");

    if let Some(params) = cfg.stat {
        let stat_rows = map_cases(&cases, |case| {
            table4_stat_row(case, &lib, DelayModel::Statistical(params), cfg.verify)
        });
        print_table(
            &format!(
                "Table IV (statistical, c=medium): yield-aware EDL at target yield {:.4}",
                params.yield_target()
            ),
            &[
                "Circuit", "Base", "RVL", "G-RAR", "MinYield", "EDL", "dY/dsigc",
            ],
            &stat_rows,
        );
    }
}
