//! Golden snapshot tests for the table binaries.
//!
//! The `table1` / `table4` / `table8` row logic runs on the tiny suite (the four
//! smallest circuits) and is compared cell-for-cell against checked-in
//! expected rows, so a table-output regression fails `cargo test`
//! instead of only being caught by the CI smoke run.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p retime-bench --test golden_tables
//! ```

use std::path::PathBuf;

use retime_bench::{
    area_row, load_suite, map_cases, table1_row, table4_stat_row, table8_row, BenchCase, SuiteMode,
};
use retime_liberty::{EdlOverhead, Library};
use retime_retime::AreaModel;
use retime_sim::ErrorRateConfig;
use retime_sta::{DelayModel, StatParams};

fn tiny_cases(lib: &Library) -> Vec<BenchCase> {
    load_suite(SuiteMode::Tiny, lib)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares rows against the golden file (cells joined with `" | "`), or
/// rewrites it when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, rows: &[Vec<String>]) {
    let rendered: String = rows
        .iter()
        .map(|row| row.join(" | "))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "{name} drifted from its golden snapshot; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn table1_rows_match_golden() {
    let lib = Library::fdsoi28();
    let cases = tiny_cases(&lib);
    let model = AreaModel::new(&lib, EdlOverhead::MEDIUM);
    let rows = map_cases(&cases, |case| table1_row(case, &lib, &model));
    check_golden("table1_tiny.txt", &rows);
}

#[test]
fn table4_rows_match_golden() {
    let lib = Library::fdsoi28();
    let cases = tiny_cases(&lib);
    let rows: Vec<Vec<String>> = map_cases(&cases, |case| {
        area_row(case, &lib, false, |o| o.seq.total())
    })
    .into_iter()
    .map(|(row, _)| row)
    .collect();
    check_golden("table4_tiny.txt", &rows);
}

/// The statistical Table IV section on the tiny suite, pinned under the
/// default statistical parameters. The row includes the
/// yield, EDL-count, and jitter-sensitivity columns, so any drift in
/// the canonical-form engine's numerics fails here first.
#[test]
fn table4_stat_rows_match_golden() {
    let lib = Library::fdsoi28();
    let cases = tiny_cases(&lib);
    let model = DelayModel::Statistical(StatParams::DEFAULT);
    let rows = map_cases(&cases, |case| table4_stat_row(case, &lib, model, false));
    check_golden("table4_stat_tiny.txt", &rows);
}

/// The Table VIII error rates on the tiny suite, at the binary's cycle
/// count and seed. Each rate is a count of 2000 cycles, so its two
/// printed decimals are exact.
#[test]
fn table8_rows_match_golden() {
    let lib = Library::fdsoi28();
    let cases = tiny_cases(&lib);
    let cfg = ErrorRateConfig {
        cycles: 2000,
        seed: 0xE0_5EED,
    };
    let rows: Vec<Vec<String>> = map_cases(&cases, |case| table8_row(case, &lib, &cfg, false))
        .into_iter()
        .map(|(row, _)| row)
        .collect();
    check_golden("table8_tiny.txt", &rows);
}
