//! The [`Library`]: a complete cell library.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::cells::{CombCell, DelayArc, FlipFlopCell, LatchCell, Sense};

/// Errors raised by library queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LibraryError {
    /// The library has no cell implementing the requested function.
    MissingCell(String),
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::MissingCell(g) => write!(f, "library has no cell for `{g}`"),
        }
    }
}

impl Error for LibraryError {}

/// Gate functions a library maps. This mirrors
/// `retime_netlist::Gate`'s combinational alphabet but is kept stringly
/// independent so the library crate has no netlist dependency; the STA
/// crate bridges the two.
pub type GateName = &'static str;

/// A complete standard-cell library: combinational cells keyed by function
/// name, plus the sequential cells the retiming flows need.
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    name: String,
    cells: HashMap<GateName, CombCell>,
    flip_flop: FlipFlopCell,
    latch: LatchCell,
}

impl Library {
    /// Creates a library from parts.
    pub fn new(
        name: impl Into<String>,
        cells: impl IntoIterator<Item = (GateName, CombCell)>,
        flip_flop: FlipFlopCell,
        latch: LatchCell,
    ) -> Library {
        Library {
            name: name.into(),
            cells: cells.into_iter().collect(),
            flip_flop,
            latch,
        }
    }

    /// The library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The combinational cell for a function, by name
    /// (`"AND"`, `"NAND"`, `"OR"`, `"NOR"`, `"XOR"`, `"XNOR"`, `"NOT"`,
    /// `"BUFF"`).
    ///
    /// # Errors
    /// Returns [`LibraryError::MissingCell`] for unmapped functions.
    pub fn cell(&self, gate: &str) -> Result<&CombCell, LibraryError> {
        self.cells
            .get(gate)
            .ok_or_else(|| LibraryError::MissingCell(gate.to_string()))
    }

    /// All combinational cells.
    pub fn cells(&self) -> impl Iterator<Item = (&GateName, &CombCell)> {
        self.cells.iter()
    }

    /// The flip-flop cell.
    pub fn flip_flop(&self) -> &FlipFlopCell {
        &self.flip_flop
    }

    /// The latch cell.
    pub fn latch(&self) -> &LatchCell {
        &self.latch
    }

    /// A plausible FDSOI-28 nm-class library.
    ///
    /// Delays are in nanoseconds, areas in µm². The values are synthetic
    /// (the paper's commercial library is not redistributable) but
    /// calibrated to the two properties the paper's conclusions depend on:
    ///
    /// * latch area ≈ 43 % of flip-flop area (Section VI-D),
    /// * the latch's D-to-Q delay is 40 % larger than its clock-to-Q
    ///   delay (Section III).
    pub fn fdsoi28() -> Library {
        fn cc(name: &str, area: f64, rise: f64, fall: f64, sense: Sense) -> CombCell {
            CombCell {
                name: name.to_string(),
                area,
                intrinsic: DelayArc { rise, fall },
                per_extra_input: 0.004,
                load_delay: 0.0015,
                per_extra_input_area: 0.25,
                sense,
            }
        }
        let cells: Vec<(GateName, CombCell)> = vec![
            ("BUFF", cc("BUF_X1", 0.49, 0.016, 0.015, Sense::Positive)),
            ("NOT", cc("INV_X1", 0.33, 0.009, 0.007, Sense::Negative)),
            ("AND", cc("AND2_X1", 0.82, 0.021, 0.019, Sense::Positive)),
            ("NAND", cc("NAND2_X1", 0.65, 0.013, 0.010, Sense::Negative)),
            ("OR", cc("OR2_X1", 0.82, 0.022, 0.020, Sense::Positive)),
            ("NOR", cc("NOR2_X1", 0.65, 0.015, 0.011, Sense::Negative)),
            ("XOR", cc("XOR2_X1", 1.14, 0.024, 0.022, Sense::NonUnate)),
            ("XNOR", cc("XNOR2_X1", 1.14, 0.024, 0.023, Sense::NonUnate)),
        ];
        Library::new(
            "fdsoi28-synthetic",
            cells,
            FlipFlopCell {
                area: 3.26,
                clk_to_q: 0.055,
                setup: 0.020,
            },
            LatchCell {
                area: 1.40, // 1.40 / 3.26 ≈ 0.43
                clk_to_q: 0.040,
                d_to_q: 0.056, // 40 % larger than clk-to-q
                setup: 0.015,
            },
        )
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::fdsoi28()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_library_complete() {
        let lib = Library::fdsoi28();
        for g in ["BUFF", "NOT", "AND", "NAND", "OR", "NOR", "XOR", "XNOR"] {
            assert!(lib.cell(g).is_ok(), "missing {g}");
        }
        assert_eq!(
            lib.cell("MUX"),
            Err(LibraryError::MissingCell("MUX".into()))
        );
    }

    #[test]
    fn latch_flop_ratio_calibrated() {
        let lib = Library::fdsoi28();
        // The paper reports ≈ 0.43 for its FDSOI 28 nm library.
        let r = lib.latch().area / lib.flip_flop().area;
        assert!((r - 0.43).abs() < 0.01, "ratio {r} should be ≈ 0.43");
    }

    #[test]
    fn latch_dq_vs_ckq_spread() {
        let lib = Library::fdsoi28();
        let spread = lib.latch().d_to_q / lib.latch().clk_to_q;
        assert!((spread - 1.4).abs() < 1e-9, "spread {spread} should be 1.4");
    }

    #[test]
    fn inverting_cells_marked() {
        let lib = Library::fdsoi28();
        assert_eq!(lib.cell("NAND").unwrap().sense, Sense::Negative);
        assert_eq!(lib.cell("AND").unwrap().sense, Sense::Positive);
        assert_eq!(lib.cell("XOR").unwrap().sense, Sense::NonUnate);
    }

    #[test]
    fn nand_faster_than_and() {
        // Inverting gates are faster than their compound counterparts in
        // any realistic library; downstream heuristics rely on sane
        // orderings rather than exact values.
        let lib = Library::fdsoi28();
        assert!(
            lib.cell("NAND").unwrap().max_delay(2, 1) < lib.cell("AND").unwrap().max_delay(2, 1)
        );
    }

    #[test]
    fn default_trait() {
        assert_eq!(Library::default().name(), "fdsoi28-synthetic");
    }
}
