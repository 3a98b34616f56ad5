//! Cells: the vertices of a [`crate::Netlist`].

use std::fmt;

/// Index of a cell inside its owning [`crate::Netlist`].
///
/// `CellId`s are dense (0..n) and stable for the lifetime of the netlist;
/// cells are never removed, only transformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

impl CellId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The logic function (or sequential role) of a cell.
///
/// The combinational subset matches the gate alphabet of the ISCAS89
/// `.bench` format. Sequential cells distinguish edge-triggered flip-flops
/// (the original benchmark form) from the master/slave level-sensitive
/// latches they are converted into for two-phase resilient operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Primary input (no fanin).
    Input,
    /// Primary output marker (exactly one fanin, no logic).
    Output,
    /// Non-inverting buffer.
    Buf,
    /// Inverter.
    Not,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// N-input XOR (odd parity).
    Xor,
    /// N-input XNOR (even parity).
    Xnor,
    /// Positive-edge D flip-flop (one fanin: D).
    Dff,
    /// Master latch of a converted flip-flop (transparent during φ1̄;
    /// fixed in place by the retiming flows).
    LatchMaster,
    /// Slave latch of a converted flip-flop (transparent during φ2;
    /// repositioned by retiming).
    LatchSlave,
}

impl Gate {
    /// Whether the cell is sequential (stores state).
    pub fn is_sequential(self) -> bool {
        matches!(self, Gate::Dff | Gate::LatchMaster | Gate::LatchSlave)
    }

    /// Whether the cell computes a combinational function of its inputs.
    pub fn is_combinational(self) -> bool {
        matches!(
            self,
            Gate::Buf
                | Gate::Not
                | Gate::And
                | Gate::Nand
                | Gate::Or
                | Gate::Nor
                | Gate::Xor
                | Gate::Xnor
        )
    }

    /// Legal fanin range for the gate, as `(min, max)`.
    pub fn arity(self) -> (usize, usize) {
        match self {
            Gate::Input => (0, 0),
            Gate::Output | Gate::Buf | Gate::Not => (1, 1),
            Gate::Dff | Gate::LatchMaster | Gate::LatchSlave => (1, 1),
            Gate::And | Gate::Nand | Gate::Or | Gate::Nor => (1, usize::MAX),
            Gate::Xor | Gate::Xnor => (1, usize::MAX),
        }
    }

    /// Evaluates the gate on boolean inputs.
    ///
    /// Sequential and I/O cells pass their (single) input through; this is
    /// the combinational evaluation used by functional simulation once
    /// state elements have been handled by the simulator.
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            Gate::Input => false,
            Gate::Output | Gate::Buf | Gate::Dff | Gate::LatchMaster | Gate::LatchSlave => {
                inputs[0]
            }
            Gate::Not => !inputs[0],
            Gate::And => inputs.iter().all(|&b| b),
            Gate::Nand => !inputs.iter().all(|&b| b),
            Gate::Or => inputs.iter().any(|&b| b),
            Gate::Nor => !inputs.iter().any(|&b| b),
            Gate::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            Gate::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
        }
    }

    /// The `.bench` keyword for this gate, if it has one.
    pub fn bench_name(self) -> Option<&'static str> {
        Some(match self {
            Gate::Buf => "BUFF",
            Gate::Not => "NOT",
            Gate::And => "AND",
            Gate::Nand => "NAND",
            Gate::Or => "OR",
            Gate::Nor => "NOR",
            Gate::Xor => "XOR",
            Gate::Xnor => "XNOR",
            Gate::Dff => "DFF",
            Gate::LatchMaster => "LATCHM",
            Gate::LatchSlave => "LATCHS",
            Gate::Input | Gate::Output => return None,
        })
    }

    /// Parses a `.bench` gate keyword (case-insensitive).
    pub fn from_bench_name(s: &str) -> Option<Gate> {
        const KEYWORDS: [(&str, Gate); 13] = [
            ("BUF", Gate::Buf),
            ("BUFF", Gate::Buf),
            ("NOT", Gate::Not),
            ("INV", Gate::Not),
            ("AND", Gate::And),
            ("NAND", Gate::Nand),
            ("OR", Gate::Or),
            ("NOR", Gate::Nor),
            ("XOR", Gate::Xor),
            ("XNOR", Gate::Xnor),
            ("DFF", Gate::Dff),
            ("LATCHM", Gate::LatchMaster),
            ("LATCHS", Gate::LatchSlave),
        ];
        KEYWORDS
            .iter()
            .find(|(kw, _)| kw.eq_ignore_ascii_case(s))
            .map(|&(_, g)| g)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Input => write!(f, "INPUT"),
            Gate::Output => write!(f, "OUTPUT"),
            other => write!(f, "{}", other.bench_name().unwrap_or("?")),
        }
    }
}

/// A single cell of the netlist: a named gate with its fanin connections.
///
/// Fanout is maintained by the owning [`crate::Netlist`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Instance / net name (the cell's output net shares its name).
    pub name: String,
    /// Logic function or sequential role.
    pub gate: Gate,
    /// Driver cells of this cell's input pins, in pin order.
    pub fanin: Vec<CellId>,
}

impl Cell {
    /// Creates a new cell.
    pub fn new(name: impl Into<String>, gate: Gate, fanin: Vec<CellId>) -> Self {
        Cell {
            name: name.into(),
            gate,
            fanin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_classification() {
        assert!(Gate::Dff.is_sequential());
        assert!(Gate::LatchMaster.is_sequential());
        assert!(!Gate::Nand.is_sequential());
        assert!(Gate::Nand.is_combinational());
        assert!(!Gate::Input.is_combinational());
        assert!(!Gate::Output.is_combinational());
    }

    #[test]
    fn gate_eval_basic() {
        assert!(Gate::And.eval(&[true, true]));
        assert!(!Gate::And.eval(&[true, false]));
        assert!(Gate::Nand.eval(&[true, false]));
        assert!(Gate::Or.eval(&[false, true]));
        assert!(!Gate::Nor.eval(&[false, true]));
        assert!(Gate::Xor.eval(&[true, false, false]));
        assert!(!Gate::Xor.eval(&[true, true]));
        assert!(Gate::Xnor.eval(&[true, true]));
        assert!(Gate::Not.eval(&[false]));
        assert!(Gate::Buf.eval(&[true]));
    }

    #[test]
    fn gate_eval_multi_input_parity() {
        // 5-input XOR = odd parity.
        assert!(Gate::Xor.eval(&[true, true, true, false, false]));
        assert!(!Gate::Xor.eval(&[true, true, false, false, false]));
    }

    #[test]
    fn bench_name_round_trip() {
        for g in [
            Gate::Buf,
            Gate::Not,
            Gate::And,
            Gate::Nand,
            Gate::Or,
            Gate::Nor,
            Gate::Xor,
            Gate::Xnor,
            Gate::Dff,
        ] {
            let name = g.bench_name().expect("named gate");
            assert_eq!(Gate::from_bench_name(name), Some(g));
        }
        assert_eq!(Gate::from_bench_name("nand"), Some(Gate::Nand));
        assert_eq!(Gate::from_bench_name("bogus"), None);
    }

    #[test]
    fn arity_bounds() {
        assert_eq!(Gate::Input.arity(), (0, 0));
        assert_eq!(Gate::Not.arity(), (1, 1));
        assert_eq!(Gate::And.arity().0, 1);
    }

    #[test]
    fn cell_id_display_and_index() {
        let id = CellId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "c7");
    }
}
