//! Error type for netlist construction and I/O.

use std::error::Error;
use std::fmt;

/// Errors produced while building, validating, or parsing netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A cell name was used twice.
    DuplicateName(String),
    /// A referenced cell or net name does not exist.
    UnknownName(String),
    /// A gate was given an illegal number of inputs.
    BadArity {
        /// The offending cell's name.
        cell: String,
        /// Number of fanins supplied.
        got: usize,
    },
    /// The combinational portion of the netlist contains a cycle.
    CombinationalCycle {
        /// Name of a cell on the cycle.
        witness: String,
    },
    /// A parse error in `.bench` input.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the problem.
        message: String,
    },
    /// The netlist is structurally inconsistent (dangling reference etc.).
    Inconsistent(String),
    /// An operation required flip-flops but the netlist has a different
    /// sequential style (or vice versa).
    WrongSequentialStyle(String),
    /// Two netlists compared port by port declare different numbers of
    /// primary inputs or outputs.
    InterfaceMismatch {
        /// `"input"` or `"output"`.
        ports: &'static str,
        /// The port count of the first netlist.
        left: usize,
        /// The port count of the second netlist.
        right: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateName(n) => write!(f, "duplicate cell name `{n}`"),
            NetlistError::UnknownName(n) => write!(f, "unknown cell or net name `{n}`"),
            NetlistError::BadArity { cell, got } => {
                write!(f, "cell `{cell}` has an illegal fanin count of {got}")
            }
            NetlistError::CombinationalCycle { witness } => {
                write!(f, "combinational cycle through cell `{witness}`")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::Inconsistent(m) => write!(f, "inconsistent netlist: {m}"),
            NetlistError::WrongSequentialStyle(m) => {
                write!(f, "wrong sequential style: {m}")
            }
            NetlistError::InterfaceMismatch { ports, left, right } => {
                write!(f, "primary {ports} counts differ: {left} vs {right}")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NetlistError::DuplicateName("g1".into());
        assert_eq!(e.to_string(), "duplicate cell name `g1`");
        let e = NetlistError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn is_error_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<NetlistError>();
    }
}
