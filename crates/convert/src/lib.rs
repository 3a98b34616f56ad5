//! Edge-triggered → two-phase conversion front door.
//!
//! The paper's pipeline assumes circuits arrive as two-phase
//! master/slave latch netlists; real designs arrive as single-phase
//! edge-triggered FF netlists. This crate bridges that gap — the
//! automatic flip-flop → latch conversion step of the UCSC clocking-
//! conversion flow — so ordinary designs can enter the resilient-
//! retiming pipeline end-to-end:
//!
//! * [`edif`] — an EDIF 2.0.0 reader built on an interned-[`Atom`]
//!   symbol table ([`Interner`]) and a depth-limited, panic-free
//!   s-expression parser ([`sexpr`]), lowering onto
//!   [`retime_netlist::Netlist`] alongside the `.bench` path;
//!   plus a deterministic writer so netlists round-trip.
//! * [`mod@convert`] — the conversion pass: split each FF into a master
//!   latch (φ1, fixed) and slave latch (φ2, movable), map FF cells to
//!   the calibrated latch cells of `retime-liberty`, validate the
//!   one-slave-per-master-to-master-path invariant, and report the
//!   clock/borrowing constraints (⟨φ1,γ1,φ2,γ2⟩, constraints 6–7) via
//!   `retime-sta`. Runs as a [`retime_engine::Stage::Convert`] front
//!   stage with trace spans and counters, and proves the converted
//!   circuit functionally equivalent to its FF source by simulation.
//!
//! The `retime-convert` binary wraps all of it as a CLI
//! (`.bench`/EDIF in → converted netlist out, optionally straight
//! through the three retiming flows with certification), and
//! `retime-serve` exposes it as `format: "edif"` / `convert: true`
//! submission options. See `DESIGN.md` §2h.

#![warn(missing_docs)]

pub mod atom;
#[allow(clippy::module_inception)]
pub mod convert;
pub mod edif;
pub mod error;
pub mod sexpr;

pub use atom::{Atom, Interner};
pub use convert::{convert, Conversion, ConvertConfig, ConvertReport};
pub use edif::{EdifDesign, EdifStats};
pub use error::ConvertError;
pub use sexpr::{Limits, Sexpr};

use retime_netlist::Netlist;

/// A deterministic, order-insensitive structural signature of a
/// netlist: primary inputs in declaration order, output markers with
/// their driver in declaration order, and every named cell with its
/// gate and fanin names (sorted by cell name). Two netlists with equal
/// signatures are the same circuit regardless of internal cell-id
/// assignment — the round-trip property the EDIF proptests check.
pub fn structural_signature(n: &Netlist) -> String {
    let mut out = String::new();
    out.push_str("inputs:");
    for &i in n.inputs() {
        out.push(' ');
        out.push_str(&n.cell(i).name);
    }
    out.push_str("\noutputs:");
    for &o in n.outputs() {
        let c = n.cell(o);
        out.push(' ');
        out.push_str(&c.name);
        out.push('<');
        out.push_str(&n.cell(c.fanin[0]).name);
    }
    out.push('\n');
    let mut lines: Vec<String> = n
        .cells()
        .iter()
        .filter_map(|c| {
            c.gate.bench_name().map(|kw| {
                let ins: Vec<&str> = c.fanin.iter().map(|&f| n.cell(f).name.as_str()).collect();
                format!("{} = {}({})", c.name, kw, ins.join(", "))
            })
        })
        .collect();
    lines.sort_unstable();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::bench;

    #[test]
    fn signature_ignores_statement_order_but_not_structure() {
        let a = bench::parse(
            "x",
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\ny = OR(a, b)\n",
        )
        .unwrap();
        let b = bench::parse(
            "x",
            "INPUT(a)\nINPUT(b)\ny = OR(a, b)\nz = AND(a, b)\nOUTPUT(z)\n",
        )
        .unwrap();
        assert_eq!(structural_signature(&a), structural_signature(&b));
        let c = bench::parse(
            "x",
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(b, a)\ny = OR(a, b)\n",
        )
        .unwrap();
        assert_ne!(
            structural_signature(&a),
            structural_signature(&c),
            "pin order is semantic"
        );
    }

    #[test]
    fn signature_tracks_io_declaration_order() {
        let a = bench::parse("x", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n").unwrap();
        let b = bench::parse("x", "INPUT(b)\nINPUT(a)\nOUTPUT(z)\nz = AND(a, b)\n").unwrap();
        assert_ne!(structural_signature(&a), structural_signature(&b));
    }
}
