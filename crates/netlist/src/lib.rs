//! Gate-level netlist substrate for resiliency-aware retiming.
//!
//! This crate provides the circuit representation shared by every other
//! crate in the workspace:
//!
//! * [`Netlist`] — a flip-flop based gate-level netlist (the form in which
//!   benchmark circuits such as ISCAS89 are distributed),
//! * a reader and a canonical writer for the ISCAS89 [`mod@bench`] format,
//! * [`CombCloud`] — the combinational retiming view obtained by
//!   cutting the circuit at its flip-flops (Section III of the paper):
//!   inputs are (fixed) master-latch outputs, outputs are (fixed)
//!   master-latch inputs; stored flat, fanins and fanouts as [`Csr`] rows,
//! * [`topo_sort`] — the one topological sort of the netlist layer
//!   (cloud order, combinational cell order, the `.bench` cycle check),
//! * [`ConeWalk`] — reusable fan-in cone walks (epoch-stamped marks,
//!   reverse post-order), so per-endpoint queries cost O(cone),
//! * [`Cut`] — a placement of slave latches on the edges of the cloud,
//!   with validity checking (every input→output path must cross exactly one
//!   slave latch) and latch counting under fanout sharing.
//!
//! # Example
//!
//! ```
//! # use retime_netlist::{Netlist, Gate};
//! # fn main() -> Result<(), retime_netlist::NetlistError> {
//! let mut n = Netlist::new("adder_bit");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let x = n.add_gate("sum", Gate::Xor, &[a, b])?;
//! let q = n.add_gate("q", Gate::Dff, &[x])?;
//! n.add_output("out", q)?;
//! n.validate()?;
//! assert_eq!(n.stats().dffs, 1);
//! # Ok(())
//! # }
//! ```

pub mod bench;
pub mod cell;
pub mod cloud;
pub mod cone;
pub mod cut;
pub mod error;
pub mod graph;
mod names;
pub mod netlist;

pub use cell::{Cell, CellId, Gate};
pub use cloud::{CloudEdge, CombCloud, NodeId, NodeKind};
pub use cone::ConeWalk;
pub use cut::Cut;
pub use error::NetlistError;
pub use graph::{topo_sort, Csr, Dense};
pub use netlist::{Netlist, NetlistStats};
