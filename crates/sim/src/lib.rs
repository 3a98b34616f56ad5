//! Gate-level simulation: functional equivalence and error-rate
//! measurement.
//!
//! * [`Simulator`] — cycle-accurate functional simulation of flip-flop or
//!   master/slave latch netlists (slaves are transparent at the cycle
//!   level, so a *valid* retiming preserves the cycle function exactly —
//!   the invariant [`equivalent`] checks with random vectors). Each
//!   netlist is compiled once into a flat gate program and a cycle runs
//!   it without allocating: the 256-cycle conversion proof on s35932
//!   takes about 9 ms (see [`functional`]),
//! * [`error_rate()`] — the random-input timed simulation behind the
//!   paper's Table VIII: per cycle, propagate last-transition times
//!   through the cloud (re-launching across slave latches) and count the
//!   cycles in which any error-detecting master sees its data transition
//!   inside the resiliency window `(Π, Π + φ1]`.
//!
//! # Example
//!
//! ```
//! use retime_netlist::bench;
//! use retime_sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = bench::parse("d", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = NOT(q)\n")?;
//! let mut sim = Simulator::new(&n)?;
//! let out1 = sim.step(&[true]);
//! let out2 = sim.step(&[false]);
//! assert_eq!(out1, vec![true]); // q was 0, z = !q = 1
//! assert_eq!(out2, vec![false]); // q latched the 1
//! # Ok(())
//! # }
//! ```

pub mod error_rate;
pub mod functional;

pub use error_rate::{error_rate, ErrorRateConfig, ErrorRateReport};
pub use functional::{equivalent, Simulator};
