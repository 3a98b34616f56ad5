//! Benchmark circuits for the retiming experiments.
//!
//! * [`fig4`] — the paper's worked example (Fig. 4/5), reconstructed so
//!   that **every** number quoted in the text holds exactly: the region
//!   split `V_m = {I1}`, `V_n = {G7, G8, O9}`, the cut-set
//!   `g(O9) = {G5, G6}`, the arrival values `A(G6,G7,O9) = 9`,
//!   `A(G3,G6,O9) = 12`, `A(G5,G7,O9) = 7`, `A(I2,G5,O9) = 12`, and the
//!   optimal retiming `r(I1) = r(I2) = r(G3) = r(G4) = r(G5) = r(G6) =
//!   r(P(O9)) = −1` (three slave latches + one non-error-detecting
//!   master = 4 area units at `c = 2`, versus 5 for min-area retiming).
//! * [`rtl`] — structured logic builders (ripple-carry adders, mux trees,
//!   decoders, register files) used to assemble a Plasma-like 3-stage
//!   CPU.
//! * [`synth`] — a deterministic levelized random-DAG generator, and the
//!   adversarial inverter loop ([`inverter_loop`]).
//! * [`suite`] — the benchmark suite calibrated to the paper's Table I
//!   (one entry per ISCAS89 circuit plus the Plasma CPU), with the
//!   clock-calibration rule that reproduces each circuit's published
//!   near-critical-endpoint count.
//!
//! The genuine ISCAS89 netlists are not redistributable here; the suite
//! is a *synthetic substitution* calibrated to the published per-circuit
//! statistics (flip-flop count, area scale, NCE count — see `DESIGN.md`).
//! Real `.bench` files drop in unchanged through
//! [`retime_netlist::bench`].

pub mod fig4;
pub mod rtl;
pub mod suite;
pub mod synth;

pub use fig4::Fig4;
pub use rtl::{plasma_like, RtlBuilder};
pub use suite::{paper_suite, relaxed_clock, CircuitSpec, SuiteCircuit};
pub use synth::{inverter_loop, SynthConfig};
