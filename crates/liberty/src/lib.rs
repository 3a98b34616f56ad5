//! Standard-cell library model for resiliency-aware retiming.
//!
//! Provides what the paper's flows need from a Liberty-style library:
//!
//! * combinational cells with area and pin-to-pin rise/fall delays plus a
//!   load-dependent term ([`CombCell`]),
//! * sequential cells: flip-flops and level-sensitive latches
//!   ([`FlipFlopCell`], [`LatchCell`]) — the latch's D-to-Q delay differs
//!   from its clock-to-Q delay, which Section III notes can vary by up to
//!   40 % in a modern library,
//! * the amortized error-detecting latch (EDL) area overhead
//!   [`EdlOverhead`] `c`, swept over {0.5, 1.0, 2.0}.
//!
//! The virtual library of Section V is not a cell table here: the
//! `retime-vl` crate implements it as latch typing and region
//! constraints on the retiming instance.
//!
//! The built-in [`Library::fdsoi28`] library is calibrated so that a latch
//! is ≈43 % of a flip-flop's area, matching the ratio reported in the
//! paper's Section VI-D.
//!
//! # Example
//!
//! ```
//! use retime_liberty::{EdlOverhead, Library};
//!
//! let lib = Library::fdsoi28();
//! let c = EdlOverhead::MEDIUM;
//! let ed_latch_area = lib.latch().area * (1.0 + c.value());
//! assert!(ed_latch_area > lib.latch().area);
//! ```

pub mod cells;
pub mod library;
pub mod overhead;

pub use cells::{CombCell, DelayArc, FlipFlopCell, LatchCell, Sense};
pub use library::{Library, LibraryError};
pub use overhead::EdlOverhead;
