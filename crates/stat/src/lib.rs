#![warn(missing_docs)]
//! Statistical static timing for two-phase latch-based resilient
//! circuits: first-order canonical delay forms, canonical propagation
//! over the latch graph, per-sink timing yield, and the margin the
//! yield-aware error-detecting-latch rule reads.
//!
//! # Model
//!
//! Each gate delay is a Gaussian `m + g·G + r·R_v` ([`Canon`]): a
//! nominal mean, a globally-correlated sigma component (one shared
//! process variable for the die), and an independent residual. Sigmas
//! are the seeded fraction of nominal baked into
//! [`retime_sta::NodeDelays`] by [`retime_sta::DelayModel::Statistical`].
//! The crate reads no environment: yield, sigmas and seed arrive as that
//! model's [`retime_sta::StatParams`], which the binaries fill from the
//! `RETIME_*` knobs through `retime_bench::RunConfig` and serve from a
//! job's fields, both through [`retime_sta::StatParams::checked`].
//!
//! Propagation has no code of its own: [`propagate`] implements
//! [`retime_sta::Arrival`] for [`Canon`], so the deterministic forward
//! sweeps and backward passes of `retime-sta` run in canonical
//! arithmetic. As in the reduced-iteration scheme of
//! Li/Chen/Schlichtmann, latch loops are graph-transformed away; the
//! cloud is acyclic, so one topological sweep is exact.
//!
//! The Eq. (5) placement arrival, the cut-set `g(t)`, the sink
//! classification and the legality regions are not repeated here: they
//! are written once over [`retime_sta::Arrival`], and
//! `TimingAnalysis<Canon>` runs them in canonical arithmetic. What this
//! crate adds is the margin that decides every comparison against the
//! clock ([`StatMargin`], `m + Φ⁻¹(target)·σ_tot` with the clock sigma
//! folded into `σ_tot`): per-sink timing yield at the clock period, the
//! yield-aware EDL rule (`yield < target ⟺ margined arrival > Π`), and
//! clock-jitter sensitivity. With all sigmas zero every margined
//! quantity is bitwise the deterministic gate-based value — the property
//! the cross-flow differential tests pin.
//!
//! # Example
//!
//! ```
//! use retime_liberty::Library;
//! use retime_netlist::{bench, CombCloud, Cut};
//! use retime_sta::{
//!     arrivals_with_cut, is_error_detecting, DelayModel, NodeDelays, StatParams, TimingAnalysis,
//!     TwoPhaseClock,
//! };
//! use retime_stat::{Canon, StatMargin};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = bench::parse("d", "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")?;
//! let cloud = CombCloud::extract(&n)?;
//! let model = DelayModel::Statistical(StatParams::DEFAULT);
//! let delays = NodeDelays::from_library(&cloud, &Library::fdsoi28(), model)?;
//! let clock = TwoPhaseClock::from_max_delay(0.5);
//! // Yields of a cut: one canonical sweep, no whole-cloud analysis.
//! let arr: Vec<Canon> = arrivals_with_cut(&cloud, &delays, &clock, &Cut::initial(&cloud));
//! let z = cloud.sinks()[0];
//! let margin = StatMargin::new(&delays, &clock);
//! // The EDL rule on the margined arrival: past Π, or not.
//! assert!(!is_error_detecting(margin.margined(&arr[z.index()]), &clock));
//! let summary = margin.summarize(vec![arr[z.index()]]);
//! assert!(summary.min_yield > 0.99);
//! // The margined pure arrival of the sink, from the shared analysis.
//! let sta = TimingAnalysis::<Canon>::run(&cloud, delays, clock);
//! assert!(sta.df(cloud.sinks()[0]) < clock.period());
//! # Ok(())
//! # }
//! ```

pub mod analyze;
pub mod canon;
pub mod normal;
pub mod propagate;

pub use analyze::{StatMargin, StatSummary};
pub use canon::Canon;
