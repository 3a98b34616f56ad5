//! The [`TimingAnalysis`] facade: forward/backward STA, the Eq. (5)
//! arrival model, sink classification, and cut timing.

use retime_liberty::{DelayArc, Library};
use retime_netlist::{CombCloud, ConeWalk, Cut, NodeId, NodeKind};

use crate::backward::{db_to_any_sink, BackwardPass};
use crate::clock::TwoPhaseClock;
use crate::forward::{arrivals_with_cut, arrivals_with_moved, pure_arrivals, Arrival};
use crate::model::{DelayModel, NodeDelays, StaError};

/// Classification of a sink (potential master latch) with respect to the
/// retiming decision (Section IV-A):
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SinkClass {
    /// The longest combinational path already exceeds `Π`: the master must
    /// be error-detecting wherever the slaves go (`g(t) = ∅`).
    AlwaysErrorDetecting,
    /// Even the earliest valid slave position keeps the arrival within
    /// `Π`: never error-detecting (`g(t) = ∅`).
    NeverErrorDetecting,
    /// The slave positions decide — a *target master latch*.
    Target,
}

/// Timing of a concrete slave-latch placement.
#[derive(Debug, Clone, PartialEq)]
pub struct CutTiming {
    /// Worst arrival at each sink (indexed like `cloud.sinks()`): the
    /// margined arrivals [`error_detecting_masters`] reads.
    pub sink_arrivals: Vec<f64>,
    /// Latch positions violating the forward time-borrowing constraint
    /// (6): data reaches the slave after it closes.
    pub setup_violations: Vec<NodeId>,
    /// Sinks violating the hard limit `Π + φ1` (constraint 7 in arrival
    /// form): even the resiliency window cannot absorb the path.
    pub capture_violations: Vec<NodeId>,
}

impl CutTiming {
    /// Whether the placement satisfies constraints (6) and (7).
    pub fn is_feasible(&self) -> bool {
        self.setup_violations.is_empty() && self.capture_violations.is_empty()
    }
}

/// The tolerance of every comparison against a clock edge
/// (`value > edge + EPS`), absorbing floating-point noise. The
/// classification, the legality regions, the EDL rule, the statistical
/// yield step and the verifier's Monte Carlo replay all compare with it,
/// so their decisions agree bit for bit where their values do.
pub const EPS: f64 = 1e-9;

/// The EDL rule: a master capturing `margined_arrival`
/// ([`Arrival::margined`]: the worst transition, or `m + z·σ_tot`, as
/// `yield(Π) < target ⟺ m + z·σ_tot > Π`) must be error-detecting when
/// data reaches it past `Π`. Every error-detecting decision reads it.
#[inline]
pub fn is_error_detecting(margined_arrival: f64, clock: &TwoPhaseClock) -> bool {
    margined_arrival > clock.period() + EPS
}

/// [`is_error_detecting`] per sink (arrivals aligned with
/// `cloud.sinks()`), masked to master-backed sinks: a primary output
/// never pays EDL overhead.
pub fn error_detecting_masters(
    cloud: &CombCloud,
    clock: &TwoPhaseClock,
    margined_arrivals: &[f64],
) -> Vec<bool> {
    cloud
        .sinks()
        .iter()
        .zip(margined_arrivals)
        .map(|(&t, &a)| {
            matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) })
                && is_error_detecting(a, clock)
        })
        .collect()
}

/// Static timing analysis of a [`CombCloud`] under a [`TwoPhaseClock`],
/// in the arithmetic of an [`Arrival`]: per-transition [`DelayArc`]s by
/// default, `retime-stat`'s canonical forms under the statistical
/// model.
///
/// It keeps the pure arrivals `D^f` and the worst backward delays to any
/// sink from one whole-cloud pass, and the [`Arrival::Margin`] that maps
/// each value onto the number compared against `Π`
/// ([`TimingAnalysis::margined`]). The Eq. (5) placement arrival and
/// everything derived from it — [`TimingAnalysis::a_value`],
/// [`TimingAnalysis::a_host`], [`TimingAnalysis::worst_initial`],
/// [`TimingAnalysis::sink_arrival_with_moved`] — are written once over
/// the arrival algebra and return margined values, so one definition
/// serves both delay models.
#[derive(Debug, Clone)]
pub struct TimingAnalysis<'a, A: Arrival = DelayArc> {
    cloud: &'a CombCloud,
    clock: TwoPhaseClock,
    delays: NodeDelays,
    margin: A::Margin,
    arrivals: Vec<A>,
    db_any: Vec<Option<A>>,
}

impl<'a> TimingAnalysis<'a> {
    /// Builds the per-transition analysis from a library. Under
    /// [`DelayModel::Statistical`] it analyses the nominal delays; the
    /// statistical analysis is `TimingAnalysis::<Canon>::run` over the
    /// same tables.
    ///
    /// # Errors
    /// Returns [`StaError::Library`] if a gate function is unmapped.
    pub fn new(
        cloud: &'a CombCloud,
        lib: &Library,
        clock: TwoPhaseClock,
        model: DelayModel,
    ) -> Result<TimingAnalysis<'a>, StaError> {
        let delays = NodeDelays::from_library(cloud, lib, model)?;
        Ok(Self::run(cloud, delays, clock))
    }

    /// Builds the per-transition analysis from explicit delay tables
    /// (e.g. the Fig. 4 worked example).
    pub fn with_delays(
        cloud: &'a CombCloud,
        delays: NodeDelays,
        clock: TwoPhaseClock,
    ) -> TimingAnalysis<'a> {
        Self::run(cloud, delays, clock)
    }

    /// Full timing of a concrete cut: per-sink arrivals and violations of
    /// constraints (6)/(7).
    pub fn cut_timing(&self, cut: &Cut) -> CutTiming {
        let _span = retime_trace::span("cut_timing");
        let arr = arrivals_with_cut(self.cloud, &self.delays, &self.clock, cut);
        timing_of(self.cloud, &self.clock, cut, &arr, |v| self.df(v))
    }
}

impl<'a, A: Arrival> TimingAnalysis<'a, A> {
    /// Runs the whole-cloud passes over `delays` in `A`'s arithmetic
    /// (under an `sta_full_pass` span).
    ///
    /// # Panics
    /// Panics if `A` cannot represent the tables' delay model
    /// ([`Arrival::margin`]).
    pub fn run(
        cloud: &'a CombCloud,
        delays: NodeDelays,
        clock: TwoPhaseClock,
    ) -> TimingAnalysis<'a, A> {
        let margin = A::margin(&delays, &clock);
        let (arrivals, db_any) = full_pass(cloud, &delays);
        TimingAnalysis {
            cloud,
            clock,
            delays,
            margin,
            arrivals,
            db_any,
        }
    }

    /// The analysed cloud (borrowed for the cloud's own lifetime, so a
    /// caller can hold it while it edits `self`, as legalization does).
    pub fn cloud(&self) -> &'a CombCloud {
        self.cloud
    }

    /// The clock model.
    pub fn clock(&self) -> &TwoPhaseClock {
        &self.clock
    }

    /// The delay tables.
    pub fn delays(&self) -> &NodeDelays {
        &self.delays
    }

    /// The delay tables, dropping the passes computed over them (what a
    /// flow's commit legalizes, see [`cut_timing`]).
    pub fn into_delays(self) -> NodeDelays {
        self.delays
    }

    /// The number a value is compared against a clock edge as: the worst
    /// transition of a [`DelayArc`], `m + z·sqrt(σ² + σ_c²)` of a
    /// canonical form ([`Arrival::margined`]).
    pub fn margined(&self, a: &A) -> f64 {
        a.margined(&self.margin)
    }

    /// The paper's `D^f(v)`: worst pure combinational arrival at the
    /// output of `v` (no slave latch anywhere, master launch included),
    /// margined.
    pub fn df(&self, v: NodeId) -> f64 {
        self.margined(&self.arrivals[v.index()])
    }

    /// The pure arrival at `v` as the analysis carries it (per polarity,
    /// or canonical) — [`TimingAnalysis::df`] before the margin.
    pub fn df_arc(&self, v: NodeId) -> A {
        self.arrivals[v.index()]
    }

    /// Worst `D^b(v, t)` over **all** sinks `t` (used for the `V_m` region
    /// test), margined; `None` if `v` reaches no sink.
    pub fn db_any(&self, v: NodeId) -> Option<f64> {
        self.db_any[v.index()].map(|d| self.margined(&d))
    }

    /// Runs the per-sink backward pass computing `D^b(·, t)`.
    ///
    /// # Panics
    /// Panics if `t` is not a sink.
    pub fn backward(&self, t: NodeId) -> BackwardPass<A> {
        BackwardPass::run(self.cloud, &self.delays, t)
    }

    /// The arrival-time model of Eq. (5), margined: worst arrival at the
    /// sink of `bp` when a slave latch sits on edge `(u, v)`:
    ///
    /// `A(u,v,t) = max{φ1+γ1+d^{ck_q}, D^f(u)+d^{d_q}} + d(v) + D^b(v,t)`,
    ///
    /// evaluated as `max{open + through(v), D^f(u) + d^{d_q} + through(v)}`
    /// in the arrival algebra: per valid rise/fall combination under the
    /// path-based model, by Clark's max (window term first) on canonical
    /// forms. Returns `None` when `v` does not reach the sink.
    pub fn a_value(&self, u: NodeId, v: NodeId, bp: &BackwardPass<A>) -> Option<f64> {
        let through = bp.through(v)?;
        let open = self.clock.slave_open() + self.delays.latch_ckq();
        let window = through.shift(open);
        let path = self.arrivals[u.index()]
            .shift(self.delays.latch_dq())
            .series(through);
        Some(self.margined(&window.merge(path)))
    }

    /// Arrival at the sink of `bp` when the slave latch sits **at the
    /// source** `s` (on the host edge, the initial position), margined:
    /// the re-launched master output plus `D^b(s, t)`.
    pub fn a_host(&self, s: NodeId, bp: &BackwardPass<A>) -> Option<f64> {
        if s == bp.sink() {
            return None;
        }
        let fo = bp.from_output(s)?;
        let re = A::launch(&self.delays).relaunch(&self.clock, &self.delays);
        Some(self.margined(&re.series(fo)))
    }

    /// Worst arrival at the sink of `bp` over the initial (source)
    /// placements: the maximum of [`TimingAnalysis::a_host`] over the
    /// sources of the sink's cone (`-∞` when the cone holds none).
    pub fn worst_initial(&self, bp: &BackwardPass<A>) -> f64 {
        bp.cone()
            .iter()
            .filter(|&&s| self.cloud.kind(s).is_source())
            .filter_map(|&s| self.a_host(s, bp))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Worst arrival at a sink with the slaves placed by the moved set
    /// `moved`, margined — the sink's value in a whole-cloud pass with
    /// the cut moving exactly `moved`, but propagated over the sink's
    /// cone alone. `cone` is the sink's fan-in cone, sink first and every
    /// node before its fanins (as [`BackwardPass::cone`] lists it). `arr`
    /// is cloud-sized scratch; only the cone's slots are written.
    pub fn sink_arrival_with_moved(&self, cone: &[NodeId], moved: &ConeWalk, arr: &mut [A]) -> f64 {
        arrivals_with_moved(
            self.cloud,
            &self.delays,
            &self.clock,
            cone.iter().rev().copied(),
            |v| moved.contains(v),
            arr,
        );
        self.margined(&arr[cone[0].index()])
    }

    /// Arrivals at every node with every slave at its source (the
    /// initial cut, each source re-launched): the arrivals from which
    /// [`TimingAnalysis::cut_timing`] of [`Cut::initial`] reads its sink
    /// values. A sink's value is the maximum over the same source→sink
    /// paths as [`TimingAnalysis::worst_initial`], summed source first
    /// instead of sink first, so under per-transition arithmetic the two
    /// differ only by rounding.
    pub fn initial_arrivals(&self) -> Vec<A> {
        let mut arr = vec![A::default(); self.cloud.len()];
        arrivals_with_moved(
            self.cloud,
            &self.delays,
            &self.clock,
            self.cloud.topo().iter().copied(),
            |_| false,
            &mut arr,
        );
        arr
    }
}

/// [`TimingAnalysis::cut_timing`] from the delay tables alone: one
/// forward pass with the cut's latches, and no pure-arrival or backward
/// pass. In a valid cut every fanin of a moved node is moved, so the
/// arrival at a moved node crosses no latch and is its pure arrival
/// `D^f`, bit for bit; an unmoved source's `D^f` is the launch. Those
/// are the latch positions constraint (6) reads. Opens a `cut_timing`
/// span.
///
/// # Panics
/// Debug builds panic if `cut` is not valid ([`Cut::validate`]).
pub fn cut_timing(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    cut: &Cut,
) -> CutTiming {
    let _span = retime_trace::span("cut_timing");
    debug_assert!(cut.validate(cloud).is_ok(), "cut_timing needs a valid cut");
    let arr = arrivals_with_cut(cloud, delays, clock, cut);
    let launch = delays.launch();
    timing_of(cloud, clock, cut, &arr, |v| {
        if cut.is_moved(v) {
            arr[v.index()].max()
        } else {
            launch
        }
    })
}

/// The [`CutTiming`] of `cut` from its arrivals `arr`, with `df` giving
/// the pure arrival `D^f` at each latch position.
fn timing_of(
    cloud: &CombCloud,
    clock: &TwoPhaseClock,
    cut: &Cut,
    arr: &[DelayArc],
    df: impl Fn(NodeId) -> f64,
) -> CutTiming {
    let pmax = clock.max_path_delay();
    let sink_arrivals: Vec<f64> = cloud
        .sinks()
        .iter()
        .map(|&t| arr[t.index()].max())
        .collect();
    let capture_violations: Vec<NodeId> = cloud
        .sinks()
        .iter()
        .copied()
        .zip(&sink_arrivals)
        .filter(|&(_, &a)| a > pmax + EPS)
        .map(|(t, _)| t)
        .collect();
    // Constraint (6): data must reach every placed slave before it
    // closes. The slave at node v sees the *pure* arrival at v
    // (exactly one latch per path, and it is this one).
    let close = clock.slave_close();
    let setup_violations: Vec<NodeId> = cut
        .latch_positions(cloud)
        .into_iter()
        .filter(|&v| df(v) > close + EPS)
        .collect();
    CutTiming {
        sink_arrivals,
        setup_violations,
        capture_violations,
    }
}

/// The critical delay of `cloud` under `model`: the worst pure arrival
/// `D^f(t)` over its sinks (0 without sinks), bit-identical to the
/// maximum of [`TimingAnalysis::df`] over them. Looks the delays up and
/// runs the forward pass only — no backward pass, no clock. Clock
/// calibration needs nothing more.
///
/// # Errors
/// Returns [`StaError::Library`] if a gate function is unmapped.
pub fn critical_delay(
    cloud: &CombCloud,
    lib: &Library,
    model: DelayModel,
) -> Result<f64, StaError> {
    let delays = NodeDelays::from_library(cloud, lib, model)?;
    let arrivals: Vec<DelayArc> = pure_arrivals(cloud, &delays);
    Ok(cloud
        .sinks()
        .iter()
        .map(|&t| arrivals[t.index()].max())
        .fold(0.0f64, f64::max))
}

/// The cached whole-cloud passes: pure arrivals `D^f` and the worst
/// backward delay to any sink.
fn full_pass<A: Arrival>(cloud: &CombCloud, delays: &NodeDelays) -> (Vec<A>, Vec<Option<A>>) {
    let _span = retime_trace::span("sta_full_pass");
    (pure_arrivals(cloud, delays), db_to_any_sink(cloud, delays))
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::bench;

    fn setup(p: f64) -> (retime_netlist::Netlist, TwoPhaseClock) {
        let n = bench::parse(
            "t",
            "\
INPUT(a)
INPUT(b)
OUTPUT(z)
g1 = NAND(a, b)
g2 = NOT(g1)
g3 = NAND(g2, b)
g4 = NOT(g3)
z = NAND(g4, a)
",
        )
        .unwrap();
        (n, TwoPhaseClock::from_max_delay(p))
    }

    #[test]
    fn df_increases_along_chain() {
        let (n, clock) = setup(0.5);
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let g1 = cloud.find("g1").unwrap();
        let g3 = cloud.find("g3").unwrap();
        assert!(sta.df(g3) > sta.df(g1));
    }

    #[test]
    fn a_value_at_least_window_launch() {
        let (n, clock) = setup(0.5);
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let t = cloud.sinks()[0];
        let bp = sta.backward(t);
        let g1 = cloud.find("g1").unwrap();
        let g2 = cloud.find("g2").unwrap();
        let a = sta.a_value(g1, g2, &bp).unwrap();
        assert!(a >= clock.slave_open() + sta.delays().latch_ckq());
    }

    #[test]
    fn a_value_monotone_in_latch_position() {
        // Moving the latch later along a chain cannot increase the arrival.
        let (n, clock) = setup(0.2);
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
        let t = cloud.sinks()[0];
        let bp = sta.backward(t);
        let g1 = cloud.find("g1").unwrap();
        let g2 = cloud.find("g2").unwrap();
        let g3 = cloud.find("g3").unwrap();
        let g4 = cloud.find("g4").unwrap();
        let early = sta.a_value(g1, g2, &bp).unwrap();
        let mid = sta.a_value(g2, g3, &bp).unwrap();
        let late = sta.a_value(g3, g4, &bp).unwrap();
        assert!(early >= mid - 1e-12);
        assert!(mid >= late - 1e-12);
    }

    #[test]
    fn cut_timing_initial_cut() {
        let (n, clock) = setup(0.5);
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let cut = Cut::initial(&cloud);
        let ct = sta.cut_timing(&cut);
        assert_eq!(ct.sink_arrivals.len(), cloud.sinks().len());
        // Initial latches at sources always meet constraint (6): the data
        // arrives at launch time.
        assert!(ct.setup_violations.is_empty());
    }

    #[test]
    fn initial_arrivals_match_the_initial_cut() {
        let (n, clock) = setup(0.5);
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        for model in [DelayModel::PathBased, DelayModel::GateBased] {
            let sta = TimingAnalysis::new(&cloud, &lib, clock, model).unwrap();
            let arr = sta.initial_arrivals();
            let ct = sta.cut_timing(&Cut::initial(&cloud));
            for (i, &t) in cloud.sinks().iter().enumerate() {
                assert_eq!(arr[t.index()].max(), ct.sink_arrivals[i]);
                // The same paths summed the other way round.
                let wi = sta.worst_initial(&sta.backward(t));
                assert!((arr[t.index()].max() - wi).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn critical_delay_is_the_worst_sink_df() {
        let (n, clock) = setup(0.5);
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        for model in [DelayModel::PathBased, DelayModel::GateBased] {
            let sta = TimingAnalysis::new(&cloud, &lib, clock, model).unwrap();
            let worst = cloud
                .sinks()
                .iter()
                .map(|&t| sta.df(t))
                .fold(0.0f64, f64::max);
            let crit = critical_delay(&cloud, &lib, model).unwrap();
            assert_eq!(crit.to_bits(), worst.to_bits(), "{model:?}");
        }
    }

    #[test]
    fn delay_only_cut_timing_matches_the_analysis() {
        // Cuts whose latch positions are moved gates, unmoved sources and
        // both, under relaxed and tight clocks, so that constraint (6)
        // both holds and fails.
        let (n, _) = setup(0.5);
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let mut cuts = vec![Cut::initial(&cloud)];
        for moved in [&["a", "b", "g1"][..], &["a", "b", "g1", "g2", "g3"]] {
            let mut cut = Cut::initial(&cloud);
            for name in moved {
                cut.set_moved(cloud.find(name).unwrap(), true);
            }
            cut.validate(&cloud).unwrap();
            cuts.push(cut);
        }
        let mut setup_violated = false;
        for p in [0.02, 0.1, 0.5] {
            let clock = TwoPhaseClock::from_max_delay(p);
            for model in [DelayModel::PathBased, DelayModel::GateBased] {
                let sta = TimingAnalysis::new(&cloud, &lib, clock, model).unwrap();
                for cut in &cuts {
                    let want = sta.cut_timing(cut);
                    let got = cut_timing(&cloud, sta.delays(), &clock, cut);
                    assert_eq!(got, want, "P = {p}, {model:?}");
                    setup_violated |= !want.setup_violations.is_empty();
                }
            }
        }
        assert!(setup_violated, "some cut must violate constraint (6)");
    }
}
