//! The [`StatTiming`] facade: margined statistical quantities, per-sink
//! timing yield, and the yield-aware EDL rule.
//!
//! Every decision the deterministic flows make against a clock edge
//! (`value > limit + EPS`) is replayed here with a *margined* value
//! `m + z·σ_tot`, where `z = Φ⁻¹(yield target)` and `σ_tot` folds the
//! path sigma (canonical `g`/`r` components) together with the clock
//! sigma `σ_c = clock_sigma_frac · Π`. The two formulations coincide:
//! `yield(Π) < target  ⟺  m + z·σ_tot > Π`, so the yield-aware EDL rule
//! is exactly the deterministic rule applied to margined arrivals — and
//! at sigma = 0 the margin vanishes bitwise, which is what the sigma→0
//! differential tests pin across all three flows.

use retime_netlist::{CombCloud, ConeWalk, Cut, NodeId};
use retime_sta::{
    arrivals_with_cut, arrivals_with_moved, db_to_any_sink, pure_arrivals, BackwardPass,
    DelayModel, NodeDelays, StatParams, TwoPhaseClock,
};

use crate::canon::Canon;
use crate::normal::{cdf, quantile};
use crate::propagate::relaunch_canon;

/// Tolerance for comparisons against clock edges — identical to the
/// deterministic analysis so margined comparisons degrade bitwise.
pub const EPS: f64 = 1e-9;

/// Relative step (fraction of the clock period) for the finite-difference
/// jitter sensitivity `d yield / d σ_clock`.
const JITTER_STEP_FRAC: f64 = 1e-4;

/// Statistical outcome summary attached to a retiming result in
/// statistical delay mode: per-sink timing yields at the clock period,
/// and the sensitivity of the worst yield to clock jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct StatSummary {
    /// The parameters the yields were computed under.
    pub params: StatParams,
    /// Per-sink timing yield at the clock period `Π`, aligned with
    /// `cloud.sinks()`.
    pub yields: Vec<f64>,
    /// The worst per-sink yield (`1.0` for a sink-free cloud).
    pub min_yield: f64,
    /// `d yield / d σ_clock` of the worst-yield sink, by finite
    /// difference on the clock sigma (in yield per ns of clock sigma —
    /// non-positive, since jitter can only hurt).
    pub jitter_sens: f64,
}

impl StatSummary {
    /// Number of sinks whose yield misses the target — the statistical
    /// EDL count under the margined rule.
    pub fn below_target(&self) -> usize {
        let target = self.params.yield_target();
        self.yields.iter().filter(|&&y| y < target).count()
    }
}

/// Statistical timing analysis over a [`CombCloud`]: canonical pure
/// arrivals and any-sink backward delays are computed once, margined
/// queries and cut yields are derived on demand.
///
/// Construction requires `delays.model()` to be
/// [`DelayModel::Statistical`]; the sigma tables are already baked into
/// the [`NodeDelays`], so no library access is needed.
#[derive(Debug, Clone)]
pub struct StatTiming<'a> {
    cloud: &'a CombCloud,
    delays: &'a NodeDelays,
    clock: TwoPhaseClock,
    params: StatParams,
    z: f64,
    clock_sigma: f64,
    pure: Vec<Canon>,
    db_any: Vec<Option<Canon>>,
}

impl<'a> StatTiming<'a> {
    /// Builds the statistical analysis from the deterministic analysis'
    /// parts.
    ///
    /// # Panics
    /// Panics if the delay tables were not built in statistical mode.
    pub fn new(cloud: &'a CombCloud, delays: &'a NodeDelays, clock: TwoPhaseClock) -> Self {
        let DelayModel::Statistical(params) = delays.model() else {
            panic!(
                "StatTiming wants statistical delay tables, got {}",
                delays.model()
            );
        };
        let z = quantile(params.yield_target());
        let clock_sigma = params.clock_sigma_frac() * clock.period();
        let pure = pure_arrivals(cloud, delays);
        let db_any = db_to_any_sink(cloud, delays);
        StatTiming {
            cloud,
            delays,
            clock,
            params,
            z,
            clock_sigma,
            pure,
            db_any,
        }
    }

    /// The statistical parameters in effect.
    pub fn params(&self) -> StatParams {
        self.params
    }

    /// The cloud under analysis.
    pub fn cloud(&self) -> &'a CombCloud {
        self.cloud
    }

    /// The clock period `Π` every yield and margin is evaluated against.
    pub fn period(&self) -> f64 {
        self.clock.period()
    }

    /// The margin multiplier `z = Φ⁻¹(yield target)`.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// The absolute clock sigma `σ_c = clock_sigma_frac · Π`.
    pub fn clock_sigma(&self) -> f64 {
        self.clock_sigma
    }

    /// Margins a canonical value for comparison against a clock edge:
    /// `m + z·sqrt(g² + r² + σ_c²)`. With all sigmas zero this is
    /// `m + 0.0` — bitwise the nominal mean for every non-negative delay.
    pub fn margined(&self, c: &Canon) -> f64 {
        c.m + self.z * (c.variance() + self.clock_sigma * self.clock_sigma).sqrt()
    }

    /// Margined pure arrival `D^f(v)`.
    pub fn df_margined(&self, v: NodeId) -> f64 {
        self.margined(&self.pure[v.index()])
    }

    /// The canonical pure arrival at `v`.
    pub fn df_canon(&self, v: NodeId) -> Canon {
        self.pure[v.index()]
    }

    /// Margined worst backward delay to any sink, `None` when `v`
    /// reaches no sink.
    pub fn db_any_margined(&self, v: NodeId) -> Option<f64> {
        self.db_any[v.index()].as_ref().map(|c| self.margined(c))
    }

    /// Runs the canonical backward pass from sink `t`.
    ///
    /// # Panics
    /// Panics if `t` is not a sink.
    pub fn backward(&self, t: NodeId) -> BackwardPass<Canon> {
        BackwardPass::run(self.cloud, self.delays, t)
    }

    /// Canonical Eq. (5) arrival with a slave on edge `(u, v)`:
    /// `max(open + through, D^f(u) + d_q + through)` — the canonical
    /// mirror of the deterministic `a_value`. `None` when `v` does not
    /// reach the sink of `bp`.
    pub fn a_value_canon(&self, u: NodeId, v: NodeId, bp: &BackwardPass<Canon>) -> Option<Canon> {
        let through = bp.through(v)?;
        let open = self.clock.slave_open() + self.delays.latch_ckq();
        let dq = self.delays.latch_dq();
        let dfu = self.pure[u.index()];
        let window_term = through.add_const(open);
        let path_term = dfu.add_const(dq).add(&through);
        Some(window_term.max(&path_term))
    }

    /// Margined form of [`StatTiming::a_value_canon`].
    pub fn a_value_margined(&self, u: NodeId, v: NodeId, bp: &BackwardPass<Canon>) -> Option<f64> {
        self.a_value_canon(u, v, bp).map(|c| self.margined(&c))
    }

    /// Canonical arrival with the slave at source `s` (the host/initial
    /// position): re-launched master output plus canonical `D^b(s, t)`.
    pub fn a_host_canon(&self, s: NodeId, bp: &BackwardPass<Canon>) -> Option<Canon> {
        let fo = if s == bp.sink() {
            return None;
        } else {
            bp.from_output(s)?
        };
        let launch = Canon::constant(self.delays.launch());
        let re = relaunch_canon(&launch, &self.clock, self.delays);
        Some(re.add(&fo))
    }

    /// Margined form of [`StatTiming::a_host_canon`].
    pub fn a_host_margined(&self, s: NodeId, bp: &BackwardPass<Canon>) -> Option<f64> {
        self.a_host_canon(s, bp).map(|c| self.margined(&c))
    }

    /// Worst margined initial-placement arrival over the sources of the
    /// sink's cone — the statistical counterpart of
    /// [`retime_sta::TimingAnalysis::worst_initial`].
    pub fn worst_initial_margined(&self, bp: &BackwardPass<Canon>) -> f64 {
        bp.cone()
            .iter()
            .filter(|&&s| self.cloud.node(s).is_source())
            .filter_map(|&s| self.a_host_margined(s, bp))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Canonical arrival at the sink of `bp` with the slaves placed by
    /// the moved set `moved` — bitwise the entry
    /// [`StatTiming::cut_sink_canons`] reports for that sink under the
    /// cut moving exactly `moved`, propagated over the sink's cone alone.
    /// `arr` is cloud-sized scratch; only the cone's slots are written.
    pub fn sink_canon_with_moved(
        &self,
        bp: &BackwardPass<Canon>,
        moved: &ConeWalk,
        arr: &mut [Canon],
    ) -> Canon {
        arrivals_with_moved(
            self.cloud,
            self.delays,
            &self.clock,
            bp.cone().iter().rev().copied(),
            |v| moved.contains(v),
            arr,
        );
        arr[bp.sink().index()]
    }

    /// Canonical with-cut sink arrivals, aligned with `cloud.sinks()`:
    /// one topological sweep, under a `stat_cut_arrivals` span.
    pub fn cut_sink_canons(&self, cut: &Cut) -> Vec<Canon> {
        let arr: Vec<Canon> = {
            let _span = retime_trace::span("stat_cut_arrivals");
            arrivals_with_cut(self.cloud, self.delays, &self.clock, cut)
        };
        self.cloud.sinks().iter().map(|&t| arr[t.index()]).collect()
    }

    /// Timing yield of a canonical sink arrival at the clock period:
    /// `Φ((Π − m)/σ_tot)`. With `σ_tot = 0` exactly, the yield is a step
    /// function with the deterministic tolerance: `1` iff `m ≤ Π + EPS`.
    pub fn yield_of(&self, c: &Canon) -> f64 {
        self.yield_with_clock_sigma(c, self.clock_sigma)
    }

    fn yield_with_clock_sigma(&self, c: &Canon, clock_sigma: f64) -> f64 {
        let pi = self.clock.period();
        let var = c.variance() + clock_sigma * clock_sigma;
        if var == 0.0 {
            return if c.m <= pi + EPS { 1.0 } else { 0.0 };
        }
        cdf((pi - c.m) / var.sqrt())
    }

    /// Whether a sink with canonical arrival `c` needs an error-detecting
    /// master: the margined arrival misses the period, equivalently the
    /// timing yield misses the target.
    pub fn needs_edl(&self, c: &Canon) -> bool {
        self.margined(c) > self.clock.period() + EPS
    }

    /// `d yield / d σ_clock` for a canonical sink arrival, by forward
    /// finite difference on the clock sigma.
    pub fn jitter_sensitivity(&self, c: &Canon) -> f64 {
        let h = JITTER_STEP_FRAC * self.clock.period();
        let up = self.yield_with_clock_sigma(c, self.clock_sigma + h);
        (up - self.yield_of(c)) / h
    }

    /// Full statistical summary of a cut: per-sink yields, the worst
    /// yield, and the jitter sensitivity of the worst-yield sink.
    pub fn summarize(&self, cut: &Cut) -> StatSummary {
        let canons = self.cut_sink_canons(cut);
        self.summarize_canons(&canons)
    }

    /// [`StatTiming::summarize`] over precomputed sink canons (avoids a
    /// second with-cut propagation when the caller already has them).
    pub fn summarize_canons(&self, canons: &[Canon]) -> StatSummary {
        let yields: Vec<f64> = canons.iter().map(|c| self.yield_of(c)).collect();
        let (min_yield, jitter_sens) = yields
            .iter()
            .zip(canons)
            .map(|(&y, c)| (y, c))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map_or((1.0, 0.0), |(y, c)| (y, self.jitter_sensitivity(c)));
        StatSummary {
            params: self.params,
            yields,
            min_yield,
            jitter_sens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};
    use retime_sta::TimingAnalysis;

    fn cloud() -> CombCloud {
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
        CombCloud::extract(&n).unwrap()
    }

    fn delays(cloud: &CombCloud, model: DelayModel) -> NodeDelays {
        NodeDelays::from_library(cloud, &Library::fdsoi28(), model).unwrap()
    }

    #[test]
    fn sigma_zero_margins_are_nominal_bitwise() {
        let cloud = cloud();
        let clock = TwoPhaseClock::from_max_delay(0.5);
        let zero = DelayModel::Statistical(StatParams::new(0.0, 0.0, 0.9987, 1));
        let nd = delays(&cloud, zero);
        let st = StatTiming::new(&cloud, &nd, clock);
        let det =
            TimingAnalysis::new(&cloud, &Library::fdsoi28(), clock, DelayModel::GateBased).unwrap();
        for &v in cloud.topo() {
            assert_eq!(st.df_margined(v).to_bits(), det.df(v).to_bits());
            assert_eq!(
                st.db_any_margined(v).map(f64::to_bits),
                det.db_any(v).map(f64::to_bits)
            );
        }
        for &t in cloud.sinks() {
            let sb = st.backward(t);
            let bp = det.backward(t);
            for &s in cloud.sources() {
                assert_eq!(
                    st.a_host_margined(s, &sb).map(f64::to_bits),
                    det.a_host(s, &bp).map(f64::to_bits)
                );
            }
            for e in cloud.edges() {
                assert_eq!(
                    st.a_value_margined(e.from, e.to, &sb).map(f64::to_bits),
                    det.a_value(e.from, e.to, &bp).map(f64::to_bits),
                    "edge {} -> {}",
                    e.from,
                    e.to
                );
            }
        }
    }

    #[test]
    fn margins_grow_as_sigma_widens() {
        let cloud = cloud();
        let clock = TwoPhaseClock::from_max_delay(0.5);
        let zero = delays(
            &cloud,
            DelayModel::Statistical(StatParams::new(0.0, 0.0, 0.9987, 1)),
        );
        let wide = delays(
            &cloud,
            DelayModel::Statistical(StatParams::new(0.08, 0.01, 0.9987, 1)),
        );
        let st0 = StatTiming::new(&cloud, &zero, clock);
        let st1 = StatTiming::new(&cloud, &wide, clock);
        let z = cloud.sinks()[0];
        assert!(st1.df_margined(z) > st0.df_margined(z));
    }

    #[test]
    fn yields_step_at_sigma_zero() {
        let cloud = cloud();
        let nd = delays(
            &cloud,
            DelayModel::Statistical(StatParams::new(0.0, 0.0, 0.9987, 1)),
        );
        let tight = TwoPhaseClock::from_max_delay(0.05);
        let relaxed = TwoPhaseClock::from_max_delay(10.0);
        let st_tight = StatTiming::new(&cloud, &nd, tight);
        let st_rel = StatTiming::new(&cloud, &nd, relaxed);
        let cut = Cut::initial(&cloud);
        let tight_summary = st_tight.summarize(&cut);
        let relaxed_summary = st_rel.summarize(&cut);
        assert_eq!(tight_summary.min_yield, 0.0);
        assert_eq!(relaxed_summary.min_yield, 1.0);
        assert_eq!(relaxed_summary.below_target(), 0);
        assert_eq!(tight_summary.below_target(), cloud.sinks().len());
    }

    #[test]
    fn yield_decreases_with_clock_sigma() {
        let cloud = cloud();
        let clock = TwoPhaseClock::from_max_delay(0.5);
        let mk = |clock_sigma: f64| {
            delays(
                &cloud,
                DelayModel::Statistical(StatParams::new(0.03, clock_sigma, 0.9987, 1)),
            )
        };
        let calm = mk(0.0);
        let jittery = mk(0.05);
        let cut = Cut::initial(&cloud);
        let y_calm = StatTiming::new(&cloud, &calm, clock).summarize(&cut);
        let y_jit = StatTiming::new(&cloud, &jittery, clock).summarize(&cut);
        // More clock sigma cannot improve the worst yield.
        assert!(y_jit.min_yield <= y_calm.min_yield + 1e-12);
        // Sensitivity is non-positive: jitter hurts.
        assert!(y_jit.jitter_sens <= 0.0);
    }

    #[test]
    fn needs_edl_is_margined_rule() {
        let cloud = cloud();
        let clock = TwoPhaseClock::from_max_delay(0.5);
        let nd = delays(&cloud, DelayModel::Statistical(StatParams::DEFAULT));
        let st = StatTiming::new(&cloud, &nd, clock);
        let cut = Cut::initial(&cloud);
        let canons = st.cut_sink_canons(&cut);
        let target = st.params().yield_target();
        for c in &canons {
            let by_margin = st.needs_edl(c);
            let by_yield = st.yield_of(c) < target;
            // The two formulations agree away from the EPS knife edge.
            let margin_slack = (st.margined(c) - st.clock.period()).abs();
            if margin_slack > 1e-6 {
                assert_eq!(by_margin, by_yield);
            }
        }
    }

    #[test]
    #[should_panic(expected = "StatTiming wants statistical delay tables")]
    fn rejects_deterministic_tables() {
        let cloud = cloud();
        let nd = delays(&cloud, DelayModel::GateBased);
        let _ = StatTiming::new(&cloud, &nd, TwoPhaseClock::from_max_delay(0.5));
    }
}
