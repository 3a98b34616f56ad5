//! The statistical margin: margined comparisons against the clock,
//! per-sink timing yield, and the yield-aware EDL rule.
//!
//! Every decision the deterministic flows make against a clock edge
//! (`value > limit + EPS`) is made under the statistical model with a
//! *margined* value `m + z·σ_tot`, where `z = Φ⁻¹(yield target)` and
//! `σ_tot` folds the path sigma (canonical `g`/`r` components) together
//! with the clock sigma `σ_c = clock_sigma_frac · Π`. [`StatMargin`] is
//! [`Canon`]'s [`retime_sta::Arrival::Margin`], so
//! `retime_sta::TimingAnalysis<Canon>` margins its Eq. (5) values with
//! it. The two formulations coincide:
//! `yield(Π) < target  ⟺  m + z·σ_tot > Π`, so the yield-aware EDL rule
//! is exactly the deterministic rule ([`retime_sta::is_error_detecting`])
//! applied to margined arrivals — and at sigma = 0 the margin vanishes
//! bitwise, which is what the sigma→0 differential tests pin across all
//! three flows.

use retime_sta::{DelayModel, NodeDelays, StatParams, TwoPhaseClock, EPS};

use crate::canon::Canon;
use crate::normal::{cdf, quantile};

/// Relative step (fraction of the clock period) for the finite-difference
/// jitter sensitivity `d yield / d σ_clock`.
const JITTER_STEP_FRAC: f64 = 1e-4;

/// Statistical outcome summary attached to a retiming result in
/// statistical delay mode: the canonical sink arrivals, their timing
/// yields at the clock period, and the sensitivity of the worst yield to
/// clock jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct StatSummary {
    /// The parameters the yields were computed under.
    pub params: StatParams,
    /// The canonical arrival at each sink, aligned with `cloud.sinks()`:
    /// what the yields, and the EDL flags through
    /// [`StatMargin::margined`], were computed from.
    pub arrivals: Vec<Canon>,
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

/// The statistical model's view of the clock: the margin multiplier
/// `z = Φ⁻¹(yield target)`, the clock sigma and the period every yield
/// is evaluated against. Built from the delay tables' parameters alone;
/// it runs no timing pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatMargin {
    params: StatParams,
    z: f64,
    clock_sigma: f64,
    period: f64,
}

impl StatMargin {
    /// The margin of statistical delay tables under `clock`.
    ///
    /// # Panics
    /// Panics if the delay tables were not built in statistical mode.
    pub fn new(delays: &NodeDelays, clock: &TwoPhaseClock) -> StatMargin {
        let DelayModel::Statistical(params) = delays.model() else {
            panic!(
                "canonical timing wants statistical delay tables, got {}",
                delays.model()
            );
        };
        StatMargin {
            params,
            z: quantile(params.yield_target()),
            clock_sigma: params.clock_sigma_frac() * clock.period(),
            period: clock.period(),
        }
    }

    /// Margins a canonical value for comparison against a clock edge:
    /// `m + z·sqrt(g² + r² + σ_c²)`. With all sigmas zero this is
    /// `m + 0.0` — bitwise the nominal mean for every non-negative delay.
    #[inline]
    pub fn margined(&self, c: &Canon) -> f64 {
        c.m + self.z * (c.variance() + self.clock_sigma * self.clock_sigma).sqrt()
    }

    /// Timing yield of a canonical sink arrival at the clock period:
    /// `Φ((Π − m)/σ_tot)`. With `σ_tot = 0` exactly, the yield is a step
    /// function with the deterministic tolerance: `1` iff `m ≤ Π + EPS`.
    pub fn yield_of(&self, c: &Canon) -> f64 {
        self.yield_with_clock_sigma(c, self.clock_sigma)
    }

    fn yield_with_clock_sigma(&self, c: &Canon, clock_sigma: f64) -> f64 {
        let var = c.variance() + clock_sigma * clock_sigma;
        if var == 0.0 {
            return if c.m <= self.period + EPS { 1.0 } else { 0.0 };
        }
        cdf((self.period - c.m) / var.sqrt())
    }

    /// `d yield / d σ_clock` for a canonical sink arrival, by forward
    /// finite difference on the clock sigma.
    pub fn jitter_sensitivity(&self, c: &Canon) -> f64 {
        let h = JITTER_STEP_FRAC * self.period;
        let up = self.yield_with_clock_sigma(c, self.clock_sigma + h);
        (up - self.yield_of(c)) / h
    }

    /// The statistical summary of a cut from its canonical sink
    /// arrivals: per-sink yields, the worst yield, and the jitter
    /// sensitivity of the worst-yield sink.
    pub fn summarize(&self, arrivals: Vec<Canon>) -> StatSummary {
        let yields: Vec<f64> = arrivals.iter().map(|c| self.yield_of(c)).collect();
        let (min_yield, jitter_sens) = yields
            .iter()
            .zip(&arrivals)
            .min_by(|a, b| a.0.total_cmp(b.0))
            .map_or((1.0, 0.0), |(&y, c)| (y, self.jitter_sensitivity(c)));
        StatSummary {
            params: self.params,
            arrivals,
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
    use retime_netlist::{bench, CombCloud, Cut};
    use retime_sta::{arrivals_with_cut, is_error_detecting, TimingAnalysis};

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

    /// The canonical with-cut arrivals at the sinks, aligned with
    /// `cloud.sinks()`.
    fn sink_canons(
        cloud: &CombCloud,
        delays: &NodeDelays,
        clock: &TwoPhaseClock,
        cut: &Cut,
    ) -> Vec<Canon> {
        let arr: Vec<Canon> = arrivals_with_cut(cloud, delays, clock, cut);
        cloud.sinks().iter().map(|&t| arr[t.index()]).collect()
    }

    #[test]
    fn sigma_zero_margins_are_nominal_bitwise() {
        let cloud = cloud();
        let clock = TwoPhaseClock::from_max_delay(0.5);
        let zero = DelayModel::Statistical(StatParams::new(0.0, 0.0, 0.9987, 1));
        let st = TimingAnalysis::<Canon>::run(&cloud, delays(&cloud, zero), clock);
        let det =
            TimingAnalysis::new(&cloud, &Library::fdsoi28(), clock, DelayModel::GateBased).unwrap();
        for &v in cloud.topo() {
            assert_eq!(st.df(v).to_bits(), det.df(v).to_bits());
            assert_eq!(
                st.db_any(v).map(f64::to_bits),
                det.db_any(v).map(f64::to_bits)
            );
        }
        for &t in cloud.sinks() {
            let sb = st.backward(t);
            let bp = det.backward(t);
            assert_eq!(
                st.worst_initial(&sb).to_bits(),
                det.worst_initial(&bp).to_bits()
            );
            for &s in cloud.sources() {
                assert_eq!(
                    st.a_host(s, &sb).map(f64::to_bits),
                    det.a_host(s, &bp).map(f64::to_bits)
                );
            }
            for e in cloud.edges() {
                assert_eq!(
                    st.a_value(e.from, e.to, &sb).map(f64::to_bits),
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
        let analysis = |sigma: f64| {
            let model = DelayModel::Statistical(StatParams::new(sigma, 0.0, 0.9987, 1));
            TimingAnalysis::<Canon>::run(&cloud, delays(&cloud, model), clock)
        };
        let z = cloud.sinks()[0];
        assert!(analysis(0.08).df(z) > analysis(0.0).df(z));
    }

    #[test]
    fn yields_step_at_sigma_zero() {
        let cloud = cloud();
        let nd = delays(
            &cloud,
            DelayModel::Statistical(StatParams::new(0.0, 0.0, 0.9987, 1)),
        );
        let cut = Cut::initial(&cloud);
        let summary = |clock: TwoPhaseClock| {
            StatMargin::new(&nd, &clock).summarize(sink_canons(&cloud, &nd, &clock, &cut))
        };
        let tight_summary = summary(TwoPhaseClock::from_max_delay(0.05));
        let relaxed_summary = summary(TwoPhaseClock::from_max_delay(10.0));
        assert_eq!(tight_summary.min_yield, 0.0);
        assert_eq!(relaxed_summary.min_yield, 1.0);
        assert_eq!(relaxed_summary.below_target(), 0);
        assert_eq!(tight_summary.below_target(), cloud.sinks().len());
    }

    #[test]
    fn yield_decreases_with_clock_sigma() {
        let cloud = cloud();
        let clock = TwoPhaseClock::from_max_delay(0.5);
        let cut = Cut::initial(&cloud);
        let summary = |clock_sigma: f64| {
            let nd = delays(
                &cloud,
                DelayModel::Statistical(StatParams::new(0.03, clock_sigma, 0.9987, 1)),
            );
            StatMargin::new(&nd, &clock).summarize(sink_canons(&cloud, &nd, &clock, &cut))
        };
        let y_calm = summary(0.0);
        let y_jit = summary(0.05);
        // More clock sigma cannot improve the worst yield.
        assert!(y_jit.min_yield <= y_calm.min_yield + 1e-12);
        // Sensitivity is non-positive: jitter hurts.
        assert!(y_jit.jitter_sens <= 0.0);
    }

    #[test]
    fn edl_rule_on_margined_arrivals_is_the_yield_rule() {
        let cloud = cloud();
        let clock = TwoPhaseClock::from_max_delay(0.5);
        let nd = delays(&cloud, DelayModel::Statistical(StatParams::DEFAULT));
        let margin = StatMargin::new(&nd, &clock);
        let canons = sink_canons(&cloud, &nd, &clock, &Cut::initial(&cloud));
        let target = StatParams::DEFAULT.yield_target();
        for c in &canons {
            let by_margin = is_error_detecting(margin.margined(c), &clock);
            let by_yield = margin.yield_of(c) < target;
            // The two formulations agree away from the EPS knife edge.
            let margin_slack = (margin.margined(c) - clock.period()).abs();
            if margin_slack > 1e-6 {
                assert_eq!(by_margin, by_yield);
            }
        }
    }

    #[test]
    #[should_panic(expected = "canonical timing wants statistical delay tables")]
    fn rejects_deterministic_tables() {
        let cloud = cloud();
        let nd = delays(&cloud, DelayModel::GateBased);
        let _ = TimingAnalysis::<Canon>::run(&cloud, nd, TwoPhaseClock::from_max_delay(0.5));
    }
}
