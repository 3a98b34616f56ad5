//! Canonical-form timing over the latch graph: [`Canon`] implements
//! [`retime_sta::Arrival`], so the deterministic forward sweeps, the
//! cone-local [`retime_sta::BackwardPass`] and the any-sink reverse sweep
//! of `retime-sta` propagate canonical forms too.
//!
//! The statistical delay mode constructs symmetric positive-unate arcs
//! (rise == fall), so the deterministic per-transition fold collapses to
//! a single scalar chain: every mean-channel operation performs bitwise
//! the same `f64` arithmetic as the deterministic gate-based pass, which
//! is what the sigma→0 differential tests pin down.
//!
//! The with-cut pass needs no iteration. Latch loops are
//! graph-transformed away, as in the reduced-iteration scheme of
//! Li/Chen/Schlichtmann: the [`retime_netlist::CombCloud`] is the
//! unrolled acyclic latch graph, and slave relaunches are edge
//! transforms. The cloud is acyclic, so one topological sweep is exact.

use retime_netlist::NodeId;
use retime_sta::{Arrival, NodeDelays, TwoPhaseClock};

use crate::analyze::StatMargin;
use crate::canon::Canon;

/// The canonical delay of gate `v`: nominal worst arc as mean, the
/// baked-in [`retime_sta::DelaySigma`] split as sigma components.
pub fn gate_canon(delays: &NodeDelays, v: NodeId) -> Canon {
    let s = delays.sigma(v);
    Canon {
        m: delays.arc(v).max(),
        g: s.global,
        r: s.local,
    }
}

/// Canonical re-launch through a slave latch: `max(open, input + d_q)`
/// with `open = φ1 + γ1 + d_ckq`, the canonical mirror of
/// [`retime_sta::relaunch`]. The latch delays are treated as
/// deterministic, matching the nominal replay the verifier performs.
pub fn relaunch_canon(input: &Canon, clock: &TwoPhaseClock, delays: &NodeDelays) -> Canon {
    let open = clock.slave_open() + delays.latch_ckq();
    Canon::constant(open).max(&input.add_const(delays.latch_dq()))
}

/// Sources launch deterministically at the master clock-to-Q; Clark's
/// max merges, and gate delays add on the right going forward
/// (`input + gate`) and on the left going backward (`gate + fo`). A
/// value meets the clock by its [`StatMargin`]-margined arrival.
///
/// The generic passes and the Eq. (5) arrival are compiled in the
/// crates that call them, so these steps are `#[inline]`: without it,
/// statistical G-RAR's `classify` on plasma took 32 ms instead of 26
/// (median of 10 single-threaded traced runs, 2 vCPU).
impl Arrival for Canon {
    type Margin = StatMargin;

    fn margin(delays: &NodeDelays, clock: &TwoPhaseClock) -> StatMargin {
        StatMargin::new(delays, clock)
    }

    #[inline]
    fn margined(&self, margin: &StatMargin) -> f64 {
        margin.margined(self)
    }

    #[inline]
    fn launch(delays: &NodeDelays) -> Canon {
        Canon::constant(delays.launch())
    }

    #[inline]
    fn merge(self, other: Canon) -> Canon {
        self.max(&other)
    }

    #[inline]
    fn shift(self, c: f64) -> Canon {
        self.add_const(c)
    }

    #[inline]
    fn series(self, rest: Canon) -> Canon {
        self.add(&rest)
    }

    #[inline]
    fn through_gate(self, delays: &NodeDelays, v: NodeId) -> Canon {
        self.add(&gate_canon(delays, v))
    }

    #[inline]
    fn back_through_gate(self, delays: &NodeDelays, v: NodeId) -> Canon {
        gate_canon(delays, v).add(&self)
    }

    #[inline]
    fn relaunch(self, clock: &TwoPhaseClock, delays: &NodeDelays) -> Canon {
        relaunch_canon(&self, clock, delays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};
    use retime_sta::{db_to_any_sink, pure_arrivals, BackwardPass, DelayModel, StatParams};

    fn setup(model: DelayModel) -> (CombCloud, NodeDelays, TwoPhaseClock) {
        let n = bench::parse(
            "f",
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\ng1 = NAND(a, b)\ng2 = NOT(g1)\nz = NAND(g2, b)\n",
        )
        .unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let delays = NodeDelays::from_library(&cloud, &lib, model).unwrap();
        (cloud, delays, TwoPhaseClock::from_max_delay(0.5))
    }

    fn stat_zero() -> DelayModel {
        DelayModel::Statistical(StatParams::new(0.0, 0.0, 0.9987, 7))
    }

    fn stat_default() -> DelayModel {
        DelayModel::Statistical(StatParams::DEFAULT)
    }

    #[test]
    fn sigma_zero_pure_arrivals_match_gate_based_bitwise() {
        let (cloud, det, _) = setup(DelayModel::GateBased);
        let (_, stat, _) = setup(stat_zero());
        let det_arr = {
            // Deterministic reference via the public analysis API.
            let lib = Library::fdsoi28();
            let sta = retime_sta::TimingAnalysis::new(
                &cloud,
                &lib,
                TwoPhaseClock::from_max_delay(0.5),
                DelayModel::GateBased,
            )
            .unwrap();
            cloud
                .topo()
                .iter()
                .map(|&v| sta.df(v))
                .collect::<Vec<f64>>()
        };
        let stat_arr: Vec<Canon> = pure_arrivals(&cloud, &stat);
        for (i, &v) in cloud.topo().iter().enumerate() {
            assert_eq!(
                stat_arr[v.index()].m.to_bits(),
                det_arr[i].to_bits(),
                "node {v}"
            );
            assert_eq!(stat_arr[v.index()].sigma(), 0.0);
        }
        drop(det);
    }

    #[test]
    fn sigma_widens_but_preserves_nominal_ordering() {
        let (cloud, stat, _) = setup(stat_default());
        let arr: Vec<Canon> = pure_arrivals(&cloud, &stat);
        let z = cloud.sinks()[0];
        assert!(arr[z.index()].sigma() > 0.0, "sink must accumulate sigma");
        // Mean of a max is at least the deterministic nominal value.
        let (_, zero, _) = setup(stat_zero());
        let nominal: Vec<Canon> = pure_arrivals(&cloud, &zero);
        assert!(arr[z.index()].m >= nominal[z.index()].m - 1e-12);
    }

    #[test]
    fn backward_mirrors_deterministic_cone() {
        let (cloud, stat, _) = setup(stat_zero());
        let (_, det, _) = setup(DelayModel::GateBased);
        for &t in cloud.sinks() {
            let sb = BackwardPass::<Canon>::run(&cloud, &stat, t);
            let bp: BackwardPass = BackwardPass::run(&cloud, &det, t);
            for &v in cloud.topo() {
                assert_eq!(sb.in_cone(v), bp.in_cone(v));
                match (sb.from_output(v), bp.from_output(v)) {
                    (Some(c), Some(a)) => assert_eq!(c.m.to_bits(), a.max().to_bits()),
                    (None, None) => {}
                    other => panic!("cone mismatch at {v}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn any_sink_db_matches_deterministic_at_sigma_zero() {
        let (cloud, stat, _) = setup(stat_zero());
        let stat_db: Vec<Option<Canon>> = db_to_any_sink(&cloud, &stat);
        for &t in cloud.sinks() {
            assert!(stat_db[t.index()].is_none());
        }
        // Each per-sink pass must be dominated by the any-sink sweep.
        for &t in cloud.sinks() {
            let sb = BackwardPass::<Canon>::run(&cloud, &stat, t);
            for &v in cloud.topo() {
                if let Some(per) = sb.from_output(v) {
                    let any = stat_db[v.index()].expect("any-sink must cover per-sink cones");
                    assert!(any.m >= per.m - 1e-12);
                }
            }
        }
    }
}
