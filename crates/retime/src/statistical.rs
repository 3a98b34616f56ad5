//! Shared statistical-mode support for the retiming flows.
//!
//! Everything the flows need from statistical timing funnels through
//! [`stat_cut_summary`], so the base flow's EDL assignment
//! (`RetimeOutcome::assemble`), the virtual-library flow's RVL typing and
//! post-swap re-typing, and the verifier's replay all apply the *same*
//! yield-aware rule to the same canonical arrivals: a master-backed sink
//! needs an error-detecting latch exactly when its timing yield at the
//! clock period misses the target — equivalently, when its margined
//! arrival `m + Φ⁻¹(target)·σ_tot` exceeds `Π` (plus the deterministic
//! comparison tolerance). With all sigmas zero the rule is bitwise the
//! deterministic arrival rule.

use retime_netlist::{CombCloud, Cut, NodeKind};
use retime_sta::{NodeDelays, TwoPhaseClock};
use retime_stat::{cut_sink_canons, StatMargin, StatSummary};

/// Computes the yield-aware EDL flags and the statistical summary of a
/// cut from one canonical with-cut sweep ([`cut_sink_canons`]); no
/// whole-cloud analysis runs. Flags are masked to master-backed sinks
/// (primary outputs never pay EDL overhead), mirroring
/// `AreaModel::ed_flags`.
///
/// # Panics
/// Panics if `delays` was not built in statistical mode.
pub fn stat_cut_summary(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: TwoPhaseClock,
    cut: &Cut,
) -> (Vec<bool>, StatSummary) {
    let margin = StatMargin::new(delays, &clock);
    let canons = cut_sink_canons(cloud, delays, &clock, cut);
    let ed: Vec<bool> = cloud
        .sinks()
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            matches!(cloud.node(t).kind, NodeKind::Sink { master: Some(_) })
                && margin.needs_edl(&canons[i])
        })
        .collect();
    let summary = margin.summarize(&canons);
    (ed, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::bench;
    use retime_sta::{DelayModel, StatParams, TimingAnalysis};

    fn setup() -> CombCloud {
        let n = bench::parse(
            "s",
            "INPUT(a)\nOUTPUT(z)\nq = DFF(g2)\ng1 = AND(a, q)\ng2 = NOT(g1)\nz = BUFF(q)\n",
        )
        .unwrap();
        CombCloud::extract(&n).unwrap()
    }

    #[test]
    fn sigma_zero_flags_match_deterministic() {
        let cloud = setup();
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(0.4);
        let zero = DelayModel::Statistical(StatParams::new(0.0, 0.0, 0.9987, 1));
        let delays = NodeDelays::from_library(&cloud, &lib, zero).unwrap();
        let cut = Cut::initial(&cloud);
        let (ed, summary) = stat_cut_summary(&cloud, &delays, clock, &cut);

        let det = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
        let timing = det.cut_timing(&cut);
        let model = crate::area::AreaModel::new(&lib, retime_liberty::EdlOverhead::MEDIUM);
        assert_eq!(ed, model.ed_flags(&cloud, &timing));
        // Step-function yields in the degenerate regime.
        for y in &summary.yields {
            assert!(*y == 0.0 || *y == 1.0);
        }
    }

    #[test]
    fn pos_never_flagged() {
        let cloud = setup();
        let lib = Library::fdsoi28();
        // A clock so tight everything misses yield.
        let clock = TwoPhaseClock::from_max_delay(0.01);
        let delays =
            NodeDelays::from_library(&cloud, &lib, DelayModel::Statistical(StatParams::DEFAULT))
                .unwrap();
        let (ed, summary) = stat_cut_summary(&cloud, &delays, clock, &Cut::initial(&cloud));
        for (i, &t) in cloud.sinks().iter().enumerate() {
            if !matches!(cloud.node(t).kind, NodeKind::Sink { master: Some(_) }) {
                assert!(!ed[i], "primary outputs never pay EDL");
            }
        }
        assert!(summary.min_yield < 0.5);
    }
}
