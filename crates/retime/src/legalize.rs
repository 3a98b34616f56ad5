//! The "size-only incremental compile" substitute (Section VI-B).
//!
//! Repositioning slave latches can introduce minor timing violations
//! (changed drive strengths and capacitive loads in the paper's physical
//! flow). The paper fixes them with a size-only incremental compile; we
//! model exactly that lever: gates on violating paths are sped up by a
//! bounded upsizing factor, paying a proportional area penalty.

use retime_netlist::{CombCloud, ConeWalk, Cut, NodeId, NodeKind};
use retime_sta::{cut_timing, CutTiming, NodeDelays, TwoPhaseClock};

use crate::area::AreaModel;
use crate::error::RetimeError;

/// Per-step speed-up of an upsized gate.
const SPEEDUP: f64 = 0.88;
/// Area multiplier paid per upsizing step, as a fraction of the gate area.
const AREA_PENALTY: f64 = 0.30;
/// Maximum upsizing rounds before giving up.
const MAX_ROUNDS: usize = 8;

/// Outcome of legalization.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LegalizeReport {
    /// Gates that were upsized (possibly repeatedly).
    pub upsized: Vec<NodeId>,
    /// Extra combinational area paid.
    pub area_penalty: f64,
    /// Rounds used.
    pub rounds: usize,
}

impl LegalizeReport {
    /// Publishes the legalization work into a flow's event counters, so
    /// every flow reports the same Table VII-style breakdown.
    pub fn record_counters(&self, timings: &mut retime_engine::PhaseTimings) {
        timings.count("legalize_rounds", self.rounds as u64);
        timings.count("legalize_upsized", self.upsized.len() as u64);
    }
}

/// Repairs residual violations of constraints (6)/(7) for a fixed cut by
/// upsizing gates on violating paths, the way a size-only incremental
/// compile would: each round times `cut` with the forward-only
/// [`cut_timing`], marks every gate in the union of the violations'
/// fan-in cones, and speeds them up in `delays`. Returns what it did,
/// with the timing of `cut` under the final tables. The flows call it
/// through [`RetimeOutcome::assemble`](crate::RetimeOutcome::assemble).
///
/// # Errors
/// Rejects an invalid cut ([`Cut::validate`]). Returns
/// [`RetimeError::Internal`] if violations persist after the
/// round budget (the placement is then genuinely infeasible, which the
/// region construction should have prevented). The upsizing applied so
/// far stays in `delays`.
pub fn legalize(
    cloud: &CombCloud,
    clock: &TwoPhaseClock,
    delays: &mut NodeDelays,
    cut: &Cut,
    model: &AreaModel<'_>,
) -> Result<(LegalizeReport, CutTiming), RetimeError> {
    cut.validate(cloud)?;
    let mut report = LegalizeReport::default();
    let mut walk = ConeWalk::new(cloud);
    for round in 0..=MAX_ROUNDS {
        let timing = cut_timing(cloud, delays, clock, cut);
        if timing.is_feasible() {
            report.rounds = round;
            return Ok((report, timing));
        }
        if round == MAX_ROUNDS {
            break;
        }
        // Collect gates to upsize: the drivers of violating latch
        // positions (constraint 6) and the gates in the fan-in cones of
        // violating sinks that lie past a latch (constraint 7 in arrival
        // form). A simple, bounded heuristic: upsize every gate in the
        // fan-in cone of each violation.
        let violations = timing
            .setup_violations
            .iter()
            .chain(&timing.capture_violations)
            .copied();
        let mut marked: Vec<NodeId> = walk
            .walk(cloud, violations)
            .iter()
            .copied()
            .filter(|&w| cloud.kind(w).is_gate())
            .collect();
        if marked.is_empty() {
            break;
        }
        marked.sort_unstable();
        for &g in &marked {
            let gate = match cloud.kind(g) {
                NodeKind::Gate { gate, .. } => gate,
                _ => unreachable!("marked gates only"),
            };
            report.area_penalty += area_of(model, gate, cloud.fanin(g).len()) * AREA_PENALTY;
            delays.scale_node(g, SPEEDUP);
        }
        report.upsized.extend(marked);
    }
    Err(RetimeError::Internal(
        "legalization could not clear timing violations".into(),
    ))
}

fn area_of(model: &AreaModel<'_>, gate: retime_netlist::Gate, fanin: usize) -> f64 {
    use retime_netlist::Gate;
    let name = match gate {
        Gate::Buf => "BUFF",
        Gate::Not => "NOT",
        Gate::And => "AND",
        Gate::Nand => "NAND",
        Gate::Or => "OR",
        Gate::Nor => "NOR",
        Gate::Xor => "XOR",
        Gate::Xnor => "XNOR",
        _ => "BUFF",
    };
    model
        .library()
        .cell(name)
        .map(|c| c.area(fanin))
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::{EdlOverhead, Library};
    use retime_netlist::{bench, CombCloud};
    use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};

    fn path_delays(cloud: &CombCloud, lib: &Library) -> NodeDelays {
        NodeDelays::from_library(cloud, lib, DelayModel::PathBased).unwrap()
    }

    /// The timing of `cut` by a fresh analysis of `delays`.
    fn analysed(
        cloud: &CombCloud,
        delays: &NodeDelays,
        clock: TwoPhaseClock,
        cut: &Cut,
    ) -> CutTiming {
        TimingAnalysis::with_delays(cloud, delays.clone(), clock).cut_timing(cut)
    }

    #[test]
    fn clean_placement_is_noop() {
        let n = bench::parse("c", "INPUT(a)\nOUTPUT(z)\ng = NOT(a)\nz = BUFF(g)\n").unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(10.0);
        let mut delays = path_delays(&cloud, &lib);
        let model = AreaModel::new(&lib, EdlOverhead::LOW);
        let cut = Cut::initial(&cloud);
        let (report, timing) = legalize(&cloud, &clock, &mut delays, &cut, &model).unwrap();
        assert_eq!(report.rounds, 0);
        assert_eq!(report.area_penalty, 0.0);
        assert_eq!(timing, analysed(&cloud, &delays, clock, &cut));
    }

    #[test]
    fn injected_violation_is_repaired() {
        // Pick a clock where the initial (source-latch) placement violates
        // the hard capture limit, but where bounded upsizing (up to
        // 0.88^8 ≈ 0.36 of the original path delay) can repair it:
        //   arrival(P) ≈ 0.3 P + ckq + path  must exceed P initially and
        //   0.3 P + ckq + 0.4 · path must fit within P.
        let n = bench::parse(
            "v",
            "INPUT(a)\nOUTPUT(z)\ng1 = NOT(a)\ng2 = NOT(g1)\nz = BUFF(g2)\n",
        )
        .unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let ref_sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let launch = ref_sta.delays().launch();
        let path = ref_sta.df(t) - launch;
        // The re-launch floor through the source slave is
        // max(0.3 P + ckq, launch + dq); on toy circuits the second term
        // dominates, so pick P between floor + 0.4·path (repairable) and
        // floor + path (initially violated).
        let floor = launch + lib.latch().d_to_q;
        let lo = floor + 0.45 * path;
        let hi = floor + path;
        let p = 0.5 * (lo + hi);
        let clock = TwoPhaseClock::from_max_delay(p);
        let mut delays = path_delays(&cloud, &lib);
        let cut = Cut::initial(&cloud);
        assert!(
            !analysed(&cloud, &delays, clock, &cut).is_feasible(),
            "the chosen clock must start out violated"
        );
        let model = AreaModel::new(&lib, EdlOverhead::LOW);
        let (report, timing) = legalize(&cloud, &clock, &mut delays, &cut, &model).unwrap();
        assert!(report.rounds > 0);
        assert!(report.area_penalty > 0.0);
        assert!(timing.is_feasible());
        assert_eq!(timing, analysed(&cloud, &delays, clock, &cut));
    }

    #[test]
    fn impossible_violation_reported() {
        let n = bench::parse("i", "INPUT(a)\nOUTPUT(z)\ng1 = NOT(a)\nz = BUFF(g1)\n").unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(0.001);
        let mut delays = path_delays(&cloud, &lib);
        let model = AreaModel::new(&lib, EdlOverhead::LOW);
        let cut = Cut::initial(&cloud);
        assert!(matches!(
            legalize(&cloud, &clock, &mut delays, &cut, &model),
            Err(RetimeError::Internal(_))
        ));
        // The budget path ran: the full MAX_ROUNDS of upsizing were
        // applied to the caller's tables before giving up.
        let fresh = path_delays(&cloud, &lib);
        let g1 = cloud.find("g1").unwrap();
        let expect = fresh.arc(g1).max() * SPEEDUP.powi(MAX_ROUNDS as i32);
        assert!((delays.arc(g1).max() - expect).abs() < 1e-12);
    }

    #[test]
    fn multi_round_repair_keeps_books() {
        // Pick a clock that one 0.88× upsizing round cannot satisfy but a
        // second can: arrival ≈ floor + s·path with s the cumulative
        // speed-up, against a budget of floor + 0.82·path.
        let n = bench::parse(
            "mr",
            "INPUT(a)\nOUTPUT(z)\ng1 = NOT(a)\ng2 = NOT(g1)\nz = BUFF(g2)\n",
        )
        .unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let ref_sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let launch = ref_sta.delays().launch();
        let path = ref_sta.df(t) - launch;
        let floor = launch + lib.latch().d_to_q;
        let p = floor + 0.82 * path;
        let clock = TwoPhaseClock::from_max_delay(p);
        let mut delays = path_delays(&cloud, &lib);
        let cut = Cut::initial(&cloud);
        assert!(!analysed(&cloud, &delays, clock, &cut).is_feasible());
        let model = AreaModel::new(&lib, EdlOverhead::LOW);
        let fresh = delays.clone();
        let (report, timing) = legalize(&cloud, &clock, &mut delays, &cut, &model).unwrap();
        assert!(report.rounds >= 2, "one 0.88x round cannot meet 0.82x");
        // Every round upsizes all three gates of the single violating
        // cone, in node order.
        let gates: Vec<NodeId> = cloud
            .node_ids()
            .filter(|&v| cloud.kind(v).is_gate())
            .collect();
        assert_eq!(gates.len(), 3);
        assert_eq!(report.upsized, gates.repeat(report.rounds));
        assert!(report.area_penalty > 0.0);
        // The caller's delay tables carry one speed-up per round on each
        // upsized gate, and the returned timing is theirs.
        for &g in &gates {
            let want = (0..report.rounds).fold(fresh.arc(g), |arc, _| arc.scale(SPEEDUP));
            assert_eq!(delays.arc(g), want);
        }
        assert!(timing.is_feasible());
        assert_eq!(timing, analysed(&cloud, &delays, clock, &cut));
    }

    #[test]
    fn gate_free_violation_breaks_without_upsizing() {
        // Both sinks (the flop D-pin and the primary output) are driven
        // straight from sources: the violating cones contain no gates, so
        // the marked set is empty and legalization must give up
        // immediately without touching the delay tables.
        let n = bench::parse("gf", "INPUT(a)\nOUTPUT(q1)\nq1 = DFF(a)\n").unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(0.001);
        let mut delays = path_delays(&cloud, &lib);
        let model = AreaModel::new(&lib, EdlOverhead::LOW);
        let cut = Cut::initial(&cloud);
        assert!(!analysed(&cloud, &delays, clock, &cut).is_feasible());
        let fresh = delays.clone();
        assert!(matches!(
            legalize(&cloud, &clock, &mut delays, &cut, &model),
            Err(RetimeError::Internal(_))
        ));
        assert_eq!(delays, fresh, "the break path must not upsize anything");
    }
}
