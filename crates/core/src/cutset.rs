//! The target-master cut-set `g(t)` of Eqs. (8)–(9), in both the
//! deterministic and the statistical (margined-arrival) formulations.
//!
//! Every step of a target's classification touches only its fan-in cone
//! `FIC(t)`: the backward pass walks and sweeps the cone, the frontier
//! search and the `worst_initial` fold iterate it, and the soundness
//! check builds the canonical cut with one closure walk from `g(t)` and
//! propagates the sink's arrival over the cone alone. [`classify_many`]
//! keeps all cloud-sized buffers in one scratch per worker.

use retime_liberty::DelayArc;
use retime_netlist::{CombCloud, ConeWalk, NodeId};
use retime_sta::{BackwardPass, DelayModel, SinkClass, TimingAnalysis};
use retime_stat::{Canon, StatBackward, StatTiming};

/// Small tolerance absorbing floating-point noise against `Π`.
const EPS: f64 = 1e-9;

/// Computes `g(t)` for the sink of `bp`:
///
/// ```text
/// g(t) = { v | ∃ n ∈ FO(v): A(v, n, t) ≤ Π   ∧   ∃ k ∈ FI(v): A(k, v, t) > Π }
/// ```
///
/// i.e. the frontier of gates beyond which a slave latch keeps the master
/// non-error-detecting. For a source node the "fanin" side is the host
/// edge: the latch sitting at the source itself
/// ([`TimingAnalysis::a_host`]).
///
/// Returns an empty set when the master is unconditionally error-detecting
/// (even the latest placements exceed `Π`) or unconditionally safe (even
/// the source placements meet `Π`) — callers should have classified the
/// sink first ([`TimingAnalysis::classify_sink`]).
pub fn cut_set(sta: &TimingAnalysis<'_>, bp: &BackwardPass) -> Vec<NodeId> {
    let pi = sta.clock().period();
    let cloud = sta.cloud();
    let mut out = Vec::new();
    // The cone lists the sink first; g(t) never contains it.
    for &v in &bp.cone()[1..] {
        let node = cloud.node(v);
        // ∃ fanout edge whose latch placement meets Π.
        let ok_beyond = node
            .fanout
            .iter()
            .any(|&n| matches!(sta.a_value(v, n, bp), Some(a) if a <= pi + EPS));
        if !ok_beyond {
            continue;
        }
        // ∃ fanin-side placement that violates Π.
        let bad_before = if node.is_source() {
            matches!(sta.a_host(v, bp), Some(a) if a > pi + EPS)
        } else {
            node.fanin
                .iter()
                .any(|&k| matches!(sta.a_value(k, v, bp), Some(a) if a > pi + EPS))
        };
        if bad_before {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}

/// Scratch for the canonical-cut soundness check: the moved set (the
/// fan-in closure of `g(t)`) and a cloud-sized forward-arrival buffer of
/// which only the sink's cone is ever written.
struct CanonicalCut<A> {
    moved: ConeWalk,
    arr: Vec<A>,
}

impl<A: Clone + Default> CanonicalCut<A> {
    fn new(cloud: &CombCloud) -> Self {
        CanonicalCut {
            moved: ConeWalk::new(cloud),
            arr: vec![A::default(); cloud.len()],
        }
    }

    /// Moves exactly the union of `g`'s fan-in closures (the minimal
    /// movement past the frontier); `false` if that is not a legal cut.
    fn place(&mut self, cloud: &CombCloud, g: &[NodeId]) -> bool {
        self.moved.walk(cloud, g.iter().copied());
        self.moved.is_valid_moved_set(cloud)
    }
}

/// Authoritative endpoint classification for G-RAR, refining
/// [`TimingAnalysis::classify_sink`] with the full Eq. (5) model:
///
/// * **never** error-detecting: even the initial (source) placements meet
///   `Π`;
/// * **target**: `g(t)` is non-empty *and separates every source from
///   `t`* — only then does "all slaves beyond `g(t)`" guarantee a
///   non-error-detecting master, making the pseudo-node reward sound;
/// * **always** error-detecting otherwise (including the case where the
///   latch D-to-Q delay alone pushes every placement past `Π`, which the
///   coarse pure-path test misses).
///
/// Allocates cloud-sized scratch per call; [`classify_many`] reuses one
/// per worker instead.
pub fn classify_and_cut_set(
    sta: &TimingAnalysis<'_>,
    bp: &BackwardPass,
) -> (SinkClass, Vec<NodeId>) {
    classify_det(sta, bp, &mut CanonicalCut::new(sta.cloud()))
}

fn classify_det(
    sta: &TimingAnalysis<'_>,
    bp: &BackwardPass,
    cc: &mut CanonicalCut<DelayArc>,
) -> (SinkClass, Vec<NodeId>) {
    let pi = sta.clock().period();
    if sta.worst_initial(bp) <= pi + EPS {
        return (SinkClass::NeverErrorDetecting, Vec::new());
    }
    let g = cut_set(sta, bp);
    if g.is_empty() {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    // Soundness check for the pseudo-node reward: evaluate the *canonical*
    // cut that moves exactly the union of g(t)'s fan-in closures and
    // verify the arrival at t actually meets Π under the full timing
    // model. This is exact for the cut the pseudo node promises,
    // including tap branches whose safe positions lie beyond the frontier.
    if !cc.place(sta.cloud(), &g) {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    if sta.sink_arrival_with_moved(bp, &cc.moved, &mut cc.arr) <= pi + EPS {
        (SinkClass::Target, g)
    } else {
        (SinkClass::AlwaysErrorDetecting, Vec::new())
    }
}

/// Statistical mirror of [`cut_set`]: the same frontier construction with
/// every placement arrival replaced by its *margined* value
/// `m + Φ⁻¹(yield target)·σ_tot`, so "beyond the frontier" means "meets
/// the period at the target yield". At sigma = 0 the margined arrivals
/// are bitwise the deterministic ones and the two frontiers coincide.
pub fn cut_set_stat(st: &StatTiming<'_>, sb: &StatBackward) -> Vec<NodeId> {
    let pi = st.period();
    let cloud = st.cloud();
    let mut out = Vec::new();
    for &v in &sb.cone()[1..] {
        let node = cloud.node(v);
        let ok_beyond = node
            .fanout
            .iter()
            .any(|&n| matches!(st.a_value_margined(v, n, sb), Some(a) if a <= pi + EPS));
        if !ok_beyond {
            continue;
        }
        let bad_before = if node.is_source() {
            matches!(st.a_host_margined(v, sb), Some(a) if a > pi + EPS)
        } else {
            node.fanin
                .iter()
                .any(|&k| matches!(st.a_value_margined(k, v, sb), Some(a) if a > pi + EPS))
        };
        if bad_before {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}

/// Statistical mirror of [`classify_and_cut_set`]: classification by
/// margined arrivals — **never** error-detecting means even the initial
/// placements meet `Π` *at the target yield*, and the canonical-cut
/// soundness check re-propagates the cut in canonical arithmetic and
/// tests the margined with-cut sink arrival.
pub fn classify_and_cut_set_stat(
    st: &StatTiming<'_>,
    sb: &StatBackward,
) -> (SinkClass, Vec<NodeId>) {
    classify_stat(st, sb, &mut CanonicalCut::new(st.cloud()))
}

fn classify_stat(
    st: &StatTiming<'_>,
    sb: &StatBackward,
    cc: &mut CanonicalCut<Canon>,
) -> (SinkClass, Vec<NodeId>) {
    let pi = st.period();
    if st.worst_initial_margined(sb) <= pi + EPS {
        return (SinkClass::NeverErrorDetecting, Vec::new());
    }
    let g = cut_set_stat(st, sb);
    if g.is_empty() {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    if !cc.place(st.cloud(), &g) {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    let arrival = st.sink_canon_with_moved(sb, &cc.moved, &mut cc.arr);
    if st.margined(&arrival) <= pi + EPS {
        (SinkClass::Target, g)
    } else {
        (SinkClass::AlwaysErrorDetecting, Vec::new())
    }
}

/// Batch form of [`classify_and_cut_set`]: classifies every target sink,
/// fanning the per-target backward pass *and* the cut-set construction —
/// the dominant cost of a G-RAR run — out across `threads` workers (`0` =
/// auto, honoring `RETIME_THREADS`). Each worker owns one scratch — a
/// reusable [`BackwardPass`], a closure walk and an arrival buffer,
/// built by [`retime_engine::parallel_map_with`] — so a target costs
/// O(its cone), and peak memory stays at one cloud-sized scratch per
/// worker.
///
/// Results are index-aligned with `targets`; parallel and sequential runs
/// produce bit-identical classes and cut-sets (asserted by the
/// `parallel_classify_matches_sequential` property test).
///
/// Under [`DelayModel::Statistical`] the statistical mirrors run
/// instead: one shared [`StatTiming`] (the canonical pure arrivals are
/// common to every target) and one reusable [`StatBackward`] + margined
/// classification scratch per worker.
///
/// # Panics
/// Panics if any target is not a sink.
pub fn classify_many(
    sta: &TimingAnalysis<'_>,
    targets: &[NodeId],
    threads: usize,
) -> Vec<(SinkClass, Vec<NodeId>)> {
    let cloud = sta.cloud();
    let delays = sta.delays();
    if matches!(delays.model(), DelayModel::Statistical(_)) {
        let st = StatTiming::new(cloud, delays, *sta.clock());
        return retime_engine::parallel_map_with(
            threads,
            targets,
            || (StatBackward::new(cloud), CanonicalCut::new(cloud)),
            |(sb, cc), &t| {
                sb.rerun(cloud, delays, t);
                classify_stat(&st, sb, cc)
            },
        );
    }
    retime_engine::parallel_map_with(
        threads,
        targets,
        || (BackwardPass::new(cloud), CanonicalCut::new(cloud)),
        |(bp, cc), &t| {
            bp.rerun(cloud, delays, t);
            classify_det(sta, bp, cc)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};
    use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};

    fn chain(len: usize) -> CombCloud {
        let mut src = String::from("INPUT(a)\nOUTPUT(z)\ng1 = NOT(a)\n");
        for i in 2..=len {
            src.push_str(&format!("g{i} = NOT(g{})\n", i - 1));
        }
        src.push_str(&format!("z = BUFF(g{len})\n"));
        CombCloud::extract(&bench::parse("c", &src).unwrap()).unwrap()
    }

    #[test]
    fn cut_set_on_target_is_frontier() {
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        // Clock between the never-ED and always-ED extremes.
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        // Π = 0.7 P must sit above the best achievable arrival, which
        // includes the latch D-to-Q: pick Π ≈ 1.1 × (crit + d_q).
        let p = 1.1 * (crit + lib.latch().d_to_q) / 0.7;
        let clock = TwoPhaseClock::from_max_delay(p);
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let bp = sta.backward(t);
        let (class, g) = classify_and_cut_set(&sta, &bp);
        assert_eq!(class, SinkClass::Target);
        assert!(!g.is_empty(), "a target must have a non-empty frontier");
        // On a pure chain the frontier is a single node, and placing the
        // latch just beyond it meets Π while just before violates it.
        assert_eq!(g.len(), 1);
        let v = g[0];
        let pi = sta.clock().period();
        let n = cloud.node(v).fanout[0];
        assert!(sta.a_value(v, n, &bp).unwrap() <= pi + 1e-9);
    }

    #[test]
    fn relaxed_clock_never_needs_frontier() {
        let cloud = chain(6);
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(100.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let bp = sta.backward(t);
        assert_eq!(sta.classify_sink(t, &bp), SinkClass::NeverErrorDetecting);
        assert!(cut_set(&sta, &bp).is_empty());
    }

    #[test]
    fn overconstrained_clock_has_empty_frontier() {
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        // Π < pure path: always error-detecting, no frontier.
        let clock = TwoPhaseClock::from_max_delay(crit * 0.8);
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let bp = sta.backward(t);
        assert_eq!(sta.classify_sink(t, &bp), SinkClass::AlwaysErrorDetecting);
        assert!(cut_set(&sta, &bp).is_empty());
    }

    #[test]
    fn sigma_zero_stat_classification_matches_gate_based() {
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::GateBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        let zero = DelayModel::Statistical(retime_sta::StatParams::new(0.0, 0.0, 0.9987, 3));
        // Sweep periods crossing never/target/always so every class is hit.
        for scale in [0.8, 1.0, 1.3, 1.8, 4.0] {
            let clock = TwoPhaseClock::from_max_delay(scale * (crit + lib.latch().d_to_q) / 0.7);
            let det = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
            let sat = TimingAnalysis::new(&cloud, &lib, clock, zero).unwrap();
            let bp = det.backward(t);
            let st = StatTiming::new(sat.cloud(), sat.delays(), clock);
            let sb = st.backward(t);
            assert_eq!(
                classify_and_cut_set(&det, &bp),
                classify_and_cut_set_stat(&st, &sb),
                "scale {scale}"
            );
            assert_eq!(
                classify_many(&det, &[t], 1),
                classify_many(&sat, &[t], 1),
                "classify_many dispatch at scale {scale}"
            );
        }
    }

    #[test]
    fn margins_shrink_or_keep_target_window() {
        // With real sigma, "never" endpoints can only become targets or
        // always-ED — margins never make a sink look *safer*.
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::GateBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        let model = DelayModel::Statistical(retime_sta::StatParams::new(0.05, 0.0, 0.9987, 3));
        for scale in [1.0, 1.3, 1.8, 4.0] {
            let clock = TwoPhaseClock::from_max_delay(scale * (crit + lib.latch().d_to_q) / 0.7);
            let det = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
            let sat = TimingAnalysis::new(&cloud, &lib, clock, model).unwrap();
            let bp = det.backward(t);
            let st = StatTiming::new(sat.cloud(), sat.delays(), clock);
            let sb = st.backward(t);
            let (dc, _) = classify_and_cut_set(&det, &bp);
            let (sc, _) = classify_and_cut_set_stat(&st, &sb);
            let rank = |c: SinkClass| match c {
                SinkClass::NeverErrorDetecting => 0,
                SinkClass::Target => 1,
                SinkClass::AlwaysErrorDetecting => 2,
            };
            assert!(rank(sc) >= rank(dc), "scale {scale}: {dc:?} -> {sc:?}");
        }
    }

    #[test]
    fn frontier_separates_source_from_sink() {
        // Every source→t path must pass through g(t) when non-empty.
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let t = cloud.sinks()[0];
        let crit = sta0.df(t);
        let p = 1.1 * (crit + lib.latch().d_to_q) / 0.7;
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(p),
            DelayModel::PathBased,
        )
        .unwrap();
        let bp = sta.backward(t);
        let (_, g) = classify_and_cut_set(&sta, &bp);
        assert!(!g.is_empty());
        // Walk the chain from the source; we must encounter a g(t) node
        // before reaching t.
        let mut v = cloud.sources()[0];
        let mut crossed = false;
        loop {
            if g.contains(&v) {
                crossed = true;
            }
            let node = cloud.node(v);
            let next = node
                .fanout
                .iter()
                .copied()
                .find(|&w| bp.in_cone(w))
                .unwrap_or(t);
            if next == t {
                break;
            }
            v = next;
        }
        assert!(crossed, "the frontier must separate sources from the sink");
    }
}
