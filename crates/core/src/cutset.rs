//! The target-master cut-set `g(t)` of Eqs. (8)–(9), written once for
//! both delay models.
//!
//! [`cut_set`] and [`classify_and_cut_set`] are the definitions, stated
//! on a [`BackwardPass`] and generic over the analysis's [`Arrival`]:
//! [`TimingAnalysis::worst_initial`] decides "never error-detecting",
//! the frontier scan builds `g(t)`, and the canonical cut — the fan-in
//! closure of `g(t)` — must legally place the slaves and bring the
//! sink's arrival within `Π`. Every comparison reads the analysis's
//! margined values, so under the statistical model (`A = Canon`) "within
//! `Π`" means "within `Π` at the target yield". [`classify_each`] runs
//! the definition sink by sink over one reused backward pass per worker.
//!
//! [`classify_many`] computes the same `(class, g(t))` pairs in two
//! steps under the per-transition arithmetic.
//!
//! 1. **Forward bound.** One whole-cloud forward pass with every slave at
//!    its source ([`TimingAnalysis::initial_arrivals`]) gives each sink
//!    the value `worst_initial` computes backward. Both are the maximum
//!    over the same source→sink paths, summed in opposite order. Rounding
//!    is monotone, so `fl(max(a, b) + d) = max(fl(a + d), fl(b + d))`:
//!    each side equals the maximum over its per-path sums, and the two
//!    differ only by the rounding along single paths. A path of `L`
//!    additions of non-negative terms is off its exact sum `S` by about
//!    `L·u·S` at most (`u = ε/2`, to first order), so the two sums of
//!    one path are within `2L·u·S`, and so are the two maxima. `L` is at
//!    most the node count `n` plus one. [`initial_rounding_bound`]
//!    allows `4(n + 2)·u` of the larger value, at least twice that; the
//!    slack absorbs the higher-order terms and the rounding of the
//!    check itself. A sink whose forward value plus the bound meets
//!    `Π + EPS` is never error-detecting, settled without walking its
//!    cone; every other sink takes step 2, so the classification stays
//!    exact.
//! 2. **One fused sweep per cone.** The cone is walked over a flat copy
//!    of the fanins, then visited sink first. Each node pushes its
//!    `through` value into its fanins, so every in-cone edge is touched
//!    once and out-of-cone fanouts never are. The same edge visit
//!    evaluates `A(u, w, t)` (Eq. 5) for both `g(t)` conditions ("a
//!    fanout placement meets `Π`" for `u`, "a fanin placement violates
//!    `Π`" for `w`), and each source folds its `a_host` into the worst
//!    initial arrival. `f64::max` is exact and no value is NaN (delays
//!    are finite), so neither the push order nor the fold order can
//!    change a bit. Then the canonical cut is placed by one closure walk
//!    and timed over the cone alone, as in the definition.
//!
//! The statistical model has no such forward/backward duality (Clark's
//! max is order-sensitive), so it classifies each sink by the
//! definition itself, through [`classify_each`].
//!
//! A sink's class and cut-set are a pure function of the timing
//! analysis, so the flows classify through [`classify_cached`], which
//! picks the kernel of the basis's arithmetic and, on the shared basis
//! of an overhead sweep, runs it only on the sinks not classified yet.

use std::sync::atomic::{AtomicU64, Ordering};

use retime_engine::PhaseTimings;
use retime_liberty::{DelayArc, Sense};
use retime_netlist::{CombCloud, ConeWalk, NodeId};
use retime_retime::{FlowTiming, OpenBasis};
use retime_sta::{
    backward_through_gate, is_error_detecting, relaunch, Arrival, BackwardPass, SinkClass,
    TimingAnalysis, EPS,
};

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
/// Every arrival is the analysis's margined value, so the statistical
/// frontier means "meets the period at the target yield"; at sigma = 0
/// the margined arrivals are bitwise the deterministic ones and the two
/// frontiers coincide.
///
/// Returns an empty set when the master is unconditionally error-detecting
/// (even the latest placements exceed `Π`) or unconditionally safe (even
/// the source placements meet `Π`) — callers should have classified the
/// sink first ([`classify_and_cut_set`]).
pub fn cut_set<A: Arrival>(sta: &TimingAnalysis<'_, A>, bp: &BackwardPass<A>) -> Vec<NodeId> {
    let clock = sta.clock();
    let cloud = sta.cloud();
    let mut out = Vec::new();
    // The cone lists the sink first; g(t) never contains it.
    for &v in &bp.cone()[1..] {
        // ∃ fanout edge whose latch placement meets Π.
        let ok_beyond = cloud
            .fanout(v)
            .iter()
            .any(|&n| matches!(sta.a_value(v, n, bp), Some(a) if !is_error_detecting(a, clock)));
        if !ok_beyond {
            continue;
        }
        // ∃ fanin-side placement that violates Π.
        let bad_before = if cloud.kind(v).is_source() {
            matches!(sta.a_host(v, bp), Some(a) if is_error_detecting(a, clock))
        } else {
            cloud
                .fanin(v)
                .iter()
                .any(|&k| matches!(sta.a_value(k, v, bp), Some(a) if is_error_detecting(a, clock)))
        };
        if bad_before {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}

/// The soundness check for the pseudo-node reward: places the
/// *canonical* cut, which moves exactly the union of `g`'s fan-in
/// closures, and tests that it is legal and that the arrival at the
/// cone's sink meets `Π` under the full timing model. This is exact for
/// the cut the pseudo node promises, including tap branches whose safe
/// positions lie beyond the frontier. `cone` is the sink's fan-in cone,
/// sink first; `moved` and `arr` are cloud-sized scratch.
fn canonical_cut_meets<A: Arrival>(
    sta: &TimingAnalysis<'_, A>,
    cone: &[NodeId],
    g: &[NodeId],
    moved: &mut ConeWalk,
    arr: &mut [A],
) -> bool {
    let cloud = sta.cloud();
    moved.walk(cloud, g.iter().copied());
    moved.is_valid_moved_set(cloud)
        && !is_error_detecting(sta.sink_arrival_with_moved(cone, moved, arr), sta.clock())
}

/// Authoritative endpoint classification for G-RAR, with the full
/// Eq. (5) model:
///
/// * **never** error-detecting: even the initial (source) placements meet
///   `Π`;
/// * **target**: `g(t)` is non-empty *and separates every source from
///   `t`* — only then does "all slaves beyond `g(t)`" guarantee a
///   non-error-detecting master, making the pseudo-node reward sound;
/// * **always** error-detecting otherwise (including the case where the
///   latch D-to-Q delay alone pushes every placement past `Π`, which a
///   pure-path test would miss).
///
/// On the statistical analysis every test reads margined arrivals, and
/// the canonical-cut check re-propagates the cut in canonical
/// arithmetic. This is the definition [`classify_many`] must reproduce
/// bit for bit. A sink that reaches the soundness check allocates
/// cloud-sized scratch for it.
pub fn classify_and_cut_set<A: Arrival>(
    sta: &TimingAnalysis<'_, A>,
    bp: &BackwardPass<A>,
) -> (SinkClass, Vec<NodeId>) {
    classify_with(sta, bp, &mut None)
}

/// The canonical-cut check's scratch: the moved set and a cloud-sized
/// arrival buffer of which only the sink's cone is ever written.
type CutScratch<A> = Option<(ConeWalk, Vec<A>)>;

/// [`classify_and_cut_set`], keeping the soundness check's scratch in
/// `scratch` (allocated on first use) for the next call.
fn classify_with<A: Arrival>(
    sta: &TimingAnalysis<'_, A>,
    bp: &BackwardPass<A>,
    scratch: &mut CutScratch<A>,
) -> (SinkClass, Vec<NodeId>) {
    if !is_error_detecting(sta.worst_initial(bp), sta.clock()) {
        return (SinkClass::NeverErrorDetecting, Vec::new());
    }
    let g = cut_set(sta, bp);
    if g.is_empty() {
        return (SinkClass::AlwaysErrorDetecting, Vec::new());
    }
    let cloud = sta.cloud();
    let (moved, arr) =
        scratch.get_or_insert_with(|| (ConeWalk::new(cloud), vec![A::default(); cloud.len()]));
    if canonical_cut_meets(sta, bp.cone(), &g, moved, arr) {
        (SinkClass::Target, g)
    } else {
        (SinkClass::AlwaysErrorDetecting, Vec::new())
    }
}

/// [`classify_and_cut_set`] for every target, index-aligned with
/// `targets`: one reusable [`BackwardPass`] and check scratch per worker
/// across `threads` workers (`0` = auto), each sink costing O(its cone).
/// The counts report the swept cone nodes; nothing is settled by bound.
/// The statistical flows classify with it, and the verifier checks the
/// production kernel against it.
///
/// # Panics
/// Panics if any target is not a sink.
pub fn classify_each<A: Arrival>(
    sta: &TimingAnalysis<'_, A>,
    targets: &[NodeId],
    threads: usize,
) -> (Vec<(SinkClass, Vec<NodeId>)>, ClassifyCounts) {
    let cloud = sta.cloud();
    let swept = AtomicU64::new(0);
    let classified = retime_engine::parallel_map_with(
        threads,
        targets,
        || (BackwardPass::new(cloud), None),
        |(bp, scratch), &t| {
            bp.rerun(cloud, sta.delays(), t);
            swept.fetch_add(bp.cone().len() as u64, Ordering::Relaxed);
            classify_with(sta, bp, scratch)
        },
    );
    let counts = ClassifyCounts {
        swept: swept.into_inner(),
        ..ClassifyCounts::default()
    };
    (classified, counts)
}

/// How far a sink's forward initial arrival `forward` (from
/// [`TimingAnalysis::initial_arrivals`]) may lie from its
/// [`TimingAnalysis::worst_initial`] in a cloud of `nodes` nodes under
/// period `period`: `2(nodes + 2)·ε·max(|forward|, period)`, twice the
/// rounding argued in the module docs. A looser bound only settles
/// fewer sinks; it cannot change a class. On the suite it is at most
/// 2.4e-11 (synth4x, ~41k nodes), against measured differences of at
/// most 2.9e-15 and the `1e-9` tolerance against `Π`.
pub fn initial_rounding_bound(nodes: usize, forward: f64, period: f64) -> f64 {
    2.0 * (nodes as f64 + 2.0) * f64::EPSILON * forward.abs().max(period)
}

/// What one [`classify_many_counted`] or [`classify_cached`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyCounts {
    /// Never-error-detecting sinks settled by the forward bound, without
    /// walking their cones.
    pub bounded: u64,
    /// Cone nodes visited by the per-sink sweeps.
    pub swept: u64,
    /// Sinks answered from a basis's cache ([`classify_cached`]; always
    /// 0 from [`classify_many_counted`]).
    pub cached: u64,
}

impl ClassifyCounts {
    /// Adds the counts to a stage's instrumentation, as the `bounded`,
    /// `swept` and `cached` counters.
    pub fn record(self, timings: &mut PhaseTimings) {
        timings.count("bounded", self.bounded);
        timings.count("swept", self.swept);
        timings.count("cached", self.cached);
    }
}

/// Per-node data the fused sweep reads, copied out of the cloud and the
/// timing analysis once per call.
#[derive(Debug, Clone, Copy)]
struct SweepNode {
    /// Gate delay arc (zero for sources and sinks).
    arc: DelayArc,
    /// Gate unateness.
    sense: Sense,
    /// Whether the node is a source.
    source: bool,
    /// `D^f(u) + d^{d_q}` per polarity: the latch-placement half of
    /// Eq. (5) for every edge leaving `u`.
    dfq: DelayArc,
}

/// The read-only view of the cloud the fused sweep runs on: the cloud's
/// own fanin rows plus the per-node [`SweepNode`] data, shared by every
/// worker.
struct SweepGraph<'a> {
    cloud: &'a CombCloud,
    node: Vec<SweepNode>,
    /// `Π + EPS`.
    limit: f64,
    /// `φ1 + γ1 + d^{ck_q}`: the window term of Eq. (5).
    open: f64,
    /// The re-launched master output seen past a slave at a source.
    relaunched: DelayArc,
}

impl<'a> SweepGraph<'a> {
    fn new(sta: &TimingAnalysis<'a>) -> SweepGraph<'a> {
        let cloud = sta.cloud();
        let delays = sta.delays();
        let dq = delays.latch_dq();
        let mut node = Vec::with_capacity(cloud.len());
        for v in cloud.node_ids() {
            let df = sta.df_arc(v);
            node.push(SweepNode {
                arc: delays.arc(v),
                sense: delays.sense(v),
                source: cloud.kind(v).is_source(),
                dfq: DelayArc {
                    rise: df.rise + dq,
                    fall: df.fall + dq,
                },
            });
        }
        let clock = sta.clock();
        SweepGraph {
            cloud,
            node,
            limit: clock.period() + EPS,
            open: clock.slave_open() + delays.latch_ckq(),
            relaunched: relaunch(DelayArc::symmetric(delays.launch()), clock, delays),
        }
    }
}

/// Per-node scratch of one sweep: cone membership and the "a fanout
/// placement meets `Π`" flag, both as epoch stamps so a new cone clears
/// nothing, and `D^b(v, t)` per output polarity.
#[derive(Debug, Clone, Copy)]
struct Slot {
    fo: DelayArc,
    mark: u32,
    ok: u32,
}

/// The identity of the per-polarity max: a cone node's `D^b` before its
/// first in-cone fanout pushes into it.
const NEG_ARC: DelayArc = DelayArc {
    rise: f64::NEG_INFINITY,
    fall: f64::NEG_INFINITY,
};

/// One worker's scratch for the fused sweep: the per-node slots, the
/// walk's stack and order, and the canonical-cut check's closure walk
/// and arrival buffer. Allocated once per worker at the cloud's size.
struct Sweep {
    epoch: u32,
    slot: Vec<Slot>,
    /// DFS stack: a node and the index of its next fanin to visit.
    stack: Vec<(NodeId, u32)>,
    /// The current cone, sink first, every node before its fanins.
    order: Vec<NodeId>,
    moved: ConeWalk,
    arr: Vec<DelayArc>,
}

impl Sweep {
    fn new(cloud: &CombCloud) -> Sweep {
        Sweep {
            epoch: 0,
            slot: vec![
                Slot {
                    fo: NEG_ARC,
                    mark: 0,
                    ok: 0,
                };
                cloud.len()
            ],
            stack: Vec::new(),
            order: Vec::new(),
            moved: ConeWalk::new(cloud),
            arr: vec![DelayArc::default(); cloud.len()],
        }
    }

    /// Classifies sink `t`, exactly as [`classify_and_cut_set`] does.
    fn classify(
        &mut self,
        sta: &TimingAnalysis<'_>,
        graph: &SweepGraph,
        t: NodeId,
    ) -> (SinkClass, Vec<NodeId>) {
        self.walk(graph, t);
        let (worst_initial, g) = self.sweep(graph);
        if worst_initial <= graph.limit {
            return (SinkClass::NeverErrorDetecting, Vec::new());
        }
        if g.is_empty() {
            return (SinkClass::AlwaysErrorDetecting, Vec::new());
        }
        if canonical_cut_meets(sta, &self.order, &g, &mut self.moved, &mut self.arr) {
            (SinkClass::Target, g)
        } else {
            (SinkClass::AlwaysErrorDetecting, Vec::new())
        }
    }

    /// Walks `t`'s fan-in cone into `order` in reverse post-order,
    /// stamping each member and resetting its `D^b` accumulator.
    fn walk(&mut self, graph: &SweepGraph, t: NodeId) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp overflow: forget every old stamp once per 2^32 walks.
            for s in &mut self.slot {
                s.mark = 0;
                s.ok = 0;
            }
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.order.clear();
        let enter = |slot: &mut Slot| {
            slot.mark = epoch;
            slot.fo = NEG_ARC;
        };
        enter(&mut self.slot[t.index()]);
        self.stack.push((t, 0));
        while let Some(top) = self.stack.last_mut() {
            let (v, next) = *top;
            if let Some(&u) = graph.cloud.fanin(v).get(next as usize) {
                top.1 += 1;
                let slot = &mut self.slot[u.index()];
                if slot.mark != epoch {
                    enter(slot);
                    self.stack.push((u, 0));
                }
            } else {
                self.order.push(v);
                self.stack.pop();
            }
        }
        self.order.reverse();
    }

    /// The fused backward sweep over the walked cone: returns the worst
    /// initial arrival (`-∞` when the cone holds no source) and `g(t)`.
    fn sweep(&mut self, graph: &SweepGraph) -> (f64, Vec<NodeId>) {
        let Sweep {
            epoch, slot, order, ..
        } = self;
        let epoch = *epoch;
        let re = graph.relaunched;
        let mut worst = f64::NEG_INFINITY;
        let mut g = Vec::new();
        for (i, &v) in order.iter().enumerate() {
            let node = graph.node[v.index()];
            // Every in-cone fanout of v came earlier, so its D^b is final.
            let through = if i == 0 {
                // The sink: a latch on an edge into it adds no gate delay.
                DelayArc::default()
            } else if node.source {
                let fo = slot[v.index()].fo;
                let a_host = (re.rise + fo.rise).max(re.fall + fo.fall);
                worst = worst.max(a_host);
                if slot[v.index()].ok == epoch && a_host > graph.limit {
                    g.push(v);
                }
                continue;
            } else {
                backward_through_gate(slot[v.index()].fo, node.arc, node.sense)
            };
            let window = graph.open + through.max();
            let mut bad_before = false;
            for &k in graph.cloud.fanin(v) {
                // A(k, v, t) of Eq. (5), as TimingAnalysis::a_value.
                let dfq = graph.node[k.index()].dfq;
                let a = window
                    .max(dfq.rise + through.rise)
                    .max(dfq.fall + through.fall);
                let s = &mut slot[k.index()];
                if a <= graph.limit {
                    s.ok = epoch;
                } else {
                    bad_before = true;
                }
                s.fo = DelayArc {
                    rise: s.fo.rise.max(through.rise),
                    fall: s.fo.fall.max(through.fall),
                };
            }
            if i > 0 && bad_before && slot[v.index()].ok == epoch {
                g.push(v);
            }
        }
        g.sort_unstable();
        (worst, g)
    }
}

/// Batch form of [`classify_and_cut_set`] for the per-transition
/// analysis: classifies every target sink, bit-identical to the
/// definition. It runs the two steps of the module docs: one forward
/// pass settles the sinks the rounding bound proves never
/// error-detecting, and every other sink gets one fused sweep of its
/// cone, fanned out across `threads` workers (`0` = auto, honoring
/// `RETIME_THREADS`) with [`retime_engine::parallel_map_with`]. Each
/// worker owns one cloud-sized scratch, so a swept sink costs O(its
/// cone). The statistical analysis classifies with [`classify_each`].
///
/// Results are index-aligned with `targets`; parallel and sequential runs
/// produce bit-identical classes and cut-sets (asserted by the
/// `parallel_classify_matches_sequential` property test).
///
/// # Panics
/// Panics if any target is not a sink.
pub fn classify_many(
    sta: &TimingAnalysis<'_>,
    targets: &[NodeId],
    threads: usize,
) -> Vec<(SinkClass, Vec<NodeId>)> {
    classify_many_counted(sta, targets, threads).0
}

/// [`classify_many`], also reporting how much of the work the forward
/// bound saved ([`ClassifyCounts`]).
///
/// # Panics
/// Panics if any target is not a sink.
pub fn classify_many_counted(
    sta: &TimingAnalysis<'_>,
    targets: &[NodeId],
    threads: usize,
) -> (Vec<(SinkClass, Vec<NodeId>)>, ClassifyCounts) {
    let cloud = sta.cloud();
    for &t in targets {
        assert!(cloud.kind(t).is_sink(), "{t} is not a sink");
    }
    let swept = AtomicU64::new(0);
    if targets.is_empty() {
        return (Vec::new(), ClassifyCounts::default());
    }

    // Step 1: the forward bound.
    let pi = sta.clock().period();
    let limit = pi + EPS;
    let initial = sta.initial_arrivals();
    let bounded: Vec<bool> = targets
        .iter()
        .map(|&t| {
            let fw = initial[t.index()].max();
            fw + initial_rounding_bound(cloud.len(), fw, pi) <= limit
        })
        .collect();
    let open: Vec<NodeId> = targets
        .iter()
        .zip(&bounded)
        .filter(|&(_, &b)| !b)
        .map(|(&t, _)| t)
        .collect();

    // Step 2: one fused sweep per remaining cone.
    let mut swept_classes = if open.is_empty() {
        Vec::new()
    } else {
        let graph = SweepGraph::new(sta);
        retime_engine::parallel_map_with(
            threads,
            &open,
            || Sweep::new(cloud),
            |sweep, &t| {
                let class = sweep.classify(sta, &graph, t);
                swept.fetch_add(sweep.order.len() as u64, Ordering::Relaxed);
                class
            },
        )
    }
    .into_iter();
    let classified = bounded
        .iter()
        .map(|&b| {
            if b {
                (SinkClass::NeverErrorDetecting, Vec::new())
            } else {
                swept_classes.next().expect("one sweep per open sink")
            }
        })
        .collect();
    let counts = ClassifyCounts {
        bounded: (targets.len() - open.len()) as u64,
        swept: swept.into_inner(),
        cached: 0,
    };
    (classified, counts)
}

/// Classifies `targets` on a basis's analysis with the kernel of its
/// arithmetic.
fn classify_timing(
    sta: &FlowTiming<'_>,
    targets: &[NodeId],
    threads: usize,
) -> (Vec<(SinkClass, Vec<NodeId>)>, ClassifyCounts) {
    match sta {
        FlowTiming::Nominal(sta) => classify_many_counted(sta, targets, threads),
        FlowTiming::Statistical(sta) => classify_each(sta, targets, threads),
    }
}

/// Classifies `targets` on an open basis's analysis: with
/// [`classify_many_counted`] per transition, with [`classify_each`] on
/// canonical forms. A basis shared by the runs of a sweep
/// ([`OpenBasis::Shared`]) caches every class:
/// the kernel runs once, over the targets it has not classified yet,
/// and the rest are copied from the cache, bit-identical to a fresh
/// classification. A basis built for one run keeps no cache, since
/// nothing would read it again. The counts cover the new work, plus the
/// targets answered from the cache (`cached`).
///
/// # Panics
/// Panics if any target is not a sink.
pub fn classify_cached(
    basis: &mut OpenBasis<'_, '_>,
    targets: &[NodeId],
    threads: usize,
) -> (Vec<(SinkClass, Vec<NodeId>)>, ClassifyCounts) {
    let OpenBasis::Shared(shared) = basis else {
        return classify_timing(basis.sta(), targets, threads);
    };
    let open: Vec<NodeId> = targets
        .iter()
        .copied()
        .filter(|&t| shared.class_of(t).is_none())
        .collect();
    let mut counts = ClassifyCounts::default();
    if !open.is_empty() {
        let classified;
        (classified, counts) = classify_timing(shared.sta(), &open, threads);
        for (&t, (class, g)) in open.iter().zip(classified) {
            shared.cache_class(t, class, g);
        }
    }
    counts.cached = (targets.len() - open.len()) as u64;
    let classified = targets
        .iter()
        .map(|&t| {
            let (class, g) = shared.class_of(t).expect("every target is cached");
            (class, g.to_vec())
        })
        .collect();
    (classified, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};
    use retime_retime::BasisSlot;
    use retime_sta::{DelayModel, NodeDelays, TimingAnalysis, TwoPhaseClock};
    use retime_stat::Canon;

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
        let n = cloud.fanout(v)[0];
        assert!(sta.a_value(v, n, &bp).unwrap() <= pi + 1e-9);
    }

    #[test]
    fn counts_split_bounded_from_swept() {
        let cloud = chain(20);
        let lib = Library::fdsoi28();
        let t = cloud.sinks()[0];
        let crit = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap()
        .df(t);
        let d_q = lib.latch().d_to_q;
        // Relaxed: settled by the forward bound, no cone walked.
        let relaxed = TwoPhaseClock::from_max_delay(100.0);
        // Between the extremes: a target, its whole cone swept.
        let target = TwoPhaseClock::from_max_delay(1.1 * (crit + d_q) / 0.7);
        for (clock, class, bounded, swept) in [
            (relaxed, SinkClass::NeverErrorDetecting, 1, 0),
            (target, SinkClass::Target, 0, cloud.len() as u64),
        ] {
            let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
            let (got, counts) = classify_many_counted(&sta, &[t], 1);
            assert_eq!(got[0].0, class);
            assert_eq!(got[0], classify_and_cut_set(&sta, &sta.backward(t)));
            let cached = 0;
            assert_eq!(
                counts,
                ClassifyCounts {
                    bounded,
                    swept,
                    cached
                }
            );
        }
    }

    #[test]
    fn cached_classification_matches_a_fresh_one() {
        let lib = Library::fdsoi28();
        let spec = retime_circuits::paper_suite()
            .into_iter()
            .find(|s| s.name == "s1423")
            .expect("in suite");
        let circuit = spec.build().unwrap();
        let model = DelayModel::PathBased;
        let clock = circuit.calibrated_clock(&lib, model).unwrap();
        let cloud = &circuit.cloud;
        let sinks = cloud.sinks();
        let sta = TimingAnalysis::new(cloud, &lib, clock, model).unwrap();
        let fresh = classify_many(&sta, sinks, 1);
        let mut slot = None;
        let mut classify = |targets: &[NodeId], threads| {
            let mut basis = BasisSlot::Shared(&mut slot)
                .open(cloud, &lib, clock, model)
                .unwrap();
            classify_cached(&mut basis, targets, threads)
        };
        // Every other sink first, then all of them: the second call
        // classifies only the rest, the third nothing.
        let half: Vec<NodeId> = sinks.iter().copied().step_by(2).collect();
        let (got, counts) = classify(&half, 1);
        assert_eq!(counts.cached, 0);
        assert_eq!(got, fresh.iter().step_by(2).cloned().collect::<Vec<_>>());
        let (got, counts) = classify(sinks, 2);
        assert_eq!(counts.cached, half.len() as u64);
        assert!(counts.bounded as usize <= sinks.len() - half.len());
        assert_eq!(got, fresh);
        let (got, counts) = classify(sinks, 1);
        assert_eq!(
            counts,
            ClassifyCounts {
                cached: sinks.len() as u64,
                ..ClassifyCounts::default()
            }
        );
        assert_eq!(got, fresh);
        // A basis built for one run classifies everything and caches
        // nothing.
        let mut one_run = BasisSlot::Fresh.open(cloud, &lib, clock, model).unwrap();
        let (got, counts) = classify_cached(&mut one_run, sinks, 1);
        assert_eq!((got, counts), classify_many_counted(&sta, sinks, 1));
        assert!(one_run.class_of(sinks[0]).is_none());
    }

    #[test]
    #[should_panic(expected = "is not a sink")]
    fn classify_many_rejects_a_non_sink() {
        let cloud = chain(4);
        let sta = TimingAnalysis::new(
            &cloud,
            &Library::fdsoi28(),
            TwoPhaseClock::from_max_delay(100.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let _ = classify_many(&sta, &[cloud.sources()[0]], 1);
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
        assert_eq!(
            classify_and_cut_set(&sta, &bp),
            (SinkClass::NeverErrorDetecting, Vec::new())
        );
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
        assert_eq!(
            classify_and_cut_set(&sta, &bp),
            (SinkClass::AlwaysErrorDetecting, Vec::new())
        );
        assert!(cut_set(&sta, &bp).is_empty());
    }

    /// The statistical analysis of `cloud` under `clock` and `model`.
    fn canonical<'a>(
        cloud: &'a CombCloud,
        lib: &Library,
        clock: TwoPhaseClock,
        model: DelayModel,
    ) -> TimingAnalysis<'a, Canon> {
        TimingAnalysis::run(
            cloud,
            NodeDelays::from_library(cloud, lib, model).unwrap(),
            clock,
        )
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
        let mut seen = Vec::new();
        for scale in [0.8, 1.0, 1.3, 1.8, 4.0] {
            let clock = TwoPhaseClock::from_max_delay(scale * (crit + lib.latch().d_to_q) / 0.7);
            let det = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
            let sat = canonical(&cloud, &lib, clock, zero);
            let want = classify_and_cut_set(&det, &det.backward(t));
            assert_eq!(
                want,
                classify_and_cut_set(&sat, &sat.backward(t)),
                "scale {scale}"
            );
            assert_eq!(
                classify_many(&det, &[t], 1),
                classify_each(&sat, &[t], 1).0,
                "batch at scale {scale}"
            );
            seen.push(want.0);
        }
        for class in [
            SinkClass::NeverErrorDetecting,
            SinkClass::Target,
            SinkClass::AlwaysErrorDetecting,
        ] {
            assert!(seen.contains(&class), "{class:?} never hit");
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
            let sat = canonical(&cloud, &lib, clock, model);
            let (dc, _) = classify_and_cut_set(&det, &det.backward(t));
            let (sc, _) = classify_and_cut_set(&sat, &sat.backward(t));
            let rank = |c: SinkClass| match c {
                SinkClass::NeverErrorDetecting => 0,
                SinkClass::Target => 1,
                SinkClass::AlwaysErrorDetecting => 2,
            };
            assert!(rank(sc) >= rank(dc), "scale {scale}: {dc:?} -> {sc:?}");
        }
    }

    /// Five gates between two inputs and one output.
    fn five_gates() -> CombCloud {
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

    #[test]
    fn classify_fast_circuit_never_ed() {
        // A very relaxed clock: nothing is near-critical.
        let cloud = five_gates();
        let clock = TwoPhaseClock::from_max_delay(10.0);
        let sta =
            TimingAnalysis::new(&cloud, &Library::fdsoi28(), clock, DelayModel::PathBased).unwrap();
        for &t in cloud.sinks() {
            let (class, _) = classify_and_cut_set(&sta, &sta.backward(t));
            assert_eq!(class, SinkClass::NeverErrorDetecting);
        }
    }

    #[test]
    fn classify_tight_circuit_always_ed() {
        // A clock so tight the pure path exceeds Π.
        let cloud = five_gates();
        let clock = TwoPhaseClock::from_max_delay(0.05);
        let sta =
            TimingAnalysis::new(&cloud, &Library::fdsoi28(), clock, DelayModel::PathBased).unwrap();
        let t = cloud.sinks()[0];
        let (class, _) = classify_and_cut_set(&sta, &sta.backward(t));
        assert_eq!(class, SinkClass::AlwaysErrorDetecting);
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
            let next = cloud
                .fanout(v)
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
