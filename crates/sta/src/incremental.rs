//! Incremental STA with **dirty-region propagation**.
//!
//! The paper's run-time discussion (Section VI) singles out timing
//! queries as the dominant cost of resiliency-aware retiming, and the
//! commercial "size-only incremental compile" it leans on is exactly an
//! incremental timer: after a localized edit, arrivals are re-propagated
//! only through the fan-out cone of the change. [`IncrementalTiming`]
//! brings that discipline to this STA layer:
//!
//! * delay edits ([`IncrementalTiming::scale_node`], the legalization
//!   upsizing lever) seed the edited node into a dirty set,
//! * cut moves ([`IncrementalTiming::set_cut`]) seed every node whose
//!   moved-flag flipped, plus its fanouts (the nodes whose input edges
//!   change latching),
//! * queries ([`IncrementalTiming::cut_timing`]) repair the cached
//!   arrival vectors by re-evaluating dirty nodes **in topological
//!   order**, following fanout edges only while the recomputed arrival
//!   actually changed (early termination on bit-identical values).
//!
//! Because each node re-evaluation applies exactly the same fold (fanin
//! order, edge relaunching, unate gate combination) as the from-scratch
//! pass in [`crate::forward`], the repaired vectors are **bit-identical**
//! to a full recompute — the from-scratch path stays the reference oracle
//! (differentially tested in `tests/property.rs`), and early termination
//! is sound: a bit-identical arrival cannot change anything downstream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use retime_liberty::{DelayArc, Library};
use retime_netlist::{CloudEdge, CombCloud, Cut, NodeId};

use crate::analysis::{CutTiming, TimingAnalysis, EPS};
use crate::clock::TwoPhaseClock;
use crate::forward::{arc_max, relaunch, through_gate};
use crate::model::{DelayModel, NodeDelays, StaError};

/// Work counters of an [`IncrementalTiming`] instance, exposed so flows
/// can surface them through `retime_engine::PhaseTimings` event counters
/// (the Table VII-style breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Node arrivals re-evaluated by dirty-region repair (both views).
    pub nodes_reevaluated: u64,
    /// `cut_timing` queries answered from the memo without any repair.
    pub cache_hits: u64,
    /// Complete forward passes run (construction and explicit rebuilds).
    pub full_passes: u64,
}

/// The two cached arrival views an edit can invalidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum View {
    /// Pure combinational arrivals `D^f(v)` (no slave latch anywhere).
    Pure,
    /// Arrivals under the current cut (slaves re-launch crossing data).
    WithCut,
}

/// Incremental timing of one [`CombCloud`] under one [`TwoPhaseClock`]
/// and a *current* [`Cut`], with dirty-region repair (see module docs).
///
/// Owns its delay tables: edits go through [`scale_node`] so the engine
/// knows what changed. [`cut_timing`] is the workhorse query; it is
/// bit-identical to [`TimingAnalysis::cut_timing`] on a fresh analysis
/// with the same tables and cut.
///
/// [`scale_node`]: IncrementalTiming::scale_node
/// [`cut_timing`]: IncrementalTiming::cut_timing
#[derive(Debug, Clone)]
pub struct IncrementalTiming<'a> {
    cloud: &'a CombCloud,
    clock: TwoPhaseClock,
    delays: NodeDelays,
    cut: Cut,
    /// Cached pure arrivals (`View::Pure`).
    pure: Vec<DelayArc>,
    /// Cached arrivals under `cut` (`View::WithCut`).
    with_cut: Vec<DelayArc>,
    /// Topological position of each node (repair processing order).
    topo_pos: Vec<u32>,
    /// Nodes awaiting re-evaluation, per view.
    dirty_pure: Vec<bool>,
    dirty_cut: Vec<bool>,
    /// Seeds of the pending dirty regions, per view.
    seeds_pure: Vec<NodeId>,
    seeds_cut: Vec<NodeId>,
    /// Memoized timing of the current `(delays, cut)` state.
    memo: Option<CutTiming>,
    stats: IncrementalStats,
}

impl<'a> IncrementalTiming<'a> {
    /// Builds the engine from a library (one full forward pass per view).
    ///
    /// # Errors
    /// Returns [`StaError::Library`] if a gate function is unmapped.
    pub fn new(
        cloud: &'a CombCloud,
        lib: &Library,
        clock: TwoPhaseClock,
        model: DelayModel,
        cut: Cut,
    ) -> Result<IncrementalTiming<'a>, StaError> {
        let delays = NodeDelays::from_library(cloud, lib, model)?;
        Ok(Self::with_delays(cloud, delays, clock, cut))
    }

    /// Builds the engine from explicit delay tables.
    pub fn with_delays(
        cloud: &'a CombCloud,
        delays: NodeDelays,
        clock: TwoPhaseClock,
        cut: Cut,
    ) -> IncrementalTiming<'a> {
        let n = cloud.len();
        let mut topo_pos = vec![0u32; n];
        for (i, &v) in cloud.topo().iter().enumerate() {
            topo_pos[v.index()] = i as u32;
        }
        let mut inc = IncrementalTiming {
            cloud,
            clock,
            delays,
            cut,
            pure: vec![DelayArc::default(); n],
            with_cut: vec![DelayArc::default(); n],
            topo_pos,
            dirty_pure: vec![false; n],
            dirty_cut: vec![false; n],
            seeds_pure: Vec::new(),
            seeds_cut: Vec::new(),
            memo: None,
            stats: IncrementalStats::default(),
        };
        inc.rebuild();
        inc
    }

    /// Builds the engine from an existing analysis, cloning its delay
    /// tables (the hand-off point for flows that already ran a full STA).
    pub fn from_analysis(sta: &TimingAnalysis<'a>, cut: Cut) -> IncrementalTiming<'a> {
        Self::with_delays(sta.cloud(), sta.delays().clone(), *sta.clock(), cut)
    }

    /// The analysed cloud (borrowed for the cloud's own lifetime).
    pub fn cloud(&self) -> &'a CombCloud {
        self.cloud
    }

    /// The clock model.
    pub fn clock(&self) -> &TwoPhaseClock {
        &self.clock
    }

    /// The current delay tables (including every applied edit).
    pub fn delays(&self) -> &NodeDelays {
        &self.delays
    }

    /// The current cut.
    pub fn cut(&self) -> &Cut {
        &self.cut
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Recomputes both arrival views from scratch (a full pass). Called
    /// on construction; exposed for tests and forced resynchronization.
    pub fn rebuild(&mut self) {
        let _span = retime_trace::span("sta_full_pass");
        for &s in self.cloud.sources() {
            let p = source_arrival(&self.delays, &self.clock, None, s);
            let c = source_arrival(&self.delays, &self.clock, Some(&self.cut), s);
            self.pure[s.index()] = p;
            self.with_cut[s.index()] = c;
        }
        for &v in self.cloud.topo() {
            if self.cloud.node(v).is_source() {
                continue;
            }
            let p = eval_interior(self.cloud, &self.delays, &self.clock, None, &self.pure, v);
            self.pure[v.index()] = p;
            let c = eval_interior(
                self.cloud,
                &self.delays,
                &self.clock,
                Some(&self.cut),
                &self.with_cut,
                v,
            );
            self.with_cut[v.index()] = c;
        }
        for flag in self.dirty_pure.iter_mut().chain(self.dirty_cut.iter_mut()) {
            *flag = false;
        }
        self.seeds_pure.clear();
        self.seeds_cut.clear();
        self.memo = None;
        self.stats.full_passes += 1;
    }

    /// Scales the delay arc of `v` by `k` (the legalization upsizing
    /// lever) and marks `v` dirty in both views.
    pub fn scale_node(&mut self, v: NodeId, k: f64) {
        self.delays.scale_node(v, k);
        self.mark(View::Pure, v);
        self.mark(View::WithCut, v);
        self.memo = None;
    }

    /// Moves to a new cut, marking every node whose moved-flag flipped —
    /// plus its fanouts, whose input edges change latching — dirty in the
    /// with-cut view. Pure arrivals are unaffected by latch positions.
    pub fn set_cut(&mut self, cut: &Cut) {
        let mut changed = false;
        for i in 0..self.cloud.len() {
            let v = NodeId(i as u32);
            if self.cut.is_moved(v) != cut.is_moved(v) {
                changed = true;
                self.mark(View::WithCut, v);
                for &w in &self.cloud.node(v).fanout {
                    self.mark(View::WithCut, w);
                }
            }
        }
        if changed {
            self.cut = cut.clone();
            self.memo = None;
        }
    }

    /// The pure combinational arrival `D^f(v)` (worst transition),
    /// repaired on demand.
    pub fn df(&mut self, v: NodeId) -> f64 {
        self.repair(View::Pure);
        self.pure[v.index()].max()
    }

    /// The arrival at `v` under the current cut (worst transition),
    /// repaired on demand.
    pub fn arrival(&mut self, v: NodeId) -> f64 {
        self.repair(View::WithCut);
        self.with_cut[v.index()].max()
    }

    /// Full timing of the current cut — the incremental counterpart of
    /// [`TimingAnalysis::cut_timing`], bit-identical to it by
    /// construction. Repeated queries with no intervening edit are memo
    /// hits and cost nothing.
    pub fn cut_timing(&mut self) -> CutTiming {
        let _span = retime_trace::span("cut_timing");
        if let Some(memo) = &self.memo {
            self.stats.cache_hits += 1;
            retime_trace::counter("cache_hit", 1);
            return memo.clone();
        }
        retime_trace::counter("cache_miss", 1);
        self.repair(View::Pure);
        self.repair(View::WithCut);
        // Mirror `TimingAnalysis::cut_timing` field by field (same
        // iteration order, same comparisons) so results are bit-identical.
        let pi = self.clock.period();
        let pmax = self.clock.max_path_delay();
        let sink_arrivals: Vec<f64> = self
            .cloud
            .sinks()
            .iter()
            .map(|&t| self.with_cut[t.index()].max())
            .collect();
        let error_detecting: Vec<bool> = sink_arrivals.iter().map(|&a| a > pi + EPS).collect();
        let capture_violations: Vec<NodeId> = self
            .cloud
            .sinks()
            .iter()
            .copied()
            .zip(&sink_arrivals)
            .filter(|&(_, &a)| a > pmax + EPS)
            .map(|(t, _)| t)
            .collect();
        let close = self.clock.slave_close();
        let setup_violations: Vec<NodeId> = self
            .cut
            .latch_positions(self.cloud)
            .into_iter()
            .filter(|&v| self.pure[v.index()].max() > close + EPS)
            .collect();
        let timing = CutTiming {
            sink_arrivals,
            error_detecting,
            setup_violations,
            capture_violations,
        };
        self.memo = Some(timing.clone());
        timing
    }

    /// Marks `v` dirty in one view (idempotent).
    fn mark(&mut self, view: View, v: NodeId) {
        let (dirty, seeds) = match view {
            View::Pure => (&mut self.dirty_pure, &mut self.seeds_pure),
            View::WithCut => (&mut self.dirty_cut, &mut self.seeds_cut),
        };
        if !dirty[v.index()] {
            dirty[v.index()] = true;
            seeds.push(v);
        }
    }

    /// Repairs one view: re-evaluates dirty nodes in topological order,
    /// following fanouts only while the recomputed arrival changed.
    fn repair(&mut self, view: View) {
        let reevaluated_before = self.stats.nodes_reevaluated;
        let (dirty, seeds, arr) = match view {
            View::Pure => (&mut self.dirty_pure, &mut self.seeds_pure, &mut self.pure),
            View::WithCut => (&mut self.dirty_cut, &mut self.seeds_cut, &mut self.with_cut),
        };
        if seeds.is_empty() {
            return;
        }
        let _span = retime_trace::span(match view {
            View::Pure => "sta_repair_pure",
            View::WithCut => "sta_repair_cut",
        });
        retime_trace::counter("seeds", seeds.len() as u64);
        let cut = match view {
            View::Pure => None,
            View::WithCut => Some(&self.cut),
        };
        // Min-heap over topological positions: a node is evaluated only
        // after every (transitively dirty) fanin settled.
        let mut frontier: BinaryHeap<Reverse<(u32, u32)>> = seeds
            .drain(..)
            .map(|v| Reverse((self.topo_pos[v.index()], v.0)))
            .collect();
        while let Some(Reverse((_, raw))) = frontier.pop() {
            let v = NodeId(raw);
            if !dirty[v.index()] {
                continue; // duplicate heap entry
            }
            dirty[v.index()] = false;
            let node = self.cloud.node(v);
            let new = if node.is_source() {
                source_arrival(&self.delays, &self.clock, cut, v)
            } else {
                eval_interior(self.cloud, &self.delays, &self.clock, cut, arr, v)
            };
            self.stats.nodes_reevaluated += 1;
            let old = arr[v.index()];
            if !bit_equal(new, old) {
                arr[v.index()] = new;
                for &w in &node.fanout {
                    if !dirty[w.index()] {
                        dirty[w.index()] = true;
                        frontier.push(Reverse((self.topo_pos[w.index()], w.0)));
                    }
                }
            }
        }
        retime_trace::counter(
            "reevaluated",
            self.stats.nodes_reevaluated - reevaluated_before,
        );
    }
}

/// Exact (bit-level) arc comparison — the early-termination test. `==`
/// would treat `-0.0 == 0.0` and mishandle NaN; bits are unambiguous.
fn bit_equal(a: DelayArc, b: DelayArc) -> bool {
    a.rise.to_bits() == b.rise.to_bits() && a.fall.to_bits() == b.fall.to_bits()
}

/// Source arrival: the launch value, re-launched through the source
/// slave when the source is unmoved under a cut — exactly the
/// initialization of `pure_arrivals` / `arrivals_with_cut`.
fn source_arrival(
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    cut: Option<&Cut>,
    s: NodeId,
) -> DelayArc {
    let launch = DelayArc::symmetric(delays.launch());
    match cut {
        None => launch,
        Some(c) if c.is_moved(s) => launch,
        Some(_) => relaunch(launch, clock, delays),
    }
}

/// Re-evaluates one interior (gate or sink) node from its fanin
/// arrivals — the same fold, in the same fanin order, as
/// [`crate::forward`]'s full pass, so results are bit-identical.
fn eval_interior(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    cut: Option<&Cut>,
    arr: &[DelayArc],
    v: NodeId,
) -> DelayArc {
    let node = cloud.node(v);
    let mut input: Option<DelayArc> = None;
    for &u in &node.fanin {
        let mut via = arr[u.index()];
        if let Some(c) = cut {
            if c.edge_latched(CloudEdge { from: u, to: v }) {
                via = relaunch(via, clock, delays);
            }
        }
        input = Some(match input {
            None => via,
            Some(acc) => arc_max(acc, via),
        });
    }
    let input = input.unwrap_or_default();
    if node.is_gate() {
        through_gate(input, delays.arc(v), delays.sense(v))
    } else {
        input
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::bench;

    fn setup() -> (retime_netlist::Netlist, TwoPhaseClock) {
        let n = bench::parse(
            "inc",
            "\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
g1 = NAND(a, b)
g2 = NOT(g1)
g3 = NAND(g2, b)
g4 = NOT(g3)
y = NAND(g4, a)
z = BUFF(g1)
",
        )
        .unwrap();
        (n, TwoPhaseClock::from_max_delay(0.5))
    }

    fn full_reference(
        cloud: &CombCloud,
        delays: &NodeDelays,
        clock: TwoPhaseClock,
        cut: &Cut,
    ) -> CutTiming {
        TimingAnalysis::with_delays(cloud, delays.clone(), clock).cut_timing(cut)
    }

    #[test]
    fn fresh_engine_matches_full_pass() {
        let (n, clock) = setup();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let cut = Cut::initial(&cloud);
        let mut inc =
            IncrementalTiming::new(&cloud, &lib, clock, DelayModel::PathBased, cut.clone())
                .unwrap();
        let want = full_reference(&cloud, inc.delays(), clock, &cut);
        assert_eq!(inc.cut_timing(), want);
        assert_eq!(inc.stats().full_passes, 1);
    }

    #[test]
    fn repeated_queries_hit_the_memo() {
        let (n, clock) = setup();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let mut inc = IncrementalTiming::new(
            &cloud,
            &lib,
            clock,
            DelayModel::PathBased,
            Cut::initial(&cloud),
        )
        .unwrap();
        let first = inc.cut_timing();
        let again = inc.cut_timing();
        assert_eq!(first, again);
        assert_eq!(inc.stats().cache_hits, 1);
    }

    #[test]
    fn scale_node_matches_full_recompute() {
        let (n, clock) = setup();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let cut = Cut::initial(&cloud);
        let mut inc =
            IncrementalTiming::new(&cloud, &lib, clock, DelayModel::PathBased, cut.clone())
                .unwrap();
        inc.cut_timing();
        for (g, k) in [("g2", 0.7), ("g1", 1.3), ("g4", 0.88)] {
            inc.scale_node(cloud.find(g).unwrap(), k);
            let want = full_reference(&cloud, inc.delays(), clock, &cut);
            assert_eq!(inc.cut_timing(), want);
        }
        assert_eq!(inc.stats().full_passes, 1, "repairs must stay incremental");
    }

    #[test]
    fn set_cut_matches_full_recompute() {
        let (n, clock) = setup();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let mut inc = IncrementalTiming::new(
            &cloud,
            &lib,
            clock,
            DelayModel::PathBased,
            Cut::initial(&cloud),
        )
        .unwrap();
        inc.cut_timing();
        let mut cut = Cut::initial(&cloud);
        for name in ["a", "b", "g1"] {
            cut.set_moved(cloud.find(name).unwrap(), true);
        }
        cut.validate(&cloud).unwrap();
        inc.set_cut(&cut);
        let want = full_reference(&cloud, inc.delays(), clock, &cut);
        assert_eq!(inc.cut_timing(), want);
        assert_eq!(inc.stats().full_passes, 1);
    }

    #[test]
    fn unit_scale_terminates_early() {
        let (n, clock) = setup();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let mut inc = IncrementalTiming::new(
            &cloud,
            &lib,
            clock,
            DelayModel::PathBased,
            Cut::initial(&cloud),
        )
        .unwrap();
        inc.cut_timing();
        let before = inc.stats().nodes_reevaluated;
        // Scaling by exactly 1.0 leaves the arc bits unchanged, so the
        // repair must stop at the seeded node in each view.
        inc.scale_node(cloud.find("g1").unwrap(), 1.0);
        inc.cut_timing();
        assert_eq!(inc.stats().nodes_reevaluated - before, 2);
    }

    #[test]
    fn dirty_region_stays_local() {
        let (n, clock) = setup();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let mut inc = IncrementalTiming::new(
            &cloud,
            &lib,
            clock,
            DelayModel::PathBased,
            Cut::initial(&cloud),
        )
        .unwrap();
        inc.cut_timing();
        let before = inc.stats().nodes_reevaluated;
        // g4 only feeds y: the repair must not visit g1/g2/g3/z's cone.
        inc.scale_node(cloud.find("g4").unwrap(), 0.5);
        inc.cut_timing();
        let revisited = inc.stats().nodes_reevaluated - before;
        // Per view: g4 + y-gate + y-sink = 3 nodes at most.
        assert!(revisited <= 6, "repair visited {revisited} nodes");
    }

    #[test]
    fn from_analysis_agrees_with_wrapped_sta() {
        let (n, clock) = setup();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let cut = Cut::initial(&cloud);
        let mut inc = IncrementalTiming::from_analysis(&sta, cut.clone());
        assert_eq!(inc.cut_timing(), sta.cut_timing(&cut));
        for &t in cloud.sinks() {
            assert_eq!(inc.df(t).to_bits(), sta.df(t).to_bits());
        }
    }
}
