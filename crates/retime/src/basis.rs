//! The overhead-independent analysis of one circuit, shared by the flow
//! runs of an EDL-overhead sweep.
//!
//! The overhead `c` reaches a flow only through G-RAR's pseudo-target
//! weights and the area bill. The timing analysis, the legality regions
//! and each sink's classification are the same at every `c`, so a
//! [`FlowBasis`] computes them once per circuit, clock and delay model,
//! and every run of a sweep reads them through [`BasisSlot::Shared`].
//! A shared basis also keeps G-RAR's targeted instance
//! ([`TargetedInstance`]), which later probes re-price and resume
//! instead of rebuilding. A one-shot run uses [`BasisSlot::Fresh`]: it
//! builds its own basis, caches no classification, and legalizes that
//! very analysis's delay tables, with no copy.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

use retime_liberty::Library;
use retime_netlist::{CombCloud, Cut, NodeId};
use retime_sta::{
    arrivals_with_cut, CutTiming, DelayModel, NodeDelays, SinkClass, StaError, TimingAnalysis,
    TwoPhaseClock,
};
use retime_stat::{Canon, StatMargin, StatSummary};

use crate::error::RetimeError;
use crate::problem::ParametricProblem;
use crate::regions::Regions;

/// G-RAR's Eq. 14 instance for one case, as its first run built it: the
/// instance with one pseudo node per target master, kept with its
/// solved closure, and the classification counts the run reported.
/// Only the pseudo nodes' overheads depend on `c`.
#[derive(Debug)]
pub struct TargetedInstance {
    /// The instance, its closure and its last solution.
    pub problem: ParametricProblem,
    /// `(pseudo flow node, sink index)` per target master, in sink order.
    pub pseudos: Vec<(usize, usize)>,
    /// Endpoints that are error-detecting regardless of retiming.
    pub always_ed: usize,
    /// Endpoints that can never need error detection.
    pub never_ed: usize,
}

/// The timing analysis of one circuit in the arithmetic of its delay
/// model: per-transition [`retime_liberty::DelayArc`]s under the path-
/// and gate-based models, canonical forms under the statistical one.
/// Only the statistical analysis runs canonical passes, and it runs no
/// per-transition one. It is the one place that picks the arithmetic of
/// a cut replay, whose margined sink arrivals every EDL decision reads
/// ([`retime_sta::is_error_detecting`]).
#[derive(Debug, Clone)]
pub enum FlowTiming<'a> {
    /// The path- or gate-based analysis.
    Nominal(TimingAnalysis<'a>),
    /// The statistical analysis, margined at the yield target.
    Statistical(TimingAnalysis<'a, Canon>),
}

impl<'a> FlowTiming<'a> {
    /// Looks the delays up and runs the analysis of `model`.
    ///
    /// # Errors
    /// Returns [`StaError::Library`] if a gate function is unmapped.
    pub fn new(
        cloud: &'a CombCloud,
        lib: &Library,
        clock: TwoPhaseClock,
        model: DelayModel,
    ) -> Result<FlowTiming<'a>, StaError> {
        let delays = NodeDelays::from_library(cloud, lib, model)?;
        Ok(match model {
            DelayModel::Statistical(_) => {
                FlowTiming::Statistical(TimingAnalysis::run(cloud, delays, clock))
            }
            DelayModel::GateBased | DelayModel::PathBased => {
                FlowTiming::Nominal(TimingAnalysis::run(cloud, delays, clock))
            }
        })
    }

    /// The analysed cloud.
    pub fn cloud(&self) -> &'a CombCloud {
        match self {
            FlowTiming::Nominal(sta) => sta.cloud(),
            FlowTiming::Statistical(sta) => sta.cloud(),
        }
    }

    /// The clock model.
    pub fn clock(&self) -> &TwoPhaseClock {
        match self {
            FlowTiming::Nominal(sta) => sta.clock(),
            FlowTiming::Statistical(sta) => sta.clock(),
        }
    }

    /// The delay tables.
    pub fn delays(&self) -> &NodeDelays {
        match self {
            FlowTiming::Nominal(sta) => sta.delays(),
            FlowTiming::Statistical(sta) => sta.delays(),
        }
    }

    /// The delay tables, dropping the passes computed over them.
    pub fn into_delays(self) -> NodeDelays {
        match self {
            FlowTiming::Nominal(sta) => sta.into_delays(),
            FlowTiming::Statistical(sta) => sta.into_delays(),
        }
    }

    /// The legality regions of the analysis ([`Regions::compute`]).
    ///
    /// # Errors
    /// Returns [`RetimeError::InfeasibleClocking`] when some node has no
    /// legal slave position.
    pub fn regions(&self) -> Result<Regions, RetimeError> {
        match self {
            FlowTiming::Nominal(sta) => Regions::compute(sta),
            FlowTiming::Statistical(sta) => Regions::compute(sta),
        }
    }

    /// The margined arrival at each sink of `cut`, aligned with
    /// `cloud.sinks()`: the worst transition of
    /// [`TimingAnalysis::cut_timing`], or `m + z·σ_tot` of one canonical
    /// with-cut sweep. It builds no statistical summary.
    pub fn cut_arrivals(&self, cut: &Cut) -> Vec<f64> {
        match self {
            FlowTiming::Nominal(sta) => sta.cut_timing(cut).sink_arrivals,
            FlowTiming::Statistical(sta) => {
                canonical_sink_arrivals(sta.cloud(), sta.delays(), sta.clock(), cut)
                    .iter()
                    .map(|c| sta.margined(c))
                    .collect()
            }
        }
    }

    /// [`FlowTiming::cut_arrivals`] of a flow's final `cut` over its
    /// final (legalized) delay tables, with their statistical summary.
    /// `timing` is the cut's per-transition timing over those tables,
    /// whose sink arrivals the path- and gate-based models read as is;
    /// under the statistical model one canonical sweep feeds the
    /// arrivals and [`StatMargin::summarize`].
    pub fn final_arrivals(
        cloud: &CombCloud,
        delays: &NodeDelays,
        clock: &TwoPhaseClock,
        cut: &Cut,
        timing: &CutTiming,
    ) -> (Vec<f64>, Option<StatSummary>) {
        match delays.model() {
            DelayModel::Statistical(_) => {
                let margin = StatMargin::new(delays, clock);
                let canons = canonical_sink_arrivals(cloud, delays, clock, cut);
                let margined = canons.iter().map(|c| margin.margined(c)).collect();
                (margined, Some(margin.summarize(canons)))
            }
            DelayModel::GateBased | DelayModel::PathBased => (timing.sink_arrivals.clone(), None),
        }
    }
}

/// The canonical arrival at each sink of `cut`: one with-cut sweep,
/// under a `stat_cut_arrivals` span.
fn canonical_sink_arrivals(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    cut: &Cut,
) -> Vec<Canon> {
    let arr: Vec<Canon> = {
        let _span = retime_trace::span("stat_cut_arrivals");
        arrivals_with_cut(cloud, delays, clock, cut)
    };
    cloud.sinks().iter().map(|&t| arr[t.index()]).collect()
}

/// The pristine timing analysis of one circuit under one clock and delay
/// model ([`FlowTiming`]), its legality [`Regions`], a cache of sink
/// classifications (`SinkClass` plus the cut-set `g(t)`), which the
/// flows of a sweep fill as they classify
/// (`retime_core::classify_cached`), and G-RAR's [`TargetedInstance`]
/// once a G-RAR run has built it.
///
/// The basis borrows the cloud and the library, so while it lives
/// neither can change: a pointer match is a value match
/// ([`FlowBasis::is_for`]).
#[derive(Debug)]
pub struct FlowBasis<'a> {
    lib: &'a Library,
    sta: FlowTiming<'a>,
    regions: Regions,
    classes: HashMap<NodeId, (SinkClass, Vec<NodeId>)>,
    targeted: Option<TargetedInstance>,
}

impl<'a> FlowBasis<'a> {
    /// Runs the timing analysis and computes the regions.
    fn new(
        cloud: &'a CombCloud,
        lib: &'a Library,
        clock: TwoPhaseClock,
        model: DelayModel,
    ) -> Result<FlowBasis<'a>, RetimeError> {
        let sta = FlowTiming::new(cloud, lib, clock, model)?;
        let regions = sta.regions()?;
        Ok(FlowBasis {
            lib,
            sta,
            regions,
            classes: HashMap::new(),
            targeted: None,
        })
    }

    /// Whether this basis was built for exactly these inputs: the same
    /// cloud and library (by address) under an equal clock and model.
    pub fn is_for(
        &self,
        cloud: &CombCloud,
        lib: &Library,
        clock: TwoPhaseClock,
        model: DelayModel,
    ) -> bool {
        std::ptr::eq(self.sta.cloud(), cloud)
            && std::ptr::eq(self.lib, lib)
            && *self.sta.clock() == clock
            && self.sta.delays().model() == model
    }

    /// The pristine timing analysis (no legalization upsizing).
    pub fn sta(&self) -> &FlowTiming<'a> {
        &self.sta
    }

    /// The legality regions of the pristine analysis.
    pub fn regions(&self) -> &Regions {
        &self.regions
    }

    /// The cached classification of sink `t`, if a flow has classified
    /// it on this basis.
    pub fn class_of(&self, t: NodeId) -> Option<(SinkClass, &[NodeId])> {
        self.classes
            .get(&t)
            .map(|(class, g)| (*class, g.as_slice()))
    }

    /// Caches the classification of sink `t`. A sink's class and cut-set
    /// are a pure function of the analysis, so a later call for the same
    /// sink stores the same value.
    pub fn cache_class(&mut self, t: NodeId, class: SinkClass, cut_set: Vec<NodeId>) {
        self.classes.insert(t, (class, cut_set));
    }

    /// G-RAR's kept instance, if a G-RAR run has built it on this basis.
    pub fn targeted(&self) -> Option<&TargetedInstance> {
        self.targeted.as_ref()
    }

    /// The slot G-RAR keeps its instance in. The instance is a function
    /// of the analysis and the regions, except for the pseudo overheads,
    /// which each run sets.
    pub fn targeted_slot(&mut self) -> &mut Option<TargetedInstance> {
        &mut self.targeted
    }
}

/// Where a flow run takes its [`FlowBasis`] from. The run opens it in
/// its `sta` stage ([`BasisSlot::open`]).
#[derive(Debug)]
pub enum BasisSlot<'s, 'a> {
    /// Build a basis for this run alone; its commit legalizes the
    /// analysis in place. It stays apart from `Shared` on purpose: a
    /// one-shot run on a throwaway shared slot would keep the analysis,
    /// the class cache and G-RAR's closure alive through its commit, and
    /// on six alternating 10 s `grar_cold` benchmark pairs (2 vCPU) that
    /// raised the median `peak_rss_mb` from 55.0 to 59.0 (+7 %, worse in
    /// 6 of 6) and lowered the median `jobs_per_s` from 32.1 to 31.1
    /// (lower in 6 of 6).
    Fresh,
    /// A basis shared by the runs of a sweep: reused when it was built
    /// for the run's cloud, library, clock and model, else (re)built in
    /// place. Each commit legalizes a copy of the delay tables, so the
    /// basis stays pristine.
    Shared(&'s mut Option<FlowBasis<'a>>),
}

impl<'s, 'a> BasisSlot<'s, 'a> {
    /// The basis for `(cloud, lib, clock, model)`: the shared one when it
    /// matches, else a newly built one.
    ///
    /// # Errors
    /// Propagates STA failures and
    /// [`RetimeError::InfeasibleClocking`]; a shared slot is then left
    /// empty.
    pub fn open(
        self,
        cloud: &'a CombCloud,
        lib: &'a Library,
        clock: TwoPhaseClock,
        model: DelayModel,
    ) -> Result<OpenBasis<'s, 'a>, RetimeError> {
        match self {
            BasisSlot::Fresh => Ok(OpenBasis::Owned(Box::new(FlowBasis::new(
                cloud, lib, clock, model,
            )?))),
            BasisSlot::Shared(slot) => {
                if !slot
                    .as_ref()
                    .is_some_and(|b| b.is_for(cloud, lib, clock, model))
                {
                    // Drop the stale basis first: it frees its memory
                    // before the new one is built, and a failed build
                    // leaves the slot empty.
                    *slot = None;
                    *slot = Some(FlowBasis::new(cloud, lib, clock, model)?);
                }
                Ok(OpenBasis::Shared(
                    slot.as_mut().expect("the slot was just filled"),
                ))
            }
        }
    }
}

/// A flow run's open [`FlowBasis`]; dereferences to it.
#[derive(Debug)]
pub enum OpenBasis<'s, 'a> {
    /// Built for this run ([`BasisSlot::Fresh`]).
    Owned(Box<FlowBasis<'a>>),
    /// Shared with the other runs of a sweep ([`BasisSlot::Shared`]).
    Shared(&'s mut FlowBasis<'a>),
}

impl OpenBasis<'_, '_> {
    /// The delay tables a commit legalizes: the analysis's own when the
    /// run built the basis, a copy when it is shared.
    pub fn into_delays(self) -> NodeDelays {
        match self {
            OpenBasis::Owned(basis) => basis.sta.into_delays(),
            OpenBasis::Shared(basis) => basis.sta.delays().clone(),
        }
    }
}

impl<'a> Deref for OpenBasis<'_, 'a> {
    type Target = FlowBasis<'a>;

    fn deref(&self) -> &FlowBasis<'a> {
        match self {
            OpenBasis::Owned(basis) => basis,
            OpenBasis::Shared(basis) => basis,
        }
    }
}

impl<'a> DerefMut for OpenBasis<'_, 'a> {
    fn deref_mut(&mut self) -> &mut FlowBasis<'a> {
        match self {
            OpenBasis::Owned(basis) => basis,
            OpenBasis::Shared(basis) => basis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::{bench, NodeKind};
    use retime_sta::{cut_timing, error_detecting_masters, StatParams};

    fn cloud() -> CombCloud {
        let n = bench::parse(
            "b",
            "INPUT(a)\nOUTPUT(z)\nq = DFF(g)\ng = NOT(a)\nz = NOT(q)\n",
        )
        .unwrap();
        CombCloud::extract(&n).unwrap()
    }

    #[test]
    fn shared_slot_is_reused_only_for_the_same_inputs() {
        let (a, b) = (cloud(), cloud());
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(5.0);
        let model = DelayModel::PathBased;
        let mut slot = None;
        let sink = a.sinks()[0];
        {
            let mut basis = BasisSlot::Shared(&mut slot)
                .open(&a, &lib, clock, model)
                .unwrap();
            basis.cache_class(sink, SinkClass::NeverErrorDetecting, Vec::new());
        }
        // Same inputs: the cache survives.
        let basis = BasisSlot::Shared(&mut slot)
            .open(&a, &lib, clock, model)
            .unwrap();
        assert!(basis.class_of(sink).is_some());
        // An equal but distinct cloud, another clock, another model:
        // each rebuilds, so the cache is gone.
        let other_clock = TwoPhaseClock::from_max_delay(6.0);
        for (cloud, clock, model) in [
            (&b, clock, model),
            (&a, other_clock, model),
            (&a, clock, DelayModel::GateBased),
        ] {
            let mut basis = BasisSlot::Shared(&mut slot)
                .open(cloud, &lib, clock, model)
                .unwrap();
            assert!(basis.is_for(cloud, &lib, clock, model));
            assert!(basis.class_of(cloud.sinks()[0]).is_none());
            basis.cache_class(cloud.sinks()[0], SinkClass::Target, Vec::new());
        }
    }

    #[test]
    fn shared_commit_copies_and_fresh_commit_moves() {
        let a = cloud();
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(5.0);
        let model = DelayModel::PathBased;
        let mut slot = None;
        let mut delays = BasisSlot::Shared(&mut slot)
            .open(&a, &lib, clock, model)
            .unwrap()
            .into_delays();
        let g = a.find("g").unwrap();
        delays.scale_node(g, 0.5);
        let pristine = slot.as_ref().unwrap().sta().delays();
        assert!(
            pristine.max_delay(g) > delays.max_delay(g),
            "the copy moved"
        );
        let fresh = BasisSlot::Fresh
            .open(&a, &lib, clock, model)
            .unwrap()
            .into_delays();
        assert_eq!(&fresh, pristine);
    }

    /// A registered loop and a primary output fed by the register.
    fn loop_cloud() -> CombCloud {
        let n = bench::parse(
            "s",
            "INPUT(a)\nOUTPUT(z)\nq = DFF(g2)\ng1 = AND(a, q)\ng2 = NOT(g1)\nz = BUFF(q)\n",
        )
        .unwrap();
        CombCloud::extract(&n).unwrap()
    }

    #[test]
    fn sigma_zero_flags_match_deterministic() {
        let cloud = loop_cloud();
        let lib = Library::fdsoi28();
        let clock = TwoPhaseClock::from_max_delay(0.4);
        let zero = DelayModel::Statistical(StatParams::new(0.0, 0.0, 0.9987, 1));
        let cut = Cut::initial(&cloud);
        let stat = FlowTiming::new(&cloud, &lib, clock, zero).unwrap();
        let det = FlowTiming::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
        let (margined, nominal) = (stat.cut_arrivals(&cut), det.cut_arrivals(&cut));
        assert_eq!(
            margined.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            nominal.iter().map(|a| a.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            error_detecting_masters(&cloud, &clock, &margined),
            error_detecting_masters(&cloud, &clock, &nominal)
        );
        // The final-cut replay agrees, with step-function yields in the
        // degenerate regime.
        let timing = cut_timing(&cloud, stat.delays(), &clock, &cut);
        let (replayed, summary) =
            FlowTiming::final_arrivals(&cloud, stat.delays(), &clock, &cut, &timing);
        assert_eq!(replayed, margined);
        for y in &summary.expect("statistical tables").yields {
            assert!(*y == 0.0 || *y == 1.0);
        }
        let (_, none) = FlowTiming::final_arrivals(&cloud, det.delays(), &clock, &cut, &timing);
        assert!(none.is_none());
    }

    #[test]
    fn pos_never_flagged() {
        let cloud = loop_cloud();
        let lib = Library::fdsoi28();
        // A clock so tight everything misses yield.
        let clock = TwoPhaseClock::from_max_delay(0.01);
        let model = DelayModel::Statistical(StatParams::DEFAULT);
        let sta = FlowTiming::new(&cloud, &lib, clock, model).unwrap();
        let cut = Cut::initial(&cloud);
        let arrivals = sta.cut_arrivals(&cut);
        let ed = error_detecting_masters(&cloud, &clock, &arrivals);
        for (i, &t) in cloud.sinks().iter().enumerate() {
            let master = matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) });
            assert!(retime_sta::is_error_detecting(arrivals[i], &clock));
            assert_eq!(ed[i], master, "primary outputs never pay EDL");
        }
        let timing = cut_timing(&cloud, sta.delays(), &clock, &cut);
        let (_, summary) = FlowTiming::final_arrivals(&cloud, sta.delays(), &clock, &cut, &timing);
        assert!(summary.expect("statistical tables").min_yield < 0.5);
    }
}
