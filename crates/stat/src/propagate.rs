//! Canonical-form arrival/required propagation over the latch graph.
//!
//! Mirrors `retime_sta::forward`/`retime_sta::backward` operation-for-
//! operation, but in scalar [`Canon`] arithmetic. The statistical delay
//! mode constructs symmetric positive-unate arcs (rise == fall), so the
//! deterministic per-transition fold collapses to a single scalar chain
//! — every mean-channel operation below performs bitwise the same `f64`
//! arithmetic as its deterministic counterpart, which is what the
//! sigma→0 differential tests pin down.
//!
//! The with-cut pass follows the reduced-iteration scheme of
//! Li/Chen/Schlichtmann: latch loops are graph-transformed away (the
//! [`retime_netlist::CombCloud`] is the unrolled acyclic latch graph, and
//! slave relaunches are edge transforms), then the canonical max/add
//! system is iterated to a fixed point. On the transformed graph one
//! sweep reaches the fixed point and a second confirms it, giving the
//! proven iteration bound of two; the pass asserts that bound and
//! reports the count through a `stat_cut_arrivals` trace span.

use retime_netlist::{CloudEdge, CombCloud, ConeWalk, Cut, NodeId};
use retime_sta::{NodeDelays, TwoPhaseClock};

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

/// Pure combinational canonical arrivals `D^f(v)` (no slave latches):
/// sources launch deterministically at the master clock-to-Q.
pub fn pure_arrivals(cloud: &CombCloud, delays: &NodeDelays) -> Vec<Canon> {
    let launch = Canon::constant(delays.launch());
    let mut arr = vec![Canon::default(); cloud.len()];
    propagate_once(
        cloud,
        delays,
        cloud.topo().iter().copied(),
        &mut arr,
        |_s| launch,
        |_e, a| a,
    );
    arr
}

/// Canonical arrivals with slave latches at the positions of `cut`,
/// iterated to a bitwise fixed point (reduced-iteration scheme).
///
/// # Panics
/// Panics if the fixed point is not reached within the proven bound of
/// two sweeps over the transformed (acyclic) latch graph.
pub fn arrivals_with_cut(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    cut: &Cut,
) -> Vec<Canon> {
    let _span = retime_trace::span("stat_cut_arrivals");
    let moved = |v| cut.is_moved(v);
    let mut arr = vec![Canon::default(); cloud.len()];
    // Launch the sources first, so the first sweep's comparison sees
    // only the propagated nodes change.
    arrivals_with_moved(
        cloud,
        delays,
        clock,
        cloud.sources().iter().copied(),
        moved,
        &mut arr,
    );
    let mut iterations = 0u64;
    loop {
        iterations += 1;
        let before = arr.clone();
        arrivals_with_moved(
            cloud,
            delays,
            clock,
            cloud.topo().iter().copied(),
            moved,
            &mut arr,
        );
        if bitwise_eq(&before, &arr) {
            break;
        }
        assert!(
            iterations <= 2,
            "canonical fixed point must settle within two sweeps on an acyclic latch graph"
        );
    }
    retime_trace::counter("iterations", iterations);
    arr
}

/// One canonical sweep with slave latches placed by the moved set `moved`
/// (the [`Cut`] encoding), written into `arr` for the nodes of `order`
/// only. `order` must list every fanin of a node before the node — the
/// cloud's topological order, or the reverse of a fan-in cone walk. On
/// the acyclic latch graph one sweep already reaches the fixed point
/// [`arrivals_with_cut`] iterates to, so a cone-local sweep yields
/// bitwise the same values for the cone's nodes.
pub(crate) fn arrivals_with_moved(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    order: impl Iterator<Item = NodeId>,
    moved: impl Fn(NodeId) -> bool,
    arr: &mut [Canon],
) {
    let launch = Canon::constant(delays.launch());
    let relaunched = relaunch_canon(&launch, clock, delays);
    propagate_once(
        cloud,
        delays,
        order,
        arr,
        |s| if moved(s) { launch } else { relaunched },
        |e, a| {
            if moved(e.from) && !moved(e.to) {
                relaunch_canon(&a, clock, delays)
            } else {
                a
            }
        },
    );
}

/// Whether two canonical vectors are bitwise identical (NaN-free inputs,
/// so `PartialEq` on the raw components is the bit comparison we want).
fn bitwise_eq(a: &[Canon], b: &[Canon]) -> bool {
    a.iter().zip(b).all(|(x, y)| {
        x.m.to_bits() == y.m.to_bits()
            && x.g.to_bits() == y.g.to_bits()
            && x.r.to_bits() == y.r.to_bits()
    })
}

/// One sweep over `order`, the canonical mirror of the deterministic
/// propagation core: sources take `source_fn`, fanin folds in stored
/// order, gates add their canonical delay, sinks capture their driver
/// unchanged. Nodes whose fanin is already final are overwritten with
/// identical values, so repeated sweeps are idempotent once the fixed
/// point is reached.
fn propagate_once(
    cloud: &CombCloud,
    delays: &NodeDelays,
    order: impl Iterator<Item = NodeId>,
    arr: &mut [Canon],
    source_fn: impl Fn(NodeId) -> Canon,
    edge_fn: impl Fn(CloudEdge, Canon) -> Canon,
) {
    for v in order {
        let node = cloud.node(v);
        if node.is_source() {
            arr[v.index()] = source_fn(v);
            continue;
        }
        let mut input: Option<Canon> = None;
        for &u in &node.fanin {
            let via = edge_fn(CloudEdge { from: u, to: v }, arr[u.index()]);
            input = Some(match input {
                None => via,
                Some(acc) => acc.max(&via),
            });
        }
        let input = input.unwrap_or_default();
        arr[v.index()] = if node.is_gate() {
            input.add(&gate_canon(delays, v))
        } else {
            input
        };
    }
}

/// Canonical backward pass from one sink: the statistical counterpart of
/// [`retime_sta::BackwardPass`], carrying path sigma alongside the mean.
/// Like it, the pass sweeps only the sink's fan-in cone and is reusable
/// through [`StatBackward::rerun`].
#[derive(Debug, Clone)]
pub struct StatBackward {
    sink: NodeId,
    cone: ConeWalk,
    from_output: Vec<Option<Canon>>,
    through: Vec<Option<Canon>>,
}

impl StatBackward {
    /// An empty pass sized for `cloud`, covering no node until the first
    /// [`StatBackward::rerun`].
    pub fn new(cloud: &CombCloud) -> StatBackward {
        StatBackward {
            sink: NodeId(u32::MAX),
            cone: ConeWalk::new(cloud),
            from_output: vec![None; cloud.len()],
            through: vec![None; cloud.len()],
        }
    }

    /// Runs the canonical backward pass from sink `t` on fresh scratch.
    ///
    /// # Panics
    /// Panics if `t` is not a sink of the cloud.
    pub fn run(cloud: &CombCloud, delays: &NodeDelays, t: NodeId) -> StatBackward {
        let mut sb = StatBackward::new(cloud);
        sb.rerun(cloud, delays, t);
        sb
    }

    /// Reruns the pass from sink `t`, clearing only the previous cone's
    /// slots; equal to a fresh [`StatBackward::run`] from `t`.
    ///
    /// # Panics
    /// Panics if `t` is not a sink of the cloud.
    pub fn rerun(&mut self, cloud: &CombCloud, delays: &NodeDelays, t: NodeId) {
        assert!(cloud.node(t).is_sink(), "{t} is not a sink");
        for &v in self.cone.order() {
            self.from_output[v.index()] = None;
            self.through[v.index()] = None;
        }
        self.sink = t;
        let cone = self.cone.walk(cloud, [t]);
        self.through[t.index()] = Some(Canon::default());
        for &v in &cone[1..] {
            let node = cloud.node(v);
            // Stored fanout order: Clark's max is order-sensitive.
            let mut best: Option<Canon> = None;
            for &w in &node.fanout {
                if let Some(thr) = self.through[w.index()] {
                    best = Some(match best {
                        None => thr,
                        Some(acc) => acc.max(&thr),
                    });
                }
            }
            let fo = best.expect("a cone node has an in-cone fanout");
            self.from_output[v.index()] = Some(fo);
            if node.is_gate() {
                self.through[v.index()] = Some(gate_canon(delays, v).add(&fo));
            }
        }
    }

    /// The sink this pass was run from.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// The fan-in cone of the sink, sink first, every node before its
    /// fanins.
    pub fn cone(&self) -> &[NodeId] {
        self.cone.order()
    }

    /// Canonical `D^b(v, t)`; `None` when `v` is outside the fan-in cone.
    pub fn from_output(&self, v: NodeId) -> Option<Canon> {
        self.from_output[v.index()]
    }

    /// Canonical delay from `v`'s inputs through `v` to the sink.
    pub fn through(&self, v: NodeId) -> Option<Canon> {
        self.through[v.index()]
    }

    /// Whether `v` lies in the fan-in cone of the sink.
    pub fn in_cone(&self, v: NodeId) -> bool {
        self.cone.contains(v)
    }
}

/// Canonical worst backward delay to **any** sink, per node — mirror of
/// the deterministic any-sink reverse sweep that feeds the `V_m` region
/// test.
pub fn db_to_any_sink(cloud: &CombCloud, delays: &NodeDelays) -> Vec<Option<Canon>> {
    let n = cloud.len();
    let mut from_output: Vec<Option<Canon>> = vec![None; n];
    let mut through: Vec<Option<Canon>> = vec![None; n];
    for &t in cloud.sinks() {
        through[t.index()] = Some(Canon::default());
    }
    for &v in cloud.topo().iter().rev() {
        let node = cloud.node(v);
        if node.is_sink() {
            continue;
        }
        let mut best: Option<Canon> = None;
        for &w in &node.fanout {
            if let Some(thr) = through[w.index()] {
                best = Some(match best {
                    None => thr,
                    Some(acc) => acc.max(&thr),
                });
            }
        }
        if let Some(fo) = best {
            from_output[v.index()] = Some(fo);
            if node.is_gate() {
                through[v.index()] = Some(gate_canon(delays, v).add(&fo));
            }
        }
    }
    from_output
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};
    use retime_sta::{DelayModel, StatParams};

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
        let stat_arr = pure_arrivals(&cloud, &stat);
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
        let arr = pure_arrivals(&cloud, &stat);
        let z = cloud.sinks()[0];
        assert!(arr[z.index()].sigma() > 0.0, "sink must accumulate sigma");
        // Mean of a max is at least the deterministic nominal value.
        let (_, zero, _) = setup(stat_zero());
        let nominal = pure_arrivals(&cloud, &zero);
        assert!(arr[z.index()].m >= nominal[z.index()].m - 1e-12);
    }

    #[test]
    fn with_cut_converges_in_one_sweep() {
        let (cloud, stat, clock) = setup(stat_default());
        let cut = Cut::initial(&cloud);
        let arr = arrivals_with_cut(&cloud, &stat, &clock, &cut);
        let pure = pure_arrivals(&cloud, &stat);
        for &t in cloud.sinks() {
            assert!(arr[t.index()].m >= pure[t.index()].m - 1e-12);
        }
    }

    #[test]
    fn backward_mirrors_deterministic_cone() {
        let (cloud, stat, _) = setup(stat_zero());
        let (_, det, _) = setup(DelayModel::GateBased);
        for &t in cloud.sinks() {
            let sb = StatBackward::run(&cloud, &stat, t);
            let bp = retime_sta::BackwardPass::run(&cloud, &det, t);
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
        let stat_db = db_to_any_sink(&cloud, &stat);
        for &t in cloud.sinks() {
            assert!(stat_db[t.index()].is_none());
        }
        // Each per-sink pass must be dominated by the any-sink sweep.
        for &t in cloud.sinks() {
            let sb = StatBackward::run(&cloud, &stat, t);
            for &v in cloud.topo() {
                if let Some(per) = sb.from_output(v) {
                    let any = stat_db[v.index()].expect("any-sink must cover per-sink cones");
                    assert!(any.m >= per.m - 1e-12);
                }
            }
        }
    }
}
