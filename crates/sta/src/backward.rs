//! Per-endpoint backward delay analysis: the paper's `D^b(v, t)`, generic
//! over the [`Arrival`] value the forward pass carries.

use retime_liberty::{DelayArc, Sense};
use retime_netlist::{CombCloud, ConeWalk, NodeId};

use crate::forward::Arrival;
use crate::model::NodeDelays;

/// Result of a backward pass from one sink `t`.
///
/// For every node `v` in the fan-in cone of `t` (excluding `t` itself for
/// `from_output`):
///
/// * `from_output(v)` — the paper's `D^b(v, t)`: worst delay from a
///   transition at the **output** of `v` to the input of `t`, per output
///   polarity at `v`,
/// * `through(v)` — worst delay from a transition at the **inputs** of `v`
///   through `v` to `t` (the `d(v) + D^b(v, t)` term of Eq. 5 with valid
///   rise/fall pairing), per input polarity at `v`.
///
/// The values are [`DelayArc`]s by default; `BackwardPass<Canon>` (with
/// `retime-stat`'s canonical forms) carries path sigma alongside the
/// mean.
///
/// The pass touches only the cone: it walks `FIC(t)` with a
/// [`ConeWalk`] and sweeps it in the walk's order (every node after all
/// of its in-cone fanouts). A pass is reusable — [`BackwardPass::rerun`]
/// clears just the previous cone's slots — so one pass per worker
/// serves every target at O(cone) cost each.
#[derive(Debug, Clone)]
pub struct BackwardPass<A = DelayArc> {
    sink: NodeId,
    cone: ConeWalk,
    from_output: Vec<Option<A>>,
    through: Vec<Option<A>>,
}

impl<A: Arrival> BackwardPass<A> {
    /// An empty pass sized for `cloud`, covering no node until the first
    /// [`BackwardPass::rerun`].
    pub fn new(cloud: &CombCloud) -> BackwardPass<A> {
        BackwardPass {
            sink: NodeId(u32::MAX),
            cone: ConeWalk::new(cloud),
            from_output: vec![None; cloud.len()],
            through: vec![None; cloud.len()],
        }
    }

    /// Runs the backward pass from sink `t` on fresh scratch.
    ///
    /// # Panics
    /// Panics if `t` is not a sink of the cloud.
    pub fn run(cloud: &CombCloud, delays: &NodeDelays, t: NodeId) -> BackwardPass<A> {
        let mut bp = BackwardPass::new(cloud);
        bp.rerun(cloud, delays, t);
        bp
    }

    /// Reruns the pass from sink `t`, reusing this pass's scratch: the
    /// previous cone's slots are cleared, then `t`'s cone is swept. The
    /// result equals a fresh [`BackwardPass::run`] from `t`.
    ///
    /// # Panics
    /// Panics if `t` is not a sink of the cloud.
    pub fn rerun(&mut self, cloud: &CombCloud, delays: &NodeDelays, t: NodeId) {
        assert!(cloud.kind(t).is_sink(), "{t} is not a sink");
        for &v in self.cone.order() {
            self.from_output[v.index()] = None;
            self.through[v.index()] = None;
        }
        self.sink = t;
        // The walk lists t first; every later node follows all of its
        // in-cone fanouts, whose `through` is therefore final.
        let cone = self.cone.walk(cloud, [t]);
        // The sink itself: a latch placed directly on the edge into t has
        // no further gate delay.
        self.through[t.index()] = Some(A::default());
        for &v in &cone[1..] {
            let fo =
                worst_fanout(cloud, &self.through, v).expect("a cone node has an in-cone fanout");
            self.from_output[v.index()] = Some(fo);
            if cloud.kind(v).is_gate() {
                self.through[v.index()] = Some(fo.back_through_gate(delays, v));
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

    /// `D^b(v, t)` per output polarity of `v`; `None` when `v` is not in
    /// the fan-in cone of the sink.
    pub fn from_output(&self, v: NodeId) -> Option<A> {
        self.from_output[v.index()]
    }

    /// Delay from `v`'s inputs through `v` to the sink, per input polarity.
    /// Defined for gate nodes in the cone and for the sink itself (zero).
    pub fn through(&self, v: NodeId) -> Option<A> {
        self.through[v.index()]
    }

    /// Whether `v` lies in the fan-in cone of the sink.
    pub fn in_cone(&self, v: NodeId) -> bool {
        self.cone.contains(v)
    }
}

impl BackwardPass<DelayArc> {
    /// Scalar `D^b(v, t)` (worst polarity).
    pub fn db(&self, v: NodeId) -> Option<f64> {
        self.from_output[v.index()].map(DelayArc::max)
    }
}

/// The merge of `through` over `v`'s fanouts in stored order, skipping
/// those without a value (outside the cone, or not reaching a sink);
/// `None` when no fanout has one.
fn worst_fanout<A: Arrival>(cloud: &CombCloud, through: &[Option<A>], v: NodeId) -> Option<A> {
    cloud
        .fanout(v)
        .iter()
        .filter_map(|w| through[w.index()])
        .reduce(A::merge)
}

/// Backward counterpart of the forward gate step: given the
/// per-output-polarity delay-to-sink `fo` at a gate's output, produce the
/// per-input-polarity delay-to-sink through the gate — the `through`
/// value [`BackwardPass`] stores for a gate with delay `arc` and
/// unateness `sense`.
pub fn backward_through_gate(fo: DelayArc, arc: DelayArc, sense: Sense) -> DelayArc {
    match sense {
        // Input rise -> output rise (delay arc.rise), then fo.rise onward.
        Sense::Positive => DelayArc {
            rise: arc.rise + fo.rise,
            fall: arc.fall + fo.fall,
        },
        // Input rise -> output fall.
        Sense::Negative => DelayArc {
            rise: arc.fall + fo.fall,
            fall: arc.rise + fo.rise,
        },
        // Input transition may cause either output transition.
        Sense::NonUnate => {
            let w = (arc.rise + fo.rise).max(arc.fall + fo.fall);
            DelayArc::symmetric(w)
        }
    }
}

/// Worst backward delay to **any** sink, per node (a single reverse sweep).
/// Used for the `V_m` region test `∃t: D^b(v,t) > φ2 + γ2 + φ1`.
pub fn db_to_any_sink<A: Arrival>(cloud: &CombCloud, delays: &NodeDelays) -> Vec<Option<A>> {
    let n = cloud.len();
    let mut from_output: Vec<Option<A>> = vec![None; n];
    let mut through: Vec<Option<A>> = vec![None; n];
    for &t in cloud.sinks() {
        through[t.index()] = Some(A::default());
    }
    for &v in cloud.topo().iter().rev() {
        if cloud.kind(v).is_sink() {
            continue;
        }
        if let Some(fo) = worst_fanout(cloud, &through, v) {
            from_output[v.index()] = Some(fo);
            if cloud.kind(v).is_gate() {
                through[v.index()] = Some(fo.back_through_gate(delays, v));
            }
        }
    }
    from_output
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DelayModel, NodeDelays};
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};

    fn setup() -> (CombCloud, NodeDelays) {
        let n = bench::parse(
            "b",
            "\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
g1 = NAND(a, b)
g2 = NOT(g1)
y = NAND(g2, b)
z = BUFF(a)
",
        )
        .unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let delays = NodeDelays::from_library(&cloud, &lib, DelayModel::PathBased).unwrap();
        (cloud, delays)
    }

    #[test]
    fn cone_membership() {
        let (cloud, delays) = setup();
        let y_sink = cloud
            .sinks()
            .iter()
            .copied()
            .find(|&t| cloud.node_name(t).starts_with("y"))
            .unwrap();
        let bp = BackwardPass::run(&cloud, &delays, y_sink);
        assert!(bp.in_cone(cloud.find("g1").unwrap()));
        assert!(bp.in_cone(cloud.find("a").unwrap()));
        // z's buffer is not in y's cone.
        assert!(!bp.in_cone(cloud.find("z").unwrap()));
        assert_eq!(bp.db(cloud.find("z").unwrap()), None);
    }

    #[test]
    fn db_decreases_toward_sink() {
        let (cloud, delays) = setup();
        let y_sink = cloud
            .sinks()
            .iter()
            .copied()
            .find(|&t| cloud.node_name(t).starts_with("y"))
            .unwrap();
        let bp = BackwardPass::run(&cloud, &delays, y_sink);
        let a = bp.db(cloud.find("a").unwrap()).unwrap();
        let g1 = bp.db(cloud.find("g1").unwrap()).unwrap();
        let g2 = bp.db(cloud.find("g2").unwrap()).unwrap();
        let y = bp.db(cloud.find("y").unwrap()).unwrap();
        assert!(a >= g1 && g1 >= g2 && g2 >= y);
        assert_eq!(y, 0.0);
    }

    #[test]
    fn forward_plus_backward_equals_critical_path() {
        // For any node v on the critical path to t:
        // Df(v) + Db(v,t) == arrival(t). Checked with the gate-based model
        // where rise/fall coincide and the identity is exact.
        let (cloud, _) = setup();
        let lib = Library::fdsoi28();
        let delays = NodeDelays::from_library(&cloud, &lib, DelayModel::GateBased).unwrap();
        let arr: Vec<DelayArc> = crate::forward::pure_arrivals(&cloud, &delays);
        for &t in cloud.sinks() {
            let bp = BackwardPass::run(&cloud, &delays, t);
            let at = arr[t.index()].max();
            // The sink's driver is trivially on the critical path.
            let mut ok = false;
            for v in cloud.fanin_cone(t) {
                if v == t {
                    continue;
                }
                if let Some(db) = bp.db(v) {
                    let total = arr[v.index()].max() + db;
                    assert!(total <= at + 1e-9, "no path may exceed the arrival");
                    if (total - at).abs() < 1e-9 {
                        ok = true;
                    }
                }
            }
            assert!(ok, "some node must lie on the critical path to {t}");
        }
    }

    #[test]
    fn any_sink_db_is_max_over_sinks() {
        let (cloud, delays) = setup();
        let all: Vec<Option<DelayArc>> = db_to_any_sink(&cloud, &delays);
        let passes: Vec<BackwardPass> = cloud
            .sinks()
            .iter()
            .map(|&t| BackwardPass::run(&cloud, &delays, t))
            .collect();
        for (i, best) in all.iter().enumerate() {
            let v = NodeId(i as u32);
            if cloud.kind(v).is_sink() {
                continue;
            }
            let expect = passes
                .iter()
                .filter_map(|p| p.db(v))
                .fold(f64::NEG_INFINITY, f64::max);
            match best {
                Some(arc) => assert!((arc.max() - expect).abs() < 1e-9),
                None => assert_eq!(expect, f64::NEG_INFINITY),
            }
        }
    }

    /// Every observable of `a` equals `b`'s, node for node.
    fn assert_same_pass(cloud: &CombCloud, a: &BackwardPass, b: &BackwardPass) {
        assert_eq!(a.sink(), b.sink());
        assert_eq!(a.cone(), b.cone());
        for i in 0..cloud.len() {
            let v = NodeId(i as u32);
            assert_eq!(a.in_cone(v), b.in_cone(v), "in_cone({v})");
            assert_eq!(a.from_output(v), b.from_output(v), "from_output({v})");
            assert_eq!(a.through(v), b.through(v), "through({v})");
        }
    }

    #[test]
    fn rerun_after_another_sink_equals_fresh_pass() {
        // y's cone strictly contains every non-sink node of w's cone, so
        // a stale slot left by y would show up in the rerun for w; and z
        // shares only `a` with y.
        let n = bench::parse(
            "r",
            "\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(w)
OUTPUT(z)
g1 = NAND(a, b)
g2 = NOT(g1)
y = NAND(g2, b)
w = BUFF(g1)
z = BUFF(a)
",
        )
        .unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let delays =
            NodeDelays::from_library(&cloud, &Library::fdsoi28(), DelayModel::PathBased).unwrap();
        let sinks = cloud.sinks().to_vec();
        let mut reused = BackwardPass::new(&cloud);
        for &a in &sinks {
            for &b in &sinks {
                reused.rerun(&cloud, &delays, a);
                assert_same_pass(&cloud, &reused, &BackwardPass::run(&cloud, &delays, a));
                reused.rerun(&cloud, &delays, b);
                assert_same_pass(&cloud, &reused, &BackwardPass::run(&cloud, &delays, b));
            }
        }
    }

    #[test]
    #[should_panic(expected = "is not a sink")]
    fn non_sink_rejected() {
        let (cloud, delays) = setup();
        let g1 = cloud.find("g1").unwrap();
        let _ = BackwardPass::<DelayArc>::run(&cloud, &delays, g1);
    }
}
