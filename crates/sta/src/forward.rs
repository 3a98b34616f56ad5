//! Forward arrival-time propagation, generic over the [`Arrival`] value
//! it carries: per-transition [`DelayArc`]s here, canonical forms in
//! `retime-stat`. The same sweeps serve both delay models.

use std::fmt;

use retime_liberty::{DelayArc, Sense};
use retime_netlist::{CloudEdge, CombCloud, Cut, NodeId};

use crate::clock::TwoPhaseClock;
use crate::model::NodeDelays;

/// A value the forward and backward timing passes propagate: the
/// arrival (or delay-to-sink) at one node, with the operations the
/// passes and the Eq. (5) placement arrival need, and the margin that
/// projects a value onto the number compared against a clock edge.
/// [`Default`] is the zero delay.
///
/// The passes fold fanins and fanouts in stored order, left to right
/// (`acc.merge(next)`), so an order-sensitive merge such as Clark's max
/// gets the same operands in the same order on every run.
pub trait Arrival: Copy + Default + fmt::Debug + Send + Sync {
    /// What [`Arrival::margined`] needs besides the value: nothing for
    /// per-transition delays, the yield quantile and the clock sigma for
    /// canonical forms.
    type Margin: Copy + fmt::Debug + Send + Sync;
    /// The margin of an analysis over `delays` under `clock`.
    ///
    /// # Panics
    /// May panic if `delays` were built for a delay model this arithmetic
    /// cannot represent.
    fn margin(delays: &NodeDelays, clock: &TwoPhaseClock) -> Self::Margin;
    /// The number compared against a clock edge: the worst transition of
    /// a [`DelayArc`], the margined `m + z·σ_tot` of a canonical form.
    fn margined(&self, margin: &Self::Margin) -> f64;
    /// The master clock-to-Q launch at a source.
    fn launch(delays: &NodeDelays) -> Self;
    /// Merges two pins' arrivals (the worst of the two).
    fn merge(self, other: Self) -> Self;
    /// The value plus the deterministic constant `c` (a latch delay or
    /// the window opening of Eq. 5).
    fn shift(self, c: f64) -> Self;
    /// The series sum of an arrival `self` and the delay `rest` that
    /// follows it (the `D^f(u) + d^{d_q} + d(v) + D^b(v, t)` path of
    /// Eq. 5), pairing matching transitions.
    fn series(self, rest: Self) -> Self;
    /// Forward gate step: the arrival at gate `v`'s output, given the
    /// merged arrival `self` at its inputs.
    fn through_gate(self, delays: &NodeDelays, v: NodeId) -> Self;
    /// Backward gate step: the delay from gate `v`'s inputs to the sink,
    /// given the delay-to-sink `self` at its output.
    fn back_through_gate(self, delays: &NodeDelays, v: NodeId) -> Self;
    /// The arrival at a slave latch's output, given the arrival `self`
    /// at its D pin.
    fn relaunch(self, clock: &TwoPhaseClock, delays: &NodeDelays) -> Self;
}

/// Per-transition arrivals, honouring unateness (the "valid
/// combinations of rise and fall delays" of Section VI-B).
impl Arrival for DelayArc {
    type Margin = ();

    fn margin(_: &NodeDelays, _: &TwoPhaseClock) {}

    fn margined(&self, (): &()) -> f64 {
        self.max()
    }

    fn launch(delays: &NodeDelays) -> DelayArc {
        DelayArc::symmetric(delays.launch())
    }

    fn merge(self, other: DelayArc) -> DelayArc {
        DelayArc {
            rise: self.rise.max(other.rise),
            fall: self.fall.max(other.fall),
        }
    }

    fn shift(self, c: f64) -> DelayArc {
        DelayArc {
            rise: self.rise + c,
            fall: self.fall + c,
        }
    }

    fn series(self, rest: DelayArc) -> DelayArc {
        self.plus(rest)
    }

    fn through_gate(self, delays: &NodeDelays, v: NodeId) -> DelayArc {
        through_gate(self, delays.arc(v), delays.sense(v))
    }

    fn back_through_gate(self, delays: &NodeDelays, v: NodeId) -> DelayArc {
        crate::backward::backward_through_gate(self, delays.arc(v), delays.sense(v))
    }

    fn relaunch(self, clock: &TwoPhaseClock, delays: &NodeDelays) -> DelayArc {
        relaunch(self, clock, delays)
    }
}

/// Combines input arrivals through a gate, honouring unateness:
///
/// * positive-unate: output rise ← input rise,
/// * negative-unate: output rise ← input fall,
/// * non-unate: output rise ← worst input transition.
fn through_gate(input: DelayArc, arc: DelayArc, sense: Sense) -> DelayArc {
    match sense {
        Sense::Positive => DelayArc {
            rise: input.rise + arc.rise,
            fall: input.fall + arc.fall,
        },
        Sense::Negative => DelayArc {
            rise: input.fall + arc.rise,
            fall: input.rise + arc.fall,
        },
        Sense::NonUnate => {
            let w = input.max();
            DelayArc {
                rise: w + arc.rise,
                fall: w + arc.fall,
            }
        }
    }
}

/// The arrival at a slave latch's output given the arrival `input` at its
/// D pin: `max(φ1 + γ1 + d^{ck_q}, input + d^{d_q})` per transition —
/// the inner `max` of Eq. (5). Latches are non-inverting, so polarity is
/// preserved.
pub fn relaunch(input: DelayArc, clock: &TwoPhaseClock, delays: &NodeDelays) -> DelayArc {
    let open = clock.slave_open() + delays.latch_ckq();
    DelayArc {
        rise: open.max(input.rise + delays.latch_dq()),
        fall: open.max(input.fall + delays.latch_dq()),
    }
}

/// Computes the pure combinational arrival `D^f(v)` at every node output:
/// sources launch at the master clock-to-Q, no slave latch anywhere.
///
/// This is the quantity queried from the synthesis tool in Section VI-B
/// ("the latest arrival time of any fanout of u").
pub fn pure_arrivals<A: Arrival>(cloud: &CombCloud, delays: &NodeDelays) -> Vec<A> {
    let launch = A::launch(delays);
    let mut arr = vec![A::default(); cloud.len()];
    propagate(
        cloud,
        delays,
        cloud.topo().iter().copied(),
        &mut arr,
        |_s| launch,
        |_e, a| a,
    );
    arr
}

/// Computes arrivals with slave latches at the positions of `cut`:
/// data crossing a latched edge is re-launched ([`Arrival::relaunch`]).
/// The cloud is acyclic (latch loops are cut at the masters), so one
/// sweep in topological order is exact.
pub fn arrivals_with_cut<A: Arrival>(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    cut: &Cut,
) -> Vec<A> {
    let mut arr = vec![A::default(); cloud.len()];
    arrivals_with_moved(
        cloud,
        delays,
        clock,
        cloud.topo().iter().copied(),
        |v| cut.is_moved(v),
        &mut arr,
    );
    arr
}

/// Arrivals with slave latches placed by the moved set `moved` (the
/// [`Cut`] encoding), written into `arr` for the nodes of `order` only.
/// `order` must list every fanin of a node before the node — the whole
/// cloud's topological order, or the reverse of a fan-in cone walk, in
/// which case slots outside the cone are left untouched.
pub fn arrivals_with_moved<A: Arrival>(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    order: impl Iterator<Item = NodeId>,
    moved: impl Fn(NodeId) -> bool,
    arr: &mut [A],
) {
    let launch = A::launch(delays);
    // An unmoved source keeps its slave at the source position:
    // everything downstream sees the re-launched value.
    let relaunched = launch.relaunch(clock, delays);
    propagate(
        cloud,
        delays,
        order,
        arr,
        |s| if moved(s) { launch } else { relaunched },
        |e, a| {
            if moved(e.from) && !moved(e.to) {
                a.relaunch(clock, delays)
            } else {
                a
            }
        },
    );
}

/// Shared propagation core over `order` (fanins before each node).
/// `source_fn` gives each source's launch value; `edge_fn` transforms the
/// value crossing each edge (identity for pure arrivals, a relaunch on
/// latched edges).
fn propagate<A: Arrival>(
    cloud: &CombCloud,
    delays: &NodeDelays,
    order: impl Iterator<Item = NodeId>,
    arr: &mut [A],
    source_fn: impl Fn(NodeId) -> A,
    edge_fn: impl Fn(CloudEdge, A) -> A,
) {
    for v in order {
        if cloud.kind(v).is_source() {
            arr[v.index()] = source_fn(v);
            continue;
        }
        let mut input: Option<A> = None;
        for &u in cloud.fanin(v) {
            let via = edge_fn(CloudEdge { from: u, to: v }, arr[u.index()]);
            input = Some(match input {
                None => via,
                Some(acc) => acc.merge(via),
            });
        }
        let input = input.unwrap_or_default();
        arr[v.index()] = if cloud.kind(v).is_gate() {
            input.through_gate(delays, v)
        } else {
            // Sink: capture the driver's arrival unchanged.
            input
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DelayModel, NodeDelays};
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};

    fn setup() -> (CombCloud, NodeDelays, TwoPhaseClock) {
        let n = bench::parse(
            "f",
            "INPUT(a)\nINPUT(b)\nOUTPUT(z)\ng1 = NAND(a, b)\ng2 = NOT(g1)\nz = NAND(g2, b)\n",
        )
        .unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let delays = NodeDelays::from_library(&cloud, &lib, DelayModel::PathBased).unwrap();
        (cloud, delays, TwoPhaseClock::from_max_delay(0.5))
    }

    #[test]
    fn pure_arrival_monotone_along_paths() {
        let (cloud, delays, _) = setup();
        let arr: Vec<DelayArc> = pure_arrivals(&cloud, &delays);
        for e in cloud.edges() {
            assert!(
                arr[e.to.index()].max() >= arr[e.from.index()].max() - 1e-12,
                "arrival must not decrease along {} -> {}",
                cloud.node_name(e.from),
                cloud.node_name(e.to)
            );
        }
    }

    #[test]
    fn negative_unate_swaps_transitions() {
        let input = DelayArc {
            rise: 1.0,
            fall: 2.0,
        };
        let arc = DelayArc {
            rise: 0.1,
            fall: 0.2,
        };
        let out = through_gate(input, arc, Sense::Negative);
        // Output rise comes from input fall.
        assert!((out.rise - 2.1).abs() < 1e-12);
        assert!((out.fall - 1.2).abs() < 1e-12);
        let nu = through_gate(input, arc, Sense::NonUnate);
        assert!((nu.rise - 2.1).abs() < 1e-12);
        assert!((nu.fall - 2.2).abs() < 1e-12);
    }

    #[test]
    fn relaunch_floor_is_window_open() {
        let (_, delays, clock) = setup();
        let early = DelayArc::symmetric(0.0);
        let out = relaunch(early, &clock, &delays);
        assert!((out.rise - (clock.slave_open() + delays.latch_ckq())).abs() < 1e-12);
        // Late data flows through with the D-to-Q delay.
        let late = DelayArc::symmetric(clock.slave_open() + 1.0);
        let out = relaunch(late, &clock, &delays);
        assert!((out.fall - (late.fall + delays.latch_dq())).abs() < 1e-12);
    }

    #[test]
    fn initial_cut_arrival_exceeds_pure() {
        let (cloud, delays, clock) = setup();
        let cut = Cut::initial(&cloud);
        let pure: Vec<DelayArc> = pure_arrivals(&cloud, &delays);
        let cutted: Vec<DelayArc> = arrivals_with_cut(&cloud, &delays, &clock, &cut);
        for &t in cloud.sinks() {
            assert!(cutted[t.index()].max() >= pure[t.index()].max());
        }
    }

    #[test]
    fn moving_latches_forward_changes_arrival() {
        let (cloud, delays, clock) = setup();
        let mut cut = Cut::initial(&cloud);
        // Fully retime the cone of g1 forward.
        for name in ["a", "b", "g1"] {
            cut.set_moved(cloud.find(name).unwrap(), true);
        }
        cut.validate(&cloud).unwrap();
        let arr: Vec<DelayArc> = arrivals_with_cut(&cloud, &delays, &clock, &cut);
        // Arrival at g1 is now pure (no latch crossed yet).
        let pure: Vec<DelayArc> = pure_arrivals(&cloud, &delays);
        let g1 = cloud.find("g1").unwrap();
        assert_eq!(arr[g1.index()].max(), pure[g1.index()].max());
    }
}
