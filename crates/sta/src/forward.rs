//! Forward arrival-time propagation.

use retime_liberty::{DelayArc, Sense};
use retime_netlist::{CloudEdge, CombCloud, Cut, NodeId};

use crate::clock::TwoPhaseClock;
use crate::model::NodeDelays;

/// Combines input arrivals through a gate, honouring unateness (the
/// "valid combinations of rise and fall delays" of Section VI-B):
///
/// * positive-unate: output rise ← input rise,
/// * negative-unate: output rise ← input fall,
/// * non-unate: output rise ← worst input transition.
pub(crate) fn through_gate(input: DelayArc, arc: DelayArc, sense: Sense) -> DelayArc {
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

/// Element-wise max of two arcs (merging arrivals from different pins).
pub(crate) fn arc_max(a: DelayArc, b: DelayArc) -> DelayArc {
    DelayArc {
        rise: a.rise.max(b.rise),
        fall: a.fall.max(b.fall),
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
pub(crate) fn pure_arrivals(cloud: &CombCloud, delays: &NodeDelays) -> Vec<DelayArc> {
    let launch = DelayArc::symmetric(delays.launch());
    let mut arr = vec![DelayArc::default(); cloud.len()];
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
/// data crossing a latched edge is re-launched per [`relaunch`].
pub(crate) fn arrivals_with_cut(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    cut: &Cut,
) -> Vec<DelayArc> {
    let mut arr = vec![DelayArc::default(); cloud.len()];
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
pub(crate) fn arrivals_with_moved(
    cloud: &CombCloud,
    delays: &NodeDelays,
    clock: &TwoPhaseClock,
    order: impl Iterator<Item = NodeId>,
    moved: impl Fn(NodeId) -> bool,
    arr: &mut [DelayArc],
) {
    let launch = DelayArc::symmetric(delays.launch());
    // An unmoved source keeps its slave at the source position:
    // everything downstream sees the re-launched value.
    let relaunched = relaunch(launch, clock, delays);
    propagate(
        cloud,
        delays,
        order,
        arr,
        |s| if moved(s) { launch } else { relaunched },
        |e, a| {
            if moved(e.from) && !moved(e.to) {
                relaunch(a, clock, delays)
            } else {
                a
            }
        },
    );
}

/// Shared propagation core over `order` (fanins before each node).
/// `source_fn` gives each source's launch value; `edge_fn` transforms the
/// value crossing each edge (identity for pure arrivals, [`relaunch`] on
/// latched edges).
fn propagate(
    cloud: &CombCloud,
    delays: &NodeDelays,
    order: impl Iterator<Item = NodeId>,
    arr: &mut [DelayArc],
    source_fn: impl Fn(NodeId) -> DelayArc,
    edge_fn: impl Fn(CloudEdge, DelayArc) -> DelayArc,
) {
    for v in order {
        let node = cloud.node(v);
        if node.is_source() {
            arr[v.index()] = source_fn(v);
            continue;
        }
        let mut input: Option<DelayArc> = None;
        for &u in &node.fanin {
            let via = edge_fn(CloudEdge { from: u, to: v }, arr[u.index()]);
            input = Some(match input {
                None => via,
                Some(acc) => arc_max(acc, via),
            });
        }
        let input = input.unwrap_or_default();
        arr[v.index()] = if node.is_gate() {
            through_gate(input, delays.arc(v), delays.sense(v))
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
        let arr = pure_arrivals(&cloud, &delays);
        for e in cloud.edges() {
            assert!(
                arr[e.to.index()].max() >= arr[e.from.index()].max() - 1e-12,
                "arrival must not decrease along {} -> {}",
                cloud.node(e.from).name,
                cloud.node(e.to).name
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
        let pure = pure_arrivals(&cloud, &delays);
        let cutted = arrivals_with_cut(&cloud, &delays, &clock, &cut);
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
        let arr = arrivals_with_cut(&cloud, &delays, &clock, &cut);
        // Arrival at g1 is now pure (no latch crossed yet).
        let pure = pure_arrivals(&cloud, &delays);
        let g1 = cloud.find("g1").unwrap();
        assert_eq!(arr[g1.index()].max(), pure[g1.index()].max());
    }
}
