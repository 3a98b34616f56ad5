//! `classify_many` against the per-sink definition at suite scale: every
//! suite circuit at its calibrated clock, plus synth4x (s35932 scaled
//! 4×, ~41k cloud nodes), under the path- and gate-based models, at 1
//! and 2 threads. The classes and cut-sets must match
//! `classify_and_cut_set` bit for bit.
//!
//! It also checks the premise of the kernel's forward bound: for every
//! master-backed sink, the forward initial arrival (read from the
//! initial cut's `cut_timing`, not from the kernel) lies within
//! `initial_rounding_bound` of `worst_initial`.
//!
//! Suite scale: about a second under `cargo test --release -p
//! retime-core --test classify_scale`, six in a debug build.

use retime_circuits::{paper_suite, CircuitSpec};
use retime_core::{classify_and_cut_set, classify_many_counted, initial_rounding_bound};
use retime_liberty::Library;
use retime_netlist::{Cut, NodeId, NodeKind};
use retime_sta::{BackwardPass, DelayModel, SinkClass, TimingAnalysis};

fn synth4x() -> CircuitSpec {
    let base = paper_suite()
        .into_iter()
        .find(|s| s.name == "s35932")
        .expect("in suite");
    CircuitSpec {
        name: "synth4x",
        flops: base.flops * 4,
        nce: base.nce * 4,
        gates: base.gates * 4,
        inputs: base.inputs * 4,
        outputs: base.outputs * 4,
        seed: 0x4_35932,
        ..base
    }
}

#[test]
fn classify_many_matches_definition_on_the_suite() {
    let lib = Library::fdsoi28();
    let mut specs = paper_suite();
    specs.push(synth4x());
    for spec in specs {
        let circuit = spec.build().expect("builds");
        let cloud = &circuit.cloud;
        let master_backed = |t: NodeId| matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) });
        let sinks: Vec<NodeId> = cloud
            .sinks()
            .iter()
            .copied()
            .filter(|&t| master_backed(t))
            .collect();
        for model in [DelayModel::PathBased, DelayModel::GateBased] {
            let clock = circuit.calibrated_clock(&lib, model).expect("calibrates");
            let sta = TimingAnalysis::new(cloud, &lib, clock, model).expect("sta builds");
            let pi = clock.period();
            let initial = sta.cut_timing(&Cut::initial(cloud)).sink_arrivals;
            let forward = sta.initial_arrivals();
            let mut bp = BackwardPass::new(cloud);
            let mut want = Vec::with_capacity(sinks.len());
            let mut bounded = 0;
            for (i, &t) in cloud.sinks().iter().enumerate() {
                assert_eq!(
                    forward[t.index()].max(),
                    initial[i],
                    "{} {model}",
                    spec.name
                );
                if !master_backed(t) {
                    continue;
                }
                bp.rerun(cloud, sta.delays(), t);
                let wi = sta.worst_initial(&bp);
                // The knife edge: on s38417 under the path-based model,
                // sink `ff552.d` has a worst initial arrival 1.1e-16
                // below Π (forward: 7.8e-16 below), and the largest
                // measured |forward − worst_initial| is 2.9e-15, against
                // a bound of 5e-12 here and 2.4e-11 on synth4x.
                let bound = initial_rounding_bound(cloud.len(), initial[i], pi);
                assert!(
                    (initial[i] - wi).abs() <= bound,
                    "{} {model} {}: forward {} vs worst_initial {wi} (bound {bound})",
                    spec.name,
                    cloud.node_name(t),
                    initial[i],
                );
                if initial[i] + bound <= pi + 1e-9 {
                    bounded += 1;
                }
                want.push(classify_and_cut_set(&sta, &bp));
            }
            assert!(
                want.iter().any(|(c, _)| *c == SinkClass::Target),
                "{} {model}: the calibrated clock leaves targets",
                spec.name
            );
            for threads in [1, 2] {
                let (got, counts) = classify_many_counted(&sta, &sinks, threads);
                assert!(got == want, "{} {model} threads={threads}", spec.name);
                assert_eq!(counts.bounded, bounded, "{} {model}", spec.name);
            }
        }
    }
}
