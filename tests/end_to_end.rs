//! Cross-crate integration tests: the full flows on suite circuits, with
//! the paper's headline invariants.

use resilient_retiming::circuits::paper_suite;
use resilient_retiming::grar::{grar, GrarConfig};
use resilient_retiming::liberty::{EdlOverhead, Library};
use resilient_retiming::netlist::CombCloud;
use resilient_retiming::retime::base_retime;
use resilient_retiming::sim::equivalent;
use resilient_retiming::sta::DelayModel;
use resilient_retiming::vl::{vl_retime, VlConfig, VlVariant};

fn small_cases() -> Vec<(
    resilient_retiming::circuits::SuiteCircuit,
    resilient_retiming::sta::TwoPhaseClock,
)> {
    let lib = Library::fdsoi28();
    paper_suite()
        .into_iter()
        .filter(|s| s.flops <= 100)
        .map(|s| {
            let c = s.build().expect("suite builds");
            let clock = c
                .calibrated_clock(&lib, DelayModel::PathBased)
                .expect("calibrates");
            (c, clock)
        })
        .collect()
}

#[test]
fn grar_beats_or_ties_base_on_sequential_cost() {
    let lib = Library::fdsoi28();
    for (circuit, clock) in small_cases() {
        for c in EdlOverhead::SWEEP {
            let base = base_retime(&circuit.cloud, &lib, clock, DelayModel::PathBased, c)
                .expect("base runs");
            let g = grar(&circuit.cloud, &lib, clock, &GrarConfig::new(c)).expect("grar runs");
            assert!(
                g.outcome.seq.total() <= base.seq.total() + 1e-6,
                "{} at {c}: G-RAR {} vs base {}",
                circuit.spec.name,
                g.outcome.seq.total(),
                base.seq.total()
            );
        }
    }
}

#[test]
fn grar_savings_grow_with_overhead() {
    // The paper's trend: the G-RAR advantage grows from low to high c.
    let lib = Library::fdsoi28();
    let mut low_total = 0.0;
    let mut high_total = 0.0;
    for (circuit, clock) in small_cases() {
        let bl = base_retime(
            &circuit.cloud,
            &lib,
            clock,
            DelayModel::PathBased,
            EdlOverhead::LOW,
        )
        .expect("base runs");
        let gl = grar(
            &circuit.cloud,
            &lib,
            clock,
            &GrarConfig::new(EdlOverhead::LOW),
        )
        .expect("grar runs");
        let bh = base_retime(
            &circuit.cloud,
            &lib,
            clock,
            DelayModel::PathBased,
            EdlOverhead::HIGH,
        )
        .expect("base runs");
        let gh = grar(
            &circuit.cloud,
            &lib,
            clock,
            &GrarConfig::new(EdlOverhead::HIGH),
        )
        .expect("grar runs");
        low_total += bl.seq.total() - gl.outcome.seq.total();
        high_total += bh.seq.total() - gh.outcome.seq.total();
    }
    assert!(
        high_total >= low_total - 1e-6,
        "absolute savings must not shrink with overhead: {low_total} -> {high_total}"
    );
    assert!(high_total > 0.0, "there must be savings at high overhead");
}

#[test]
fn retimed_circuits_stay_functionally_equivalent() {
    // Apply every flow's cut to the netlist and verify the cycle function
    // is preserved (the defining invariant of a legal retiming).
    let lib = Library::fdsoi28();
    for (circuit, clock) in small_cases().into_iter().take(2) {
        let c = EdlOverhead::MEDIUM;
        let base =
            base_retime(&circuit.cloud, &lib, clock, DelayModel::PathBased, c).expect("base runs");
        let g = grar(&circuit.cloud, &lib, clock, &GrarConfig::new(c)).expect("grar runs");
        let rvl = vl_retime(
            &circuit.cloud,
            &lib,
            clock,
            &VlConfig::new(VlVariant::Rvl, c),
        )
        .expect("rvl runs");
        for (label, cut) in [
            ("base", &base.cut),
            ("grar", &g.outcome.cut),
            ("rvl", &rvl.outcome.cut),
        ] {
            let retimed = cut
                .apply(&circuit.cloud, &circuit.netlist)
                .expect("cut applies");
            assert_eq!(
                equivalent(&circuit.netlist, &retimed, 100, 23).expect("sim runs"),
                Ok(()),
                "{label} retiming broke {}",
                circuit.spec.name
            );
        }
    }
}

#[test]
fn edl_assignment_is_sound() {
    // No master left non-error-detecting may see an arrival past Π.
    let lib = Library::fdsoi28();
    for (circuit, clock) in small_cases() {
        let g = grar(
            &circuit.cloud,
            &lib,
            clock,
            &GrarConfig::new(EdlOverhead::MEDIUM),
        )
        .expect("grar runs");
        let pi = clock.period();
        for (idx, &t) in circuit.cloud.sinks().iter().enumerate() {
            use resilient_retiming::netlist::NodeKind;
            if !matches!(circuit.cloud.kind(t), NodeKind::Sink { master: Some(_) }) {
                continue;
            }
            if !g.outcome.ed_sinks[idx] {
                assert!(
                    g.outcome.timing.sink_arrivals[idx] <= pi + 1e-9,
                    "{}: non-ED master {} arrives at {} > Π {}",
                    circuit.spec.name,
                    circuit.cloud.node_name(t),
                    g.outcome.timing.sink_arrivals[idx],
                    pi
                );
            }
        }
    }
}

#[test]
fn bench_round_trip_preserves_flows() {
    // Write a suite circuit to .bench, parse it back, and re-run G-RAR:
    // identical results (the I/O layer is faithful).
    let lib = Library::fdsoi28();
    let (circuit, clock) = small_cases().into_iter().next().expect("non-empty");
    let text = resilient_retiming::netlist::bench::write(&circuit.netlist);
    let reparsed = resilient_retiming::netlist::bench::parse(circuit.spec.name, &text)
        .expect("round-trip parses");
    let cloud2 = CombCloud::extract(&reparsed).expect("cloud extracts");
    let cfg = GrarConfig::new(EdlOverhead::HIGH);
    let a = grar(&circuit.cloud, &lib, clock, &cfg).expect("original runs");
    let b = grar(&cloud2, &lib, clock, &cfg).expect("reparsed runs");
    assert_eq!(a.outcome.seq.slaves, b.outcome.seq.slaves);
    assert_eq!(a.outcome.seq.edl, b.outcome.seq.edl);
    assert!((a.outcome.total_area - b.outcome.total_area).abs() < 1e-6);
}
