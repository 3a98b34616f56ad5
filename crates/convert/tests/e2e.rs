//! End-to-end certification of the conversion front door: an FF source
//! converts, the converted circuit flows through all three retiming
//! flows, and every result is certified *unconditionally* (this suite
//! does not depend on `RETIME_VERIFY` being set in the environment).

use retime_bench::{run_flow, Certification};
use retime_circuits::SynthConfig;
use retime_convert::{convert, edif, ConvertConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_sta::DelayModel;
use retime_verify::FlowKind;

fn synth(seed: u64, flops: usize, gates: usize) -> retime_netlist::Netlist {
    SynthConfig {
        name: format!("e2e_{seed:x}"),
        flops,
        gates,
        inputs: 5,
        outputs: 4,
        levels: 7,
        deep_sinks: 2,
        hard_sinks: 1,
        seed,
    }
    .generate()
    .expect("deterministic generation")
}

/// FF netlist → EDIF → parse → convert → Base / RVL-RAR / G-RAR, with
/// each outcome certified against the converted netlist.
#[test]
fn converted_circuit_flows_and_certifies_through_all_three_flows() {
    let lib = Library::fdsoi28();
    let src = synth(0xE2E, 8, 56);
    let via_edif = edif::parse(&edif::write(&src)).expect("EDIF round-trip parses");
    let conv = convert(&via_edif, &lib, &ConvertConfig::default()).expect("converts");
    assert_eq!(conv.report.checked_cycles, 256, "proof ran");
    assert_eq!(conv.netlist.stats().dffs, 0, "no FFs survive conversion");

    let c = EdlOverhead::MEDIUM;
    let model = DelayModel::PathBased;
    let cloud = &conv.cloud;
    let clock = conv.clock;
    let mut base_area = f64::NAN;
    for kind in [FlowKind::Base, FlowKind::Vl, FlowKind::Grar] {
        let mut outcome = run_flow(kind, cloud, &lib, clock, model, c)
            .unwrap_or_else(|e| panic!("{} failed on the converted circuit: {e}", kind.name()));

        Certification::of_netlist(
            &conv.netlist,
            cloud,
            clock,
            c,
            kind,
            format!("e2e [convert/{}]", kind.name()),
        )
        .with_model(model)
        .run(&lib, &mut outcome)
        .unwrap_or_else(|e| panic!("{} certificate rejected: {e}", kind.name()));

        let seq = outcome.seq.total();
        assert!(
            seq > 0.0,
            "{} produced an empty sequential cut",
            kind.name()
        );
        if kind == FlowKind::Base {
            base_area = seq;
        } else {
            assert!(
                seq <= base_area + 1e-9,
                "{} regressed sequential area past base ({seq} > {base_area})",
                kind.name()
            );
        }
    }
}

/// The converted clock is the one the conversion derived for the source:
/// resubmitting with an explicit tighter clock still converts and the
/// report carries the override.
#[test]
fn explicit_clock_override_threads_through_the_report() {
    let lib = Library::fdsoi28();
    let src = synth(0xC10C, 4, 30);
    let loose = convert(&src, &lib, &ConvertConfig::default()).expect("default converts");
    let tight = retime_sta::TwoPhaseClock::from_max_delay(loose.clock.max_path_delay() * 2.0);
    let conv = convert(
        &src,
        &lib,
        &ConvertConfig {
            clock: Some(tight),
            check: false,
            ..ConvertConfig::default()
        },
    )
    .expect("override converts");
    assert_eq!(
        conv.clock.max_path_delay().to_bits(),
        tight.max_path_delay().to_bits()
    );
    assert_eq!(conv.report.checked_cycles, 0, "check disabled");
}
