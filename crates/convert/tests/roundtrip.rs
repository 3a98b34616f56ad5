//! Property round-trips for the conversion front door:
//!
//! * **Format**: netlist → EDIF writer → EDIF parser → structurally
//!   identical netlist, over generated circuits of varied shape; the
//!   writer emits the same text every time.
//! * **Function**: `.bench` FF source → two-phase conversion →
//!   bit-equivalent simulation against the source over 256 random
//!   cycles (beyond the proof `convert` itself runs, this drives fresh
//!   stimulus seeds per case).

use proptest::prelude::*;
use retime_circuits::SynthConfig;
use retime_convert::{convert, edif, structural_signature, ConvertConfig};
use retime_liberty::Library;
use retime_netlist::bench;

/// A generated circuit small enough to round-trip hundreds of times.
fn synth(seed: u64, flops: usize, gates: usize) -> retime_netlist::Netlist {
    SynthConfig {
        name: format!("rt_{seed:x}"),
        flops,
        gates,
        inputs: 4,
        outputs: 3,
        levels: 6,
        deep_sinks: flops.min(2),
        hard_sinks: 0,
        seed,
    }
    .generate()
    .expect("deterministic generation")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Writer → parser is the structural identity, for FF circuits and
    /// for their converted master/slave form alike.
    #[test]
    fn edif_round_trip_is_structural_identity(
        seed in any::<u64>(),
        flops in 1usize..12,
        gates in 8usize..60,
    ) {
        let src = synth(seed, flops, gates);
        let text = edif::write(&src);
        prop_assert_eq!(&edif::write(&src), &text, "the writer is deterministic");
        let back = edif::parse(&text).expect("round-trip parses");
        prop_assert_eq!(structural_signature(&src), structural_signature(&back));

        let ms = src.to_master_slave().expect("splits");
        let back = edif::parse(&edif::write(&ms)).expect("latch round-trip parses");
        prop_assert_eq!(structural_signature(&ms), structural_signature(&back));
    }

    /// `.bench` text → EDIF → `.bench` is also the structural identity
    /// (the two readers agree on one netlist model). The source is first
    /// normalised through a bench round-trip so both sides carry the
    /// bench reader's canonical `{driver}__po{N}` output-marker names.
    #[test]
    fn bench_to_edif_to_bench_is_identity(seed in any::<u64>(), flops in 1usize..8) {
        let raw = synth(seed, flops, 24);
        let src = bench::parse(raw.name(), &bench::write(&raw)).expect("bench normalises");
        let via_edif = edif::parse(&edif::write(&src)).expect("parses");
        let back = bench::parse(src.name(), &bench::write(&via_edif)).expect("bench re-parses");
        prop_assert_eq!(structural_signature(&src), structural_signature(&back));
    }

    /// The converted circuit is bit-equivalent to its FF source over
    /// 256 random cycles of fresh stimulus.
    #[test]
    fn conversion_preserves_function(
        seed in any::<u64>(),
        stimulus in any::<u64>(),
        flops in 1usize..10,
    ) {
        let lib = Library::fdsoi28();
        let src = synth(seed, flops, 32);
        let conv = convert(
            &src,
            &lib,
            &ConvertConfig {
                check: false, // this test supplies its own stimulus
                ..ConvertConfig::default()
            },
        )
        .expect("converts");
        let verdict = retime_sim::equivalent(&src, &conv.netlist, 256, stimulus)
            .expect("simulates");
        prop_assert_eq!(verdict, Ok(()), "diverged from the FF source");
    }
}

/// The full chain the CLI drives: `.bench` → EDIF export → EDIF parse →
/// convert → equivalence against the *original* `.bench` source.
#[test]
fn bench_through_edif_through_conversion_stays_equivalent() {
    let lib = Library::fdsoi28();
    let src = synth(2017, 6, 40);
    let via_edif = edif::parse(&edif::write(&src)).expect("parses");
    let conv = convert(&via_edif, &lib, &ConvertConfig::default()).expect("converts");
    assert_eq!(conv.report.checked_cycles, 256);
    let verdict = retime_sim::equivalent(&src, &conv.netlist, 256, 0xF00D).expect("simulates");
    assert_eq!(verdict, Ok(()));
}
