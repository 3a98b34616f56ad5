//! Statistical-mode certification: every flow run under
//! `DelayModel::Statistical` must produce a certificate the checker
//! accepts — including the exact `StatSummary` replay and the
//! independent Monte Carlo yield cross-check — and tampering with the
//! statistical claims must be caught.

use retime_circuits::{paper_suite, Fig4};
use retime_core::{grar, GrarConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, Netlist};
use retime_retime::base_retime;
use retime_sta::{DelayModel, StatParams, TimingAnalysis, TwoPhaseClock};
use retime_verify::{verify_certificate, FlowKind, VerifyError, VerifyOptions, VerifySetup};
use retime_vl::{vl_retime, VlConfig, VlVariant};

fn stat_model() -> DelayModel {
    DelayModel::Statistical(StatParams::new(0.03, 0.005, 0.9987, 0x5EED))
}

fn feasible_clock(cloud: &CombCloud, lib: &Library) -> TwoPhaseClock {
    let sta = TimingAnalysis::new(
        cloud,
        lib,
        TwoPhaseClock::from_max_delay(1.0),
        DelayModel::GateBased,
    )
    .expect("probe sta builds");
    let crit = cloud
        .sinks()
        .iter()
        .map(|&t| sta.df(t))
        .fold(0.0f64, f64::max);
    let latch = lib.latch();
    // Extra slack over the deterministic calibration: the margined
    // arrivals must stay feasible too.
    TwoPhaseClock::from_max_delay((crit + latch.d_to_q + latch.clk_to_q) / 0.6)
}

fn certify_stat_flows(netlist: &Netlist, cloud: &CombCloud, clock: TwoPhaseClock, label: &str) {
    let lib = Library::fdsoi28();
    let model = stat_model();
    let c = EdlOverhead::MEDIUM;
    let opts = VerifyOptions::default();
    let setup = VerifySetup {
        netlist,
        cloud,
        lib: &lib,
        clock,
        model,
        overhead: c,
    };
    let base = base_retime(cloud, &lib, clock, model, c).expect("base runs");
    assert!(base.stat.is_some(), "{label}: base must attach a summary");
    verify_certificate(&setup, FlowKind::Base, &base, &opts)
        .unwrap_or_else(|e| panic!("{label} base: {e}"));
    let rvl = vl_retime(
        cloud,
        &lib,
        clock,
        &VlConfig::new(VlVariant::Rvl, c).with_model(model),
    )
    .expect("RVL runs");
    verify_certificate(&setup, FlowKind::Vl, &rvl.outcome, &opts)
        .unwrap_or_else(|e| panic!("{label} rvl: {e}"));
    let g = grar(cloud, &lib, clock, &GrarConfig::new(c).with_model(model)).expect("grar runs");
    verify_certificate(&setup, FlowKind::Grar, &g.outcome, &opts)
        .unwrap_or_else(|e| panic!("{label} grar: {e}"));
}

#[test]
fn fig4_statistical_flows_certify() {
    let fig = Fig4::new();
    let lib = Library::fdsoi28();
    let clock = feasible_clock(&fig.cloud, &lib);
    certify_stat_flows(&fig.netlist, &fig.cloud, clock, "fig4");
}

#[test]
fn tiny_suite_statistical_grar_certifies() {
    for spec in paper_suite().into_iter().take(2) {
        let circuit = spec.build().expect("suite circuit builds");
        let lib = Library::fdsoi28();
        let clock = feasible_clock(&circuit.cloud, &lib);
        let model = stat_model();
        let g = grar(
            &circuit.cloud,
            &lib,
            clock,
            &GrarConfig::new(EdlOverhead::MEDIUM).with_model(model),
        )
        .expect("grar runs");
        let setup = VerifySetup {
            netlist: &circuit.netlist,
            cloud: &circuit.cloud,
            lib: &lib,
            clock,
            model,
            overhead: EdlOverhead::MEDIUM,
        };
        // Fewer simulation cycles: the statistical point of this test is
        // the replay + Monte Carlo stages, already covered structurally.
        let opts = VerifyOptions {
            cycles: 64,
            mc_samples: 2048,
            ..VerifyOptions::default()
        };
        verify_certificate(&setup, FlowKind::Grar, &g.outcome, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }
}

#[test]
fn tampered_statistical_summary_is_rejected() {
    let fig = Fig4::new();
    let lib = Library::fdsoi28();
    let clock = feasible_clock(&fig.cloud, &lib);
    let model = stat_model();
    let g = grar(
        &fig.cloud,
        &lib,
        clock,
        &GrarConfig::new(EdlOverhead::MEDIUM).with_model(model),
    )
    .expect("grar runs");
    let setup = VerifySetup {
        netlist: &fig.netlist,
        cloud: &fig.cloud,
        lib: &lib,
        clock,
        model,
        overhead: EdlOverhead::MEDIUM,
    };
    let opts = VerifyOptions::default();

    // Dropping the summary entirely is caught.
    let mut missing = g.outcome.clone();
    missing.stat = None;
    let err = verify_certificate(&setup, FlowKind::Grar, &missing, &opts)
        .expect_err("missing summary must be rejected");
    assert!(matches!(err, VerifyError::TimingMismatch { .. }), "{err}");

    // Inflating a claimed yield is caught by the exact replay.
    let mut inflated = g.outcome.clone();
    let stat = inflated.stat.as_mut().expect("statistical outcome");
    if let Some(y) = stat.yields.first_mut() {
        *y = (*y * 0.5).max(0.0);
    }
    stat.min_yield = stat.yields.iter().copied().fold(1.0, f64::min);
    let err = verify_certificate(&setup, FlowKind::Grar, &inflated, &opts)
        .expect_err("tampered yields must be rejected");
    assert!(matches!(err, VerifyError::TimingMismatch { .. }), "{err}");
}

/// Plasma at its calibrated clock under the default statistical
/// parameters: base and G-RAR both retime through the whole statistical
/// cut-set of `rf0_30.d` … `rf31_30.d`, yet each of those sinks still
/// needs an EDL. Base's cut moves 116 cone nodes of `rf0_30.d` past the
/// canonical placement; the sink's mean arrival falls (1.769 → 1.755 ns) while
/// more gate sigma passes the slave, so the margined arrival rises
/// (1.832 → 1.851 ns against Π = 1.840). The statistical promise covers
/// only the canonical placement: the certificate checks it there (the
/// sink meets Π with exactly g(t) moved) and must not demand it of the
/// flow's cut.
#[test]
fn plasma_statistical_flows_certify_past_the_canonical_placement() {
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == "plasma")
        .expect("plasma is in the suite");
    let circuit = spec.build().expect("plasma builds");
    let lib = Library::fdsoi28();
    let clock = circuit
        .calibrated_clock(&lib, DelayModel::PathBased)
        .expect("calibration succeeds");
    let model = DelayModel::Statistical(StatParams::DEFAULT);
    let c = EdlOverhead::MEDIUM;
    let setup = VerifySetup {
        netlist: &circuit.netlist,
        cloud: &circuit.cloud,
        lib: &lib,
        clock,
        model,
        overhead: c,
    };
    let opts = VerifyOptions {
        cycles: 16,
        mc_samples: 1024,
        ..VerifyOptions::default()
    };
    let base = base_retime(&circuit.cloud, &lib, clock, model, c).expect("base runs");
    let g = grar(
        &circuit.cloud,
        &lib,
        clock,
        &GrarConfig::new(c).with_model(model),
    )
    .expect("grar runs");
    let sink = circuit
        .cloud
        .sinks()
        .iter()
        .position(|&t| circuit.cloud.node_name(t) == "rf0_30.d")
        .expect("rf0_30.d is a sink");
    for (kind, outcome) in [(FlowKind::Base, &base), (FlowKind::Grar, &g.outcome)] {
        assert!(outcome.ed_sinks[sink], "{kind:?}: rf0_30.d keeps its EDL");
        verify_certificate(&setup, kind, outcome, &opts)
            .unwrap_or_else(|e| panic!("plasma {kind:?}: {e}"));
    }
}
