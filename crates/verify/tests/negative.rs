//! Negative-path coverage: each kind of certificate corruption must be
//! rejected with its own descriptive [`VerifyError`] variant — a flipped
//! retiming label, a flipped EDL flag, mis-counted area figures, a
//! credited target that still times inside the window, a raw retiming
//! solution whose labels leave their bounds, and a min cut's optimality
//! certificate that is tampered with or proves a closure that is not the
//! inclusion-minimal optimum.

use retime_circuits::{paper_suite, Fig4};
use retime_core::{classify_and_cut_set, grar, GrarConfig};
use retime_flow::{Closure, ClosureCertificate};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{Cut, NodeId, NodeKind};
use retime_retime::{Regions, RetimeOutcome, RetimingProblem, RetimingSolution, BREADTH_SCALE};
use retime_sta::{
    error_detecting_masters, is_error_detecting, DelayModel, SinkClass, TimingAnalysis,
};
use retime_verify::{
    check_closure_certificate, retiming_closure, verify_certificate, verify_retiming_solution,
    FlowKind, VerifyError, VerifyOptions, VerifySetup,
};

/// A genuine G-RAR outcome on the smallest suite circuit, plus
/// everything needed to re-verify it.
struct Fixture {
    circuit: retime_circuits::SuiteCircuit,
    lib: Library,
    clock: retime_sta::TwoPhaseClock,
    outcome: RetimeOutcome,
}

fn fixture() -> Fixture {
    fixture_at(0)
}

/// [`fixture`] on the suite circuit at `index`.
fn fixture_at(index: usize) -> Fixture {
    let lib = Library::fdsoi28();
    let circuit = paper_suite()[index].build().expect("suite circuit builds");
    let clock = circuit
        .calibrated_clock(&lib, DelayModel::PathBased)
        .expect("clock calibrates");
    let outcome = grar(
        &circuit.cloud,
        &lib,
        clock,
        &GrarConfig::new(EdlOverhead::MEDIUM),
    )
    .expect("grar runs")
    .outcome;
    Fixture {
        circuit,
        lib,
        clock,
        outcome,
    }
}

impl Fixture {
    fn verify(&self, outcome: &RetimeOutcome, cycles: usize) -> Result<(), VerifyError> {
        let setup = VerifySetup {
            netlist: &self.circuit.netlist,
            cloud: &self.circuit.cloud,
            lib: &self.lib,
            clock: self.clock,
            model: DelayModel::PathBased,
            overhead: EdlOverhead::MEDIUM,
        };
        verify_certificate(
            &setup,
            FlowKind::Grar,
            outcome,
            &VerifyOptions {
                cycles,
                ..VerifyOptions::default()
            },
        )
        .map(|_| ())
    }
}

#[test]
fn genuine_certificate_is_accepted() {
    let fx = fixture();
    fx.verify(&fx.outcome, 256)
        .expect("genuine certificate passes");
}

#[test]
fn flipped_retiming_label_is_rejected() {
    let fx = fixture();
    let cloud = &fx.circuit.cloud;
    // Flip a single node's moved bit so the label assignment no longer
    // describes a legal fanin-closed cut. Such a node always exists:
    // flipping an unmoved node with an unmoved fanin (or a moved node
    // with a moved fanout) breaks closure.
    let mutated = (0..cloud.len()).find_map(|i| {
        let v = NodeId(i as u32);
        let mut outcome = fx.outcome.clone();
        outcome.cut.set_moved(v, !outcome.cut.is_moved(v));
        let broken = outcome.cut.validate(cloud).is_err() || !outcome.cut.check_paths(cloud);
        broken.then_some(outcome)
    });
    let mutated = mutated.expect("some single-bit flip breaks cut legality");
    let err = fx
        .verify(&mutated, 0)
        .expect_err("corrupted labels rejected");
    assert!(
        matches!(err, VerifyError::IllegalCut { .. }),
        "expected IllegalCut, got: {err}"
    );
    assert!(!err.to_string().is_empty(), "error message is descriptive");
}

#[test]
fn flipped_edl_flag_is_rejected() {
    let fx = fixture();
    let mut mutated = fx.outcome.clone();
    assert!(!mutated.ed_sinks.is_empty(), "suite circuits have sinks");
    mutated.ed_sinks[0] = !mutated.ed_sinks[0];
    let err = fx.verify(&mutated, 0).expect_err("wrong EDL flag rejected");
    match err {
        VerifyError::EdlFlagMismatch {
            sink,
            claimed,
            recomputed,
        } => {
            let expected = &fx.circuit.cloud.node_name(fx.circuit.cloud.sinks()[0]);
            assert_eq!(&sink, expected, "mismatch names the offending sink");
            assert_eq!(claimed, mutated.ed_sinks[0]);
            assert_eq!(recomputed, fx.outcome.ed_sinks[0]);
        }
        other => panic!("expected EdlFlagMismatch, got: {other}"),
    }
}

#[test]
fn miscounted_area_is_rejected() {
    let fx = fixture();
    // A wrong latch count is caught by the exact recount.
    let mut wrong_count = fx.outcome.clone();
    wrong_count.seq.slaves += 1;
    let err = fx
        .verify(&wrong_count, 0)
        .expect_err("wrong count rejected");
    assert!(
        matches!(
            err,
            VerifyError::AreaMismatch {
                field: "slaves",
                ..
            }
        ),
        "expected AreaMismatch on slaves, got: {err}"
    );
    // A perturbed area figure is caught by the float recomputation.
    let mut wrong_area = fx.outcome.clone();
    wrong_area.seq.slave_area += 0.25;
    let err = fx.verify(&wrong_area, 0).expect_err("wrong area rejected");
    assert!(
        matches!(
            err,
            VerifyError::AreaMismatch {
                field: "slave_area",
                ..
            }
        ),
        "expected AreaMismatch on slave_area, got: {err}"
    );
    // And so is a wrong bottom line.
    let mut wrong_total = fx.outcome.clone();
    wrong_total.total_area += 1.0;
    let err = fx
        .verify(&wrong_total, 0)
        .expect_err("wrong total rejected");
    assert!(
        matches!(
            err,
            VerifyError::AreaMismatch {
                field: "total_area",
                ..
            }
        ),
        "expected AreaMismatch on total_area, got: {err}"
    );
}

#[test]
fn credited_target_inside_the_window_is_rejected() {
    // s1238, where G-RAR saves targets (s1196 has none).
    let fx = fixture_at(1);
    let cloud = &fx.circuit.cloud;
    let sta = TimingAnalysis::new(cloud, &fx.lib, fx.clock, DelayModel::PathBased).unwrap();
    // A target whose whole g(t) the cut moved: G-RAR collected its
    // reward, so the certificate promises it times outside the window.
    let (i, t) = cloud
        .sinks()
        .iter()
        .copied()
        .enumerate()
        .find(|&(_, t)| {
            matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) }) && {
                let (class, g) = classify_and_cut_set(&sta, &sta.backward(t));
                class == SinkClass::Target && g.iter().all(|&v| fx.outcome.cut.is_moved(v))
            }
        })
        .expect("G-RAR saves some target");
    // Slow the gates feeding it until it lands inside the window, with
    // the stored timing and flags restated to match, so that every
    // earlier check passes and only the promise is broken.
    let mutated = (1..400)
        .find_map(|step| {
            let mut outcome = fx.outcome.clone();
            for &v in cloud.fanin(t) {
                outcome
                    .final_delays
                    .scale_node(v, 1.0 + 0.01 * f64::from(step));
            }
            let timing = TimingAnalysis::with_delays(cloud, outcome.final_delays.clone(), fx.clock)
                .cut_timing(&outcome.cut);
            if !is_error_detecting(timing.sink_arrivals[i], &fx.clock) || !timing.is_feasible() {
                return None;
            }
            outcome.ed_sinks = error_detecting_masters(cloud, &fx.clock, &timing.sink_arrivals);
            outcome.timing = timing;
            Some(outcome)
        })
        .expect("some slowdown lands the target inside the window");
    match fx.verify(&mutated, 0) {
        Err(VerifyError::CutSetInconsistent { sink }) => {
            assert_eq!(sink, cloud.node_name(t), "names the credited target")
        }
        other => panic!("expected CutSetInconsistent, got: {other:?}"),
    }
}

/// The paper's worked example (Fig. 4/5) at `c = 2`, whose optimum
/// moves free nodes: the G-RAR problem, the verifier's closure form of
/// it, and that closure's genuine certificate.
fn fig4_certified() -> (RetimingProblem, Closure, ClosureCertificate) {
    let f = Fig4::new();
    let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
    let (_, g) = classify_and_cut_set(&sta, &sta.backward(f.o9()));
    let mut problem = RetimingProblem::build(&f.cloud, &Regions::compute(&sta).unwrap());
    problem.add_pseudo_target(&g, 2 * BREADTH_SCALE);
    let mut closure = retiming_closure(&problem);
    let cert = closure.solve_certified().expect("feasible");
    check_closure_certificate(&closure, &cert).expect("genuine certificate passes");
    (problem, closure, cert)
}

/// Asserts that the checker rejects `cert` with a message containing
/// `why`.
fn assert_rejected(closure: &Closure, cert: &ClosureCertificate, why: &str) {
    match check_closure_certificate(closure, cert) {
        Err(VerifyError::FlowCertificate { detail }) => {
            assert!(detail.contains(why), "expected {why:?}, got: {detail}")
        }
        other => panic!("expected a FlowCertificate rejection ({why}), got: {other:?}"),
    }
}

#[test]
fn flow_moved_off_an_arc_is_rejected() {
    let (_, closure, cert) = fig4_certified();
    // Every member keeps zero excess in a certificate that proves its
    // cut minimum, so a unit taken off a requirement arc into a member
    // leaves that member short.
    let reqs = closure.requirements();
    let i = (0..reqs.len())
        .find(|&i| cert.requirement_flow[i] > 0 && cert.members[reqs[i].0])
        .expect("some requirement arc feeds a member");
    let mut mutated = cert.clone();
    mutated.requirement_flow[i] -= 1;
    assert_rejected(&closure, &mutated, "excess -1 < 0");
    // A unit taken off a sink arc shrinks the sink inflow below the cut.
    let v = (0..cert.weight_flow.len())
        .find(|&v| closure.weights()[v] > 0 && cert.weight_flow[v] > 0)
        .expect("some sink arc carries flow");
    let mut mutated = cert.clone();
    mutated.weight_flow[v] -= 1;
    assert_rejected(&closure, &mutated, "sink inflow");
}

#[test]
fn feasible_but_suboptimal_closure_is_rejected() {
    let (problem, closure, cert) = fig4_certified();
    // The forced-in nodes alone are a closure, and a strictly smaller
    // one than the inclusion-minimal optimum, so a worse one.
    let forced_in: Vec<bool> = cert.forced.iter().map(|&f| f == Some(true)).collect();
    assert_ne!(forced_in, cert.members, "the optimum moves a free node");
    let mut mutated = cert.clone();
    mutated.members = forced_in.clone();
    assert_rejected(&closure, &mutated, "differs from the members' cut capacity");

    // The same closure, claimed as a retiming solution, is suboptimal.
    let moved = forced_in[..problem.cloud_len()].to_vec();
    let worse = RetimingSolution {
        r: problem.full_assignment_for(&moved),
        objective_scaled: problem.objective_scaled_for(&moved),
        cut: Cut::from_raw(moved),
    };
    match verify_retiming_solution(&problem, &worse) {
        Err(VerifyError::Suboptimal {
            certificate,
            optimum,
        }) => assert!(optimum < certificate, "{optimum} < {certificate}"),
        other => panic!("expected Suboptimal, got: {other:?}"),
    }
}

#[test]
fn poisoned_solution_labels_are_rejected() {
    let (problem, _, _) = fig4_certified();
    let sol = problem.solve().expect("feasible");
    verify_retiming_solution(&problem, &sol).expect("the genuine solution certifies");
    // Push one label out of its region bounds: every label is −1 or 0,
    // so two below it is out of range either way.
    let mut poisoned = sol.clone();
    poisoned.r[0] -= 2;
    match verify_retiming_solution(&problem, &poisoned) {
        Err(VerifyError::LabelInfeasible { .. }) => {}
        other => panic!("expected LabelInfeasible, got: {other:?}"),
    }
}

#[test]
fn dropped_forced_node_is_rejected() {
    let (problem, closure, cert) = fig4_certified();
    // The host is always forced out.
    let mut mutated = cert.clone();
    mutated.forced[problem.host()] = None;
    assert_rejected(&closure, &mutated, "the forcing closes to Some(false)");
    // A forced-in node dropped from the members.
    if let Some(v) = (0..cert.forced.len()).find(|&v| cert.forced[v] == Some(true)) {
        let mut mutated = cert.clone();
        mutated.members[v] = false;
        assert_rejected(&closure, &mutated, "breaks its forcing");
    }
}

#[test]
fn optimal_but_not_minimal_closure_is_rejected() {
    // Node 0 gains 2 and requires node 1, which costs 2: the empty
    // closure and {0, 1} both weigh 0, and the empty one is minimal.
    let mut closure = Closure::new(2);
    closure.set_weight(0, 2);
    closure.set_weight(1, -2);
    closure.require(0, 1);
    let cert = closure.solve_certified().expect("feasible");
    assert_eq!(cert.members, vec![false, false]);
    check_closure_certificate(&closure, &cert).expect("genuine certificate passes");
    // {0, 1} has the same weight and a cut of the same capacity; only
    // the residual reach tells it apart.
    let mut mutated = cert.clone();
    mutated.members = vec![true, true];
    assert_rejected(&closure, &mutated, "reaches the sink false");
}
