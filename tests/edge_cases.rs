//! Edge-case integration tests: parallel edges, degenerate structures,
//! wide fanout, and failure injection.

use std::time::Instant;

use resilient_retiming::flow::MinCostFlow;
use resilient_retiming::grar::{classify_many, grar, GrarConfig};
use resilient_retiming::liberty::{EdlOverhead, Library};
use resilient_retiming::netlist::{bench, blif, CombCloud, Cut, Gate, Netlist, NodeId, NodeKind};
use resilient_retiming::retime::{
    base_retime, AreaModel, Regions, RetimeError, RetimeOutcome, RetimingProblem, RetimingSolution,
    BREADTH_SCALE,
};
use resilient_retiming::sim::equivalent;
use resilient_retiming::sta::{DelayModel, SinkClass, TimingAnalysis, TwoPhaseClock};

/// A gate reading the same signal twice (parallel cloud edges).
#[test]
fn parallel_edges_share_one_latch() {
    let n = bench::parse(
        "par",
        "INPUT(a)\nOUTPUT(z)\nq = DFF(g)\ng = NAND(a, a)\nz = NOT(q)\n",
    )
    .unwrap();
    let cloud = CombCloud::extract(&n).unwrap();
    let a = cloud.find("a").unwrap();
    assert_eq!(cloud.node(a).fanout.len(), 2, "two parallel edges");
    // Moving through `a` costs one latch at its output, not two.
    let mut cut = Cut::initial(&cloud);
    cut.set_moved(a, true);
    cut.validate(&cloud).unwrap();
    assert_eq!(cut.slave_count(&cloud), 2); // a's output + q's source
    let retimed = cut.apply(&cloud, &n).unwrap();
    assert_eq!(equivalent(&n, &retimed, 50, 3).unwrap(), Ok(()));
    // The retiming objective agrees with the shared count.
    let lib = Library::fdsoi28();
    let sta = TimingAnalysis::new(
        &cloud,
        &lib,
        TwoPhaseClock::from_max_delay(10.0),
        DelayModel::PathBased,
    )
    .unwrap();
    let regions = Regions::compute(&sta).unwrap();
    let problem = RetimingProblem::build(&cloud, &regions);
    let moved: Vec<bool> = (0..cloud.len())
        .map(|i| cut.is_moved(resilient_retiming::netlist::NodeId(i as u32)))
        .collect();
    assert_eq!(
        problem.objective_scaled_for(&moved),
        2 * resilient_retiming::retime::BREADTH_SCALE
    );
}

/// Fanout wider than the exact breadth scale (k > 16) still solves and
/// stays within rounding error of the true latch count.
#[test]
fn wide_fanout_rounding() {
    let mut n = Netlist::new("wide");
    let a = n.add_input("a");
    let mut outs = Vec::new();
    for i in 0..24 {
        let g = n.add_gate(format!("g{i}"), Gate::Not, &[a]).unwrap();
        outs.push(g);
    }
    for (i, &g) in outs.iter().enumerate() {
        n.add_output(format!("z{i}"), g).unwrap();
    }
    let cloud = CombCloud::extract(&n).unwrap();
    let lib = Library::fdsoi28();
    let sta = TimingAnalysis::new(
        &cloud,
        &lib,
        TwoPhaseClock::from_max_delay(10.0),
        DelayModel::PathBased,
    )
    .unwrap();
    let regions = Regions::compute(&sta).unwrap();
    let problem = RetimingProblem::build(&cloud, &regions);
    let sol = problem.solve().unwrap();
    sol.cut.validate(&cloud).unwrap();
    // One latch at the source is optimal (sharing over 24 fanouts).
    assert_eq!(sol.cut.slave_count(&cloud), 1);
}

/// A circuit whose every endpoint is combinational (no flip-flops).
#[test]
fn pure_combinational_circuit() {
    let n = bench::parse(
        "comb",
        "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = AND(a, b)\ny = XOR(a, b)\n",
    )
    .unwrap();
    let cloud = CombCloud::extract(&n).unwrap();
    let lib = Library::fdsoi28();
    let out = base_retime(
        &cloud,
        &lib,
        TwoPhaseClock::from_max_delay(5.0),
        DelayModel::PathBased,
        EdlOverhead::MEDIUM,
    )
    .unwrap();
    // POs carry no masters and no EDL.
    assert_eq!(out.seq.masters, 0);
    assert_eq!(out.seq.edl, 0);
}

/// A flip-flop self-loop (counter) survives the full G-RAR flow.
#[test]
fn self_loop_counter() {
    let n = bench::parse("cnt", "OUTPUT(q)\nq = DFF(nq)\nnq = NOT(q)\n").unwrap();
    let cloud = CombCloud::extract(&n).unwrap();
    let lib = Library::fdsoi28();
    let report = grar(
        &cloud,
        &lib,
        TwoPhaseClock::from_max_delay(5.0),
        &GrarConfig::new(EdlOverhead::HIGH),
    )
    .unwrap();
    report.outcome.cut.validate(&cloud).unwrap();
    let retimed = report.outcome.cut.apply(&cloud, &n).unwrap();
    assert_eq!(equivalent(&n, &retimed, 32, 1).unwrap(), Ok(()));
}

/// Malformed inputs fail loudly, never panic.
#[test]
fn failure_injection_parsers() {
    for bad in [
        "INPUT(a\n",              // unbalanced paren
        "z = NOT()\nOUTPUT(z)\n", // empty fanin
        "z = DFF(a, b)\n",        // DFF arity
        "OUTPUT(ghost)\n",        // dangling output
        "INPUT(a)\nINPUT(a)\n",   // duplicate input
    ] {
        assert!(bench::parse("bad", bad).is_err(), "accepted: {bad:?}");
    }
    for bad in [
        ".model m\n.inputs a\n.outputs z\n.names a z\n- 1\n1 0\n.end\n", // inconsistent cover
        ".model m\n.gate AND a=b\n.end\n",                               // unsupported construct
        ".model m\n.inputs a\n.outputs z\n.latch a\n.end\n",             // short .latch
    ] {
        assert!(blif::parse(bad).is_err(), "accepted: {bad:?}");
    }
}

/// Infeasible clocking surfaces as a typed error from every flow.
#[test]
fn infeasible_clock_is_reported() {
    let mut src = String::from("INPUT(a)\nOUTPUT(z)\ng1 = NOT(a)\n");
    for i in 2..=30 {
        src.push_str(&format!("g{i} = NOT(g{})\n", i - 1));
    }
    src.push_str("z = BUFF(g30)\n");
    let n = bench::parse("deep", &src).unwrap();
    let cloud = CombCloud::extract(&n).unwrap();
    let lib = Library::fdsoi28();
    let clock = TwoPhaseClock::from_max_delay(0.02); // absurdly fast
    let err = base_retime(&cloud, &lib, clock, DelayModel::PathBased, EdlOverhead::LOW);
    assert!(
        matches!(
            err,
            Err(resilient_retiming::retime::RetimeError::InfeasibleClocking { .. })
        ),
        "got {err:?}"
    );
}

/// Latch-style netlists round-trip through extraction, retiming, and
/// application just like flip-flop ones.
#[test]
fn latch_style_full_flow() {
    let ff = bench::parse(
        "ls",
        "INPUT(a)\nOUTPUT(z)\nq1 = DFF(g1)\ng1 = NAND(a, q1)\nz = NOT(q1)\n",
    )
    .unwrap();
    let ms = ff.to_master_slave().unwrap();
    let cloud = CombCloud::extract(&ms).unwrap();
    let lib = Library::fdsoi28();
    let report = grar(
        &cloud,
        &lib,
        TwoPhaseClock::from_max_delay(5.0),
        &GrarConfig::new(EdlOverhead::MEDIUM),
    )
    .unwrap();
    let retimed = report.outcome.cut.apply(&cloud, &ms).unwrap();
    assert_eq!(equivalent(&ff, &retimed, 64, 9).unwrap(), Ok(()));
    // And the result still serializes through the bench writer.
    let text = bench::write(&retimed);
    let back = bench::parse("ls", &text).unwrap();
    assert_eq!(back.stats(), retimed.stats());
}

/// SSP, the network simplex and the closure oracle each solve the full
/// G-RAR flow's Eq. 14 instance — built as the flow builds it, pseudo
/// targets included — to a cut whose committed area matches the flow's.
#[test]
fn alternate_engines_full_flow() {
    let n = bench::parse(
        "eng",
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(g2)\ng1 = AND(a, b)\ng2 = XOR(g1, q)\nz = NOT(q)\n",
    )
    .unwrap();
    let cloud = CombCloud::extract(&n).unwrap();
    let lib = Library::fdsoi28();
    let clock = TwoPhaseClock::from_max_delay(5.0);
    let c = EdlOverhead::MEDIUM;
    let report = grar(&cloud, &lib, clock, &GrarConfig::new(c)).unwrap();

    let commit = |solve: &dyn Fn(&RetimingProblem) -> Result<RetimingSolution, RetimeError>| {
        let mut sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let mut problem = RetimingProblem::build(&cloud, &Regions::compute(&sta).unwrap());
        let sinks: Vec<NodeId> = cloud
            .sinks()
            .iter()
            .copied()
            .filter(|&t| matches!(cloud.node(t).kind, NodeKind::Sink { master: Some(_) }))
            .collect();
        let c_scaled = (c.value() * BREADTH_SCALE as f64).round() as i64;
        for (class, g) in classify_many(&sta, &sinks, 1) {
            if class == SinkClass::Target {
                problem.add_pseudo_target(&g, c_scaled);
            }
        }
        let sol = solve(&problem).unwrap();
        let model = AreaModel::new(&lib, c);
        RetimeOutcome::assemble(&mut sta, &model, sol.cut, sol.solver_time, Instant::now())
            .unwrap()
            .total_area
    };
    for total in [
        commit(&|p| p.solve()),
        commit(&|p| p.solve_with(MinCostFlow::solve)),
        commit(&|p| p.solve_with(MinCostFlow::solve_reference)),
    ] {
        assert!((report.outcome.total_area - total).abs() < 1e-9);
    }
}

/// A BLIF-sourced circuit runs through the whole pipeline.
#[test]
fn blif_to_grar() {
    let src = "\
.model top
.inputs a b
.outputs y
.latch n2 q re clk 0
.names a b n1
11 1
.names n1 q n2
10 1
01 1
.names q y
0 1
.end
";
    let n = blif::parse(src).unwrap();
    let cloud = CombCloud::extract(&n).unwrap();
    let lib = Library::fdsoi28();
    let report = grar(
        &cloud,
        &lib,
        TwoPhaseClock::from_max_delay(5.0),
        &GrarConfig::new(EdlOverhead::LOW),
    )
    .unwrap();
    assert!(report.outcome.timing.is_feasible());
    let retimed = report.outcome.cut.apply(&cloud, &n).unwrap();
    assert_eq!(equivalent(&n, &retimed, 64, 17).unwrap(), Ok(()));
}
