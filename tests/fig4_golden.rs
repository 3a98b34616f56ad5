//! Golden tests against the paper's worked example (Fig. 4 / Fig. 5):
//! every number quoted in the text must reproduce exactly.

use resilient_retiming::circuits::Fig4;
use resilient_retiming::flow::MinCostFlow;
use resilient_retiming::grar::{classify_and_cut_set, exhaustive_best, IlpFormulation};
use resilient_retiming::liberty::EdlOverhead;
use resilient_retiming::retime::{AreaModel, Region, Regions, RetimingProblem, BREADTH_SCALE};
use resilient_retiming::sta::{SinkClass, TimingAnalysis};

fn names(f: &Fig4, nodes: &[resilient_retiming::netlist::NodeId]) -> Vec<String> {
    let mut v: Vec<String> = nodes
        .iter()
        .map(|&n| f.cloud.node(n).name.clone())
        .collect();
    v.sort();
    v
}

#[test]
fn regions_match_section_iv_b() {
    let f = Fig4::new();
    let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
    let regions = Regions::compute(&sta).unwrap();
    // V_m = {I1}: D^b(I1, O9) = 9 > 7.5.
    assert_eq!(names(&f, &regions.nodes_in(Region::Mandatory)), vec!["I1"]);
    // V_n = {G7, G8, O9}: D^f = 8, 9, 9 > 7.5 (the sink O9.d and the side
    // output O10 are fixed by construction; O9's dangling Q is free).
    let forbidden = names(&f, &regions.nodes_in(Region::Forbidden));
    for required in ["G7", "G8", "O9.d"] {
        assert!(
            forbidden.iter().any(|n| n == required),
            "{required} must be in V_n, got {forbidden:?}"
        );
    }
    // V_r contains exactly the free gates of the paper:
    // {I2, G3, G4, G5, G6}.
    let free = names(&f, &regions.nodes_in(Region::Free));
    for required in ["I2", "G3", "G4", "G5", "G6"] {
        assert!(
            free.iter().any(|n| n == required),
            "{required} must be in V_r, got {free:?}"
        );
    }
}

#[test]
fn cut_set_is_g5_g6() {
    let f = Fig4::new();
    let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
    let bp = sta.backward(f.o9());
    let (class, g) = classify_and_cut_set(&sta, &bp);
    assert_eq!(class, SinkClass::Target);
    assert_eq!(names(&f, &g), vec!["G5", "G6"]);
}

#[test]
fn optimal_retiming_matches_paper() {
    // "The ILP solver would return r(I1) = r(I2) = r(G3) = r(G4) = r(G5)
    //  = r(G6) = r(P(O9)) = −1 with all other r() values set to 0."
    let f = Fig4::new();
    let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
    let regions = Regions::compute(&sta).unwrap();
    let bp = sta.backward(f.o9());
    let (_, g) = classify_and_cut_set(&sta, &bp);
    let mut problem = RetimingProblem::build(&f.cloud, &regions);
    let c = EdlOverhead::HIGH; // c = 2 in the example
    let p_node = problem.add_pseudo_target(&g, 2 * BREADTH_SCALE);
    for (engine, sol) in [
        ("min cut", problem.solve()),
        ("ssp", problem.solve_with(MinCostFlow::solve)),
        (
            "reference",
            problem.solve_with(MinCostFlow::solve_reference),
        ),
    ] {
        let sol = sol.unwrap();
        for name in ["I1", "I2", "G3", "G4", "G5", "G6"] {
            assert!(
                sol.cut.is_moved(f.node(name)),
                "{name} must be retimed through ({engine})"
            );
        }
        assert_eq!(sol.r[p_node], -1, "P(O9) must fire ({engine})");
        // Objective: 3 slave latches − c = 3 − 2 = 1 latch-unit.
        assert_eq!(sol.objective_scaled, BREADTH_SCALE);
        // Exhaustive oracle agrees.
        let (best, _) = exhaustive_best(&problem, 20).expect("small instance");
        assert_eq!(sol.objective_scaled, best);
    }
    let _ = c;
}

#[test]
fn cut2_costs_4_units_and_cut1_costs_5() {
    let f = Fig4::new();
    let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
    let lib = Fig4::unit_library();
    let model = AreaModel::new(&lib, EdlOverhead::HIGH);

    // Cut2: latches beyond g(O9) = after G4, G5, G6 (moved set of the
    // optimal solution).
    let mut cut2 = resilient_retiming::netlist::Cut::initial(&f.cloud);
    for name in ["I1", "I2", "G3", "G4", "G5", "G6", "O9.q"] {
        cut2.set_moved(f.node(name), true);
    }
    cut2.validate(&f.cloud).unwrap();
    let t2 = sta.cut_timing(&cut2);
    let ed2 = model.ed_flags(&f.cloud, &t2);
    let seq2 = model.sequential(&f.cloud, &cut2, &ed2);
    assert_eq!(seq2.slaves, 3);
    assert_eq!(seq2.edl, 0);
    assert_eq!(seq2.total(), 4.0, "Cut2 costs 4 units");
    // Arrival at O9 via Cut2 is 9 (the paper's max computation).
    let o9_idx = f
        .cloud
        .sinks()
        .iter()
        .position(|&t| t == f.o9())
        .expect("O9 sink");
    assert_eq!(t2.sink_arrivals[o9_idx], 9.0);

    // Cut1: latches after G3 and at I2 (plus the mandatory I1 move).
    let mut cut1 = resilient_retiming::netlist::Cut::initial(&f.cloud);
    for name in ["I1", "G3", "O9.q"] {
        cut1.set_moved(f.node(name), true);
    }
    cut1.validate(&f.cloud).unwrap();
    let t1 = sta.cut_timing(&cut1);
    let ed1 = model.ed_flags(&f.cloud, &t1);
    let seq1 = model.sequential(&f.cloud, &cut1, &ed1);
    assert_eq!(seq1.slaves, 2, "Cut1 has two slave latches");
    assert_eq!(seq1.edl, 1, "Cut1 leaves O9 error-detecting");
    assert_eq!(seq1.total(), 5.0, "Cut1 costs 5 units at c = 2");
    // Arrival at O9 via Cut1 is 12 > Π = 10.
    assert_eq!(t1.sink_arrivals[o9_idx], 12.0);
}

#[test]
fn ilp_formulation_solvable_by_inspection() {
    let f = Fig4::new();
    let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
    let regions = Regions::compute(&sta).unwrap();
    let bp = sta.backward(f.o9());
    let (_, g) = classify_and_cut_set(&sta, &bp);
    let mut problem = RetimingProblem::build(&f.cloud, &regions);
    problem.add_pseudo_target(&g, 2 * BREADTH_SCALE);
    let ilp = IlpFormulation::from_problem(&problem);
    // The optimal assignment from the solver must be feasible in the raw
    // ILP and improve on the all-zero (initial) assignment... the initial
    // assignment itself is infeasible here because I1 ∈ V_m.
    let sol = problem.solve().unwrap();
    assert!(ilp.is_feasible(&sol.r));
    let all_zero = vec![0i64; ilp.variable_count()];
    assert!(!ilp.is_feasible(&all_zero), "V_m forces movement");
}
