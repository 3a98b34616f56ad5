//! The paper's worked example (Fig. 4 / Fig. 5), end to end.
//!
//! ```text
//! cargo run --example worked_example
//! ```
//!
//! Prints the region split, the cut-set `g(O9)`, the ILP of Eq. (10),
//! and solves it three ways (successive shortest paths, network simplex,
//! closure),
//! reproducing the paper's numbers: Cut2 with three slave latches and a
//! non-error-detecting O9 (4 area units) beats min-area retiming's Cut1
//! (5 units) at `c = 2`.

use resilient_retiming::circuits::Fig4;
use resilient_retiming::flow::MinCostFlow;
use resilient_retiming::grar::{classify_and_cut_set, IlpFormulation};
use resilient_retiming::liberty::EdlOverhead;
use resilient_retiming::retime::{AreaModel, Region, Regions, RetimingProblem, BREADTH_SCALE};
use resilient_retiming::sta::TimingAnalysis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let f = Fig4::new();
    let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
    println!("clock: {} (Π = {})\n", f.clock, f.clock.period());

    // Regions (Section IV-B).
    let regions = Regions::compute(&sta)?;
    for (label, region) in [
        ("V_m (must move)  ", Region::Mandatory),
        ("V_n (must stay)  ", Region::Forbidden),
        ("V_r (free)       ", Region::Free),
    ] {
        let names: Vec<&str> = regions
            .nodes_in(region)
            .into_iter()
            .map(|v| f.cloud.node(v).name.as_str())
            .collect();
        println!("{label}: {names:?}");
    }

    // The cut-set g(O9) (Eqs. 8–9).
    let bp = sta.backward(f.o9());
    let (class, g) = classify_and_cut_set(&sta, &bp);
    let g_names: Vec<&str> = g.iter().map(|&v| f.cloud.node(v).name.as_str()).collect();
    println!("\nO9 is a {class:?}; g(O9) = {g_names:?}");

    // Build the modified retiming graph and show the ILP (Eq. 10).
    let mut problem = RetimingProblem::build(&f.cloud, &regions);
    let c = EdlOverhead::HIGH; // c = 2 as in the example
    problem.add_pseudo_target(&g, (c.value() * BREADTH_SCALE as f64) as i64);
    println!(
        "\nILP (Eq. 10):\n{}",
        IlpFormulation::from_problem(&problem)
    );

    // Solve as a minimum cut (production) and as a min-cost flow.
    for (engine, sol) in [
        ("MinCut", problem.solve()),
        ("SSP", problem.solve_with(MinCostFlow::solve)),
    ] {
        let sol = sol?;
        let moved: Vec<&str> = f
            .cloud
            .nodes()
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                sol.cut
                    .is_moved(resilient_retiming::netlist::NodeId(i as u32))
            })
            .map(|(_, n)| n.name.as_str())
            .collect();
        println!(
            "{engine}: objective = {} latch-units, moved = {moved:?}",
            sol.objective_scaled as f64 / BREADTH_SCALE as f64
        );
    }

    // The final area bill at c = 2: 3 slaves + 1 plain master = 4 units.
    let sol = problem.solve()?;
    let lib = Fig4::unit_library();
    let model = AreaModel::new(&lib, c);
    let timing = sta.cut_timing(&sol.cut);
    let ed = model.ed_flags(&f.cloud, &timing);
    let seq = model.sequential(&f.cloud, &sol.cut, &ed);
    println!(
        "\nfinal: {} slaves + {} masters ({} error-detecting) = {} units (paper: 4 units)",
        seq.slaves,
        seq.masters,
        seq.edl,
        seq.total()
    );
    println!(
        "arrival at O9 = {} ≤ Π = {} → non-error-detecting",
        timing.sink_arrivals[f
            .cloud
            .sinks()
            .iter()
            .position(|&t| t == f.o9())
            .expect("O9 is a sink")],
        f.clock.period()
    );
    Ok(())
}
