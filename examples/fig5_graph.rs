//! Emits the paper's Fig. 5 — the modified retiming graph of the worked
//! example — in Graphviz DOT form.
//!
//! ```text
//! cargo run --example fig5_graph > fig5.dot && dot -Tsvg fig5.dot -o fig5.svg
//! ```
//!
//! Blue-ink elements of the published figure (original nodes/edges and
//! the `m_G3`/`m_I2` mirror nodes) appear as ellipses/diamonds; the
//! red-ink resiliency extension (the pseudo node `P(O9)` and its `−c`
//! edge to the host) is highlighted in red.

use resilient_retiming::circuits::Fig4;
use resilient_retiming::grar::classify_and_cut_set;
use resilient_retiming::retime::{Regions, RetimingProblem, BREADTH_SCALE};
use resilient_retiming::sta::TimingAnalysis;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let f = Fig4::new();
    let sta = TimingAnalysis::with_delays(&f.cloud, f.delays.clone(), f.clock);
    let regions = Regions::compute(&sta)?;
    let bp = sta.backward(f.o9());
    let (_, g) = classify_and_cut_set(&sta, &bp);
    let mut problem = RetimingProblem::build(&f.cloud, &regions);
    problem.add_pseudo_target(&g, 2 * BREADTH_SCALE); // c = 2
    let names: Vec<String> = f
        .cloud
        .node_ids()
        .map(|v| f.cloud.node_name(v).to_string())
        .collect();
    println!("{}", problem.to_dot(&names));
    Ok(())
}
