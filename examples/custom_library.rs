//! Bring-your-own standard-cell library.
//!
//! ```text
//! cargo run --example custom_library
//! ```
//!
//! Shows how to define a custom library (here: a hypothetical 16 nm-class
//! library with faster cells and a *relatively* more expensive latch),
//! study how the latch-to-flop area ratio changes the conclusion of
//! Section VI-D (the paper's "these results are library dependent"
//! caveat), and run the virtual-library flow of Section V (RVL-RAR) on
//! it.

use resilient_retiming::grar::{grar, GrarConfig};
use resilient_retiming::liberty::{
    CombCell, DelayArc, EdlOverhead, FlipFlopCell, LatchCell, Library, Sense,
};
use resilient_retiming::netlist::{bench, CombCloud};
use resilient_retiming::retime::{flop_design_area, AreaModel, RetimeError};
use resilient_retiming::sta::{DelayModel, TimingAnalysis, TwoPhaseClock};
use resilient_retiming::vl::{vl_retime, VlConfig, VlVariant};

fn library_16nm_ish(latch_ratio: f64) -> Library {
    let cc = |name: &str, area: f64, d: f64, sense: Sense| CombCell {
        name: name.to_string(),
        area,
        intrinsic: DelayArc {
            rise: d,
            fall: d * 0.85,
        },
        per_extra_input: 0.003,
        load_delay: 0.001,
        per_extra_input_area: 0.2,
        sense,
    };
    let ff = FlipFlopCell {
        area: 2.4,
        clk_to_q: 0.04,
        setup: 0.015,
    };
    Library::new(
        "sixteen-ish",
        [
            ("BUFF", cc("BUF", 0.35, 0.011, Sense::Positive)),
            ("NOT", cc("INV", 0.24, 0.006, Sense::Negative)),
            ("AND", cc("AND2", 0.6, 0.015, Sense::Positive)),
            ("NAND", cc("NAND2", 0.48, 0.009, Sense::Negative)),
            ("OR", cc("OR2", 0.6, 0.016, Sense::Positive)),
            ("NOR", cc("NOR2", 0.48, 0.010, Sense::Negative)),
            ("XOR", cc("XOR2", 0.84, 0.017, Sense::NonUnate)),
            ("XNOR", cc("XNOR2", 0.84, 0.017, Sense::NonUnate)),
        ],
        ff,
        LatchCell {
            area: ff.area * latch_ratio,
            clk_to_q: 0.028,
            d_to_q: 0.039,
            setup: 0.01,
        },
    )
}

/// A clock 10 % (plus 0.1 ns) slower than the worst flop-to-flop delay.
fn clock_for(cloud: &CombCloud, lib: &Library) -> Result<TwoPhaseClock, RetimeError> {
    let probe = TimingAnalysis::new(
        cloud,
        lib,
        TwoPhaseClock::from_max_delay(1.0),
        DelayModel::PathBased,
    )?;
    let crit = cloud
        .sinks()
        .iter()
        .map(|&t| probe.df(t))
        .fold(0.0f64, f64::max);
    Ok(TwoPhaseClock::from_max_delay(crit * 1.1 + 0.1))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A mid-sized pipeline workload.
    let mut src = String::from("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq1 = DFF(d1)\nq2 = DFF(d2)\n");
    src.push_str("c1 = NAND(a, b)\n");
    for i in 2..=16 {
        src.push_str(&format!("c{i} = NOT(c{})\n", i - 1));
    }
    src.push_str("d1 = BUFF(c16)\nd2 = NOR(b, q1)\nz = NOT(q2)\n");
    let netlist = bench::parse("custom", &src)?;
    let cloud = CombCloud::extract(&netlist)?;

    println!("latch/flop  flop-design  latch-design(G-RAR, c=1)   verdict");
    for ratio in [0.35, 0.43, 0.6, 0.8] {
        let lib = library_16nm_ish(ratio);
        let clock = clock_for(&cloud, &lib)?;
        let model = AreaModel::new(&lib, EdlOverhead::MEDIUM);
        let flop_area = flop_design_area(&cloud, &model)?;
        let g = grar(&cloud, &lib, clock, &GrarConfig::new(EdlOverhead::MEDIUM))?;
        let verdict = if g.outcome.total_area <= flop_area {
            "resilient design is area-free (the paper's surprise)"
        } else {
            "resiliency costs area with these latches"
        };
        println!(
            "  {ratio:>4.2}     {flop_area:>9.2}   {:>24.2}   {verdict}",
            g.outcome.total_area
        );
    }

    // Section V's virtual library on the same cells: RVL-RAR types the
    // near-critical masters error-detecting at (1 + c)× latch area and
    // the rest plain, retimes, then swaps each master to the type its
    // final arrival needs. G-RAR makes the same choice inside the solve.
    let lib = library_16nm_ish(0.43);
    let clock = clock_for(&cloud, &lib)?;
    let c = EdlOverhead::HIGH;
    let rvl = vl_retime(&cloud, &lib, clock, &VlConfig::new(VlVariant::Rvl, c))?;
    let g = grar(&cloud, &lib, clock, &GrarConfig::new(c))?;
    println!("\nvirtual library on the 0.43 library (c = {}):", c.value());
    println!(
        "  RVL-RAR typing: {} error-detecting master(s), {} swapped after retiming",
        rvl.typed_ed, rvl.swapped
    );
    println!("  flow     slaves  EDL  total-area");
    for (name, o) in [("RVL-RAR", &rvl.outcome), ("G-RAR  ", &g.outcome)] {
        println!(
            "  {name}  {:>6}  {:>3}  {:>10.2}",
            o.seq.slaves, o.seq.edl, o.total_area
        );
    }
    Ok(())
}
