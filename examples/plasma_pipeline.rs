//! Retiming the Plasma-like 3-stage CPU (the paper's largest benchmark).
//!
//! ```text
//! cargo run --release --example plasma_pipeline
//! ```
//!
//! Builds the structured CPU datapath (32×32 register file, mux-tree
//! reads, ripple ALU — ≈1100 flip-flops and several thousand gates),
//! calibrates the two-phase clock, and compares the three flows across
//! the EDL overhead sweep.

use std::time::Instant;

use resilient_retiming::circuits::paper_suite;
use resilient_retiming::grar::{grar, GrarConfig};
use resilient_retiming::liberty::{EdlOverhead, Library};
use resilient_retiming::retime::base_retime;
use resilient_retiming::sta::DelayModel;
use resilient_retiming::vl::{vl_retime, VlConfig, VlVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = paper_suite()
        .into_iter()
        .find(|s| s.name == "plasma")
        .expect("plasma is in the suite");
    let t0 = Instant::now();
    let circuit = spec.build()?;
    let stats = circuit.netlist.stats();
    println!(
        "built plasma: {} gates, {} flip-flops, {} PIs, {} POs ({} ms)",
        stats.gates,
        stats.dffs,
        stats.inputs,
        stats.outputs,
        t0.elapsed().as_millis()
    );

    let lib = Library::fdsoi28();
    let clock = circuit.calibrated_clock(&lib, DelayModel::PathBased)?;
    let nce = circuit.nce_count(&lib, DelayModel::PathBased, clock)?;
    println!("calibrated clock: {clock}");
    println!("near-critical endpoints: {nce} (paper: 217)\n");

    println!("c     flow    slaves   EDL   seq-area   total-area   time");
    for c in EdlOverhead::SWEEP {
        let base = base_retime(&circuit.cloud, &lib, clock, DelayModel::PathBased, c)?;
        let rvl = vl_retime(
            &circuit.cloud,
            &lib,
            clock,
            &VlConfig::new(VlVariant::Rvl, c),
        )?;
        let g = grar(&circuit.cloud, &lib, clock, &GrarConfig::new(c))?;
        for (name, slaves, edl, seq, total, secs) in [
            (
                "base",
                base.seq.slaves,
                base.seq.edl,
                base.seq.total(),
                base.total_area,
                base.phases.total().as_secs_f64(),
            ),
            (
                "RVL ",
                rvl.outcome.seq.slaves,
                rvl.outcome.seq.edl,
                rvl.outcome.seq.total(),
                rvl.outcome.total_area,
                rvl.outcome.phases.total().as_secs_f64(),
            ),
            (
                "G   ",
                g.outcome.seq.slaves,
                g.outcome.seq.edl,
                g.outcome.seq.total(),
                g.outcome.total_area,
                g.outcome.phases.total().as_secs_f64(),
            ),
        ] {
            println!(
                "{:<5} {name}  {slaves:>6}  {edl:>4}  {seq:>9.1}  {total:>11.1}  {secs:>5.2}s",
                format!("{}", c.value()),
            );
        }
        println!();
    }
    Ok(())
}
