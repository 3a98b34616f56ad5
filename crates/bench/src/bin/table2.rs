//! Table II: total area comparison between gate-based and path-based
//! delay G-RAR, across the three EDL overheads.

use retime_bench::{
    f2, load_suite, map_cases, pct_impr, print_table, rows_and_means, Certification, RunConfig,
};
use retime_core::{grar, GrarConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_retime::{AreaModel, RetimeOutcome};
use retime_sta::{DelayModel, NodeDelays};
use retime_verify::FlowKind;

fn main() {
    let cfg = RunConfig::from_env();
    let _trace = retime_trace::TraceSession::with_config(cfg.trace.clone());
    let lib = Library::fdsoi28();
    let cases = load_suite(cfg.suite, &lib);
    let (mut rows, means) = rows_and_means(map_cases(&cases, |case| {
        let mut row = vec![case.circuit.spec.name.to_string()];
        let mut imprs = [0.0f64; 3];
        for (k, c) in EdlOverhead::SWEEP.into_iter().enumerate() {
            let mut gate = grar(
                &case.circuit.cloud,
                &lib,
                case.clock,
                &GrarConfig::new(c).with_model(DelayModel::GateBased),
            )
            .expect("gate-based G-RAR runs");
            let mut path = grar(
                &case.circuit.cloud,
                &lib,
                case.clock,
                &GrarConfig::new(c).with_model(DelayModel::PathBased),
            )
            .expect("path-based G-RAR runs");
            // Each optimization run certifies against the delay model
            // that drove it.
            if cfg.verify {
                for (report, model, label) in [
                    (&mut gate, DelayModel::GateBased, "grar/gate"),
                    (&mut path, DelayModel::PathBased, "grar/path"),
                ] {
                    Certification::of_case(case, c, FlowKind::Grar, label)
                        .with_model(model)
                        .run(&lib, &mut report.outcome)
                        .expect("certificate accepted");
                }
            }
            // As in the paper, both placements are signed off by the
            // accurate (path-based) timing engine; the gate-based model
            // only drove the *optimization*.
            let signoff =
                NodeDelays::from_library(&case.circuit.cloud, &lib, DelayModel::PathBased)
                    .expect("signoff delays");
            let model = AreaModel::new(&lib, c);
            let gate_signed = RetimeOutcome::assemble(
                &case.circuit.cloud,
                case.clock,
                signoff,
                &model,
                gate.outcome.cut.clone(),
            )
            .expect("gate placement signs off");
            let impr = pct_impr(gate_signed.total_area, path.outcome.total_area);
            imprs[k] = impr;
            row.push(f2(gate_signed.total_area));
            row.push(f2(path.outcome.total_area));
            row.push(f2(impr));
        }
        (row, imprs)
    }));
    let mut avg = vec!["average".to_string()];
    for m in means {
        avg.extend([String::new(), String::new(), f2(m)]);
    }
    rows.push(avg);
    print_table(
        "Table II: gate-based vs path-based delay G-RAR (total area)",
        &[
            "Circuit", "Gate(L)", "Path(L)", "Impr%(L)", "Gate(M)", "Path(M)", "Impr%(M)",
            "Gate(H)", "Path(H)", "Impr%(H)",
        ],
        &rows,
    );
    println!("(paper averages: 4.89 / 5.69 / 7.59 % for low / medium / high)");
}
