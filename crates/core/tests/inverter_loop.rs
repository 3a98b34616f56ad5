//! The inverter loop ([`inverter_loop`]) at 32k gates through the full
//! G-RAR flow. Its one target gates the pseudo node on the whole chain,
//! which made the earlier min-cost-flow engines superlinear. The bound
//! is on the min cut's work counters rather than wall time, so it
//! holds in any build profile: pushes plus relabels stay within the
//! cloud's nodes plus edges (measured: 14042 pushes, no relabels,
//! against 65541 nodes plus edges).
//!
//! Tracing is process-global, so this file holds a single test.

use retime_circuits::{inverter_loop, relaxed_clock};
use retime_core::{grar, GrarConfig};
use retime_liberty::{EdlOverhead, Library};
use retime_netlist::CombCloud;
use retime_trace::Value;

const GATES: usize = 32 * 1024;

/// Allowed pushes + relabels per cloud node and edge: 4.7× the
/// measured work.
const WORK_PER_ELEMENT: u64 = 1;

#[test]
fn grar_min_cut_work_is_linear_on_the_inverter_loop() {
    let netlist = inverter_loop(GATES).expect("builds");
    let cloud = CombCloud::extract(&netlist).expect("extracts");
    let lib = Library::fdsoi28();
    let clock = relaxed_clock(&cloud, &lib).expect("sta");

    let _ = retime_trace::take_records();
    retime_trace::set_enabled(true);
    let report = grar(&cloud, &lib, clock, &GrarConfig::new(EdlOverhead::MEDIUM));
    retime_trace::set_enabled(false);
    let report = report.expect("G-RAR runs");
    assert_eq!(report.targets, 1, "the flop's endpoint is the one target");

    let records = retime_trace::take_records();
    let cuts: Vec<_> = records.iter().filter(|r| r.name == "min_cut").collect();
    assert_eq!(cuts.len(), 1, "one min-cut solve");
    let counter = |name: &str| {
        cuts[0]
            .attrs
            .iter()
            .find_map(|(k, v)| match v {
                Value::U64(x) if *k == name => Some(*x),
                _ => None,
            })
            .unwrap_or_else(|| panic!("min_cut carries {name}"))
    };
    let work = counter("pushes") + counter("relabels");
    let size = (cloud.len() + cloud.edge_count()) as u64;
    assert!(
        work <= WORK_PER_ELEMENT * size,
        "{work} pushes + relabels exceed {WORK_PER_ELEMENT} × {size} cloud nodes + edges"
    );
}
