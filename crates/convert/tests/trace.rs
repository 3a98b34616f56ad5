//! The stage spans of one `convert` call: a `convert`, an `sta` (with
//! its timing pass) and a `verify` span, each carrying the counters its
//! stage added. The
//! tracing flag is process-global, so this is the only test in its
//! binary.

use retime_convert::{convert, ConvertConfig};
use retime_liberty::Library;
use retime_netlist::bench;
use retime_trace::{SpanRecord, Value};

const S27_LIKE: &str = "\
INPUT(G0)
INPUT(G1)
INPUT(G2)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G10 = NOR(G0, G14)
G11 = NOR(G5, G9)
G9 = NAND(G1, G2)
G14 = NOT(G6)
G17 = NOR(G11, G14)
";

/// One line per record: depth-indented name, then its integer counters.
fn structure(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&"  ".repeat(r.depth as usize));
        out.push_str(r.name);
        for (k, v) in &r.attrs {
            if let Value::U64(n) = v {
                out.push_str(&format!(" {k}={n}"));
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn convert_traces_its_stages_with_their_counters() {
    let lib = Library::fdsoi28();
    let src = bench::parse("s27ish", S27_LIKE).unwrap();
    let _ = retime_trace::take_records();
    retime_trace::set_enabled(true);
    let conv = convert(&src, &lib, &ConvertConfig::default());
    retime_trace::set_enabled(false);
    let records = retime_trace::take_records();
    conv.expect("converts");

    assert_eq!(
        structure(&records),
        "convert convert_ffs=2 convert_masters=2 convert_slaves=2\n\
         sta\n  sta_full_pass\n\
         verify convert_checked_cycles=256\n"
    );
}
