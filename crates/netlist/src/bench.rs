//! ISCAS89 `.bench` format reader and writer.
//!
//! The `.bench` format is the distribution format of the ISCAS89 sequential
//! benchmark suite used in the paper's evaluation:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G10 = NAND(G0, G1)
//! G11 = DFF(G10)
//! ```
//!
//! Forward references are allowed (a gate may use a net defined later),
//! matching the official benchmark files.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;

use crate::cell::{CellId, Gate};
use crate::error::NetlistError;
use crate::netlist::Netlist;

/// Parses a `.bench` netlist from a string.
///
/// # Errors
/// Returns [`NetlistError::Parse`] on malformed lines,
/// [`NetlistError::UnknownName`] on dangling net references, and arity /
/// duplicate errors from netlist construction.
///
/// # Example
/// ```
/// # fn main() -> Result<(), retime_netlist::NetlistError> {
/// let src = "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\n";
/// let n = retime_netlist::bench::parse("and2", src)?;
/// assert_eq!(n.stats().gates, 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(name: &str, src: &str) -> Result<Netlist, NetlistError> {
    /// One statement, its names borrowed from `src`.
    enum Item<'a> {
        Input(&'a str),
        Output(&'a str),
        /// A gate: its output net, its type, and its fan-in names as a
        /// range of the shared `fanins` list.
        Gate {
            out: &'a str,
            gate: Gate,
            ins: Range<usize>,
        },
    }
    let statements = src.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut items: Vec<(usize, Item<'_>)> = Vec::with_capacity(statements);
    let mut fanins: Vec<&str> = Vec::with_capacity(2 * statements);
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.split_once('#').map_or(raw, |(code, _)| code).trim();
        if line.is_empty() {
            continue;
        }
        let lno = lineno + 1;
        let perr = |m: &str| NetlistError::Parse {
            line: lno,
            message: m.to_string(),
        };
        if let Some(rest) = strip_call(line, "INPUT") {
            items.push((lno, Item::Input(rest.trim())));
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            items.push((lno, Item::Output(rest.trim())));
        } else if let Some(eq) = line.find('=') {
            let out = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| perr("missing `(` in gate"))?;
            if !rhs.ends_with(')') {
                return Err(perr("missing `)` in gate"));
            }
            let gname = rhs[..open].trim();
            let gate = Gate::from_bench_name(gname)
                .ok_or_else(|| perr(&format!("unknown gate type `{gname}`")))?;
            let first = fanins.len();
            fanins.extend(
                rhs[open + 1..rhs.len() - 1]
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty()),
            );
            if out.is_empty() {
                return Err(perr("empty output net name"));
            }
            let ins = first..fanins.len();
            items.push((lno, Item::Gate { out, gate, ins }));
        } else {
            return Err(perr("unrecognized statement"));
        }
    }

    // Bind every net before resolving any fan-in, so forward references
    // read. Gates get placeholder fan-ins of the declared width here.
    let mut n = Netlist::with_capacity(name, items.len());
    let mut ids: HashMap<&str, CellId> = HashMap::with_capacity(items.len());
    let mut gate_ids: Vec<CellId> = Vec::with_capacity(items.len());
    let mut placeholder: Vec<CellId> = Vec::new();
    for &(lno, ref item) in &items {
        let (net, slot) = match *item {
            Item::Input(net) | Item::Gate { out: net, .. } => (net, ids.entry(net)),
            Item::Output(_) => continue,
        };
        let Entry::Vacant(slot) = slot else {
            return Err(NetlistError::Parse {
                line: lno,
                message: format!("net `{net}` defined twice"),
            });
        };
        let id = match *item {
            Item::Gate { gate, ref ins, .. } => {
                let (lo, hi) = gate.arity();
                if ins.len() < lo || ins.len() > hi {
                    return Err(NetlistError::BadArity {
                        cell: net.to_string(),
                        got: ins.len(),
                    });
                }
                placeholder.resize(placeholder.len().max(ins.len()), CellId(0));
                let id = n.add_gate(net, gate, &placeholder[..ins.len()])?;
                gate_ids.push(id);
                id
            }
            _ => n.add_input(net),
        };
        slot.insert(id);
    }
    // Resolve fan-ins, in statement and pin order, then outputs.
    let gates = items.iter().filter_map(|(_, item)| match item {
        Item::Gate { ins, .. } => Some(ins),
        _ => None,
    });
    for (&id, ins) in gate_ids.iter().zip(gates) {
        for (pin, &net) in n.fanin_mut(id).iter_mut().zip(&fanins[ins.clone()]) {
            *pin = ids
                .get(net)
                .copied()
                .ok_or_else(|| NetlistError::UnknownName(net.to_string()))?;
        }
    }
    let mut po_no = 0usize;
    for (_, item) in &items {
        if let Item::Output(net) = *item {
            let drv = ids
                .get(net)
                .copied()
                .ok_or_else(|| NetlistError::UnknownName(net.to_string()))?;
            // Ordinal suffix: the same net may legitimately be observed by
            // several outputs.
            n.add_output(format!("{net}__po{po_no}"), drv)?;
            po_no += 1;
        }
    }
    n.validate()?;
    Ok(n)
}

/// `rest` of a `KW(rest)` statement, with the keyword matched
/// case-insensitively in place.
fn strip_call<'a>(line: &'a str, kw: &str) -> Option<&'a str> {
    let head = line.get(..kw.len())?;
    if !head.eq_ignore_ascii_case(kw) {
        return None;
    }
    line[kw.len()..].trim().strip_prefix('(')?.strip_suffix(')')
}

/// Writes a netlist in `.bench` syntax.
///
/// Output markers are emitted as `OUTPUT(net)` lines referencing their
/// driver; master/slave latches use the `LATCHM`/`LATCHS` extension
/// keywords so converted designs round-trip.
pub fn write(n: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", n.name()));
    for &i in n.inputs() {
        out.push_str(&format!("INPUT({})\n", n.cell(i).name));
    }
    for &o in n.outputs() {
        let drv = n.cell(o).fanin[0];
        out.push_str(&format!("OUTPUT({})\n", n.cell(drv).name));
    }
    for c in n.cells() {
        if let Some(kw) = c.gate.bench_name() {
            let ins: Vec<&str> = c.fanin.iter().map(|&f| n.cell(f).name.as_str()).collect();
            out.push_str(&format!("{} = {}({})\n", c.name, kw, ins.join(", ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const S27_LIKE: &str = "\
# tiny sequential circuit in the style of s27
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

    #[test]
    fn parse_forward_references() {
        let n = parse("s27ish", S27_LIKE).unwrap();
        let s = n.stats();
        assert_eq!(s.inputs, 3);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.dffs, 2);
        assert_eq!(s.gates, 5);
        // G5's D pin is G10.
        let g5 = n.find("G5").unwrap();
        assert_eq!(n.cell(g5).fanin, vec![n.find("G10").unwrap()]);
    }

    #[test]
    fn round_trip() {
        let n = parse("rt", S27_LIKE).unwrap();
        let text = write(&n);
        let n2 = parse("rt", &text).unwrap();
        assert_eq!(n.stats(), n2.stats());
        // Same connectivity by name.
        for c in n.cells() {
            if c.gate == crate::Gate::Output {
                continue;
            }
            let id2 = n2.find(&c.name).unwrap();
            let f1: Vec<&str> = c.fanin.iter().map(|&f| n.cell(f).name.as_str()).collect();
            let f2: Vec<&str> = n2
                .cell(id2)
                .fanin
                .iter()
                .map(|&f| n2.cell(f).name.as_str())
                .collect();
            assert_eq!(f1, f2, "fanin mismatch for {}", c.name);
        }
    }

    #[test]
    fn round_trip_latch_netlist() {
        let n = parse("rt", S27_LIKE).unwrap().to_master_slave().unwrap();
        let text = write(&n);
        let n2 = parse("rt", &text).unwrap();
        assert_eq!(n.stats(), n2.stats());
        assert_eq!(n2.stats().masters, 2);
        assert_eq!(n2.stats().slaves, 2);
    }

    #[test]
    fn rejects_unknown_gate() {
        let r = parse("x", "INPUT(a)\nz = FOO(a)\n");
        assert!(matches!(r, Err(NetlistError::Parse { line: 2, .. })));
    }

    #[test]
    fn rejects_dangling_reference() {
        let r = parse("x", "INPUT(a)\nz = AND(a, ghost)\nOUTPUT(z)\n");
        assert_eq!(r, Err(NetlistError::UnknownName("ghost".into())));
    }

    #[test]
    fn rejects_double_definition() {
        let r = parse("x", "INPUT(a)\na = NOT(a)\n");
        assert!(matches!(r, Err(NetlistError::Parse { line: 2, .. })));
    }

    #[test]
    fn rejects_missing_paren() {
        let r = parse("x", "INPUT(a)\nz = NOT(a\n");
        assert!(matches!(r, Err(NetlistError::Parse { .. })));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let n = parse("x", "\n# hi\nINPUT(a)  # trailing\n\nOUTPUT(a)\n").unwrap();
        assert_eq!(n.stats().inputs, 1);
        assert_eq!(n.stats().outputs, 1);
    }

    #[test]
    fn case_insensitive_keywords() {
        let n = parse("x", "input(a)\noutput(z)\nz = nand(a, a)\n").unwrap();
        assert_eq!(n.stats().gates, 1);
    }
}
