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

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::fmt::Write as _;

use crate::cell::{Cell, CellId, Gate};
use crate::error::NetlistError;
use crate::graph::{topo_sort, Csr};
use crate::names::NameMap;
use crate::netlist::Netlist;

/// Parses a `.bench` netlist from a string: [`read`], then
/// [`Table::to_netlist`] in statement order.
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
    let table = read(src)?;
    table.to_netlist(name, &table.statement_order())
}

/// A `.bench` program read into a table of its statements, every check
/// of [`parse`] made. Net names stay slices of the source; fan-ins are
/// resolved to cell indices. A cell is an `INPUT` or a gate statement,
/// numbered in statement order; `OUTPUT` statements are kept apart, as
/// the cells they observe.
///
/// The table is everything a cache key and a build need: [`Table::write`]
/// in [`Table::canonical_order`] gives the canonical text, and
/// [`Table::to_netlist`] in that order gives the netlist [`parse`] reads
/// from that text, without writing or reading it.
#[derive(Debug, Clone)]
pub struct Table<'a> {
    /// Each cell's net name.
    names: Vec<&'a str>,
    /// Each cell's kind ([`Gate::Input`] for an input).
    gates: Vec<Gate>,
    /// Cell `c`'s fan-ins are `fanins[fanin_at[c]..fanin_at[c + 1]]`.
    fanin_at: Vec<usize>,
    /// Fan-in cells, in cell and pin order.
    fanins: Vec<usize>,
    /// The cell each `OUTPUT` statement observes, in statement order.
    outputs: Vec<usize>,
}

/// An order of a [`Table`]'s statements: its cells, then its outputs.
/// Output `k` of the order is named `{net}__po{k}` when built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    cells: Vec<usize>,
    outputs: Vec<usize>,
}

/// Reads a `.bench` program into its statement table, making every
/// check [`parse`] makes, in the same order and with the same errors:
/// every line is read first (the first malformed line wins), then
/// duplicate nets and arities in statement order, then dangling fan-ins
/// in statement and pin order, then each `OUTPUT` in turn (a dangling
/// net, then a `{net}__po{k}` marker name taken by a net), then
/// combinational cycles.
///
/// # Errors
/// As [`parse`].
///
/// # Example
/// ```
/// # fn main() -> Result<(), retime_netlist::NetlistError> {
/// use retime_netlist::bench;
/// let table = bench::read("OUTPUT(o)\no = AND(b, a)\nINPUT(b)\nINPUT(a)\n")?;
/// let canonical = table.canonical_order();
/// let text = table.write(&canonical);
/// assert_eq!(text, "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(b, a)\n");
/// assert_eq!(table.to_netlist("x", &canonical)?, bench::parse("x", &text)?);
/// # Ok(())
/// # }
/// ```
pub fn read(src: &str) -> Result<Table<'_>, NetlistError> {
    // Room for statements of about 16 bytes.
    let lines = src.len() / 16 + 1;
    let mut names: Vec<&str> = Vec::with_capacity(lines);
    let mut gates: Vec<Gate> = Vec::with_capacity(lines);
    let mut fanin_at: Vec<usize> = Vec::with_capacity(lines + 1);
    // Fan-in and `OUTPUT` names, resolved once every net is bound.
    let mut pins: Vec<&str> = Vec::with_capacity(2 * lines);
    let mut observed: Vec<&str> = Vec::new();
    let mut index: NameMap<&str, usize> =
        NameMap::with_capacity_and_hasher(lines, Default::default());
    // The first duplicate or arity error in statement order, reported
    // only once every line has read: a malformed line anywhere wins.
    let mut bind_error: Option<NetlistError> = None;
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
        let first = pins.len();
        let (net, gate) = if let Some(rest) = strip_call(line, "INPUT") {
            (rest.trim(), Gate::Input)
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            observed.push(rest.trim());
            continue;
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
            pins.extend(
                rhs[open + 1..rhs.len() - 1]
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty()),
            );
            if out.is_empty() {
                return Err(perr("empty output net name"));
            }
            (out, gate)
        } else {
            return Err(perr("unrecognized statement"));
        };
        if bind_error.is_none() {
            match index.entry(net) {
                Entry::Occupied(_) => {
                    bind_error = Some(NetlistError::Parse {
                        line: lno,
                        message: format!("net `{net}` defined twice"),
                    });
                }
                Entry::Vacant(slot) => {
                    slot.insert(names.len());
                    let (lo, hi) = gate.arity();
                    let got = pins.len() - first;
                    if got < lo || got > hi {
                        bind_error = Some(NetlistError::BadArity {
                            cell: net.to_string(),
                            got,
                        });
                    }
                }
            }
        }
        names.push(net);
        gates.push(gate);
        fanin_at.push(first);
    }
    if let Some(e) = bind_error {
        return Err(e);
    }
    fanin_at.push(pins.len());

    let resolve = |net: &str| {
        index
            .get(net)
            .copied()
            .ok_or_else(|| NetlistError::UnknownName(net.to_string()))
    };
    let fanins = pins
        .iter()
        .map(|&net| resolve(net))
        .collect::<Result<Vec<_>, _>>()?;
    // Markers are bound after every net, in statement order; two
    // markers never share a name (each ends in its own ordinal).
    let mut marker = String::new();
    let outputs = observed
        .iter()
        .enumerate()
        .map(|(k, &net)| {
            let cell = resolve(net)?;
            marker.clear();
            let _ = write!(marker, "{net}__po{k}");
            if index.contains_key(marker.as_str()) {
                return Err(NetlistError::DuplicateName(marker.clone()));
            }
            Ok(cell)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let table = Table {
        names,
        gates,
        fanin_at,
        fanins,
        outputs,
    };
    table.check_acyclic()?;
    Ok(table)
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

impl<'a> Table<'a> {
    /// A netlist's statements, for [`canonical`] only: every cell,
    /// output markers included (the canonical order leaves them out),
    /// with the markers' drivers as the outputs.
    fn of(n: &'a Netlist) -> Table<'a> {
        let cells = n.cells();
        let mut fanin_at = Vec::with_capacity(cells.len() + 1);
        let mut fanins = Vec::new();
        for c in cells {
            fanin_at.push(fanins.len());
            fanins.extend(c.fanin.iter().map(|f| f.index()));
        }
        fanin_at.push(fanins.len());
        Table {
            names: cells.iter().map(|c| c.name.as_str()).collect(),
            gates: cells.iter().map(|c| c.gate).collect(),
            fanin_at,
            fanins,
            outputs: n
                .outputs()
                .iter()
                .map(|&o| n.cell(o).fanin[0].index())
                .collect(),
        }
    }

    fn len(&self) -> usize {
        self.names.len()
    }

    fn fanin(&self, c: usize) -> &[usize] {
        &self.fanins[self.fanin_at[c]..self.fanin_at[c + 1]]
    }

    /// The statements as the source gives them.
    pub fn statement_order(&self) -> Order {
        Order {
            cells: (0..self.len()).collect(),
            outputs: self.outputs.clone(),
        }
    }

    /// The canonical order: inputs sorted by name, gates sorted by their
    /// statement text `name = KW(a, b)`, outputs sorted by the name of
    /// the net they observe. Fan-in order inside a gate is pin order and
    /// is kept.
    pub fn canonical_order(&self) -> Order {
        let mut inputs = Vec::new();
        let mut gates = Vec::new();
        for (c, &gate) in self.gates.iter().enumerate() {
            match gate {
                Gate::Input => inputs.push(c),
                Gate::Output => {}
                _ => gates.push(c),
            }
        }
        inputs.sort_unstable_by_key(|&c| self.names[c]);
        gates.sort_unstable_by(|&a, &b| self.cmp_statements(a, b));
        inputs.append(&mut gates);
        let mut outputs = self.outputs.clone();
        outputs.sort_unstable_by_key(|&c| self.names[c]);
        Order {
            cells: inputs,
            outputs,
        }
    }

    /// Orders two gates as their statement lines sort. Names that differ
    /// within the shorter one decide alone. When one prefixes the other,
    /// the shorter line goes on with ` = `, so the longer name's next
    /// byte decides against that space, and only a space there needs
    /// the lines compared byte by byte.
    fn cmp_statements(&self, a: usize, b: usize) -> Ordering {
        let (x, y) = (self.names[a].as_bytes(), self.names[b].as_bytes());
        let common = x.len().min(y.len());
        let next = |name: &[u8]| name.get(common).copied().unwrap_or(b' ');
        x[..common]
            .cmp(&y[..common])
            .then_with(|| next(x).cmp(&next(y)))
            .then_with(|| self.statement_bytes(a).cmp(self.statement_bytes(b)))
    }

    /// The bytes of a gate's statement in normal form, without its
    /// newline.
    fn statement_bytes(&self, c: usize) -> impl Iterator<Item = u8> + '_ {
        let kw = self.gates[c].bench_name().unwrap_or_default();
        let pins = self.fanin(c).iter().enumerate().flat_map(move |(i, &f)| {
            let sep: &[u8] = if i == 0 { b"" } else { b", " };
            sep.iter().chain(self.names[f].as_bytes()).copied()
        });
        self.names[c]
            .bytes()
            .chain(*b" = ")
            .chain(kw.bytes())
            .chain(*b"(")
            .chain(pins)
            .chain(*b")")
    }

    /// Writes the statements in `order` in normal form, into one exactly
    /// sized string: `INPUT(net)` lines, `OUTPUT(net)` lines, then one
    /// `name = KW(a, b)` line per gate; no comments, no blank lines. In
    /// [`Table::canonical_order`] this is the canonical text.
    pub fn write(&self, order: &Order) -> String {
        let pins = |c: usize| -> usize {
            let fanin = self.fanin(c);
            fanin.iter().map(|&f| self.names[f].len()).sum::<usize>()
                + 2 * fanin.len().saturating_sub(1)
        };
        let len = order
            .cells
            .iter()
            .map(|&c| match self.gates[c].bench_name() {
                Some(kw) => self.names[c].len() + kw.len() + pins(c) + 6,
                None => self.names[c].len() + 8,
            })
            .sum::<usize>()
            + order
                .outputs
                .iter()
                .map(|&c| self.names[c].len() + 9)
                .sum::<usize>();
        let mut out = String::with_capacity(len);
        for &c in &order.cells {
            if self.gates[c] == Gate::Input {
                out.push_str("INPUT(");
                out.push_str(self.names[c]);
                out.push_str(")\n");
            }
        }
        for &c in &order.outputs {
            out.push_str("OUTPUT(");
            out.push_str(self.names[c]);
            out.push_str(")\n");
        }
        for &c in &order.cells {
            let Some(kw) = self.gates[c].bench_name() else {
                continue;
            };
            out.push_str(self.names[c]);
            out.push_str(" = ");
            out.push_str(kw);
            out.push('(');
            for (i, &f) in self.fanin(c).iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(self.names[f]);
            }
            out.push_str(")\n");
        }
        out
    }

    /// Builds the netlist of the statements in `order`: cells in order,
    /// then one `{net}__po{k}` marker per output — exactly what [`parse`]
    /// gives on [`Table::write`]'s text for the same order.
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateName`] for the first marker whose
    /// name in this order is a net's. [`read`] has ruled that out for
    /// the statement order, not for every order.
    pub fn to_netlist(&self, name: &str, order: &Order) -> Result<Netlist, NetlistError> {
        let mut id = vec![CellId(0); self.len()];
        for (new, &c) in order.cells.iter().enumerate() {
            id[c] = CellId(new as u32);
        }
        let mut cells = Vec::with_capacity(order.cells.len() + order.outputs.len());
        let mut inputs = Vec::new();
        for &c in &order.cells {
            let gate = self.gates[c];
            if gate == Gate::Input {
                inputs.push(CellId(cells.len() as u32));
            }
            let fanin = self.fanin(c).iter().map(|&f| id[f]).collect();
            cells.push(Cell::new(self.names[c], gate, fanin));
        }
        let mut outputs = Vec::with_capacity(order.outputs.len());
        for (k, &c) in order.outputs.iter().enumerate() {
            outputs.push(CellId(cells.len() as u32));
            let marker = format!("{}__po{k}", self.names[c]);
            cells.push(Cell::new(marker, Gate::Output, vec![id[c]]));
        }
        Netlist::from_cells(name, cells, inputs, outputs)
    }

    /// [`topo_sort`] over the combinational edges — those out of a cell
    /// that is neither sequential nor an input. The witness of a cycle is
    /// the first cell, in statement order, left unordered.
    fn check_acyclic(&self) -> Result<(), NetlistError> {
        let fanout = Csr::group(
            self.len(),
            (0..self.len()).flat_map(|v| self.fanin(v).iter().map(move |&u| (u, CellId(v as u32)))),
        );
        topo_sort(&fanout, |u| {
            self.gates[u].is_sequential() || self.gates[u] == Gate::Input
        })
        .map(|_| ())
        .map_err(|c| NetlistError::CombinationalCycle {
            witness: self.names[c].to_string(),
        })
    }
}

/// Canonical `.bench` form of a netlist: [`Table::write`] in
/// [`Table::canonical_order`] — `INPUT` lines sorted by name, `OUTPUT`
/// lines sorted by driver name, gate and latch statements sorted by
/// their text; whitespace and comments normalized away. Parsing the
/// canonical text reproduces the same canonical text.
pub fn canonical(n: &Netlist) -> String {
    let table = Table::of(n);
    table.write(&table.canonical_order())
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
