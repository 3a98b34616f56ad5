//! EDIF 2.0.0 netlist reader and writer.
//!
//! The reader lowers a structural EDIF 2.0.0 description into a
//! [`retime_netlist::Netlist`], sitting alongside the `.bench` reader
//! as the second input format of the pipeline. It understands the
//! subset every structural-netlist EDIF uses:
//!
//! * `(edif name … (library … (cell … (view … (interface …)
//!   (contents …)))))` — the last cell with contents (or the cell a
//!   `(design …)` form names) is the top;
//! * `(port name (direction INPUT|OUTPUT))` interface ports;
//! * `(instance name (viewRef v (cellRef PRIM …)))` instances whose
//!   `cellRef` names a netlist primitive (`AND`, `NAND`, …, `DFF`,
//!   `LATCHM`, `LATCHS` — the `.bench` vocabulary, case-insensitive);
//! * `(net name (joined (portRef p (instanceRef i)) …))` connectivity,
//!   with `D` / `I<k>` / `A`–`H` input pins and `Q`/`Y`/`O`/`Z`/`OUT`
//!   output pins;
//! * `(rename ident "original")` anywhere a name may appear.
//!
//! Anything else (status, comments, properties, technology sections) is
//! skipped. Keywords are matched case-insensitively; identifiers are
//! case-significant. All failures are structured [`ConvertError`]s —
//! the reader never panics on hostile input.
//!
//! The writer emits the same dialect deterministically (instances in
//! cell order, one net per driver), so netlist → [`write()`] → [`parse`]
//! reproduces the netlist structurally — the round-trip property the
//! proptest battery pins down.

use std::collections::HashMap;

use retime_netlist::{CellId, Gate, Netlist};

use crate::atom::{Atom, Interner};
use crate::error::ConvertError;
use crate::sexpr::{self, Limits, Sexpr};

/// Parse statistics surfaced as trace counters and bench columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdifStats {
    /// Distinct strings interned while parsing.
    pub atoms: usize,
    /// Instances in the top cell.
    pub instances: usize,
    /// Nets in the top cell.
    pub nets: usize,
    /// Library cells declared (primitive interfaces + top).
    pub cells: usize,
}

/// A parsed EDIF design: the lowered netlist plus parse statistics.
#[derive(Debug)]
pub struct EdifDesign {
    /// The top cell lowered onto the netlist substrate.
    pub netlist: Netlist,
    /// Interner/instance/net counts.
    pub stats: EdifStats,
}

/// Parses EDIF source into a netlist (see the module docs for the
/// accepted subset).
///
/// # Errors
/// Returns a structured [`ConvertError`]; hostile input never panics.
pub fn parse(src: &str) -> Result<Netlist, ConvertError> {
    parse_full(src).map(|d| d.netlist)
}

/// [`parse`] returning the design with its [`EdifStats`].
///
/// # Errors
/// Returns a structured [`ConvertError`]; hostile input never panics.
pub fn parse_full(src: &str) -> Result<EdifDesign, ConvertError> {
    let _span = retime_trace::span("edif_parse");
    let mut interner = Interner::new();
    let forms = sexpr::parse_with_limits(src, &mut interner, Limits::default())?;
    lower(&forms, &interner)
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct Reader<'a> {
    interner: &'a Interner,
}

/// One end of a net: a port on an instance, or a top-level port.
#[derive(Debug)]
struct PortRef {
    port: Atom,
    instance: Option<Atom>,
}

/// The top cell as read, every name still an interned [`Atom`].
#[derive(Debug)]
struct TopCell {
    name: Atom,
    inputs: Vec<Atom>,
    outputs: Vec<Atom>,
    instances: Vec<(Atom, Gate)>,
    nets: Vec<(Atom, Vec<PortRef>)>,
}

fn lower(forms: &[Sexpr], interner: &Interner) -> Result<EdifDesign, ConvertError> {
    let r = Reader { interner };
    let edif = forms
        .iter()
        .find_map(|f| r.list_with_kw(f, "edif"))
        .ok_or(ConvertError::MissingSection("edif"))?;

    // Collect every (cell …) under every (library …) / (external …),
    // and the optional (design …) naming the top cell.
    let mut cells: Vec<&[Sexpr]> = Vec::new();
    let mut design_top: Option<Atom> = None;
    for item in &edif[1..] {
        if let Some(lib) = r
            .list_with_kw(item, "library")
            .or_else(|| r.list_with_kw(item, "external"))
        {
            for form in &lib[1..] {
                if let Some(cell) = r.list_with_kw(form, "cell") {
                    cells.push(cell);
                }
            }
        } else if let Some(design) = r.list_with_kw(item, "design") {
            for form in &design[1..] {
                if let Some(cr) = r.list_with_kw(form, "cellRef") {
                    design_top = Some(r.name_of(cr.get(1))?);
                }
            }
        }
    }
    if cells.is_empty() {
        return Err(ConvertError::MissingSection("cell"));
    }

    let top_form = select_top(&r, &cells, design_top)?;
    let top = r.read_top_cell(top_form)?;
    let netlist = build_netlist(&top, interner)?;
    Ok(EdifDesign {
        netlist,
        stats: EdifStats {
            atoms: interner.len(),
            instances: top.instances.len(),
            nets: top.nets.len(),
            cells: cells.len(),
        },
    })
}

/// The `(design …)`-named cell when present, else the last cell with a
/// non-empty `contents`, else the last cell.
fn select_top<'a>(
    r: &Reader<'_>,
    cells: &[&'a [Sexpr]],
    design_top: Option<Atom>,
) -> Result<&'a [Sexpr], ConvertError> {
    if let Some(wanted) = design_top {
        for cell in cells {
            if r.name_of(cell.get(1))? == wanted {
                return Ok(cell);
            }
        }
        return Err(ConvertError::UnknownCell(r.text(wanted).to_string()));
    }
    for cell in cells.iter().rev() {
        if let Some(view) = r.find_kw(&cell[1..], "view") {
            if let Some(contents) = r.find_kw(&view[1..], "contents") {
                if contents.len() > 1 {
                    return Ok(cell);
                }
            }
        }
    }
    Ok(cells[cells.len() - 1])
}

impl Reader<'_> {
    /// `sx` as a list whose head atom equals `kw` case-insensitively.
    fn list_with_kw<'b>(&self, sx: &'b Sexpr, kw: &str) -> Option<&'b [Sexpr]> {
        let items = sx.as_list()?;
        let head = items.first()?.as_atom()?;
        self.interner
            .resolve(head)
            .eq_ignore_ascii_case(kw)
            .then_some(items)
    }

    /// First child form with keyword `kw`.
    fn find_kw<'b>(&self, items: &'b [Sexpr], kw: &str) -> Option<&'b [Sexpr]> {
        items.iter().find_map(|sx| self.list_with_kw(sx, kw))
    }

    fn text(&self, a: Atom) -> &str {
        self.interner.resolve(a)
    }

    /// Reads a name position: a bare identifier, a string, or a
    /// `(rename ident "original")` form — the original name wins so the
    /// writer's escaping round-trips.
    fn name_of(&self, sx: Option<&Sexpr>) -> Result<Atom, ConvertError> {
        let name = match sx {
            Some(Sexpr::Atom(a)) | Some(Sexpr::Str(a)) => *a,
            Some(list @ Sexpr::List(_)) => {
                let rename = self.list_with_kw(list, "rename").ok_or_else(|| {
                    ConvertError::BadStructure("expected a name or (rename …)".into())
                })?;
                match rename.get(2).or_else(|| rename.get(1)) {
                    Some(Sexpr::Str(a)) | Some(Sexpr::Atom(a)) => *a,
                    _ => return Err(ConvertError::BadStructure("empty (rename …)".into())),
                }
            }
            None => return Err(ConvertError::BadStructure("missing name".into())),
        };
        check_name(self.text(name))?;
        Ok(name)
    }

    fn read_top_cell(&self, cell: &[Sexpr]) -> Result<TopCell, ConvertError> {
        let name = self.name_of(cell.get(1))?;
        let view = self
            .find_kw(&cell[1..], "view")
            .ok_or(ConvertError::MissingSection("view"))?;
        let interface = self
            .find_kw(&view[1..], "interface")
            .ok_or(ConvertError::MissingSection("interface"))?;

        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for form in &interface[1..] {
            let Some(port) = self.list_with_kw(form, "port") else {
                continue;
            };
            let pname = self.name_of(port.get(1))?;
            let dir = self
                .find_kw(&port[1..], "direction")
                .and_then(|d| d.get(1))
                .and_then(Sexpr::as_atom)
                .map(|a| self.text(a));
            match dir {
                Some(d) if d.eq_ignore_ascii_case("INPUT") => inputs.push(pname),
                Some(d) if d.eq_ignore_ascii_case("OUTPUT") => outputs.push(pname),
                Some(other) => {
                    return Err(ConvertError::BadStructure(format!(
                        "port `{}` has unsupported direction `{}`",
                        self.text(pname),
                        other.to_ascii_uppercase()
                    )))
                }
                None => {
                    return Err(ConvertError::BadStructure(format!(
                        "port `{}` has no (direction …)",
                        self.text(pname)
                    )))
                }
            }
        }

        let mut instances = Vec::new();
        let mut nets = Vec::new();
        if let Some(contents) = self.find_kw(&view[1..], "contents") {
            for form in &contents[1..] {
                if let Some(inst) = self.list_with_kw(form, "instance") {
                    let iname = self.name_of(inst.get(1))?;
                    let cell_ref = self
                        .find_kw(&inst[1..], "viewRef")
                        .and_then(|vr| self.find_kw(&vr[1..], "cellRef"))
                        .or_else(|| self.find_kw(&inst[1..], "cellRef"))
                        .ok_or_else(|| {
                            ConvertError::BadStructure(format!(
                                "instance `{}` has no (cellRef …)",
                                self.text(iname)
                            ))
                        })?;
                    let cname = self.text(self.name_of(cell_ref.get(1))?);
                    let gate = Gate::from_bench_name(cname)
                        .ok_or_else(|| ConvertError::UnknownCell(cname.to_string()))?;
                    instances.push((iname, gate));
                } else if let Some(net) = self.list_with_kw(form, "net") {
                    let nname = self.name_of(net.get(1))?;
                    let joined = self.find_kw(&net[1..], "joined").ok_or_else(|| {
                        ConvertError::BadStructure(format!(
                            "net `{}` has no (joined …)",
                            self.text(nname)
                        ))
                    })?;
                    let mut refs = Vec::new();
                    for pr in &joined[1..] {
                        let Some(portref) = self.list_with_kw(pr, "portRef") else {
                            continue;
                        };
                        let port = self.name_of(portref.get(1))?;
                        let instance = match self.find_kw(&portref[1..], "instanceRef") {
                            Some(ir) => Some(self.name_of(ir.get(1))?),
                            None => None,
                        };
                        refs.push(PortRef { port, instance });
                    }
                    nets.push((nname, refs));
                }
            }
        }
        Ok(TopCell {
            name,
            inputs,
            outputs,
            instances,
            nets,
        })
    }
}

/// Names must survive the `.bench` canonical form (`INPUT(name)`,
/// `out = AND(a, b)`), so the structural characters of that syntax are
/// rejected here, at the boundary.
fn check_name(name: &str) -> Result<(), ConvertError> {
    let ok = !name.is_empty()
        && name.chars().all(|c| {
            c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '[' | ']' | '$' | ':' | '/' | '-')
        });
    if ok {
        Ok(())
    } else {
        Err(ConvertError::BadName(name.to_string()))
    }
}

/// What a `portRef` means for the instance it lands on.
enum PinRole {
    Output,
    Input(usize),
}

fn pin_role(gate: Gate, port: &str, instance: &str) -> Result<PinRole, ConvertError> {
    let is = |name: &str| port.eq_ignore_ascii_case(name);
    if ["Q", "Y", "O", "Z", "OUT"].into_iter().any(is) {
        return Ok(PinRole::Output);
    }
    if is("D") && gate.is_sequential() {
        return Ok(PinRole::Input(0));
    }
    // `I<k>` / `IN<k>`; the leading `I` is ASCII, so slicing after it is
    // safe.
    if port
        .as_bytes()
        .first()
        .is_some_and(|c| c.eq_ignore_ascii_case(&b'I'))
    {
        let rest = &port[1..];
        let digits = rest.strip_prefix(['N', 'n']).unwrap_or(rest);
        if let Ok(idx) = digits.parse::<usize>() {
            return Ok(PinRole::Input(idx));
        }
    }
    if let &[c] = port.as_bytes() {
        if let c @ b'A'..=b'H' = c.to_ascii_uppercase() {
            return Ok(PinRole::Input(usize::from(c - b'A')));
        }
    }
    Err(ConvertError::UnknownPort {
        instance: instance.to_string(),
        port: port.to_string(),
    })
}

fn build_netlist(top: &TopCell, interner: &Interner) -> Result<Netlist, ConvertError> {
    let text = |a: Atom| interner.resolve(a);
    let name = |a: Atom| text(a).to_string();
    // Tables keyed by atom: one slot per distinct string of the source.
    let atoms = interner.len();

    // Namespaces: inputs and instances share the cell namespace; output
    // markers are cells too and must not collide with either.
    let mut instance_idx: Vec<Option<usize>> = vec![None; atoms];
    for (i, &(iname, _)) in top.instances.iter().enumerate() {
        if instance_idx[iname.index()].replace(i).is_some() {
            return Err(ConvertError::DuplicateName {
                kind: "instance",
                name: name(iname),
            });
        }
    }
    let mut port_dir: Vec<Option<bool>> = vec![None; atoms]; // true = input
    for &pname in &top.inputs {
        if port_dir[pname.index()].replace(true).is_some() || instance_idx[pname.index()].is_some()
        {
            return Err(ConvertError::DuplicateName {
                kind: "port",
                name: name(pname),
            });
        }
    }
    for &pname in &top.outputs {
        if port_dir[pname.index()].replace(false).is_some() {
            return Err(ConvertError::DuplicateName {
                kind: "port",
                name: name(pname),
            });
        }
    }

    // Resolve every net to one driver and a set of sinks.
    let mut pin_driver: HashMap<(usize, usize), Atom> = HashMap::new(); // (instance, pin) -> driver
    let mut output_driver: Vec<Option<Atom>> = vec![None; atoms]; // top OUTPUT port -> driver
    let mut net_seen = vec![false; atoms];
    for (nname, refs) in &top.nets {
        if std::mem::replace(&mut net_seen[nname.index()], true) {
            return Err(ConvertError::DuplicateName {
                kind: "net",
                name: name(*nname),
            });
        }
        let mut driver: Option<Atom> = None;
        let mut sinks: Vec<(usize, usize)> = Vec::new(); // (instance, pin)
        let mut out_ports: Vec<Atom> = Vec::new();
        for pr in refs {
            match pr.instance {
                Some(iname) => {
                    let idx = instance_idx[iname.index()]
                        .ok_or_else(|| ConvertError::UnknownInstance(name(iname)))?;
                    match pin_role(top.instances[idx].1, text(pr.port), text(iname))? {
                        PinRole::Output => {
                            if driver.replace(iname).is_some() {
                                return Err(ConvertError::MultipleDrivers(name(*nname)));
                            }
                        }
                        PinRole::Input(pin) => sinks.push((idx, pin)),
                    }
                }
                None => match port_dir[pr.port.index()] {
                    Some(true) => {
                        if driver.replace(pr.port).is_some() {
                            return Err(ConvertError::MultipleDrivers(name(*nname)));
                        }
                    }
                    Some(false) => out_ports.push(pr.port),
                    None => {
                        return Err(ConvertError::UnknownPort {
                            instance: "<top>".into(),
                            port: name(pr.port),
                        })
                    }
                },
            }
        }
        if sinks.is_empty() && out_ports.is_empty() {
            continue; // a dangling net is legal
        }
        let driver = driver.ok_or_else(|| ConvertError::Undriven(name(*nname)))?;
        for key in sinks {
            if pin_driver.insert(key, driver).is_some() {
                let (idx, pin) = key;
                return Err(ConvertError::BadStructure(format!(
                    "pin {pin} of instance `{}` is joined by two nets",
                    text(top.instances[idx].0)
                )));
            }
        }
        for port in out_ports {
            if output_driver[port.index()].replace(driver).is_some() {
                return Err(ConvertError::BadStructure(format!(
                    "output port `{}` is joined by two nets",
                    text(port)
                )));
            }
        }
    }

    // Per-instance pin counts must be contiguous and legal for the gate.
    let mut pin_count = vec![0usize; top.instances.len()];
    for &(idx, pin) in pin_driver.keys() {
        pin_count[idx] = pin_count[idx].max(pin + 1);
    }
    for (idx, &(iname, gate)) in top.instances.iter().enumerate() {
        let n = pin_count[idx];
        for pin in 0..n {
            if !pin_driver.contains_key(&(idx, pin)) {
                return Err(ConvertError::BadStructure(format!(
                    "instance `{}` is missing a net on pin {pin}",
                    text(iname)
                )));
            }
        }
        let (lo, hi) = gate.arity();
        if n < lo || n > hi {
            return Err(ConvertError::Netlist(
                retime_netlist::NetlistError::BadArity {
                    cell: name(iname),
                    got: n,
                },
            ));
        }
    }

    // Build: inputs, then instances (placeholder fanin, rewired once all
    // cells exist — EDIF contents order is arbitrary), then outputs.
    let mut n = Netlist::new(name(top.name));
    let mut ids: Vec<Option<CellId>> = vec![None; atoms];
    let id_of = |ids: &[Option<CellId>], a: Atom| {
        ids[a.index()].ok_or_else(|| ConvertError::UnknownInstance(name(a)))
    };
    for &pname in &top.inputs {
        // Collisions were rejected above, so the panicking `add_input`
        // cannot fire here.
        ids[pname.index()] = Some(n.add_input(name(pname)));
    }
    for (idx, &(iname, gate)) in top.instances.iter().enumerate() {
        let id = n.add_gate(name(iname), gate, &vec![CellId(0); pin_count[idx]])?;
        ids[iname.index()] = Some(id);
    }
    for (idx, &(iname, _)) in top.instances.iter().enumerate() {
        let fanin: Vec<CellId> = (0..pin_count[idx])
            .map(|pin| id_of(&ids, pin_driver[&(idx, pin)]))
            .collect::<Result<_, _>>()?;
        n.replace_fanin(id_of(&ids, iname)?, fanin);
    }
    for &pname in &top.outputs {
        let driver =
            output_driver[pname.index()].ok_or_else(|| ConvertError::Undriven(name(pname)))?;
        n.add_output(name(pname), id_of(&ids, driver)?)?;
    }
    n.validate()?;
    Ok(n)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Emits a netlist in the reader's EDIF dialect, deterministically:
/// primitive cells sorted by name, then the top cell with interface
/// ports in declaration order, instances in cell order, and one net per
/// driver. Names that are not clean EDIF identifiers are wrapped in
/// `(rename rN "original")`, which [`parse`] unwraps — so any netlist
/// round-trips structurally.
pub fn write(n: &Netlist) -> String {
    let _span = retime_trace::span("edif_write");
    let mut esc = Escaper::default();
    let mut out = String::with_capacity(n.len() * 96);
    out.push_str(&format!("(edif {}\n", esc.ident(n.name())));
    out.push_str("  (edifVersion 2 0 0)\n  (edifLevel 0)\n");
    out.push_str("  (keywordMap (keywordLevel 0))\n");
    out.push_str("  (status (written (timeStamp 2017 6 18 0 0 0) (program \"retime-convert\")))\n");
    out.push_str("  (library LIB\n    (edifLevel 0)\n    (technology (numberDefinition))\n");

    // Primitive cell declarations for every gate type in use.
    let mut prims: Vec<(&'static str, usize, bool)> = Vec::new(); // (name, max fanin, sequential)
    for c in n.cells() {
        if let Some(kw) = c.gate.bench_name() {
            match prims.iter_mut().find(|p| p.0 == kw) {
                Some(p) => p.1 = p.1.max(c.fanin.len()),
                None => prims.push((kw, c.fanin.len(), c.gate.is_sequential())),
            }
        }
    }
    prims.sort_unstable();
    for (kw, pins, seq) in &prims {
        out.push_str(&format!("    (cell {kw}\n      (cellType GENERIC)\n"));
        out.push_str("      (view netlist (viewType NETLIST)\n        (interface\n");
        if *seq {
            out.push_str("          (port D (direction INPUT))\n");
        } else {
            for pin in 0..*pins {
                out.push_str(&format!("          (port I{pin} (direction INPUT))\n"));
            }
        }
        out.push_str(&format!(
            "          (port {} (direction OUTPUT)))))\n",
            if *seq { "Q" } else { "Y" }
        ));
    }

    // The top cell.
    out.push_str(&format!(
        "    (cell {}\n      (cellType GENERIC)\n      (view netlist (viewType NETLIST)\n",
        esc.ident(n.name())
    ));
    out.push_str("        (interface\n");
    for &i in n.inputs() {
        out.push_str(&format!(
            "          (port {} (direction INPUT))\n",
            esc.ident(&n.cell(i).name)
        ));
    }
    for &o in n.outputs() {
        out.push_str(&format!(
            "          (port {} (direction OUTPUT))\n",
            esc.ident(&n.cell(o).name)
        ));
    }
    out.push_str("        )\n        (contents\n");

    for c in n.cells() {
        if let Some(kw) = c.gate.bench_name() {
            out.push_str(&format!(
                "          (instance {} (viewRef netlist (cellRef {kw} (libraryRef LIB))))\n",
                esc.ident(&c.name)
            ));
        }
    }

    // One net per driver with at least one sink. Sinks are instance
    // input pins and top-level output ports.
    let mut sinks: Vec<Vec<String>> = vec![Vec::new(); n.len()];
    for c in n.cells() {
        match c.gate {
            Gate::Input => {}
            Gate::Output => {
                let drv = c.fanin[0];
                sinks[drv.index()].push(format!("(portRef {})", esc.ident(&c.name)));
            }
            _ => {
                for (pin, &f) in c.fanin.iter().enumerate() {
                    let port = if c.gate.is_sequential() {
                        "D".to_string()
                    } else {
                        format!("I{pin}")
                    };
                    sinks[f.index()].push(format!(
                        "(portRef {port} (instanceRef {}))",
                        esc.ident(&c.name)
                    ));
                }
            }
        }
    }
    for (idx, cell_sinks) in sinks.iter().enumerate() {
        if cell_sinks.is_empty() {
            continue;
        }
        let c = &n.cells()[idx];
        let drv_ref = match c.gate {
            Gate::Input => format!("(portRef {})", esc.ident(&c.name)),
            g if g.is_sequential() => format!("(portRef Q (instanceRef {}))", esc.ident(&c.name)),
            _ => format!("(portRef Y (instanceRef {}))", esc.ident(&c.name)),
        };
        out.push_str(&format!(
            "          (net {} (joined {drv_ref} {}))\n",
            esc.ident(&c.name),
            cell_sinks.join(" ")
        ));
    }
    out.push_str("        )))))\n");
    out
}

/// Wraps names that are not clean EDIF identifiers in `(rename …)`.
#[derive(Default)]
struct Escaper {
    next: usize,
}

impl Escaper {
    fn ident(&mut self, name: &str) -> String {
        let clean = !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if clean {
            name.to_string()
        } else {
            let id = self.next;
            self.next += 1;
            format!("(rename r{id} \"{name}\")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::bench;

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

    fn signature(n: &Netlist) -> String {
        crate::structural_signature(n)
    }

    #[test]
    fn round_trips_a_bench_netlist() {
        let n = bench::parse("s27ish", S27_LIKE).unwrap();
        let text = write(&n);
        let n2 = parse(&text).unwrap();
        assert_eq!(signature(&n), signature(&n2));
        assert_eq!(n2.name(), "s27ish");
    }

    #[test]
    fn round_trips_a_latch_netlist() {
        let n = bench::parse("ms", S27_LIKE)
            .unwrap()
            .to_master_slave()
            .unwrap();
        let n2 = parse(&write(&n)).unwrap();
        assert_eq!(signature(&n), signature(&n2));
        assert_eq!(n2.stats().masters, 2);
        assert_eq!(n2.stats().slaves, 2);
    }

    #[test]
    fn rename_escapes_awkward_names() {
        let mut n = Netlist::new("t");
        let a = n.add_input("3in");
        let g = n.add_gate("mid.0", Gate::Not, &[a]).unwrap();
        n.add_output("out[1]", g).unwrap();
        let text = write(&n);
        assert!(text.contains("(rename r0 \"3in\")"));
        let n2 = parse(&text).unwrap();
        assert_eq!(signature(&n), signature(&n2));
    }

    #[test]
    fn stats_count_atoms_instances_nets() {
        let n = bench::parse("s", S27_LIKE).unwrap();
        let d = parse_full(&write(&n)).unwrap();
        assert_eq!(d.stats.instances, 7);
        assert!(d.stats.nets >= 7);
        assert!(d.stats.atoms > 20);
        assert!(d.stats.cells >= 4);
    }

    #[test]
    fn design_form_selects_the_top_cell() {
        let src = r#"
(edif two
  (library L
    (cell pick (view v (viewType NETLIST)
      (interface (port a (direction INPUT)) (port z (direction OUTPUT)))
      (contents
        (instance g (viewRef v (cellRef NOT (libraryRef L))))
        (net a (joined (portRef a) (portRef I0 (instanceRef g))))
        (net g (joined (portRef Y (instanceRef g)) (portRef z))))))
    (cell other (view v (viewType NETLIST)
      (interface (port b (direction INPUT)) (port w (direction OUTPUT)))
      (contents
        (instance h (viewRef v (cellRef BUFF (libraryRef L))))
        (net b (joined (portRef b) (portRef I0 (instanceRef h))))
        (net h (joined (portRef Y (instanceRef h)) (portRef w)))))))
  (design d (cellRef pick (libraryRef L))))
"#;
        let n = parse(src).unwrap();
        assert_eq!(n.name(), "pick");
        assert_eq!(n.stats().gates, 1);
    }

    #[test]
    fn accepts_letter_pin_names_and_dff_alias_case() {
        let src = r#"
(edif t (library L (cell t (view v (viewType NETLIST)
  (interface (port a (direction INPUT)) (port b (direction INPUT)) (port z (direction OUTPUT)))
  (contents
    (instance and1 (viewRef v (cellRef and (libraryRef L))))
    (instance q1 (viewRef v (cellRef dff (libraryRef L))))
    (net a (joined (portRef a) (portRef A (instanceRef and1))))
    (net b (joined (portRef b) (portRef B (instanceRef and1))))
    (net and1 (joined (portRef Y (instanceRef and1)) (portRef D (instanceRef q1))))
    (net q1 (joined (portRef Q (instanceRef q1)) (portRef z))))))))
"#;
        let n = parse(src).unwrap();
        assert_eq!(n.stats().dffs, 1);
        let q = n.find("q1").unwrap();
        assert_eq!(n.cell(q).fanin, vec![n.find("and1").unwrap()]);
    }

    #[test]
    fn duplicate_instance_is_structured() {
        let src = r#"
(edif t (library L (cell t (view v (viewType NETLIST)
  (interface (port a (direction INPUT)))
  (contents
    (instance g (viewRef v (cellRef NOT (libraryRef L))))
    (instance g (viewRef v (cellRef NOT (libraryRef L)))))))))
"#;
        assert!(matches!(
            parse(src),
            Err(ConvertError::DuplicateName {
                kind: "instance",
                ..
            })
        ));
    }

    #[test]
    fn multiple_drivers_and_undriven_are_structured() {
        let twin = r#"
(edif t (library L (cell t (view v (viewType NETLIST)
  (interface (port a (direction INPUT)) (port z (direction OUTPUT)))
  (contents
    (instance g (viewRef v (cellRef NOT (libraryRef L))))
    (instance h (viewRef v (cellRef NOT (libraryRef L))))
    (net x (joined (portRef Y (instanceRef g)) (portRef Y (instanceRef h)) (portRef z))))))))
"#;
        assert!(matches!(parse(twin), Err(ConvertError::MultipleDrivers(n)) if n == "x"));
        let floating = r#"
(edif t (library L (cell t (view v (viewType NETLIST)
  (interface (port z (direction OUTPUT)))
  (contents
    (net x (joined (portRef z))))))))
"#;
        assert!(matches!(parse(floating), Err(ConvertError::Undriven(_))));
    }

    #[test]
    fn unknown_cell_port_instance_are_structured() {
        let bad_cell = r#"
(edif t (library L (cell t (view v (viewType NETLIST)
  (interface)
  (contents (instance g (viewRef v (cellRef FROB (libraryRef L)))))))))
"#;
        assert!(matches!(parse(bad_cell), Err(ConvertError::UnknownCell(c)) if c == "FROB"));
        let bad_port = r#"
(edif t (library L (cell t (view v (viewType NETLIST)
  (interface (port a (direction INPUT)))
  (contents
    (instance g (viewRef v (cellRef NOT (libraryRef L))))
    (net a (joined (portRef a) (portRef WHAT (instanceRef g)))))))))
"#;
        assert!(matches!(
            parse(bad_port),
            Err(ConvertError::UnknownPort { .. })
        ));
        let bad_inst = r#"
(edif t (library L (cell t (view v (viewType NETLIST)
  (interface (port a (direction INPUT)))
  (contents (net a (joined (portRef a) (portRef I0 (instanceRef ghost)))))))))
"#;
        assert!(matches!(
            parse(bad_inst),
            Err(ConvertError::UnknownInstance(i)) if i == "ghost"
        ));
    }

    #[test]
    fn missing_sections_are_structured() {
        assert_eq!(
            parse("(library L)"),
            Err(ConvertError::MissingSection("edif"))
        );
        assert_eq!(
            parse("(edif t (library L))"),
            Err(ConvertError::MissingSection("cell"))
        );
        assert_eq!(
            parse("(edif t (library L (cell c)))"),
            Err(ConvertError::MissingSection("view"))
        );
    }

    #[test]
    fn hostile_name_characters_are_rejected() {
        let src = r#"
(edif t (library L (cell t (view v (viewType NETLIST)
  (interface (port (rename r0 "a,b") (direction INPUT)))))))
"#;
        assert!(matches!(parse(src), Err(ConvertError::BadName(n)) if n == "a,b"));
    }
}
