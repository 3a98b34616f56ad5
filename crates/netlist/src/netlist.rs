//! The [`Netlist`] container and its construction / validation API.

use crate::cell::{Cell, CellId, Gate};
use crate::error::NetlistError;
use crate::graph::{topo_sort, Csr};
use crate::names::NameMap;

/// A gate-level netlist.
///
/// Cells are stored densely and addressed by [`CellId`]. Every cell has a
/// single output net which shares the cell's name; multi-output structures
/// are modelled as multiple cells. Fanout adjacency is derivable on demand
/// via [`Netlist::fanouts`].
///
/// Two sequential styles coexist:
/// * **flip-flop based** — the benchmark distribution form ([`Gate::Dff`]),
/// * **latch based** — after [`Netlist::to_master_slave`], every flip-flop
///   is split into a [`Gate::LatchMaster`] / [`Gate::LatchSlave`] pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    by_name: NameMap<String, CellId>,
    inputs: Vec<CellId>,
    outputs: Vec<CellId>,
}

/// Summary statistics of a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of combinational gates.
    pub gates: usize,
    /// Number of D flip-flops.
    pub dffs: usize,
    /// Number of master latches.
    pub masters: usize,
    /// Number of slave latches.
    pub slaves: usize,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            cells: Vec::new(),
            by_name: NameMap::default(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// A netlist from finished cells (crate-internal; the `.bench`
    /// reader builds its cells from a checked statement table). Names
    /// are bound in cell order, so the first repeated name is the error.
    /// Arity and acyclicity are the caller's to have checked.
    pub(crate) fn from_cells(
        name: &str,
        cells: Vec<Cell>,
        inputs: Vec<CellId>,
        outputs: Vec<CellId>,
    ) -> Result<Netlist, NetlistError> {
        let mut by_name = NameMap::with_capacity_and_hasher(cells.len(), Default::default());
        for (i, cell) in cells.iter().enumerate() {
            if by_name
                .insert(cell.name.clone(), CellId(i as u32))
                .is_some()
            {
                return Err(NetlistError::DuplicateName(cell.name.clone()));
            }
        }
        Ok(Netlist {
            name: name.to_string(),
            cells,
            by_name,
            inputs,
            outputs,
        })
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells (including input and output markers).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the netlist has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// All cells, indexable by [`CellId::index`].
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cell with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks a cell up by name.
    pub fn find(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).copied()
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[CellId] {
        &self.inputs
    }

    /// Primary output markers, in declaration order.
    pub fn outputs(&self) -> &[CellId] {
        &self.outputs
    }

    /// Ids of all flip-flops.
    pub fn dffs(&self) -> Vec<CellId> {
        self.ids_of(Gate::Dff)
    }

    /// Ids of all master latches.
    pub fn masters(&self) -> Vec<CellId> {
        self.ids_of(Gate::LatchMaster)
    }

    /// Ids of all slave latches.
    pub fn slaves(&self) -> Vec<CellId> {
        self.ids_of(Gate::LatchSlave)
    }

    fn ids_of(&self, gate: Gate) -> Vec<CellId> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.gate == gate)
            .map(|(i, _)| CellId(i as u32))
            .collect()
    }

    /// Adds a primary input.
    ///
    /// # Panics
    /// Panics if the name is already taken (inputs are normally declared
    /// first; use [`Netlist::add_gate`] for fallible insertion).
    pub fn add_input(&mut self, name: impl Into<String>) -> CellId {
        let name = name.into();
        let id = self
            .insert(Cell::new(name.clone(), Gate::Input, Vec::new()))
            .unwrap_or_else(|_| panic!("duplicate input name `{name}`"));
        self.inputs.push(id);
        id
    }

    /// Adds a gate (combinational or sequential) driven by `fanin`.
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateName`] if the name is taken and
    /// [`NetlistError::BadArity`] if the fanin count is illegal for `gate`.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        gate: Gate,
        fanin: &[CellId],
    ) -> Result<CellId, NetlistError> {
        let name = name.into();
        let (lo, hi) = gate.arity();
        if fanin.len() < lo || fanin.len() > hi {
            return Err(NetlistError::BadArity {
                cell: name,
                got: fanin.len(),
            });
        }
        self.insert(Cell::new(name, gate, fanin.to_vec()))
    }

    /// Marks `driver` as a primary output, adding an output marker cell.
    ///
    /// # Errors
    /// Returns [`NetlistError::DuplicateName`] if `name` is taken.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        driver: CellId,
    ) -> Result<CellId, NetlistError> {
        let id = self.insert(Cell::new(name, Gate::Output, vec![driver]))?;
        self.outputs.push(id);
        Ok(id)
    }

    /// Replaces a cell's fanin list (crate-internal; used by parsers that
    /// must resolve forward references after all cells exist).
    pub(crate) fn set_fanin_internal(&mut self, id: CellId, fanin: Vec<CellId>) {
        self.cells[id.index()].fanin = fanin;
    }

    /// Replaces a cell's entire fanin list, checking arity.
    ///
    /// # Panics
    /// Panics if the new fanin violates the gate's arity or references an
    /// out-of-range cell — rewiring is a structural edit whose misuse is a
    /// programming error, not an input error.
    pub fn replace_fanin(&mut self, id: CellId, fanin: Vec<CellId>) {
        let cell = &self.cells[id.index()];
        let (lo, hi) = cell.gate.arity();
        assert!(
            fanin.len() >= lo && fanin.len() <= hi,
            "cell `{}` cannot take {} fanins",
            cell.name,
            fanin.len()
        );
        assert!(
            fanin.iter().all(|f| f.index() < self.cells.len()),
            "fanin reference out of range"
        );
        self.cells[id.index()].fanin = fanin;
    }

    /// Rewires a sequential cell's D pin. This is the public escape hatch
    /// for builders that create state elements before their input cones
    /// exist (e.g. feedback registers).
    ///
    /// # Errors
    /// Returns [`NetlistError::WrongSequentialStyle`] when `seq` is not a
    /// sequential cell and [`NetlistError::UnknownName`] when `driver` is
    /// out of range.
    pub fn set_seq_input(&mut self, seq: CellId, driver: CellId) -> Result<(), NetlistError> {
        if driver.index() >= self.cells.len() {
            return Err(NetlistError::UnknownName(format!("{driver}")));
        }
        if !self.cells[seq.index()].gate.is_sequential() {
            return Err(NetlistError::WrongSequentialStyle(format!(
                "cell `{}` is not sequential",
                self.cells[seq.index()].name
            )));
        }
        self.cells[seq.index()].fanin = vec![driver];
        Ok(())
    }

    fn insert(&mut self, cell: Cell) -> Result<CellId, NetlistError> {
        if self.by_name.contains_key(&cell.name) {
            return Err(NetlistError::DuplicateName(cell.name.clone()));
        }
        let id = CellId(self.cells.len() as u32);
        self.by_name.insert(cell.name.clone(), id);
        self.cells.push(cell);
        Ok(id)
    }

    /// The fanout adjacency: row `c` lists the cells `c` drives, in cell
    /// order (a cell reading `c` on two pins is listed twice).
    pub fn fanouts(&self) -> Csr<CellId> {
        Csr::group(
            self.cells.len(),
            self.cells
                .iter()
                .enumerate()
                .flat_map(|(v, c)| c.fanin.iter().map(move |&u| (u.index(), CellId(v as u32)))),
        )
    }

    /// Summary statistics.
    pub fn stats(&self) -> NetlistStats {
        let mut s = NetlistStats::default();
        for c in &self.cells {
            match c.gate {
                Gate::Input => s.inputs += 1,
                Gate::Output => s.outputs += 1,
                Gate::Dff => s.dffs += 1,
                Gate::LatchMaster => s.masters += 1,
                Gate::LatchSlave => s.slaves += 1,
                _ => s.gates += 1,
            }
        }
        s
    }

    /// Checks structural invariants: fanin references are in range, arities
    /// are legal, and the combinational subgraph is acyclic.
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for c in &self.cells {
            let (lo, hi) = c.gate.arity();
            if c.fanin.len() < lo || c.fanin.len() > hi {
                return Err(NetlistError::BadArity {
                    cell: c.name.clone(),
                    got: c.fanin.len(),
                });
            }
            for &f in &c.fanin {
                if f.index() >= self.cells.len() {
                    return Err(NetlistError::Inconsistent(format!(
                        "cell `{}` references out-of-range id {}",
                        c.name, f
                    )));
                }
            }
        }
        self.topo_order_combinational().map(|_| ())
    }

    /// Topological order of the combinational cells, treating sequential
    /// cell outputs and primary inputs as sources.
    ///
    /// The returned order contains **all** cells: sources first, then
    /// combinational cells in dependency order, then nothing special for
    /// sequential sinks (their D pins simply consume ordered values).
    ///
    /// # Errors
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// subgraph is cyclic.
    pub fn topo_order_combinational(&self) -> Result<Vec<CellId>, NetlistError> {
        // An edge u -> v is a combinational dependency unless u is a
        // sequential cell or a primary input (state and inputs are sources,
        // which is what breaks cycles through flip-flops).
        let cells = &self.cells;
        topo_sort(&self.fanouts(), |u| {
            cells[u].gate.is_sequential() || cells[u].gate == Gate::Input
        })
        .map_err(|w| NetlistError::CombinationalCycle {
            witness: cells[w].name.clone(),
        })
    }

    /// Converts a flip-flop based netlist into a two-phase master/slave
    /// latch based netlist: every [`Gate::Dff`] `q = DFF(d)` becomes
    /// `q_m = LATCHM(d); q = LATCHS(q_m)` so downstream logic is untouched.
    ///
    /// This matches the paper's flow in which flops are split and only the
    /// slave latches are subsequently retimed (Section I, \[15\]).
    ///
    /// # Errors
    /// Returns [`NetlistError::WrongSequentialStyle`] if the netlist already
    /// contains latches.
    pub fn to_master_slave(&self) -> Result<Netlist, NetlistError> {
        if self
            .cells
            .iter()
            .any(|c| matches!(c.gate, Gate::LatchMaster | Gate::LatchSlave))
        {
            return Err(NetlistError::WrongSequentialStyle(
                "netlist already contains latches".into(),
            ));
        }
        let mut out = Netlist::new(self.name.clone());
        // First pass: create every cell, mapping DFF -> (master, slave).
        // We keep the slave under the DFF's original name so fanin lists
        // can be copied verbatim.
        let mut id_map: Vec<CellId> = Vec::with_capacity(self.cells.len());
        for c in &self.cells {
            match c.gate {
                Gate::Dff => {
                    let m = out
                        .insert(Cell::new(
                            format!("{}__m", c.name),
                            Gate::LatchMaster,
                            Vec::new(),
                        ))
                        .map_err(|_| NetlistError::DuplicateName(format!("{}__m", c.name)))?;
                    let s = out.insert(Cell::new(c.name.clone(), Gate::LatchSlave, vec![m]))?;
                    id_map.push(s);
                }
                _ => {
                    let id = out.insert(Cell::new(c.name.clone(), c.gate, Vec::new()))?;
                    id_map.push(id);
                    match c.gate {
                        Gate::Input => out.inputs.push(id),
                        Gate::Output => out.outputs.push(id),
                        _ => {}
                    }
                }
            }
        }
        // Second pass: wire fanins through the map. A DFF's D pin becomes
        // the master's D pin.
        for (i, c) in self.cells.iter().enumerate() {
            let mapped: Vec<CellId> = c.fanin.iter().map(|&f| id_map[f.index()]).collect();
            match c.gate {
                Gate::Dff => {
                    let slave = id_map[i];
                    let master = out.cells[slave.index()].fanin[0];
                    out.cells[master.index()].fanin = mapped;
                }
                _ => {
                    out.cells[id_map[i].index()].fanin = mapped;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Netlist {
        let mut n = Netlist::new("toy");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate("g", Gate::Nand, &[a, b]).unwrap();
        let q = n.add_gate("q", Gate::Dff, &[g]).unwrap();
        let h = n.add_gate("h", Gate::Not, &[q]).unwrap();
        n.add_output("o", h).unwrap();
        n
    }

    #[test]
    fn build_and_lookup() {
        let n = toy();
        assert_eq!(n.len(), 6);
        assert_eq!(n.stats().gates, 2);
        assert_eq!(n.stats().dffs, 1);
        assert_eq!(n.cell(n.find("g").unwrap()).gate, Gate::Nand);
        assert!(n.find("zz").is_none());
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut n = Netlist::new("d");
        let a = n.add_input("a");
        let r = n.add_gate("a", Gate::Not, &[a]);
        assert_eq!(r, Err(NetlistError::DuplicateName("a".into())));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut n = Netlist::new("d");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let r = n.add_gate("x", Gate::Not, &[a, b]);
        assert!(matches!(r, Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn validate_ok() {
        toy().validate().unwrap();
    }

    #[test]
    fn cycle_through_dff_is_fine() {
        let mut n = Netlist::new("counter");
        let q = n.add_gate("q", Gate::Dff, &[CellId(1)]).unwrap();
        let inv = n.add_gate("inv", Gate::Not, &[q]).unwrap();
        assert_eq!(inv, CellId(1));
        n.add_output("o", q).unwrap();
        n.validate().unwrap();
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut n = Netlist::new("bad");
        // g1 = NOT(g2); g2 = NOT(g1): pure combinational loop.
        let g1 = n.add_gate("g1", Gate::Not, &[CellId(1)]).unwrap();
        let g2 = n.add_gate("g2", Gate::Not, &[g1]).unwrap();
        assert_eq!(g2, CellId(1));
        assert!(matches!(
            n.validate(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn fanout_adjacency() {
        let n = toy();
        let fo = n.fanouts();
        let a = n.find("a").unwrap();
        let g = n.find("g").unwrap();
        assert_eq!(fo.row(a.index()), [g]);
    }

    #[test]
    fn master_slave_conversion() {
        let n = toy();
        let ms = n.to_master_slave().unwrap();
        let s = ms.stats();
        assert_eq!(s.dffs, 0);
        assert_eq!(s.masters, 1);
        assert_eq!(s.slaves, 1);
        // The slave keeps the DFF's name so fanouts are preserved.
        let slave = ms.find("q").unwrap();
        assert_eq!(ms.cell(slave).gate, Gate::LatchSlave);
        let master = ms.cell(slave).fanin[0];
        assert_eq!(ms.cell(master).gate, Gate::LatchMaster);
        // Master's D pin is the old DFF's D driver.
        assert_eq!(ms.cell(master).fanin, vec![ms.find("g").unwrap()]);
        // Downstream NOT still reads `q`.
        let h = ms.find("h").unwrap();
        assert_eq!(ms.cell(h).fanin, vec![slave]);
        ms.validate().unwrap();
    }

    #[test]
    fn master_slave_rejects_latch_netlist() {
        let n = toy().to_master_slave().unwrap();
        assert!(matches!(
            n.to_master_slave(),
            Err(NetlistError::WrongSequentialStyle(_))
        ));
    }

    #[test]
    fn topo_order_covers_all_cells() {
        let n = toy();
        let order = n.topo_order_combinational().unwrap();
        assert_eq!(order.len(), n.len());
        // Every gate appears after all of its combinational fanins.
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        for (i, c) in n.cells().iter().enumerate() {
            for &f in &c.fanin {
                let fc = &n.cells()[f.index()];
                if fc.gate.is_combinational() {
                    assert!(pos[&f] < pos[&CellId(i as u32)]);
                }
            }
        }
    }
}
