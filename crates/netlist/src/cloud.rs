//! The combinational retiming view of a latch-based circuit.
//!
//! Following Section III of the paper, the circuit is *cut at its
//! (master) latches*: the resulting [`CombCloud`] is a DAG whose
//!
//! * **sources** are master-latch outputs (and primary inputs, which the
//!   retiming formulation treats as registered, exactly like the `I1`/`I2`
//!   inputs of the paper's Fig. 4),
//! * **sinks** are master-latch D-pins (and primary outputs, "in reality
//!   the input of a fixed master latch"),
//! * interior nodes are combinational gates.
//!
//! Slave latches are *not* nodes of the cloud: they are the movable
//! elements. Their position is a [`crate::Cut`]; initially every slave
//! sits at its master's output, i.e. at a source.

use crate::cell::{CellId, Gate};
use crate::error::NetlistError;
use crate::graph::{topo_sort, Csr};
use crate::netlist::Netlist;

/// Index of a node inside a [`CombCloud`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Role of a cloud node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Data launch point. `master` is the master-latch cell when the source
    /// is a latch output, or `None` for a primary input.
    Source {
        /// Backing master latch, if any.
        master: Option<CellId>,
    },
    /// A combinational gate, backed by the netlist cell `cell`.
    Gate {
        /// Backing netlist cell.
        cell: CellId,
        /// The gate's logic function.
        gate: Gate,
    },
    /// Data capture point (a potential error-detecting master).
    Sink {
        /// Backing master latch, if any (`None` for a primary output).
        master: Option<CellId>,
    },
}

impl NodeKind {
    /// Whether this is a source.
    pub fn is_source(self) -> bool {
        matches!(self, NodeKind::Source { .. })
    }

    /// Whether this is a sink.
    pub fn is_sink(self) -> bool {
        matches!(self, NodeKind::Sink { .. })
    }

    /// Whether this is an interior gate.
    pub fn is_gate(self) -> bool {
        matches!(self, NodeKind::Gate { .. })
    }
}

/// A directed edge of the cloud, used to describe latch positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CloudEdge {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
}

/// The combinational retiming DAG (see module docs), stored flat: each
/// node's kind and name in two arrays indexed by [`NodeId::index`], its
/// fanins and fanouts as compressed sparse rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombCloud {
    name: String,
    kinds: Vec<NodeKind>,
    /// Debug / report names (net name of the backing cell).
    names: Vec<String>,
    fanin: Csr<NodeId>,
    fanout: Csr<NodeId>,
    sources: Vec<NodeId>,
    sinks: Vec<NodeId>,
    topo: Vec<NodeId>,
    /// For each netlist cell: the cloud node producing its value, if any.
    producer_of_cell: Vec<Option<NodeId>>,
    /// For each netlist cell: the sink node capturing its D pin (masters,
    /// flip-flops, and output markers), if any.
    sink_of_cell: Vec<Option<NodeId>>,
}

impl CombCloud {
    /// Extracts the cloud from a netlist.
    ///
    /// Accepts either sequential style:
    /// * flip-flop netlists — each [`Gate::Dff`] contributes one source
    ///   (its Q) and one sink (its D);
    /// * master/slave latch netlists — each [`Gate::LatchMaster`]
    ///   contributes source + sink, and [`Gate::LatchSlave`] cells are
    ///   bypassed (they are the movable elements, not part of the DAG).
    ///
    /// Nodes are numbered sources and gates in cell order, then sinks in
    /// cell order. Each node lists its fanins in pin order and its fanouts
    /// in the order of the cells reading it.
    ///
    /// # Errors
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic clouds and
    /// [`NetlistError::Inconsistent`] for malformed sequential structure.
    pub fn extract(n: &Netlist) -> Result<CombCloud, NetlistError> {
        n.validate()?;
        let cells = n.cells();
        let mut kinds = Vec::new();
        let mut names = Vec::new();
        let mut push = |name: String, kind: NodeKind| {
            kinds.push(kind);
            names.push(name);
            NodeId(kinds.len() as u32 - 1)
        };
        let mut sources = Vec::new();
        let mut sinks = Vec::new();

        // For each netlist cell: the cloud node that *produces* its value
        // in the cloud (for sequential cells the source node of Q).
        let mut producer: Vec<Option<NodeId>> = vec![None; cells.len()];
        for (i, c) in cells.iter().enumerate() {
            let id = CellId(i as u32);
            producer[i] = match c.gate {
                Gate::Input => {
                    let s = push(c.name.clone(), NodeKind::Source { master: None });
                    sources.push(s);
                    Some(s)
                }
                Gate::Dff | Gate::LatchMaster => {
                    let s = push(
                        format!("{}.q", c.name),
                        NodeKind::Source { master: Some(id) },
                    );
                    sources.push(s);
                    Some(s)
                }
                // A slave is transparent: its fanouts read the master's
                // source node, resolved below via the slave's fanin.
                Gate::LatchSlave | Gate::Output => None,
                gate => Some(push(c.name.clone(), NodeKind::Gate { cell: id, gate })),
            };
        }
        for (i, c) in cells.iter().enumerate() {
            if c.gate == Gate::LatchSlave {
                let master = c.fanin[0];
                let src = producer[master.index()].ok_or_else(|| {
                    NetlistError::Inconsistent(format!(
                        "slave `{}` is not fed by a master latch",
                        c.name
                    ))
                })?;
                if !matches!(n.cell(master).gate, Gate::LatchMaster) {
                    return Err(NetlistError::Inconsistent(format!(
                        "slave `{}` is fed by non-master `{}`",
                        c.name,
                        n.cell(master).name
                    )));
                }
                producer[i] = Some(src);
            }
        }
        let resolve = |f: CellId| {
            producer[f.index()].ok_or_else(|| {
                NetlistError::Inconsistent(format!(
                    "cell `{}` has no producing cloud node",
                    n.cell(f).name
                ))
            })
        };

        // Sink nodes and every edge, in cell and pin order.
        let mut sink_of_cell = vec![None; cells.len()];
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, c) in cells.iter().enumerate() {
            let (name, master) = match c.gate {
                Gate::Dff | Gate::LatchMaster => (format!("{}.d", c.name), Some(CellId(i as u32))),
                Gate::Output => (c.name.clone(), None),
                Gate::LatchSlave | Gate::Input => continue,
                _ => {
                    let g = producer[i].expect("a gate produces its own node");
                    for &f in &c.fanin {
                        edges.push((resolve(f)?, g));
                    }
                    continue;
                }
            };
            let t = push(name, NodeKind::Sink { master });
            sinks.push(t);
            sink_of_cell[i] = Some(t);
            edges.push((resolve(c.fanin[0])?, t));
        }
        let len = kinds.len();
        let fanout = Csr::group(len, edges.iter().map(|&(u, v)| (u.index(), v)));
        let fanin = Csr::group(len, edges.iter().map(|&(u, v)| (v.index(), u)));
        let topo = topo_sort(&fanout, |_| false).map_err(|w| NetlistError::CombinationalCycle {
            witness: names[w].clone(),
        })?;
        Ok(CombCloud {
            name: n.name().to_string(),
            kinds,
            names,
            fanin,
            fanout,
            sources,
            sinks,
            topo,
            producer_of_cell: producer,
            sink_of_cell,
        })
    }

    /// The cloud node producing the value of netlist cell `c`, if any.
    ///
    /// Gates map to their own node, inputs / flip-flops / masters to their
    /// source node, slaves to their master's source node. Output markers
    /// have no producer.
    pub fn producer_of_cell(&self, c: CellId) -> Option<NodeId> {
        self.producer_of_cell.get(c.index()).copied().flatten()
    }

    /// The sink node capturing netlist cell `c`'s D pin (flip-flops,
    /// masters, and output markers), if any.
    pub fn sink_of_cell(&self, c: CellId) -> Option<NodeId> {
        self.sink_of_cell.get(c.index()).copied().flatten()
    }

    /// Number of netlist cells this cloud was extracted from.
    pub fn cell_count(&self) -> usize {
        self.producer_of_cell.len()
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the cloud is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Every node id, in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// The role of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range (as do the other per-node accessors).
    pub fn kind(&self, v: NodeId) -> NodeKind {
        self.kinds[v.index()]
    }

    /// The debug / report name of node `v` (the net name of its backing
    /// cell; `.q` / `.d` suffixed for a latch's source / sink).
    pub fn node_name(&self, v: NodeId) -> &str {
        &self.names[v.index()]
    }

    /// The predecessors of `v`, in pin order.
    #[inline]
    pub fn fanin(&self, v: NodeId) -> &[NodeId] {
        self.fanin.row(v.index())
    }

    /// The successors of `v`.
    #[inline]
    pub fn fanout(&self, v: NodeId) -> &[NodeId] {
        self.fanout.row(v.index())
    }

    /// Source nodes (launch points).
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Sink nodes (capture points / potential EDL masters).
    pub fn sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    /// A topological order of all nodes (sources first).
    pub fn topo(&self) -> &[NodeId] {
        &self.topo
    }

    /// Iterates over all directed edges, by tail node, each node's in
    /// fanout order.
    pub fn edges(&self) -> impl Iterator<Item = CloudEdge> + '_ {
        self.node_ids().flat_map(move |from| {
            self.fanout(from)
                .iter()
                .map(move |&to| CloudEdge { from, to })
        })
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.fanout.len()
    }

    /// Finds a node by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names
            .iter()
            .position(|nd| nd == name)
            .map(|i| NodeId(i as u32))
    }

    /// Nodes in the fan-in cone of `t` (inclusive of `t`, listed first),
    /// the paper's `FIC(t)`. Allocates cloud-sized scratch per call:
    /// repeated queries should reuse a [`crate::ConeWalk`] instead.
    pub fn fanin_cone(&self, t: NodeId) -> Vec<NodeId> {
        crate::ConeWalk::new(self).walk(self, [t]).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    fn sample() -> Netlist {
        bench::parse(
            "sample",
            "\
INPUT(a)
OUTPUT(z)
q1 = DFF(g2)
g1 = AND(a, q1)
g2 = NOT(g1)
z = OR(g1, q1)
",
        )
        .unwrap()
    }

    #[test]
    fn extract_from_ff_netlist() {
        let cloud = CombCloud::extract(&sample()).unwrap();
        // Sources: a, q1.q  — Sinks: q1.d, z__po
        assert_eq!(cloud.sources().len(), 2);
        assert_eq!(cloud.sinks().len(), 2);
        // Gates: g1, g2, z
        let gates = cloud
            .node_ids()
            .filter(|&v| cloud.kind(v).is_gate())
            .count();
        assert_eq!(gates, 3);
        assert_eq!(cloud.topo().len(), cloud.len());
    }

    #[test]
    fn extract_from_latch_netlist_matches_ff() {
        let ff = sample();
        let ms = ff.to_master_slave().unwrap();
        let c1 = CombCloud::extract(&ff).unwrap();
        let c2 = CombCloud::extract(&ms).unwrap();
        assert_eq!(c1.sources().len(), c2.sources().len());
        assert_eq!(c1.sinks().len(), c2.sinks().len());
        assert_eq!(c1.len(), c2.len());
        assert_eq!(c1.edge_count(), c2.edge_count());
    }

    #[test]
    fn topo_respects_edges() {
        let cloud = CombCloud::extract(&sample()).unwrap();
        let pos: std::collections::HashMap<NodeId, usize> = cloud
            .topo()
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i))
            .collect();
        for e in cloud.edges() {
            assert!(pos[&e.from] < pos[&e.to]);
        }
    }

    #[test]
    fn fanin_cone_of_sink() {
        let cloud = CombCloud::extract(&sample()).unwrap();
        let z = cloud.find("z").unwrap(); // the OR gate feeding the PO sink
        let cone = cloud.fanin_cone(z);
        // z's cone: z, g1, a, q1.q
        assert_eq!(cone.len(), 4);
    }

    #[test]
    fn edge_count_consistent() {
        let cloud = CombCloud::extract(&sample()).unwrap();
        assert_eq!(cloud.edges().count(), cloud.edge_count());
        let fanin_total: usize = cloud.node_ids().map(|v| cloud.fanin(v).len()).sum();
        assert_eq!(fanin_total, cloud.edge_count());
    }
}
