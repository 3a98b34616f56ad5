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

use std::collections::HashMap;

use crate::cell::{CellId, Gate};
use crate::error::NetlistError;
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

/// A node of the combinational cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloudNode {
    /// Debug / report name (net name of the backing cell).
    pub name: String,
    /// Role.
    pub kind: NodeKind,
    /// Predecessors.
    pub fanin: Vec<NodeId>,
    /// Successors.
    pub fanout: Vec<NodeId>,
}

impl CloudNode {
    /// Whether this node is a source.
    pub fn is_source(&self) -> bool {
        matches!(self.kind, NodeKind::Source { .. })
    }

    /// Whether this node is a sink.
    pub fn is_sink(&self) -> bool {
        matches!(self.kind, NodeKind::Sink { .. })
    }

    /// Whether this node is an interior gate.
    pub fn is_gate(&self) -> bool {
        matches!(self.kind, NodeKind::Gate { .. })
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

/// The combinational retiming DAG (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombCloud {
    name: String,
    nodes: Vec<CloudNode>,
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
    /// # Errors
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic clouds and
    /// [`NetlistError::Inconsistent`] for malformed sequential structure.
    pub fn extract(n: &Netlist) -> Result<CombCloud, NetlistError> {
        n.validate()?;
        let mut nodes: Vec<CloudNode> = Vec::new();
        let mut sources = Vec::new();
        let mut sinks = Vec::new();

        // Map: netlist cell -> cloud node that *produces* its value in the
        // cloud (for sequential cells this is the source node of Q).
        let mut producer: HashMap<CellId, NodeId> = HashMap::new();

        let push = |nodes: &mut Vec<CloudNode>, name: String, kind: NodeKind| -> NodeId {
            let id = NodeId(nodes.len() as u32);
            nodes.push(CloudNode {
                name,
                kind,
                fanin: Vec::new(),
                fanout: Vec::new(),
            });
            id
        };

        // Pass 1: create nodes.
        for (i, c) in n.cells().iter().enumerate() {
            let id = CellId(i as u32);
            match c.gate {
                Gate::Input => {
                    let s = push(
                        &mut nodes,
                        c.name.clone(),
                        NodeKind::Source { master: None },
                    );
                    sources.push(s);
                    producer.insert(id, s);
                }
                Gate::Dff | Gate::LatchMaster => {
                    let s = push(
                        &mut nodes,
                        format!("{}.q", c.name),
                        NodeKind::Source { master: Some(id) },
                    );
                    sources.push(s);
                    producer.insert(id, s);
                }
                Gate::LatchSlave => {
                    // Transparent: fanouts read the master's source node.
                    // Resolved in pass 2 via the slave's fanin.
                }
                Gate::Output => {}
                _ => {
                    let g = push(
                        &mut nodes,
                        c.name.clone(),
                        NodeKind::Gate {
                            cell: id,
                            gate: c.gate,
                        },
                    );
                    producer.insert(id, g);
                }
            }
        }
        // Resolve slave bypass: a slave's producer is its master's source.
        for (i, c) in n.cells().iter().enumerate() {
            if c.gate == Gate::LatchSlave {
                let master = c.fanin[0];
                let src = *producer.get(&master).ok_or_else(|| {
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
                producer.insert(CellId(i as u32), src);
            }
        }

        // Helper to resolve a fanin cell to its producing cloud node.
        let resolve =
            |producer: &HashMap<CellId, NodeId>, f: CellId| -> Result<NodeId, NetlistError> {
                producer.get(&f).copied().ok_or_else(|| {
                    NetlistError::Inconsistent(format!(
                        "cell `{}` has no producing cloud node",
                        n.cell(f).name
                    ))
                })
            };

        // Pass 2: sink nodes + edges.
        let mut sink_map: HashMap<CellId, NodeId> = HashMap::new();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, c) in n.cells().iter().enumerate() {
            let id = CellId(i as u32);
            match c.gate {
                Gate::Dff | Gate::LatchMaster => {
                    let t = NodeId(nodes.len() as u32);
                    nodes.push(CloudNode {
                        name: format!("{}.d", c.name),
                        kind: NodeKind::Sink { master: Some(id) },
                        fanin: Vec::new(),
                        fanout: Vec::new(),
                    });
                    sinks.push(t);
                    sink_map.insert(id, t);
                    let drv = resolve(&producer, c.fanin[0])?;
                    edges.push((drv, t));
                }
                Gate::Output => {
                    let t = NodeId(nodes.len() as u32);
                    nodes.push(CloudNode {
                        name: c.name.clone(),
                        kind: NodeKind::Sink { master: None },
                        fanin: Vec::new(),
                        fanout: Vec::new(),
                    });
                    sinks.push(t);
                    sink_map.insert(id, t);
                    let drv = resolve(&producer, c.fanin[0])?;
                    edges.push((drv, t));
                }
                Gate::LatchSlave | Gate::Input => {}
                _ => {
                    let g = producer[&id];
                    for &f in &c.fanin {
                        let drv = resolve(&producer, f)?;
                        edges.push((drv, g));
                    }
                }
            }
        }
        for (u, v) in edges {
            nodes[u.index()].fanout.push(v);
            nodes[v.index()].fanin.push(u);
        }

        let mut producer_of_cell = vec![None; n.len()];
        for (cell, node) in &producer {
            producer_of_cell[cell.index()] = Some(*node);
        }
        let mut sink_of_cell = vec![None; n.len()];
        for (cell, node) in &sink_map {
            sink_of_cell[cell.index()] = Some(*node);
        }

        let mut cloud = CombCloud {
            name: n.name().to_string(),
            nodes,
            sources,
            sinks,
            topo: Vec::new(),
            producer_of_cell,
            sink_of_cell,
        };
        cloud.topo = cloud.compute_topo()?;
        Ok(cloud)
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

    fn compute_topo(&self) -> Result<Vec<NodeId>, NetlistError> {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = self.nodes.iter().map(|nd| nd.fanin.len()).collect();
        let mut queue: Vec<NodeId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &self.nodes[u.index()].fanout {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        if order.len() != n {
            let witness = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .unwrap_or_default();
            return Err(NetlistError::CombinationalCycle { witness });
        }
        Ok(order)
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cloud is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[CloudNode] {
        &self.nodes
    }

    /// The node with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &CloudNode {
        &self.nodes[id.index()]
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

    /// Iterates over all directed edges.
    pub fn edges(&self) -> impl Iterator<Item = CloudEdge> + '_ {
        self.nodes.iter().enumerate().flat_map(|(i, nd)| {
            nd.fanout.iter().map(move |&v| CloudEdge {
                from: NodeId(i as u32),
                to: v,
            })
        })
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|nd| nd.fanout.len()).sum()
    }

    /// Finds a node by name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|nd| nd.name == name)
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
        let gates = cloud.nodes().iter().filter(|n| n.is_gate()).count();
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
        let fanin_total: usize = cloud.nodes().iter().map(|n| n.fanin.len()).sum();
        assert_eq!(fanin_total, cloud.edge_count());
    }
}
