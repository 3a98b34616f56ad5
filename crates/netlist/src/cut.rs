//! Slave-latch placements ([`Cut`]s) on a [`CombCloud`].
//!
//! A retiming of the slave latches is fully described by the per-node
//! retiming value `r(v) ∈ {−1, 0}` of the paper (Section IV-B): slaves
//! start on the host edges into the sources (`w(e_{h,I}) = 1`, Fig. 5) and
//! `r(v) = −1` moves them forward through `v`. We store this as a boolean
//! *moved* flag per node.
//!
//! A cut is **valid** when, for every edge `u → v`, `moved[v] ⇒ moved[u]`
//! (the non-negativity constraint `r(u) − r(v) ≤ w(e_{uv})`) and no sink is
//! moved. Validity implies the defining property of Section III: *every
//! source→sink path crosses exactly one slave latch* — which
//! [`Cut::check_paths`] verifies independently for testing.

use std::collections::HashMap;

use crate::cell::{CellId, Gate};
use crate::cloud::{CloudEdge, CombCloud, NodeId, NodeKind};
use crate::error::NetlistError;
use crate::netlist::Netlist;

/// A placement of slave latches, encoded as the set of nodes the latches
/// have been retimed through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    moved: Vec<bool>,
}

impl Cut {
    /// The initial cut: every slave latch at its master's output
    /// (no node moved through).
    pub fn initial(cloud: &CombCloud) -> Cut {
        Cut {
            moved: vec![false; cloud.len()],
        }
    }

    /// Builds a cut from per-node retiming values, where `true` means
    /// `r(v) = −1` (the latch has been moved forward through `v`).
    ///
    /// # Panics
    /// Panics if `moved.len()` differs from the cloud size.
    pub fn from_moved(cloud: &CombCloud, moved: Vec<bool>) -> Cut {
        assert_eq!(
            moved.len(),
            cloud.len(),
            "moved vector must cover every cloud node"
        );
        Cut { moved }
    }

    /// Builds a cut from a raw moved vector without a cloud to check
    /// against. Prefer [`Cut::from_moved`]; this exists for solvers that
    /// produce the vector away from the cloud and validate afterwards.
    pub fn from_raw(moved: Vec<bool>) -> Cut {
        Cut { moved }
    }

    /// Whether the latch has been retimed through node `v`.
    pub fn is_moved(&self, v: NodeId) -> bool {
        self.moved[v.index()]
    }

    /// Marks node `v` as moved (used by solvers assembling a cut).
    pub fn set_moved(&mut self, v: NodeId, moved: bool) {
        self.moved[v.index()] = moved;
    }

    /// Checks cut validity: edge monotonicity and fixed sinks.
    ///
    /// # Errors
    /// Returns [`NetlistError::Inconsistent`] naming the first offending
    /// edge or sink.
    pub fn validate(&self, cloud: &CombCloud) -> Result<(), NetlistError> {
        for e in cloud.edges() {
            if self.moved[e.to.index()] && !self.moved[e.from.index()] {
                return Err(NetlistError::Inconsistent(format!(
                    "cut moves through `{}` but not its fanin `{}`",
                    cloud.node_name(e.to),
                    cloud.node_name(e.from)
                )));
            }
        }
        for &t in cloud.sinks() {
            if self.moved[t.index()] {
                return Err(NetlistError::Inconsistent(format!(
                    "cut moves through sink `{}` (masters are fixed)",
                    cloud.node_name(t)
                )));
            }
        }
        Ok(())
    }

    /// Independently verifies that every source→sink path crosses exactly
    /// one latch, by counting latched edges along paths with dynamic
    /// programming. Intended for tests; [`Cut::validate`] is the fast check.
    pub fn check_paths(&self, cloud: &CombCloud) -> bool {
        // lat[v] = set of possible latch counts on paths from the host to v,
        // tracked as (min, max): the host edge into each source carries one
        // latch unless the source is moved.
        let mut minmax: Vec<Option<(i64, i64)>> = vec![None; cloud.len()];
        for &s in cloud.sources() {
            let here = if self.moved[s.index()] { 0 } else { 1 };
            minmax[s.index()] = Some((here, here));
        }
        for &v in cloud.topo() {
            if cloud.kind(v).is_source() {
                continue;
            }
            let mut acc: Option<(i64, i64)> = None;
            for &u in cloud.fanin(v) {
                if let Some((lo, hi)) = minmax[u.index()] {
                    let latched = i64::from(self.edge_latched(CloudEdge { from: u, to: v }));
                    let (nlo, nhi) = (lo + latched, hi + latched);
                    acc = Some(match acc {
                        None => (nlo, nhi),
                        Some((alo, ahi)) => (alo.min(nlo), ahi.max(nhi)),
                    });
                }
            }
            minmax[v.index()] = acc;
        }
        cloud
            .sinks()
            .iter()
            .all(|&t| matches!(minmax[t.index()], Some((1, 1)) | None))
    }

    /// Whether a slave latch sits on the given edge.
    ///
    /// An interior edge `u → v` is latched when the latch has moved through
    /// `u` but not `v`. For an *unmoved source*, the latch sits at the
    /// source itself, covering **all** of its fanout edges.
    pub fn edge_latched(&self, e: CloudEdge) -> bool {
        if self.moved[e.from.index()] {
            !self.moved[e.to.index()]
        } else {
            // Latch (if any) sits at the source position.
            false
        }
    }

    /// Whether node `v` drives its fanout through a slave latch placed at
    /// its output (either an unmoved source, or a moved node with at least
    /// one unmoved fanout).
    pub fn latch_at_output(&self, cloud: &CombCloud, v: NodeId) -> bool {
        if cloud.kind(v).is_source() && !self.moved[v.index()] {
            return true;
        }
        self.moved[v.index()] && cloud.fanout(v).iter().any(|&w| !self.moved[w.index()])
    }

    /// Number of slave latches under fanout sharing: one latch per node
    /// that needs a latched output (all latched fanouts of a node share a
    /// single latch, the `β = 1/k` sharing of the paper's Eq. 3).
    pub fn slave_count(&self, cloud: &CombCloud) -> usize {
        cloud
            .node_ids()
            .filter(|&v| self.latch_at_output(cloud, v))
            .count()
    }

    /// The nodes carrying an output slave latch.
    pub fn latch_positions(&self, cloud: &CombCloud) -> Vec<NodeId> {
        cloud
            .node_ids()
            .filter(|&v| self.latch_at_output(cloud, v))
            .collect()
    }

    /// Materializes the cut as a latch-based [`Netlist`].
    ///
    /// `netlist` must be the netlist the cloud was extracted from (either
    /// sequential style). The result contains one [`Gate::LatchMaster`] per
    /// original state element and newly-placed [`Gate::LatchSlave`] cells at
    /// the cut positions; primary inputs that carry a (conceptual) input
    /// slave latch get one too, keeping the cycle-accurate structure
    /// explicit.
    ///
    /// # Errors
    /// Returns [`NetlistError::Inconsistent`] if the cut is invalid or the
    /// netlist does not match the cloud.
    pub fn apply(&self, cloud: &CombCloud, netlist: &Netlist) -> Result<Netlist, NetlistError> {
        self.validate(cloud)?;
        if netlist.len() != cloud.cell_count() {
            return Err(NetlistError::Inconsistent(
                "netlist does not match the cloud it is applied with".into(),
            ));
        }
        let mut out = Netlist::new(netlist.name());
        // Map cloud node -> new cell driving its (pre-latch) value.
        let mut node_cell: HashMap<NodeId, CellId> = HashMap::new();
        // 1. Sources: inputs and masters.
        for &s in cloud.sources() {
            match cloud.kind(s) {
                NodeKind::Source { master: None } => {
                    let name = source_base_name(cloud, s);
                    let id = out.add_input(name);
                    node_cell.insert(s, id);
                }
                NodeKind::Source {
                    master: Some(mcell),
                } => {
                    let mname = netlist.cell(mcell).name.clone();
                    let mname = mname.strip_suffix("__m").unwrap_or(&mname).to_string();
                    let id =
                        out.add_gate(format!("{mname}__m"), Gate::LatchMaster, &[CellId(0)])?;
                    node_cell.insert(s, id);
                }
                _ => unreachable!("sources() returns sources"),
            }
        }
        // 2. Gates (in topological order so fanins exist... fanins are
        // resolved later, so order is free; keep topo for readability).
        for &v in cloud.topo() {
            if let NodeKind::Gate { cell, .. } = cloud.kind(v) {
                let c = netlist.cell(cell);
                let id = out.add_gate(c.name.clone(), c.gate, &vec![CellId(0); c.fanin.len()])?;
                node_cell.insert(v, id);
            }
        }
        // 3. Slave latches at cut positions.
        let mut slave_of: HashMap<NodeId, CellId> = HashMap::new();
        for v in self.latch_positions(cloud) {
            let base = node_cell[&v];
            let name = format!("{}__s", out.cell(base).name);
            let id = out.add_gate(name, Gate::LatchSlave, &[base])?;
            slave_of.insert(v, id);
        }
        // Helper: the cell some consumer on edge (u -> v) should read.
        let reader = |u: NodeId, v: NodeId| -> CellId {
            let latched = if !self.moved[u.index()] && cloud.kind(u).is_source() {
                true // unmoved source: all fanouts read the source slave
            } else {
                self.edge_latched(CloudEdge { from: u, to: v })
            };
            if latched {
                slave_of[&u]
            } else {
                node_cell[&u]
            }
        };
        // 4. Resolve gate fanins.
        for &v in cloud.topo() {
            if let NodeKind::Gate { .. } = cloud.kind(v) {
                let fanin: Vec<CellId> = cloud.fanin(v).iter().map(|&u| reader(u, v)).collect();
                out.set_fanin_internal(node_cell[&v], fanin);
            }
        }
        // 5. Sinks: master D pins and primary outputs.
        for &t in cloud.sinks() {
            let drv_node = cloud.fanin(t)[0];
            let drv = reader(drv_node, t);
            match cloud.kind(t) {
                NodeKind::Sink {
                    master: Some(mcell),
                } => {
                    // Find the new master for this original master cell.
                    let src = cloud.producer_of_cell(mcell).ok_or_else(|| {
                        NetlistError::Inconsistent("master without source node".into())
                    })?;
                    let new_master = node_cell[&src];
                    out.set_fanin_internal(new_master, vec![drv]);
                }
                NodeKind::Sink { master: None } => {
                    let name = cloud.node_name(t).to_string();
                    out.add_output(name, drv)?;
                }
                _ => unreachable!("sinks() returns sinks"),
            }
        }
        out.validate()?;
        Ok(out)
    }
}

fn source_base_name(cloud: &CombCloud, s: NodeId) -> String {
    cloud.node_name(s).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use crate::cloud::CombCloud;

    fn pipeline() -> (Netlist, CombCloud) {
        // a -> g1 -> g2 -> q (DFF) -> g3 -> PO, with a side branch.
        let n = bench::parse(
            "pipe",
            "\
INPUT(a)
INPUT(b)
OUTPUT(z)
g1 = AND(a, b)
g2 = NOT(g1)
q = DFF(g2)
g3 = OR(q, b)
z = BUFF(g3)
",
        )
        .unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        (n, cloud)
    }

    #[test]
    fn initial_cut_valid_and_counts_sources() {
        let (_n, cloud) = pipeline();
        let cut = Cut::initial(&cloud);
        cut.validate(&cloud).unwrap();
        assert!(cut.check_paths(&cloud));
        // One latch per source: a, b, q.q
        assert_eq!(cut.slave_count(&cloud), 3);
    }

    #[test]
    fn moved_cut_valid() {
        let (_n, cloud) = pipeline();
        let mut cut = Cut::initial(&cloud);
        // Move through a, b and g1 (g1's fanins both moved).
        for name in ["a", "b", "g1"] {
            cut.set_moved(cloud.find(name).unwrap(), true);
        }
        cut.validate(&cloud).unwrap();
        assert!(cut.check_paths(&cloud));
        // Latches now at g1's output, at b's output (b also feeds g3), and
        // still at the unmoved source q.q.
        assert_eq!(cut.slave_count(&cloud), 3);
    }

    #[test]
    fn invalid_cut_detected() {
        let (_n, cloud) = pipeline();
        let mut cut = Cut::initial(&cloud);
        // Move through g1 without moving through its fanins.
        cut.set_moved(cloud.find("g1").unwrap(), true);
        assert!(cut.validate(&cloud).is_err());
        assert!(!cut.check_paths(&cloud));
    }

    #[test]
    fn sink_cannot_move() {
        let (_n, cloud) = pipeline();
        let mut cut = Cut::initial(&cloud);
        let t = cloud.sinks()[0];
        // Move everything in the sink's cone including the sink itself.
        for v in cloud.fanin_cone(t) {
            cut.set_moved(v, true);
        }
        assert!(cut.validate(&cloud).is_err());
    }

    #[test]
    fn apply_initial_cut_round_trips_structure() {
        let (n, cloud) = pipeline();
        let cut = Cut::initial(&cloud);
        let latched = cut.apply(&cloud, &n).unwrap();
        let s = latched.stats();
        assert_eq!(s.masters, 1);
        // Slaves: one per source (a, b, q).
        assert_eq!(s.slaves, 3);
        assert_eq!(s.gates, n.stats().gates);
        latched.validate().unwrap();
    }

    #[test]
    fn apply_moved_cut_places_interior_slaves() {
        let (n, cloud) = pipeline();
        let mut cut = Cut::initial(&cloud);
        for name in ["a", "b", "g1"] {
            cut.set_moved(cloud.find(name).unwrap(), true);
        }
        let latched = cut.apply(&cloud, &n).unwrap();
        assert_eq!(latched.stats().slaves, 3);
        // g2 must now read g1 through a slave latch.
        let g2 = latched.find("g2").unwrap();
        let drv = latched.cell(g2).fanin[0];
        assert_eq!(latched.cell(drv).gate, Gate::LatchSlave);
        assert_eq!(latched.cell(drv).name, "g1__s");
        // g3 reads b through b's slave.
        let g3 = latched.find("g3").unwrap();
        let bdrv = latched.cell(g3).fanin[1];
        assert_eq!(latched.cell(bdrv).gate, Gate::LatchSlave);
    }

    #[test]
    fn apply_on_latch_style_netlist() {
        let (n, _) = pipeline();
        let ms = n.to_master_slave().unwrap();
        let cloud = CombCloud::extract(&ms).unwrap();
        let cut = Cut::initial(&cloud);
        let latched = cut.apply(&cloud, &ms).unwrap();
        assert_eq!(latched.stats().masters, 1);
        assert_eq!(latched.stats().slaves, 3);
    }

    #[test]
    fn retiming_values() {
        let (_n, cloud) = pipeline();
        let mut cut = Cut::initial(&cloud);
        let a = cloud.find("a").unwrap();
        assert!(!cut.is_moved(a));
        cut.set_moved(a, true);
        assert!(cut.is_moved(a));
    }
}
