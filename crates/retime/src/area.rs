//! Area accounting for retimed resilient designs.

use retime_liberty::{EdlOverhead, Library};
use retime_netlist::{CombCloud, Cut, NodeId, NodeKind};

use crate::error::RetimeError;

/// Sequential-area breakdown of a retimed design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqBreakdown {
    /// Number of slave latches (with fanout sharing).
    pub slaves: usize,
    /// Number of master latches (one per state element).
    pub masters: usize,
    /// Number of error-detecting masters.
    pub edl: usize,
    /// Slave latch area total.
    pub slave_area: f64,
    /// Master latch area total (without EDL overhead).
    pub master_area: f64,
    /// EDL overhead area (`c ×` latch area per error-detecting master).
    pub edl_area: f64,
}

impl SeqBreakdown {
    /// Total sequential area.
    pub fn total(&self) -> f64 {
        self.slave_area + self.master_area + self.edl_area
    }
}

/// Area model: a library plus the EDL overhead setting.
#[derive(Debug, Clone)]
pub struct AreaModel<'l> {
    lib: &'l Library,
    c: EdlOverhead,
}

impl<'l> AreaModel<'l> {
    /// Creates the model.
    pub fn new(lib: &'l Library, c: EdlOverhead) -> AreaModel<'l> {
        AreaModel { lib, c }
    }

    /// The library.
    pub fn library(&self) -> &Library {
        self.lib
    }

    /// The EDL overhead.
    pub fn overhead(&self) -> EdlOverhead {
        self.c
    }

    /// Area of one normal latch.
    pub fn latch_area(&self) -> f64 {
        self.lib.latch().area
    }

    /// Area of one error-detecting latch.
    pub fn ed_latch_area(&self) -> f64 {
        self.c.ed_latch_area(self.latch_area())
    }

    /// Sequential breakdown of a cut with the given per-sink EDL flags
    /// (indexed like `cloud.sinks()`).
    ///
    /// Masters and EDL overhead are counted on master-backed sinks only;
    /// primary-output sinks are timing endpoints whose master belongs to
    /// the environment. Slave latches are counted at every latch position
    /// (primary inputs are modelled as registered, consistently across
    /// all compared flows).
    ///
    /// # Panics
    /// Panics if `ed_sinks` does not match the sink count.
    pub fn sequential(&self, cloud: &CombCloud, cut: &Cut, ed_sinks: &[bool]) -> SeqBreakdown {
        assert_eq!(ed_sinks.len(), cloud.sinks().len());
        let slaves = cut.slave_count(cloud);
        let mut masters = 0usize;
        let mut edl = 0usize;
        for (idx, &t) in cloud.sinks().iter().enumerate() {
            if let NodeKind::Sink { master: Some(_) } = cloud.kind(t) {
                masters += 1;
                if ed_sinks[idx] {
                    edl += 1;
                }
            }
        }
        let la = self.latch_area();
        SeqBreakdown {
            slaves,
            masters,
            edl,
            slave_area: slaves as f64 * la,
            master_area: masters as f64 * la,
            edl_area: edl as f64 * la * self.c.value(),
        }
    }

    /// Combinational area of the cloud's gates.
    ///
    /// # Errors
    /// Returns [`RetimeError::Sta`]-style library errors for unmapped
    /// gates.
    pub fn combinational(&self, cloud: &CombCloud) -> Result<f64, RetimeError> {
        let mut area = 0.0;
        for v in cloud.node_ids() {
            if let NodeKind::Gate { gate, .. } = cloud.kind(v) {
                let cell = self
                    .lib
                    .cell(lib_name(gate))
                    .map_err(|e| RetimeError::Sta(e.into()))?;
                area += cell.area(cloud.fanin(v).len());
            }
        }
        Ok(area)
    }
}

fn lib_name(g: retime_netlist::Gate) -> &'static str {
    use retime_netlist::Gate;
    match g {
        Gate::Buf => "BUFF",
        Gate::Not => "NOT",
        Gate::And => "AND",
        Gate::Nand => "NAND",
        Gate::Or => "OR",
        Gate::Nor => "NOR",
        Gate::Xor => "XOR",
        Gate::Xnor => "XNOR",
        _ => "BUFF",
    }
}

/// Area of the original flop-based design (Table I's `Area` column):
/// combinational area plus one flip-flop per state element.
pub fn flop_design_area(cloud: &CombCloud, model: &AreaModel<'_>) -> Result<f64, RetimeError> {
    let comb = model.combinational(cloud)?;
    let flops = cloud
        .sinks()
        .iter()
        .filter(|&&t| matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) }))
        .count();
    Ok(comb + flops as f64 * model.library().flip_flop().area)
}

/// Convenience: which sinks are master-backed (flip-flop endpoints).
pub fn master_backed_sinks(cloud: &CombCloud) -> Vec<NodeId> {
    cloud
        .sinks()
        .iter()
        .copied()
        .filter(|&t| matches!(cloud.kind(t), NodeKind::Sink { master: Some(_) }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::bench;

    fn setup() -> (CombCloud, Library) {
        let n = bench::parse(
            "a",
            "INPUT(a)\nOUTPUT(z)\nq = DFF(g)\ng = AND(a, q)\nz = NOT(q)\n",
        )
        .unwrap();
        (CombCloud::extract(&n).unwrap(), Library::fdsoi28())
    }

    #[test]
    fn breakdown_counts() {
        let (cloud, lib) = setup();
        let model = AreaModel::new(&lib, EdlOverhead::HIGH);
        let cut = Cut::initial(&cloud);
        // Sinks: q.d (master-backed), z PO. Mark all ED.
        let ed = vec![true; cloud.sinks().len()];
        let b = model.sequential(&cloud, &cut, &ed);
        assert_eq!(b.slaves, 2); // sources: a, q.q
        assert_eq!(b.masters, 1); // q only; the PO is unbacked
        assert_eq!(b.edl, 1); // only the master-backed sink counts
        let la = lib.latch().area;
        assert!((b.total() - (2.0 * la + la + 2.0 * la)).abs() < 1e-9);
    }

    #[test]
    fn comb_area_positive() {
        let (cloud, lib) = setup();
        let model = AreaModel::new(&lib, EdlOverhead::LOW);
        let area = model.combinational(&cloud).unwrap();
        let expect = lib.cell("AND").unwrap().area(2) + lib.cell("NOT").unwrap().area(1);
        assert!((area - expect).abs() < 1e-9);
    }

    #[test]
    fn flop_area_matches_manual() {
        let (cloud, lib) = setup();
        let model = AreaModel::new(&lib, EdlOverhead::LOW);
        let area = flop_design_area(&cloud, &model).unwrap();
        let comb = model.combinational(&cloud).unwrap();
        assert!((area - (comb + lib.flip_flop().area)).abs() < 1e-9);
    }

    #[test]
    fn master_backed_filter() {
        let (cloud, _) = setup();
        assert_eq!(master_backed_sinks(&cloud).len(), 1);
        assert_eq!(cloud.sinks().len(), 2);
    }
}
