//! Retiming regions `V_m` / `V_n` / `V_r` (paper Section IV-B).

use retime_netlist::NodeId;
use retime_sta::{Arrival, TimingAnalysis, EPS};

use crate::error::RetimeError;

/// The region a cloud node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// `V_m`: some terminating master `t` has
    /// `D^b(v, t) > φ2 + γ2 + φ1` — the slave **must** be retimed through
    /// (`r(v) = −1`), otherwise constraint (7) is violated.
    Mandatory,
    /// `V_n`: `D^f(v) > φ1 + γ1 + φ2` — no slave may be retimed through
    /// (`r(v) = 0`), otherwise constraint (6) is violated. All sinks are
    /// in this region (masters are fixed).
    Forbidden,
    /// `V_r`: the free region where the optimizer decides.
    Free,
}

/// Per-node region assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regions {
    region: Vec<Region>,
}

impl Regions {
    /// Computes the regions from a timing analysis, comparing its
    /// margined `D^f` and any-sink `D^b` against the borrowing limits.
    ///
    /// On the statistical analysis (`TimingAnalysis<Canon>`) those are
    /// *margined* arrivals (`m + Φ⁻¹(yield target)·σ_tot`), so nodes
    /// whose delay distributions would violate a borrowing limit at the
    /// target yield are excluded up front. With all sigmas zero the
    /// margined values are bitwise the deterministic ones.
    ///
    /// # Errors
    /// Returns [`RetimeError::InfeasibleClocking`] when a node falls into
    /// both `V_m` and `V_n` — no legal slave position exists for the given
    /// clock.
    pub fn compute<A: Arrival>(sta: &TimingAnalysis<'_, A>) -> Result<Regions, RetimeError> {
        let cloud = sta.cloud();
        let clock = sta.clock();
        let fwd_limit = clock.slave_close();
        let bwd_limit = clock.backward_limit();
        let mut region = vec![Region::Free; cloud.len()];
        for v in cloud.node_ids() {
            let i = v.index();
            if cloud.kind(v).is_sink() {
                region[i] = Region::Forbidden;
                continue;
            }
            let mandatory = sta.db_any(v).is_some_and(|db| db > bwd_limit + EPS);
            let forbidden = sta.df(v) > fwd_limit + EPS;
            region[i] = match (mandatory, forbidden) {
                (true, true) => {
                    return Err(RetimeError::InfeasibleClocking {
                        node: cloud.node_name(v).to_string(),
                    })
                }
                (true, false) => Region::Mandatory,
                (false, true) => Region::Forbidden,
                (false, false) => Region::Free,
            };
        }
        Ok(Regions { region })
    }

    /// The region of node `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn of(&self, v: NodeId) -> Region {
        self.region[v.index()]
    }

    /// Lower/upper bounds `(L_v, U_v)` on the retiming value.
    pub fn bounds(&self, v: NodeId) -> (i64, i64) {
        match self.region[v.index()] {
            Region::Mandatory => (-1, -1),
            Region::Forbidden => (0, 0),
            Region::Free => (-1, 0),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Overrides a node's region. Used by flows that model additional
    /// tool behavior (e.g. the virtual-library flow freezing stages or
    /// forcing movement past a frontier).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn set(&mut self, v: NodeId, r: Region) {
        self.region[v.index()] = r;
    }

    /// Nodes in a given region.
    pub fn nodes_in(&self, r: Region) -> Vec<NodeId> {
        self.region
            .iter()
            .enumerate()
            .filter(|(_, &x)| x == r)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};
    use retime_sta::{DelayModel, NodeDelays, TimingAnalysis, TwoPhaseClock};
    use retime_stat::Canon;

    fn chain() -> retime_netlist::Netlist {
        // Long inverter chain so combinational delay dominates the latch
        // launch delay, giving the clock room to split the regions.
        let mut src = String::from("INPUT(a)\nOUTPUT(z)\ng1 = NOT(a)\n");
        for i in 2..=20 {
            src.push_str(&format!("g{i} = NOT(g{})\n", i - 1));
        }
        src.push_str("z = BUFF(g20)\n");
        bench::parse("chain", &src).unwrap()
    }

    #[test]
    fn relaxed_clock_all_free_except_sinks() {
        let n = chain();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(100.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let r = Regions::compute(&sta).unwrap();
        for v in cloud.node_ids() {
            let expect = if cloud.kind(v).is_sink() {
                Region::Forbidden
            } else {
                Region::Free
            };
            assert_eq!(r.of(v), expect, "node {}", cloud.node_name(v));
        }
    }

    #[test]
    fn tight_clock_splits_chain() {
        // Clock sized so the chain end is forbidden (too late to borrow
        // into) and the chain start is mandatory (too far from the sink).
        let n = chain();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        // Critical path of the chain:
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let crit = sta0.df(cloud.sinks()[0]);
        let clock = TwoPhaseClock::from_max_delay(crit * 1.02);
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        let r = Regions::compute(&sta).unwrap();
        // The last chain gate exceeds the forward borrowing limit.
        let g20 = cloud.find("g20").unwrap();
        assert_eq!(r.of(g20), Region::Forbidden);
        // The input is too far from the sink to keep its latch.
        let a = cloud.find("a").unwrap();
        assert_eq!(r.of(a), Region::Mandatory);
        // Something in the middle is free.
        assert!(!r.nodes_in(Region::Free).is_empty());
    }

    #[test]
    fn infeasible_clock_detected() {
        let n = chain();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        // A clock far too fast for the chain: some node is both mandatory
        // and forbidden.
        let clock = TwoPhaseClock::from_max_delay(0.02);
        let sta = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::PathBased).unwrap();
        assert!(matches!(
            Regions::compute(&sta),
            Err(RetimeError::InfeasibleClocking { .. })
        ));
    }

    #[test]
    fn sigma_zero_statistical_regions_match_gate_based() {
        let n = chain();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::GateBased,
        )
        .unwrap();
        let crit = sta0.df(cloud.sinks()[0]);
        let clock = TwoPhaseClock::from_max_delay(crit * 1.02);
        let det = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
        let zero = DelayModel::Statistical(retime_sta::StatParams::new(0.0, 0.0, 0.9987, 7));
        let delays = NodeDelays::from_library(&cloud, &lib, zero).unwrap();
        let stat = TimingAnalysis::<Canon>::run(&cloud, delays, clock);
        assert_eq!(
            Regions::compute(&det).unwrap(),
            Regions::compute(&stat).unwrap()
        );
    }

    #[test]
    fn statistical_margins_only_tighten_regions() {
        let n = chain();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::GateBased,
        )
        .unwrap();
        let crit = sta0.df(cloud.sinks()[0]);
        // Loose enough that the margins stay feasible.
        let clock = TwoPhaseClock::from_max_delay(crit * 1.10);
        let det = TimingAnalysis::new(&cloud, &lib, clock, DelayModel::GateBased).unwrap();
        let model = DelayModel::Statistical(retime_sta::StatParams::new(0.05, 0.005, 0.9987, 7));
        let delays = NodeDelays::from_library(&cloud, &lib, model).unwrap();
        let stat = TimingAnalysis::<Canon>::run(&cloud, delays, clock);
        let rd = Regions::compute(&det).unwrap();
        if let Ok(rs) = Regions::compute(&stat) {
            for i in 0..rd.len() {
                let v = NodeId(i as u32);
                // A node free under margins must be free deterministically.
                if rs.of(v) == Region::Free {
                    assert_eq!(rd.of(v), Region::Free, "node {i}");
                }
            }
        }
    }

    #[test]
    fn bounds_match_regions() {
        let n = chain();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(100.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let r = Regions::compute(&sta).unwrap();
        let a = cloud.find("a").unwrap();
        assert_eq!(r.bounds(a), (-1, 0));
        let sink = cloud.sinks()[0];
        assert_eq!(r.bounds(sink), (0, 0));
    }
}
