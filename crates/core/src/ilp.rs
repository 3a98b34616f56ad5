//! The explicit ILP of Eq. (10) and an exhaustive oracle.
//!
//! The production path never solves the ILP directly (it goes through the
//! min-cost-flow dual); this module exists to *show* the formulation (as
//! the paper does for Fig. 5) and to verify the flow path exactly on small
//! instances.

use std::fmt;

use retime_netlist::Cut;
use retime_retime::{RetimingProblem, BREADTH_SCALE};

/// A displayable snapshot of the Eq. (10) ILP backing a
/// [`RetimingProblem`].
#[derive(Debug, Clone)]
pub struct IlpFormulation {
    /// Objective coefficients per variable, in latch-area units.
    pub objective: Vec<f64>,
    /// Difference constraints `r(from) − r(to) ≤ w`.
    pub constraints: Vec<(usize, usize, i64)>,
    /// Variable bounds `(L, U)`.
    pub bounds: Vec<(i64, i64)>,
}

impl IlpFormulation {
    /// Extracts the ILP from a retiming problem.
    pub fn from_problem(p: &RetimingProblem) -> IlpFormulation {
        let n = p.node_count();
        let objective = p
            .objective_coefficients()
            .into_iter()
            .map(|c| c as f64 / BREADTH_SCALE as f64)
            .collect();
        let constraints = p
            .edge_list()
            .into_iter()
            .map(|(from, to, w, _)| (from, to, w))
            .collect();
        let bounds = (0..n).map(|v| p.bounds_of(v)).collect();
        IlpFormulation {
            objective,
            constraints,
            bounds,
        }
    }

    /// Number of variables.
    pub fn variable_count(&self) -> usize {
        self.objective.len()
    }

    /// Whether an assignment satisfies all constraints and bounds.
    ///
    /// # Panics
    /// Panics if `r` does not cover every variable.
    pub fn is_feasible(&self, r: &[i64]) -> bool {
        assert_eq!(r.len(), self.objective.len());
        self.bounds
            .iter()
            .zip(r)
            .all(|(&(lo, hi), &rv)| rv >= lo && rv <= hi)
            && self.constraints.iter().all(|&(u, v, w)| r[u] - r[v] <= w)
    }
}

impl fmt::Display for IlpFormulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "min ")?;
        let mut first = true;
        for (v, &c) in self.objective.iter().enumerate() {
            if c.abs() < 1e-12 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{c:.3}·r({v})")?;
            first = false;
        }
        writeln!(f)?;
        writeln!(f, "s.t.")?;
        for &(u, v, w) in &self.constraints {
            writeln!(f, "  r({u}) − r({v}) ≤ {w}")?;
        }
        for (v, &(lo, hi)) in self.bounds.iter().enumerate() {
            if (lo, hi) != (-1, 0) {
                writeln!(f, "  {lo} ≤ r({v}) ≤ {hi}")?;
            }
        }
        Ok(())
    }
}

/// Exhaustively solves a [`RetimingProblem`] by enumerating every cloud
/// assignment within bounds, checking the difference constraints, and
/// minimizing the scaled objective. Returns `None` when more than
/// `max_free` cloud variables are free (the search would explode).
///
/// This is the exactness oracle for the flow and closure engines.
pub fn exhaustive_best(p: &RetimingProblem, max_free: usize) -> Option<(i64, Cut)> {
    let n_cloud = p.cloud_len();
    let free: Vec<usize> = (0..n_cloud)
        .filter(|&v| {
            let (lo, hi) = p.bounds_of(v);
            lo != hi
        })
        .collect();
    if free.len() > max_free {
        return None;
    }
    // Constraints among cloud variables only (host/mirror/pseudo values
    // are derived optimally by the evaluator).
    let edges: Vec<(usize, usize, i64)> = p
        .edge_list()
        .into_iter()
        .filter(|&(u, v, _, _)| u < n_cloud && v < n_cloud)
        .map(|(u, v, w, _)| (u, v, w))
        .collect();
    let mut fixed: Vec<i64> = (0..n_cloud).map(|v| p.bounds_of(v).0).collect();
    for &v in &free {
        fixed[v] = 0; // overwritten per subset
    }
    let mut best: Option<(i64, Vec<bool>)> = None;
    for mask in 0u64..(1u64 << free.len()) {
        let mut r = fixed.clone();
        for (bit, &v) in free.iter().enumerate() {
            r[v] = if mask & (1 << bit) != 0 { -1 } else { 0 };
        }
        if edges.iter().any(|&(u, v, w)| r[u] - r[v] > w) {
            continue;
        }
        let moved: Vec<bool> = r.iter().map(|&x| x == -1).collect();
        let obj = p.objective_scaled_for(&moved);
        if best.as_ref().is_none_or(|(b, _)| obj < *b) {
            best = Some((obj, moved));
        }
    }
    best.map(|(obj, moved)| (obj, Cut::from_raw(moved)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_flow::MinCostFlow;
    use retime_liberty::Library;
    use retime_netlist::{bench, CombCloud};
    use retime_retime::Regions;
    use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};

    fn problem(src: &str, p: f64) -> (CombCloud, RetimingProblem) {
        let n = bench::parse("t", src).unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(p),
            DelayModel::PathBased,
        )
        .unwrap();
        let regions = Regions::compute(&sta).unwrap();
        let prob = RetimingProblem::build(&cloud, &regions);
        (cloud, prob)
    }

    /// The production min cut and the reference solver both reach the
    /// exhaustive optimum.
    fn assert_engines_exact(prob: &RetimingProblem) {
        let (best, _) = exhaustive_best(prob, 20).expect("small instance");
        for (engine, sol) in [
            ("min cut", prob.solve()),
            ("reference", prob.solve_with(MinCostFlow::solve_reference)),
        ] {
            assert_eq!(
                sol.unwrap().objective_scaled,
                best,
                "{engine} must be exact"
            );
        }
    }

    const SMALL: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(z)
g1 = AND(a, b)
g2 = NOT(g1)
g3 = OR(g2, b)
z = BUFF(g3)
";

    #[test]
    fn oracle_matches_solvers() {
        let (_cloud, prob) = problem(SMALL, 100.0);
        assert_engines_exact(&prob);
    }

    #[test]
    fn oracle_with_pseudo_matches_solvers() {
        let (cloud, mut prob) = problem(SMALL, 100.0);
        let g2 = cloud.find("g2").unwrap();
        let b = cloud.find("b").unwrap();
        prob.add_pseudo_target(&[g2, b], 3 * BREADTH_SCALE / 2);
        assert_engines_exact(&prob);
    }

    #[test]
    fn formulation_renders() {
        let (_cloud, prob) = problem(SMALL, 100.0);
        let ilp = IlpFormulation::from_problem(&prob);
        assert_eq!(ilp.variable_count(), prob.node_count());
        let text = ilp.to_string();
        assert!(text.contains("min "));
        assert!(text.contains("s.t."));
        // The all-zero assignment is feasible (initial cut).
        // Mandatory nodes (if any) need −1; none under a relaxed clock.
        assert!(ilp.is_feasible(&vec![0i64; ilp.variable_count()]));
    }

    #[test]
    fn oracle_bails_on_large_instances() {
        let (_cloud, prob) = problem(SMALL, 100.0);
        assert!(exhaustive_best(&prob, 1).is_none());
    }
}
