//! The retiming problem: Eq. (10)'s ILP, its flow dual Eq. (14), and the
//! equivalent closure formulation the production solve runs as one
//! minimum cut.

use retime_flow::{Closure, FlowError, FlowSolution, MinCostFlow};
use retime_netlist::{CombCloud, Cut, NodeId};

use crate::error::RetimeError;
use crate::regions::Regions;

/// Global integer scale for the fanout-sharing breadths `β = 1/k`:
/// `lcm(1..=16)`, so every fanout degree up to 16 is represented exactly;
/// larger degrees are rounded (sub-ppm objective error).
pub const BREADTH_SCALE: i64 = 720_720;

/// Movement penalty modelling a *commercial heuristic* retimer
/// (2 % of a latch per node moved through): production tools move
/// registers incrementally and only for clear wins, unlike the exact
/// network-flow optimum. The base-retiming and virtual-library flows use
/// this; G-RAR (the paper's custom exact algorithm) keeps the
/// infinitesimal tie-breaking penalty only.
pub const COMMERCIAL_MOVEMENT_PENALTY: i64 = BREADTH_SCALE / 50;

/// What a flow node stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FlowNodeKind {
    /// A cloud node (index = its `NodeId`).
    Cloud,
    /// The host node `h`.
    Host,
    /// A fanout-sharing mirror node for the given flow node.
    Mirror { of: usize },
    /// A resiliency pseudo node `P(t)` gated by the given cloud nodes.
    Pseudo { gates: Vec<usize> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PEdge {
    from: usize,
    to: usize,
    w: i64,
    beta: i64,
}

/// A retiming instance: the modified retiming graph of Section IV-A.
///
/// Built from a [`CombCloud`] and its [`Regions`]; the resiliency-aware
/// extension (pseudo nodes `P(t)` with negative-breadth host edges) is
/// added by the G-RAR crate through [`RetimingProblem::add_pseudo_target`].
///
/// Equality compares the whole instance: node kinds, edges, bounds and
/// the movement penalty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetimingProblem {
    kinds: Vec<FlowNodeKind>,
    edges: Vec<PEdge>,
    bounds: Vec<(i64, i64)>,
    host: usize,
    n_cloud: usize,
    /// Infinitesimal per-node cost of moving (in `1/BREADTH_SCALE` latch
    /// units). Breaks ties among equal-latch-count optima toward *minimal
    /// movement*, matching the incremental behavior of production
    /// retimers; it can never flip a real comparison because the smallest
    /// genuine objective difference is `BREADTH_SCALE / k ≫ n`.
    movement_penalty: i64,
    /// The `−c` host edge of each pseudo node, in node order. Pseudo
    /// nodes are the last flow nodes: nothing adds a node after them.
    pseudo_host_edges: Vec<usize>,
}

/// An optimal retiming.
#[derive(Debug, Clone)]
pub struct RetimingSolution {
    /// Retiming value per flow node (cloud nodes first).
    pub r: Vec<i64>,
    /// The induced slave-latch placement.
    pub cut: Cut,
    /// Objective value in units of `latch_area / BREADTH_SCALE`
    /// (latch cost minus saved EDL overhead).
    pub objective_scaled: i64,
}

impl RetimingProblem {
    /// Builds the base (resiliency-unaware) retiming graph: host edges of
    /// weight 1 into every source, zero-weight interior edges with breadth
    /// `β = 1/k`, mirror nodes for shared fanout, and region bounds.
    pub fn build(cloud: &CombCloud, regions: &Regions) -> RetimingProblem {
        let n = cloud.len();
        assert_eq!(regions.len(), n, "regions must cover the cloud");
        let mut kinds: Vec<FlowNodeKind> = vec![FlowNodeKind::Cloud; n];
        let mut bounds: Vec<(i64, i64)> =
            (0..n).map(|i| regions.bounds(NodeId(i as u32))).collect();
        let host = kinds.len();
        kinds.push(FlowNodeKind::Host);
        bounds.push((0, 0));
        let mut edges = Vec::new();
        for &s in cloud.sources() {
            edges.push(PEdge {
                from: host,
                to: s.index(),
                w: 1,
                beta: BREADTH_SCALE,
            });
        }
        for v in cloud.node_ids() {
            let i = v.index();
            if cloud.kind(v).is_sink() {
                continue;
            }
            let fanout = cloud.fanout(v);
            let k = fanout.len();
            match k {
                0 => {}
                1 => {
                    edges.push(PEdge {
                        from: i,
                        to: fanout[0].index(),
                        w: 0,
                        beta: BREADTH_SCALE,
                    });
                }
                _ => {
                    let beta = (BREADTH_SCALE + (k as i64) / 2) / (k as i64);
                    let m = kinds.len();
                    kinds.push(FlowNodeKind::Mirror { of: i });
                    bounds.push((-1, 0));
                    for &w in fanout {
                        edges.push(PEdge {
                            from: i,
                            to: w.index(),
                            w: 0,
                            beta,
                        });
                        edges.push(PEdge {
                            from: w.index(),
                            to: m,
                            w: 0,
                            beta,
                        });
                    }
                }
            }
        }
        RetimingProblem {
            kinds,
            edges,
            bounds,
            host,
            n_cloud: n,
            movement_penalty: 1,
            pseudo_host_edges: Vec::new(),
        }
    }

    /// Sets the tie-breaking movement penalty (see the field docs);
    /// `0` disables it.
    pub fn set_movement_penalty(&mut self, eps: i64) {
        assert!(eps >= 0, "penalty must be non-negative");
        self.movement_penalty = eps;
    }

    /// The tie-breaking movement penalty per moved cloud node (see
    /// [`RetimingProblem::set_movement_penalty`]).
    pub fn movement_penalty(&self) -> i64 {
        self.movement_penalty
    }

    /// The host node's flow index.
    pub fn host(&self) -> usize {
        self.host
    }

    /// Total flow nodes (cloud + host + mirrors + pseudos).
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Adds the resiliency pseudo node `P(t)` for a target master whose
    /// cut-set is `gates` (= `g(t)`, Eq. 8/9): zero-weight edges from every
    /// gate in `g(t)` to `P(t)` and a negative-breadth (`−c`) edge from
    /// `P(t)` to the host, so that retiming the slaves past all of `g(t)`
    /// reclaims the EDL overhead `c`.
    ///
    /// `c_scaled` is the EDL overhead in `BREADTH_SCALE` units
    /// (`round(c × BREADTH_SCALE)`).
    ///
    /// # Panics
    /// Panics if `gates` is empty or contains an out-of-range node.
    pub fn add_pseudo_target(&mut self, gates: &[NodeId], c_scaled: i64) -> usize {
        assert!(
            !gates.is_empty(),
            "g(t) must be non-empty for a pseudo node"
        );
        assert!(c_scaled >= 0, "EDL overhead must be non-negative");
        let p = self.kinds.len();
        self.kinds.push(FlowNodeKind::Pseudo {
            gates: gates.iter().map(|g| g.index()).collect(),
        });
        self.bounds.push((-1, 0));
        for &g in gates {
            assert!(g.index() < self.n_cloud, "g(t) node out of range");
            self.edges.push(PEdge {
                from: g.index(),
                to: p,
                w: 0,
                beta: 0,
            });
        }
        self.pseudo_host_edges.push(self.edges.len());
        self.edges.push(PEdge {
            from: p,
            to: self.host,
            w: 0,
            beta: -c_scaled,
        });
        p
    }

    /// Re-prices the pseudo node `p` (from
    /// [`RetimingProblem::add_pseudo_target`]) at the EDL overhead
    /// `c_scaled`, in place, and returns its previous overhead. Only the
    /// breadth of `p`'s host edge changes, so only the objective
    /// coefficients of `p` (`+c`) and the host (`−c`) move.
    ///
    /// # Panics
    /// Panics if `p` is not a pseudo node or `c_scaled` is negative.
    pub fn set_pseudo_overhead(&mut self, p: usize, c_scaled: i64) -> i64 {
        assert!(c_scaled >= 0, "EDL overhead must be non-negative");
        let first = self.kinds.len() - self.pseudo_host_edges.len();
        assert!(
            (first..self.kinds.len()).contains(&p),
            "flow node {p} is not a pseudo node"
        );
        let e = self.pseudo_host_edges[p - first];
        -std::mem::replace(&mut self.edges[e].beta, -c_scaled)
    }

    /// Number of cloud nodes (the flow-node prefix).
    pub fn cloud_len(&self) -> usize {
        self.n_cloud
    }

    /// The `(L, U)` bounds of a flow node.
    pub fn bounds_of(&self, v: usize) -> (i64, i64) {
        self.bounds[v]
    }

    /// All edges as `(from, to, weight, scaled_breadth)` tuples —
    /// introspection for ILP rendering and exhaustive oracles.
    pub fn edge_list(&self) -> Vec<(usize, usize, i64, i64)> {
        self.edges
            .iter()
            .map(|e| (e.from, e.to, e.w, e.beta))
            .collect()
    }

    /// Objective coefficient of every `r(v)` in `BREADTH_SCALE` units
    /// (the paper's `Σ_FI β − Σ_FO β`), in one pass over the edges.
    pub fn objective_coefficients(&self) -> Vec<i64> {
        let mut coef = vec![0i64; self.kinds.len()];
        for e in &self.edges {
            coef[e.to] += e.beta;
            coef[e.from] -= e.beta;
        }
        coef
    }

    /// Solves the instance as a maximum-weight closure — one minimum
    /// cut, which the binary labels `r(v) ∈ {−1, 0}` make exact. Among
    /// the optima it returns the one that moves the fewest nodes.
    ///
    /// # Errors
    /// Returns [`RetimeError::Internal`] if the region bounds force a
    /// node in that requires a node forced out, or if the labels violate
    /// the difference constraints (a bug, guarded rather than assumed).
    pub fn solve(&self) -> Result<RetimingSolution, RetimeError> {
        // The closure is dropped before the labels are allocated.
        let members = solve_closure(&mut self.closure())?;
        self.finish_solution(labels(&members))
    }

    /// Solves the Eq. (14) flow dual with an explicit min-cost-flow
    /// engine — [`MinCostFlow::solve_reference`] — and reads the labels
    /// off its potentials: the oracle tests check
    /// [`RetimingProblem::solve`] against. No production path runs it.
    ///
    /// # Errors
    /// Propagates solver failures, and the label checks of
    /// [`RetimingProblem::solve`].
    pub fn solve_with(
        &self,
        engine: impl FnOnce(&MinCostFlow) -> Result<FlowSolution, FlowError>,
    ) -> Result<RetimingSolution, RetimeError> {
        let y = engine(&self.flow_instance())?.potentials;
        // r(v) = y(host) − y(v).
        let r = y.iter().map(|&yv| y[self.host] - yv).collect();
        self.finish_solution(r)
    }

    /// Validates a solver's label vector (bounds + difference
    /// constraints) and packages it as a [`RetimingSolution`].
    fn finish_solution(&self, r: Vec<i64>) -> Result<RetimingSolution, RetimeError> {
        for (v, &(lo, hi)) in self.bounds.iter().enumerate() {
            if r[v] < lo || r[v] > hi {
                return Err(RetimeError::Internal(format!(
                    "solver returned r({v}) = {} outside [{lo}, {hi}]",
                    r[v]
                )));
            }
        }
        for e in &self.edges {
            if r[e.from] - r[e.to] > e.w {
                return Err(RetimeError::Internal(format!(
                    "solver violated r({}) - r({}) <= {}",
                    e.from, e.to, e.w
                )));
            }
        }
        let moved: Vec<bool> = (0..self.n_cloud).map(|v| r[v] == -1).collect();
        let objective_scaled = self.objective_scaled_for(&moved);
        Ok(RetimingSolution {
            cut: Cut::from_raw(moved),
            r,
            objective_scaled,
        })
    }

    /// The Eq. (14) min-cost-flow dual of this instance: uncapacitated
    /// arcs for the (modified) retiming edges, bound edges of \[24\]
    /// against the host, and objective coefficients (movement penalty
    /// folded in) as node demands.
    ///
    /// [`RetimingProblem::solve_with`] builds it once per call; tests
    /// can build the identical instance to audit a solution with
    /// `retime_verify::check_flow_solution`.
    pub fn flow_instance(&self) -> MinCostFlow {
        let n = self.kinds.len();
        let mut flow = MinCostFlow::new(n);
        for e in &self.edges {
            flow.add_uncapacitated(e.from, e.to, e.w);
        }
        for (v, &(lo, hi)) in self.bounds.iter().enumerate() {
            if v == self.host {
                continue;
            }
            // Bound edges of [24]: (v, h) with weight U_v and (h, v) with
            // weight −L_v enforce L_v ≤ r(v) ≤ U_v through the duals.
            flow.add_uncapacitated(v, self.host, hi);
            flow.add_uncapacitated(self.host, v, -lo);
        }
        for (v, d) in self.flow_demands().into_iter().enumerate() {
            flow.set_demand(v, d);
        }
        flow
    }

    /// The demand vector of the Eq. 14 instance: objective coefficients
    /// with the movement penalty folded in for cloud nodes (penalising
    /// `r(v) = −1` means adding `−eps` to the coefficient; the host
    /// absorbs the balance).
    fn flow_demands(&self) -> Vec<i64> {
        let eps = self.movement_penalty;
        let mut demands = self.objective_coefficients();
        for d in demands.iter_mut().take(self.n_cloud) {
            *d -= eps;
        }
        demands[self.host] += eps * self.n_cloud as i64;
        demands
    }

    /// The moved set as a maximum-weight closure: selecting `v` means
    /// `r(v) = −1` and gains its Eq. 14 demand. The host is forced out,
    /// so its weight does not matter.
    fn closure(&self) -> Closure {
        let mut cl = Closure::new(self.kinds.len());
        for (v, d) in self.flow_demands().into_iter().enumerate() {
            cl.set_weight(v, d);
        }
        for e in &self.edges {
            if e.w == 0 {
                // r(from) − r(to) ≤ 0  ⇔  s(to) ⇒ s(from).
                cl.require(e.to, e.from);
            }
            // w = 1 host→source edges are non-binding for binary s.
        }
        cl.force_out(self.host);
        for (v, &(lo, hi)) in self.bounds.iter().enumerate() {
            if v == self.host {
                continue;
            }
            if hi == -1 {
                cl.force_in(v);
            }
            if lo == 0 {
                cl.force_out(v);
            }
        }
        cl
    }

    /// Evaluates the scaled objective of an arbitrary cloud assignment,
    /// deriving the optimal mirror (`max` of fanout values) and pseudo
    /// (`max` of `g(t)` values) settings.
    ///
    /// Units: `BREADTH_SCALE` per slave latch; pseudo savings enter
    /// negatively. Divide by `BREADTH_SCALE` for latch-area units.
    pub fn objective_scaled_for(&self, moved_cloud: &[bool]) -> i64 {
        assert_eq!(moved_cloud.len(), self.n_cloud);
        let r = self.full_assignment(moved_cloud);
        self.edges
            .iter()
            .map(|e| e.beta * (e.w + r[e.to] - r[e.from]))
            .sum()
    }

    /// Extends a cloud assignment with the derived optimal mirror
    /// (`max` of fanout values), pseudo (`max` of `g(t)` values), and
    /// host (`0`) labels — the complete label vector over
    /// [`RetimingProblem::node_count`] variables that certificate
    /// checkers hand to `IlpFormulation::is_feasible`.
    ///
    /// # Panics
    /// Panics if `moved_cloud.len()` differs from
    /// [`RetimingProblem::cloud_len`].
    pub fn full_assignment_for(&self, moved_cloud: &[bool]) -> Vec<i64> {
        assert_eq!(moved_cloud.len(), self.n_cloud);
        self.full_assignment(moved_cloud)
    }

    /// Extends a cloud assignment with derived mirror/pseudo/host values.
    fn full_assignment(&self, moved_cloud: &[bool]) -> Vec<i64> {
        let n = self.kinds.len();
        let mut r = vec![0i64; n];
        for (v, &m) in moved_cloud.iter().enumerate() {
            r[v] = if m { -1 } else { 0 };
        }
        // CSR over the positive-breadth fanout edges, built in one pass —
        // this runs on every solve, resumed ones included, so letting
        // each mirror rescan the whole edge list would dominate a resume.
        let mut first = vec![0usize; n + 1];
        for e in &self.edges {
            if e.beta > 0 {
                first[e.from + 1] += 1;
            }
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        let mut targets = vec![0usize; first[n]];
        let mut next = first.clone();
        for e in &self.edges {
            if e.beta > 0 {
                targets[next[e.from]] = e.to;
                next[e.from] += 1;
            }
        }
        for (v, kind) in self.kinds.iter().enumerate() {
            match kind {
                FlowNodeKind::Mirror { of } => {
                    // max over the mirrored node's fanouts. Its other
                    // positive-breadth edges feed the mirrors of nodes
                    // it is itself a fanout of, and do not bind `v`.
                    r[v] = targets[first[*of]..first[*of + 1]]
                        .iter()
                        .filter(|&&to| to < self.n_cloud)
                        .map(|&to| r[to])
                        .fold(-1, i64::max);
                }
                FlowNodeKind::Pseudo { gates } => {
                    r[v] = gates.iter().map(|&g| r[g]).max().unwrap_or(0);
                }
                _ => {}
            }
        }
        r
    }

    /// Renders the modified retiming graph in Graphviz DOT form — the
    /// paper's Fig. 5: original nodes and edges (with their breadth `β`
    /// and weight `w`), fanout-sharing mirror nodes (`m_…`), and the
    /// resiliency pseudo nodes `P(t)` with their `−c` host edges
    /// highlighted.
    ///
    /// `names` labels the cloud-node prefix (pass the cloud's node names);
    /// host, mirror, and pseudo nodes are labelled automatically.
    pub fn to_dot(&self, names: &[String]) -> String {
        use std::fmt::Write;
        let label = |v: usize| -> String {
            match &self.kinds[v] {
                FlowNodeKind::Cloud => names.get(v).cloned().unwrap_or_else(|| format!("n{v}")),
                FlowNodeKind::Host => "h".to_string(),
                FlowNodeKind::Mirror { of } => format!(
                    "m_{}",
                    names.get(*of).cloned().unwrap_or_else(|| format!("n{of}"))
                ),
                FlowNodeKind::Pseudo { .. } => format!("P{v}"),
            }
        };
        let mut out = String::from("digraph retiming {\n  rankdir=LR;\n");
        for (v, kind) in self.kinds.iter().enumerate() {
            let shape = match kind {
                FlowNodeKind::Cloud => "ellipse",
                FlowNodeKind::Host => "doublecircle",
                FlowNodeKind::Mirror { .. } => "diamond",
                FlowNodeKind::Pseudo { .. } => "box",
            };
            let color = match kind {
                FlowNodeKind::Pseudo { .. } => ", color=red",
                FlowNodeKind::Mirror { .. } => ", color=gray",
                _ => "",
            };
            let _ = writeln!(
                out,
                "  v{v} [label=\"{}\", shape={shape}{color}];",
                label(v)
            );
        }
        for e in &self.edges {
            let beta = e.beta as f64 / BREADTH_SCALE as f64;
            let style = if e.beta < 0 {
                ", color=red, fontcolor=red"
            } else if e.beta == 0 {
                ", style=dashed"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  v{} -> v{} [label=\"w={} β={beta:.2}\"{style}];",
                e.from, e.to, e.w
            );
        }
        out.push_str("}\n");
        out
    }
}

/// Solves the closure form of a retiming instance (resuming its kept
/// preflow, if any): the moved set.
fn solve_closure(cl: &mut Closure) -> Result<Vec<bool>, RetimeError> {
    let (_w, members) = cl.solve().map_err(|e| match e {
        FlowError::Infeasible => {
            RetimeError::Internal("closure infeasible despite consistent regions".into())
        }
        other => RetimeError::Flow(other),
    })?;
    Ok(members)
}

/// The labels of a moved set: `r(v) = −1` for a moved node, else 0.
fn labels(members: &[bool]) -> Vec<i64> {
    members.iter().map(|&m| if m { -1 } else { 0 }).collect()
}

/// A retiming instance kept with its closure form and last solution
/// across the probes of an EDL-overhead sweep.
///
/// The overhead `c` reaches the instance only through its pseudo nodes'
/// host edges. [`ParametricProblem::set_pseudo_overhead`] re-prices them
/// in place, which re-weights the kept closure, and the next
/// [`ParametricProblem::solve`] resumes the last maximum preflow instead
/// of building and solving the closure from nothing. Raising `c` only
/// raises weight arcs into the cut's sink: the monotone case of
/// parametric maximum flow. The answer is the same inclusion-minimal
/// optimum a cold [`RetimingProblem::solve`] returns, and it passes the
/// same label checks.
#[derive(Debug, Clone)]
pub struct ParametricProblem {
    problem: RetimingProblem,
    closure: Option<Closure>,
    last: Option<RetimingSolution>,
}

impl ParametricProblem {
    /// Keeps `problem`; its closure is built by the first solve.
    pub fn new(problem: RetimingProblem) -> ParametricProblem {
        ParametricProblem {
            problem,
            closure: None,
            last: None,
        }
    }

    /// The instance as it stands.
    pub fn problem(&self) -> &RetimingProblem {
        &self.problem
    }

    /// [`RetimingProblem::set_pseudo_overhead`], carried over to the
    /// kept closure: the pseudo node's weight and the host's move by the
    /// change in `c`. Forgets the last solution, which answered another
    /// instance.
    ///
    /// # Panics
    /// As [`RetimingProblem::set_pseudo_overhead`].
    pub fn set_pseudo_overhead(&mut self, p: usize, c_scaled: i64) {
        let delta = c_scaled - self.problem.set_pseudo_overhead(p, c_scaled);
        if let Some(cl) = &mut self.closure {
            cl.add_weight(p, delta);
            cl.add_weight(self.problem.host, -delta);
        }
        self.last = None;
    }

    /// Whether the next solve resumes a kept preflow rather than
    /// starting from nothing.
    pub fn resumes(&self) -> bool {
        self.closure.as_ref().is_some_and(Closure::has_preflow)
    }

    /// Solves the instance, resuming the kept closure when there is one,
    /// and keeps the solution.
    ///
    /// # Errors
    /// As [`RetimingProblem::solve`].
    pub fn solve(&mut self) -> Result<&RetimingSolution, RetimeError> {
        self.last = None;
        let cl = self.closure.get_or_insert_with(|| self.problem.closure());
        let members = solve_closure(cl)?;
        let sol = self.problem.finish_solution(labels(&members))?;
        Ok(self.last.insert(sol))
    }

    /// The instance and its solution, when the last solve succeeded and
    /// nothing was re-priced since — what harnesses hand to
    /// `retime_verify::verify_retiming_solution`.
    pub fn last_solved(&self) -> Option<(&RetimingProblem, &RetimingSolution)> {
        self.last.as_ref().map(|sol| (&self.problem, sol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_liberty::Library;
    use retime_netlist::bench;
    use retime_sta::{DelayModel, TimingAnalysis, TwoPhaseClock};

    fn setup(src: &str, p: f64) -> (CombCloud, Regions) {
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
        (cloud, regions)
    }

    const RECONVERGE: &str = "\
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
g = AND(a, b)
h = OR(g, c)
z = NOT(h)
";

    #[test]
    fn min_area_merges_latches() {
        // Three input latches can be retimed to a single latch at h.
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let prob = RetimingProblem::build(&cloud, &regions);
        let sol = prob.solve().unwrap();
        sol.cut.validate(&cloud).unwrap();
        assert!(sol.cut.check_paths(&cloud));
        assert_eq!(sol.cut.slave_count(&cloud), 1);
        assert_eq!(sol.objective_scaled, BREADTH_SCALE);
    }

    #[test]
    fn engines_agree() {
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let prob = RetimingProblem::build(&cloud, &regions);
        let a = prob.solve().unwrap();
        let c = prob.solve_with(MinCostFlow::solve_reference).unwrap();
        assert_eq!(a.objective_scaled, c.objective_scaled);
    }

    #[test]
    fn initial_objective_counts_sources() {
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let prob = RetimingProblem::build(&cloud, &regions);
        assert_eq!(
            prob.objective_scaled_for(&vec![false; cloud.len()]),
            BREADTH_SCALE * cloud.sources().len() as i64
        );
    }

    #[test]
    fn pseudo_target_changes_optimum() {
        // Without the pseudo node, keeping three latches at the inputs and
        // merging to one is optimal. A pseudo node rewarding movement past
        // g and c makes the same cut also reclaim c-units.
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let mut prob = RetimingProblem::build(&cloud, &regions);
        let g = cloud.find("g").unwrap();
        let c = cloud.find("c").unwrap();
        let c_scaled = 2 * BREADTH_SCALE; // overhead c = 2
        prob.add_pseudo_target(&[g, c], c_scaled);
        let sol = prob.solve().unwrap();
        // One latch (at h or later), and the pseudo node pays −2.
        assert_eq!(sol.objective_scaled, BREADTH_SCALE - c_scaled);
        assert!(sol.cut.is_moved(g));
        assert!(sol.cut.is_moved(c));
    }

    #[test]
    fn parametric_solves_match_cold_solves_at_every_overhead() {
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let mut prob = RetimingProblem::build(&cloud, &regions);
        let gates = [cloud.find("g").unwrap(), cloud.find("c").unwrap()];
        let p = prob.add_pseudo_target(&gates, 0);
        let mut kept = ParametricProblem::new(prob.clone());
        let scale = BREADTH_SCALE / 4;
        let mut prev = 0;
        // Rising, repeated, falling, and back to zero (a sign change).
        for c in [1, 2, 2, 8, 3, 0, 5].map(|c| c * scale) {
            assert_eq!(prob.set_pseudo_overhead(p, c), prev);
            kept.set_pseudo_overhead(p, c);
            assert!(
                kept.last_solved().is_none(),
                "re-pricing forgets the solution"
            );
            assert_eq!(kept.problem(), &prob);
            // Once solved, a weight that keeps its sign resumes.
            assert_eq!(kept.resumes(), prev > 0 && c > 0);
            prev = c;
            let cold = prob.solve().unwrap();
            let warm = kept.solve().unwrap();
            assert_eq!(warm.r, cold.r, "labels at c = {c}");
            assert_eq!(warm.objective_scaled, cold.objective_scaled);
        }
    }

    #[test]
    fn pseudo_not_taken_when_unprofitable() {
        // If moving costs more latches than the pseudo node saves, the
        // solver declines. Fanout forces extra latches: a feeds two
        // separate sinks.
        // `b` fans out to an extra primary output `w`, so any move that
        // reaches g4 strands at least one extra latch somewhere on the
        // fanout frontier (3 latches instead of the initial 2).
        let src = "\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
OUTPUT(w)
g1 = AND(a, b)
g2 = NOT(a)
g3 = NOT(g2)
g4 = NOT(g3)
y = BUFF(g1)
z = BUFF(g4)
w = BUFF(b)
";
        let (cloud, regions) = setup(src, 100.0);
        let mut prob = RetimingProblem::build(&cloud, &regions);
        // A tiny reward for moving past a deep chain: not worth the extra
        // latches created by splitting a's fanout.
        let g4 = cloud.find("g4").unwrap();
        prob.add_pseudo_target(&[g4], BREADTH_SCALE / 10);
        let sol = prob.solve().unwrap();
        assert!(!sol.cut.is_moved(g4), "unprofitable move must be declined");
    }

    #[test]
    fn mandatory_region_forces_movement() {
        // Tighten the clock so inputs must move (V_m non-empty); the chain
        // must be long enough that combinational delay dominates the latch
        // launch delay.
        let mut chain = String::from("INPUT(a)\nOUTPUT(z)\ng1 = NOT(a)\n");
        for i in 2..=20 {
            chain.push_str(&format!("g{i} = NOT(g{})\n", i - 1));
        }
        chain.push_str("z = BUFF(g20)\n");
        let n = bench::parse("t", &chain).unwrap();
        let cloud = CombCloud::extract(&n).unwrap();
        let lib = Library::fdsoi28();
        let sta0 = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(1.0),
            DelayModel::PathBased,
        )
        .unwrap();
        let crit = sta0.df(cloud.sinks()[0]);
        let sta = TimingAnalysis::new(
            &cloud,
            &lib,
            TwoPhaseClock::from_max_delay(crit * 1.02),
            DelayModel::PathBased,
        )
        .unwrap();
        let regions = Regions::compute(&sta).unwrap();
        let prob = RetimingProblem::build(&cloud, &regions);
        let sol = prob.solve().unwrap();
        let a = cloud.find("a").unwrap();
        assert!(sol.cut.is_moved(a), "V_m node must be retimed through");
        sol.cut.validate(&cloud).unwrap();
    }

    #[test]
    fn dot_export_contains_structure() {
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let mut prob = RetimingProblem::build(&cloud, &regions);
        let g = cloud.find("g").unwrap();
        prob.add_pseudo_target(&[g], BREADTH_SCALE);
        let names: Vec<String> = cloud
            .node_ids()
            .map(|v| cloud.node_name(v).to_string())
            .collect();
        let dot = prob.to_dot(&names);
        assert!(dot.starts_with("digraph retiming"));
        assert!(dot.contains("label=\"h\""), "host node rendered");
        assert!(dot.contains("color=red"), "pseudo extension highlighted");
        assert!(dot.contains("β=1.00"), "unit breadth rendered");
        assert!(
            dot.contains("β=-1.00"),
            "negative (EDL-saving) breadth rendered"
        );
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn movement_penalty_breaks_ties_toward_staying() {
        // A free (zero-cost) move: NOT chain where sliding the latch
        // forward neither saves nor costs latches. With the penalty the
        // solver must keep the initial position.
        let (cloud, regions) = setup(
            "INPUT(a)\nOUTPUT(z)\ng1 = NOT(a)\ng2 = NOT(g1)\nz = BUFF(g2)\n",
            100.0,
        );
        let prob = RetimingProblem::build(&cloud, &regions);
        let sol = prob.solve().unwrap();
        let a = cloud.find("a").unwrap();
        assert!(!sol.cut.is_moved(a), "ties must break toward no movement");
        assert_eq!(sol.cut.slave_count(&cloud), 1);
    }

    #[test]
    fn objective_evaluator_matches_slave_count_without_pseudos() {
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let prob = RetimingProblem::build(&cloud, &regions);
        for (engine, sol) in [
            ("min cut", prob.solve()),
            ("reference", prob.solve_with(MinCostFlow::solve_reference)),
        ] {
            let sol = sol.unwrap();
            assert_eq!(
                sol.objective_scaled,
                (sol.cut.slave_count(&cloud) as i64) * BREADTH_SCALE,
                "objective must equal the shared latch count ({engine})"
            );
        }
    }

    #[test]
    fn mirror_labels_follow_their_own_fanouts_only() {
        // `a` fans out to `x` and `y`, and `x` to `p` and `q`, so `x` has
        // an edge into `a`'s mirror as well as its own fanout edges.
        let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n\
            x = AND(a, b)\ny = NOT(a)\np = NOT(x)\nq = BUFF(x)\nz = AND(p, q)\n";
        let (cloud, regions) = setup(src, 100.0);
        let prob = RetimingProblem::build(&cloud, &regions);
        let moved: Vec<bool> = cloud
            .node_ids()
            .map(|v| matches!(cloud.node_name(v), "a" | "b" | "x" | "p" | "q"))
            .collect();
        let r = prob.full_assignment_for(&moved);
        let mut mirrors = 0;
        for (v, kind) in prob.kinds.iter().enumerate() {
            if let FlowNodeKind::Mirror { of } = kind {
                let of = NodeId(*of as u32);
                let all = cloud.fanout(of).iter().all(|f| moved[f.index()]);
                assert_eq!(r[v], -i64::from(all), "mirror of {}", cloud.node_name(of));
                mirrors += 1;
            }
        }
        assert_eq!(mirrors, 2);
    }

    #[test]
    fn objective_coefficients_match_the_edge_sums() {
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let mut prob = RetimingProblem::build(&cloud, &regions);
        prob.add_pseudo_target(&[cloud.find("g").unwrap()], BREADTH_SCALE);
        let coef = prob.objective_coefficients();
        for (v, &c) in coef.iter().enumerate() {
            let fanin: i64 = prob
                .edges
                .iter()
                .filter(|e| e.to == v)
                .map(|e| e.beta)
                .sum();
            let fanout: i64 = prob
                .edges
                .iter()
                .filter(|e| e.from == v)
                .map(|e| e.beta)
                .sum();
            assert_eq!(c, fanin - fanout, "node {v}");
        }
    }
}
