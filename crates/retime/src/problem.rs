//! The retiming problem: Eq. (10)'s ILP, its flow dual Eq. (14), and the
//! equivalent closure formulation the production solve runs as one
//! minimum cut.

use std::time::{Duration, Instant};

use retime_engine::PhaseTimings;
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
    /// Time spent inside the solver.
    pub solver_time: Duration,
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
        for (i, node) in cloud.nodes().iter().enumerate() {
            if node.is_sink() {
                continue;
            }
            let k = node.fanout.len();
            match k {
                0 => {}
                1 => {
                    edges.push(PEdge {
                        from: i,
                        to: node.fanout[0].index(),
                        w: 0,
                        beta: BREADTH_SCALE,
                    });
                }
                _ => {
                    let beta = (BREADTH_SCALE + (k as i64) / 2) / (k as i64);
                    let m = kinds.len();
                    kinds.push(FlowNodeKind::Mirror { of: i });
                    bounds.push((-1, 0));
                    for &v in &node.fanout {
                        edges.push(PEdge {
                            from: i,
                            to: v.index(),
                            w: 0,
                            beta,
                        });
                        edges.push(PEdge {
                            from: v.index(),
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
        }
    }

    /// Sets the tie-breaking movement penalty (see the field docs);
    /// `0` disables it.
    pub fn set_movement_penalty(&mut self, eps: i64) {
        assert!(eps >= 0, "penalty must be non-negative");
        self.movement_penalty = eps;
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
        self.edges.push(PEdge {
            from: p,
            to: self.host,
            w: 0,
            beta: -c_scaled,
        });
        p
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
        let start = Instant::now();
        let r = self.closure_labels()?;
        self.finish_solution(r, start.elapsed())
    }

    /// Solves the Eq. (14) flow dual with an explicit min-cost-flow
    /// engine — e.g. [`MinCostFlow::solve`] or the certificate
    /// checker's [`MinCostFlow::solve_reference`] — for oracles,
    /// differential tests and benchmarks.
    ///
    /// # Errors
    /// Propagates solver failures, and the label checks of
    /// [`RetimingProblem::solve`].
    pub fn solve_with(
        &self,
        engine: impl FnOnce(&MinCostFlow) -> Result<FlowSolution, FlowError>,
    ) -> Result<RetimingSolution, RetimeError> {
        let start = Instant::now();
        let sol = engine(&self.flow_instance())?;
        self.finish_flow(&sol, start.elapsed())
    }

    /// Reads the labels `r(v) = y(host) − y(v)` off a flow solution's
    /// potentials and validates them.
    fn finish_flow(
        &self,
        sol: &FlowSolution,
        solver_time: Duration,
    ) -> Result<RetimingSolution, RetimeError> {
        let y = &sol.potentials;
        let r = y.iter().map(|&yv| y[self.host] - yv).collect();
        self.finish_solution(r, solver_time)
    }

    /// Validates a solver's label vector (bounds + difference
    /// constraints) and packages it as a [`RetimingSolution`].
    fn finish_solution(
        &self,
        r: Vec<i64>,
        solver_time: Duration,
    ) -> Result<RetimingSolution, RetimeError> {
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
            solver_time,
        })
    }

    /// The Eq. (14) min-cost-flow dual of this instance: uncapacitated
    /// arcs for the (modified) retiming edges, bound edges of \[24\]
    /// against the host, and objective coefficients (movement penalty
    /// folded in) as node demands.
    ///
    /// This is the single encoding every flow engine consumes —
    /// [`RetimingProblem::solve_with`] builds it once per call, and external
    /// tooling (benchmarks, the verifier's re-solve path) can build the
    /// identical instance to probe engines or audit certificates. The
    /// returned problem freezes its CSR arena on first solve, so solving
    /// it repeatedly reuses one adjacency build.
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
    fn closure_labels(&self) -> Result<Vec<i64>, RetimeError> {
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
        let (_w, members) = cl.solve().map_err(|e| match e {
            FlowError::Infeasible => {
                RetimeError::Internal("closure infeasible despite consistent regions".into())
            }
            other => RetimeError::Flow(other),
        })?;
        Ok(members.iter().map(|&m| if m { -1 } else { 0 }).collect())
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
        // this runs on every solve, memo hits included, so letting each
        // mirror rescan the whole edge list would dominate the re-solve.
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
                    // max over the mirrored node's fanout edges.
                    let mut m = -1i64;
                    for &to in &targets[first[*of]..first[*of + 1]] {
                        if to != v {
                            m = m.max(r[to]);
                        }
                    }
                    r[v] = m;
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

    /// The objective of the *initial* cut (all latches at the sources),
    /// useful as a reference: `BREADTH_SCALE × #sources` minus nothing.
    pub fn initial_objective_scaled(&self) -> i64 {
        self.objective_scaled_for(&vec![false; self.n_cloud])
    }

    /// Builds the [`Cut`] corresponding to a solution's cloud prefix.
    pub fn cut_from(&self, cloud: &CombCloud, r: &[i64]) -> Cut {
        Cut::from_moved(cloud, (0..self.n_cloud).map(|v| r[v] == -1).collect())
    }
}

/// A solved-instance memo for the retiming solves of one warm slot.
///
/// The memo keeps the last problem it solved and its solution. A probe
/// whose problem is identical — same nodes, edges, bounds and movement
/// penalty — gets the cached labels back, re-checked against the
/// problem; any other probe is solved with [`RetimingProblem::solve`],
/// exactly as an unslotted flow would, and replaces the memo. Table
/// IV's base and RVL flows do not depend on the EDL overhead, so across
/// the `c ∈ {0.5, 1, 2}` sweep every probe after the first is a hit;
/// G-RAR's overhead moves its pseudo-node weights, so its probes miss.
#[derive(Debug, Default)]
pub struct RetimingSweep {
    last: Option<(RetimingProblem, RetimingSolution)>,
}

impl RetimingSweep {
    /// Solves `prob`, from the memo when it is identical to the last
    /// problem solved, else with [`RetimingProblem::solve`]. Adds the
    /// probe's `warm_hits` / `cold_solves` to `timings`.
    ///
    /// # Errors
    /// The solver's failures, and [`RetimeError::Internal`] when the
    /// labels violate `prob`'s bounds or difference constraints —
    /// whether they were solved now or came from the memo.
    pub fn solve_for(
        &mut self,
        prob: &RetimingProblem,
        timings: &mut PhaseTimings,
    ) -> Result<RetimingSolution, RetimeError> {
        let start = Instant::now();
        let _span = retime_trace::span("solve_warm");
        let hit = matches!(&self.last, Some((cached, _)) if cached == prob);
        timings.count("warm_hits", u64::from(hit));
        timings.count("cold_solves", u64::from(!hit));
        if hit {
            retime_trace::attr_str("path", "hit");
            let (_, sol) = self.last.as_ref().expect("hit implies a memo");
            return prob.finish_solution(sol.r.clone(), start.elapsed());
        }
        retime_trace::attr_str("path", "cold");
        // Free the old memo before the solve allocates; a failed solve
        // leaves the memo empty.
        self.last = None;
        let sol = prob.solve()?;
        self.last = Some((prob.clone(), sol.clone()));
        Ok(sol)
    }

    /// The last problem solved and its solution, when a probe has run —
    /// what harnesses hand to `retime_verify::verify_retiming_solution`
    /// to certify the memo against an independent reference solve.
    pub fn last_solved(&self) -> Option<(&RetimingProblem, &RetimingSolution)> {
        self.last.as_ref().map(|(prob, sol)| (prob, sol))
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
        let b = prob.solve_with(MinCostFlow::solve).unwrap();
        let c = prob.solve_with(MinCostFlow::solve_reference).unwrap();
        assert_eq!(a.objective_scaled, b.objective_scaled);
        assert_eq!(a.objective_scaled, c.objective_scaled);
        assert_eq!(a.r, b.r);
    }

    #[test]
    fn initial_objective_counts_sources() {
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let prob = RetimingProblem::build(&cloud, &regions);
        assert_eq!(
            prob.initial_objective_scaled(),
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
        let names: Vec<String> = cloud.nodes().iter().map(|n| n.name.clone()).collect();
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
            ("ssp", prob.solve_with(MinCostFlow::solve)),
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
    fn flow_instance_agrees_across_engines() {
        // The public flow encoding, solved directly: both min-cost-flow
        // engines reach the same objective.
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let prob = RetimingProblem::build(&cloud, &regions);
        let flow = prob.flow_instance();
        let ssp = flow.solve().unwrap();
        let reference = flow.solve_reference().unwrap();
        assert_eq!(ssp.cost, reference.cost);
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

    /// Two circuits with the same node and edge counts but different
    /// wiring: a memo that compared counts only would answer the second
    /// with a solution of the first's instance.
    const WIRED_A: &str = "INPUT(i0)\nINPUT(i1)\nINPUT(i2)\nOUTPUT(g3)\nOUTPUT(g4)\n\
        g0 = NOT(i0)\ng1 = AND(i1, i2)\ng2 = OR(i2, g1)\ng3 = NOT(g0)\ng4 = AND(g2, g0)\n";
    const WIRED_B: &str = "INPUT(i0)\nINPUT(i1)\nINPUT(i2)\nOUTPUT(g3)\nOUTPUT(g4)\n\
        g0 = AND(i1, i2)\ng1 = NOT(i1)\ng2 = NAND(i2, g0)\ng3 = NOT(i0)\ng4 = AND(g1, g2)\n";

    #[test]
    fn memo_poisoned_in_a_slot_surfaces_as_an_error() {
        let (cloud, regions) = setup(RECONVERGE, 100.0);
        let prob = RetimingProblem::build(&cloud, &regions);
        let mut sweep = RetimingSweep::default();
        let mut timings = PhaseTimings::new();
        sweep.solve_for(&prob, &mut timings).unwrap();
        // Shift one cloud node's label far out of its region bounds; the
        // unchanged problem is then answered from the memo, and the
        // bounds guard in `finish_solution` must reject it.
        sweep.last.as_mut().unwrap().1.r[0] += 1_000;
        let err = sweep.solve_for(&prob, &mut timings).unwrap_err();
        assert!(matches!(err, RetimeError::Internal(_)), "{err}");
        assert_eq!(timings.counter("cold_solves"), 1);
    }

    #[test]
    fn memo_slot_serves_differently_wired_circuits() {
        let (cloud_a, regions_a) = setup(WIRED_A, 100.0);
        let (cloud_b, regions_b) = setup(WIRED_B, 100.0);
        let a = RetimingProblem::build(&cloud_a, &regions_a);
        let b = RetimingProblem::build(&cloud_b, &regions_b);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edges.len(), b.edges.len());
        assert_ne!(a.edge_list(), b.edge_list(), "the wiring must differ");
        let mut sweep = RetimingSweep::default();
        let mut timings = PhaseTimings::new();
        for prob in [&a, &b, &a] {
            let sol = sweep.solve_for(prob, &mut timings).unwrap();
            let cold = prob.solve().unwrap();
            assert_eq!(sol.r, cold.r);
            assert_eq!(sol.objective_scaled, cold.objective_scaled);
        }
        assert_eq!(timings.counter("cold_solves"), 3);
        assert_eq!(timings.counter("warm_hits"), 0);
    }
}
