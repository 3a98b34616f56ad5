//! Classic Leiserson–Saxe retiming of flip-flop circuits
//! (paper Section II-C background).
//!
//! The resiliency-aware flows of this workspace retime *slave latches*
//! with binary retiming values; this module provides the general
//! machinery they historically descend from: unrestricted integer
//! retiming of edge-weighted graphs, here used for **minimum-period**
//! retiming via the FEAS algorithm (iterated Bellman-Ford-style
//! correction) with a binary search over achievable periods.
//!
//! Caveat from the literature that motivates the paper's fixed masters:
//! classic retiming changes the circuit's initial state (\[15\] in the
//! paper); the applied netlists here reset all relocated flip-flops to
//! zero, so sequential equivalence holds only from a consistent reset.

use std::collections::HashMap;

use retime_flow::MinCostFlow;
use retime_netlist::{CellId, Gate, Netlist, NetlistError};

use crate::error::RetimeError;

/// A classic retiming graph: combinational gates as vertices, flip-flop
/// counts as edge weights, plus the host vertex closing I/O paths.
#[derive(Debug, Clone)]
pub struct ClassicGraph {
    /// Gate delays (vertex 0 is the host with delay 0).
    pub delay: Vec<f64>,
    /// Edges `(from, to, weight)`.
    pub edges: Vec<(usize, usize, i64)>,
    /// Names for reporting (host is `"<host>"`).
    pub names: Vec<String>,
    /// Back-map: graph vertex → netlist cell (None for the host).
    cells: Vec<Option<CellId>>,
}

/// Result of a minimum-period retiming.
#[derive(Debug, Clone)]
pub struct ClassicRetiming {
    /// Retiming value per graph vertex (host = 0).
    pub r: Vec<i64>,
    /// The achieved clock period.
    pub period: f64,
    /// The period of the input circuit, for comparison.
    pub original_period: f64,
}

/// Result of [`ClassicGraph::min_period_flow`]: the minimum-**register**
/// retiming among those achieving the minimum period.
#[derive(Debug, Clone)]
pub struct FlowPeriodRetiming {
    /// The retiming, in the same shape [`ClassicGraph::min_period`]
    /// reports.
    pub retiming: ClassicRetiming,
    /// Total registers after retiming, `Σ_e w_r(e)` (the classic
    /// per-edge count, without fanout sharing).
    pub registers: i64,
}

impl ClassicGraph {
    /// Extracts the retiming graph from a flip-flop netlist: combinational
    /// gates become vertices; chains of flip-flops between them become
    /// edge weights; primary I/O connects through the host vertex.
    ///
    /// # Errors
    /// Returns [`NetlistError::WrongSequentialStyle`] for latch-style
    /// netlists and propagates validation failures.
    pub fn extract(
        n: &Netlist,
        delay_of: impl Fn(&Netlist, CellId) -> f64,
    ) -> Result<ClassicGraph, NetlistError> {
        n.validate()?;
        if !n.masters().is_empty() || !n.slaves().is_empty() {
            return Err(NetlistError::WrongSequentialStyle(
                "classic retiming expects a flip-flop netlist".into(),
            ));
        }
        const HOST: usize = 0;
        let mut delay = vec![0.0f64];
        let mut names = vec!["<host>".to_string()];
        let mut cells: Vec<Option<CellId>> = vec![None];
        let mut vertex: HashMap<CellId, usize> = HashMap::new();
        for (i, c) in n.cells().iter().enumerate() {
            if c.gate.is_combinational() {
                let id = CellId(i as u32);
                vertex.insert(id, delay.len());
                delay.push(delay_of(n, id));
                names.push(c.name.clone());
                cells.push(Some(id));
            }
        }
        // Resolve a producer: walk backward through flip-flop chains,
        // counting them, until a combinational gate or input is reached.
        let resolve = |mut f: CellId| -> (Option<CellId>, i64) {
            let mut w = 0;
            loop {
                let cell = n.cell(f);
                match cell.gate {
                    Gate::Dff => {
                        w += 1;
                        f = cell.fanin[0];
                    }
                    Gate::Input => return (None, w),
                    _ => return (Some(f), w),
                }
            }
        };
        let mut edges = Vec::new();
        for (i, c) in n.cells().iter().enumerate() {
            let _ = i;
            match c.gate {
                g if g.is_combinational() => {
                    let v = vertex[&CellId(i as u32)];
                    for &f in &c.fanin {
                        let (src, w) = resolve(f);
                        let u = src.map(|s| vertex[&s]).unwrap_or(HOST);
                        edges.push((u, v, w));
                    }
                }
                Gate::Output => {
                    let (src, w) = resolve(c.fanin[0]);
                    let u = src.map(|s| vertex[&s]).unwrap_or(HOST);
                    edges.push((u, HOST, w));
                }
                _ => {}
            }
        }
        Ok(ClassicGraph {
            delay,
            edges,
            names,
            cells,
        })
    }

    /// Number of vertices (including the host).
    pub fn len(&self) -> usize {
        self.delay.len()
    }

    /// Whether the graph has no gates.
    pub fn is_empty(&self) -> bool {
        self.delay.len() <= 1
    }

    /// The clock period of the graph under retiming `r`: the longest
    /// combinational (zero-register) path delay. Returns `None` when some
    /// retimed weight is negative (illegal `r`) or a zero-weight cycle
    /// exists (no valid period).
    pub fn period(&self, r: &[i64]) -> Option<f64> {
        let n = self.len();
        let mut zero_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for &(u, v, w) in &self.edges {
            let wr = w + r[v] - r[u];
            if wr < 0 {
                return None;
            }
            if wr == 0 {
                zero_adj[u].push(v);
                indeg[v] += 1;
            }
        }
        // Longest path over the zero-weight subgraph (must be acyclic).
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut arrival: Vec<f64> = self.delay.clone();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in &zero_adj[u] {
                arrival[v] = arrival[v].max(arrival[u] + self.delay[v]);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if seen != n {
            return None; // zero-weight cycle
        }
        Some(arrival.iter().copied().fold(0.0, f64::max))
    }

    /// FEAS feasibility test: is there a retiming achieving period `p`?
    /// Returns the retiming when one exists (host pinned to 0).
    pub fn feasible(&self, p: f64) -> Option<Vec<i64>> {
        let n = self.len();
        let mut r = vec![0i64; n];
        for _ in 0..n {
            let arrival = self.arrivals(&r)?;
            let mut ok = true;
            for v in 1..n {
                if arrival[v] > p + 1e-9 {
                    r[v] += 1;
                    ok = false;
                }
            }
            if ok {
                return Some(r);
            }
        }
        None
    }

    /// Arrival times under retiming `r` (None on negative weights or
    /// zero-weight cycles).
    fn arrivals(&self, r: &[i64]) -> Option<Vec<f64>> {
        let n = self.len();
        let mut zero_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        for &(u, v, w) in &self.edges {
            let wr = w + r[v] - r[u];
            if wr < 0 {
                return None;
            }
            if wr == 0 {
                zero_adj[u].push(v);
                indeg[v] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut arrival: Vec<f64> = self.delay.clone();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in &zero_adj[u] {
                arrival[v] = arrival[v].max(arrival[u] + self.delay[v]);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        (seen == n).then_some(arrival)
    }

    /// Minimum-period retiming: binary search over candidate periods with
    /// the FEAS check, down to `tolerance` (absolute, in delay units).
    pub fn min_period(&self, tolerance: f64) -> ClassicRetiming {
        let original = self.period(&vec![0; self.len()]).unwrap_or(f64::INFINITY);
        let mut lo = self.delay.iter().copied().fold(0.0f64, f64::max);
        let mut hi = original;
        let mut best = (vec![0i64; self.len()], original);
        while hi - lo > tolerance {
            let mid = 0.5 * (lo + hi);
            match self.feasible(mid) {
                Some(r) => {
                    let achieved = self.period(&r).unwrap_or(mid);
                    if achieved < best.1 {
                        best = (r, achieved);
                    }
                    hi = mid;
                }
                None => lo = mid,
            }
        }
        ClassicRetiming {
            r: best.0,
            period: best.1,
            original_period: original,
        }
    }

    /// Minimum period achieving a timing yield target: every gate delay
    /// is margined to `d·(1 + Φ⁻¹(yield_target)·sigma_frac)` — the
    /// first-order worst case at the target quantile when per-gate sigma
    /// is a fraction of nominal — and the [`ClassicGraph::min_period`]
    /// binary search runs on the margined graph. Conservative versus a
    /// full canonical-form analysis (it ignores the statistical-max
    /// "averaging" across reconverging paths), and with `sigma_frac = 0`
    /// it degenerates bitwise to `min_period` (the scale factor is
    /// exactly `1.0`).
    ///
    /// # Panics
    /// Panics when `yield_target` is outside `(0, 1)` (via the normal
    /// quantile) or `sigma_frac` is negative.
    pub fn min_period_at_yield(
        &self,
        tolerance: f64,
        sigma_frac: f64,
        yield_target: f64,
    ) -> ClassicRetiming {
        assert!(sigma_frac >= 0.0, "sigma_frac must be non-negative");
        let z = retime_stat::normal::quantile(yield_target);
        let scale = 1.0 + z * sigma_frac;
        let mut margined = self.clone();
        for d in &mut margined.delay {
            *d *= scale;
        }
        margined.min_period(tolerance)
    }

    /// Total registers under retiming `r`, `Σ_e (w(e) + r(to) − r(from))`
    /// — the classic per-edge count, without fanout sharing. `None` when
    /// some retimed weight is negative (illegal `r`).
    pub fn register_count(&self, r: &[i64]) -> Option<i64> {
        let mut total = 0;
        for &(u, v, w) in &self.edges {
            let wr = w + r[v] - r[u];
            if wr < 0 {
                return None;
            }
            total += wr;
        }
        Some(total)
    }

    /// The W/D matrices of Leiserson–Saxe: for each ordered pair,
    /// `W(u, v)` is the minimum register count over `u ⇝ v` paths and
    /// `D(u, v)` the maximum path delay among the register-minimal ones
    /// — computed by one lexicographic Floyd–Warshall over edge lengths
    /// `(w(e), −d(from))`. `None` for unreachable pairs.
    fn wd_matrices(&self) -> Vec<Vec<Option<(i64, f64)>>> {
        let n = self.len();
        let lex_less = |a: (i64, f64), b: (i64, f64)| a.0 < b.0 || (a.0 == b.0 && a.1 < b.1);
        let mut dist: Vec<Vec<Option<(i64, f64)>>> = vec![vec![None; n]; n];
        for (v, row) in dist.iter_mut().enumerate() {
            row[v] = Some((0, 0.0));
        }
        for &(u, v, w) in &self.edges {
            if u == v {
                continue;
            }
            let cand = (w, -self.delay[u]);
            if dist[u][v].is_none_or(|cur| lex_less(cand, cur)) {
                dist[u][v] = Some(cand);
            }
        }
        for k in 0..n {
            let row_k = dist[k].clone();
            for row_i in dist.iter_mut() {
                let Some(a) = row_i[k] else { continue };
                for (cur, &via) in row_i.iter_mut().zip(&row_k) {
                    let Some(b) = via else { continue };
                    let cand = (a.0 + b.0, a.1 + b.1);
                    if cur.is_none_or(|c| lex_less(cand, c)) {
                        *cur = Some(cand);
                    }
                }
            }
        }
        dist
    }

    /// Minimum-period retiming through the min-cost-flow dual: the same
    /// FEAS-gated binary search as [`ClassicGraph::min_period`], but each
    /// feasible probe solves min-**register**-subject-to-period as a flow
    /// (the LP dual of Leiserson–Saxe's min-area program) instead of
    /// taking whatever labels FEAS happens to produce.
    ///
    /// Each probe solves its own instance cold with [`MinCostFlow::solve`].
    /// The period constraint `r(u) − r(v) ≤ W(u, v) − 1` for pairs with
    /// `D(u, v) > p` is an arc of cost `W − 1` (binding); pairs within
    /// the period get cost `W` (redundant — already implied by the edge
    /// constraints), so every probe has the same arcs.
    ///
    /// # Errors
    /// Propagates flow-solver failures; [`RetimeError::Internal`] if the
    /// flow's duals violate the period they were solved for (a bug,
    /// guarded rather than assumed).
    pub fn min_period_flow(&self, tolerance: f64) -> Result<FlowPeriodRetiming, RetimeError> {
        let n = self.len();
        let dist = self.wd_matrices();
        let mut pairs: Vec<(usize, usize, i64, f64)> = Vec::new();
        for (u, row) in dist.iter().enumerate() {
            for (v, &cell) in row.iter().enumerate() {
                let Some((w, negd)) = cell else { continue };
                if u != v {
                    pairs.push((u, v, w, self.delay[v] - negd));
                }
            }
        }
        let probe = |period: f64| {
            let mut flow = MinCostFlow::new(n);
            for &(u, v, w) in &self.edges {
                flow.add_uncapacitated(u, v, w);
                flow.add_demand(v, 1);
                flow.add_demand(u, -1);
            }
            for &(u, v, w, d) in &pairs {
                let cost = if d > period + 1e-9 { w - 1 } else { w };
                flow.add_uncapacitated(u, v, cost);
            }
            flow
        };

        let original = self.period(&vec![0; n]).unwrap_or(f64::INFINITY);
        let mut lo = self.delay.iter().copied().fold(0.0f64, f64::max);
        let mut hi = original;
        let identity = vec![0i64; n];
        let regs0 = self.register_count(&identity).unwrap_or(0);
        let mut best = (identity, original, regs0);
        while hi - lo > tolerance {
            let mid = 0.5 * (lo + hi);
            if self.feasible(mid).is_none() {
                lo = mid;
                continue;
            }
            let sol = probe(mid).solve()?;
            let y = &sol.potentials;
            let r: Vec<i64> = (0..n).map(|v| y[0] - y[v]).collect();
            let violated =
                || RetimeError::Internal(format!("flow duals violate the probed period {mid}"));
            let achieved = self.period(&r).ok_or_else(violated)?;
            if achieved > mid + 1e-6 {
                return Err(violated());
            }
            let regs = self.register_count(&r).ok_or_else(violated)?;
            if achieved < best.1 - 1e-9 || ((achieved - best.1).abs() <= 1e-9 && regs < best.2) {
                best = (r, achieved, regs);
            }
            hi = mid;
        }
        Ok(FlowPeriodRetiming {
            retiming: ClassicRetiming {
                r: best.0,
                period: best.1,
                original_period: original,
            },
            registers: best.2,
        })
    }

    /// Applies a retiming to the original netlist: flip-flop chains are
    /// rebuilt per retimed edge weight, with fanout sharing of common
    /// chain prefixes.
    ///
    /// # Errors
    /// Propagates construction failures; returns
    /// [`NetlistError::Inconsistent`] for illegal retimings.
    pub fn apply(&self, n: &Netlist, r: &[i64]) -> Result<Netlist, NetlistError> {
        for &(u, v, w) in &self.edges {
            if w + r[v] - r[u] < 0 {
                return Err(NetlistError::Inconsistent(
                    "retiming produces a negative edge weight".into(),
                ));
            }
        }
        let mut out = Netlist::new(n.name());
        // Map original comb gates and inputs into the new netlist.
        let mut new_of: HashMap<CellId, CellId> = HashMap::new();
        for (i, c) in n.cells().iter().enumerate() {
            let id = CellId(i as u32);
            match c.gate {
                Gate::Input => {
                    new_of.insert(id, out.add_input(c.name.clone()));
                }
                g if g.is_combinational() => {
                    let nid = out.add_gate(c.name.clone(), g, &vec![CellId(0); c.fanin.len()])?;
                    new_of.insert(id, nid);
                }
                _ => {}
            }
        }
        // For each producing cell, lazily build its output FF chain to
        // the depth any consumer requires (fanout sharing of common chain
        // prefixes).
        let mut chains: HashMap<CellId, Vec<CellId>> = HashMap::new();
        let tap = |out: &mut Netlist,
                   chains: &mut HashMap<CellId, Vec<CellId>>,
                   new_of: &HashMap<CellId, CellId>,
                   src_cell: CellId,
                   depth: i64|
         -> Result<CellId, NetlistError> {
            let base = new_of[&src_cell];
            if depth == 0 {
                return Ok(base);
            }
            let chain = chains.entry(src_cell).or_default();
            while (chain.len() as i64) < depth {
                let prev = chain.last().copied().unwrap_or(base);
                let k = chain.len();
                let name = format!("{}__r{}", out.cell(base).name.clone(), k);
                let ff = out.add_gate(name, Gate::Dff, &[prev])?;
                chain.push(ff);
            }
            Ok(chain[(depth - 1) as usize])
        };
        // Rewire every consumer according to the retimed weights. We walk
        // the original structure again so pin order is preserved.
        let resolve = |mut f: CellId| -> (CellId, i64) {
            let mut w = 0;
            loop {
                let cell = n.cell(f);
                match cell.gate {
                    Gate::Dff => {
                        w += 1;
                        f = cell.fanin[0];
                    }
                    _ => return (f, w),
                }
            }
        };
        let vertex_of: HashMap<CellId, usize> = self
            .cells
            .iter()
            .enumerate()
            .filter_map(|(g, c)| c.map(|cell| (cell, g)))
            .collect();
        for (i, c) in n.cells().iter().enumerate() {
            let id = CellId(i as u32);
            match c.gate {
                g if g.is_combinational() => {
                    let v = vertex_of[&id];
                    let mut fanin = Vec::with_capacity(c.fanin.len());
                    for &f in &c.fanin {
                        let (src, w) = resolve(f);
                        let (u, src_cell) = match n.cell(src).gate {
                            Gate::Input => (0usize, src),
                            _ => (vertex_of[&src], src),
                        };
                        let ru = if u == 0 { 0 } else { r[u] };
                        let wr = w + r[v] - ru;
                        fanin.push(tap(&mut out, &mut chains, &new_of, src_cell, wr)?);
                    }
                    out.replace_fanin(new_of[&id], fanin);
                }
                Gate::Output => {
                    let (src, w) = resolve(c.fanin[0]);
                    let (u, src_cell) = match n.cell(src).gate {
                        Gate::Input => (0usize, src),
                        _ => (vertex_of[&src], src),
                    };
                    let ru = if u == 0 { 0 } else { r[u] };
                    let wr = w - ru; // host r = 0
                    let drv = tap(&mut out, &mut chains, &new_of, src_cell, wr)?;
                    out.add_output(c.name.clone(), drv)?;
                }
                _ => {}
            }
        }
        out.validate()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retime_netlist::bench;

    fn unit_delay(n: &Netlist, id: CellId) -> f64 {
        let _ = (n, id);
        1.0
    }

    /// An unbalanced ring: four unit gates with both registers bunched on
    /// one edge. Retiming can spread them for a 2× faster clock (a
    /// feed-forward pipeline cannot improve: the host edges close a loop
    /// whose single register pins the period to the loop delay).
    fn unbalanced() -> Netlist {
        bench::parse(
            "ring",
            "\
OUTPUT(q1)
q1 = DFF(g4)
q2 = DFF(q1)
g1 = NOT(q2)
g2 = NOT(g1)
g3 = NOT(g2)
g4 = NOT(g3)
",
        )
        .unwrap()
    }

    #[test]
    fn extraction_counts_ff_chains() {
        let n = bench::parse(
            "ch",
            "INPUT(a)\nOUTPUT(z)\nq1 = DFF(g1)\nq2 = DFF(q1)\ng1 = NOT(a)\nz = NOT(q2)\n",
        )
        .unwrap();
        let g = ClassicGraph::extract(&n, unit_delay).unwrap();
        // Edge g1 -> z carries the two-flop chain.
        let heavy = g
            .edges
            .iter()
            .find(|&&(_, _, w)| w == 2)
            .expect("two-deep chain edge");
        assert_eq!(g.names[heavy.0], "g1");
        assert_eq!(g.names[heavy.1], "z");
    }

    #[test]
    fn min_period_balances_pipeline() {
        let n = unbalanced();
        let g = ClassicGraph::extract(&n, unit_delay).unwrap();
        let result = g.min_period(0.01);
        // Four unit gates, two registers on one edge: original period 4,
        // balanced period 2.
        assert!((result.original_period - 4.0).abs() < 1e-9);
        assert!(
            (result.period - 2.0).abs() < 0.05,
            "balanced period should be 2, got {}",
            result.period
        );
        assert!(g.period(&result.r).unwrap() <= result.period + 1e-9);
    }

    #[test]
    fn applied_netlist_has_retimed_period() {
        let n = unbalanced();
        let g = ClassicGraph::extract(&n, unit_delay).unwrap();
        let result = g.min_period(0.01);
        let applied = g.apply(&n, &result.r).unwrap();
        applied.validate().unwrap();
        // Re-extract and confirm the period stuck.
        let g2 = ClassicGraph::extract(&applied, unit_delay).unwrap();
        let p2 = g2.period(&vec![0; g2.len()]).unwrap();
        assert!(
            (p2 - result.period).abs() < 1e-6,
            "applied period {p2} vs predicted {}",
            result.period
        );
    }

    #[test]
    fn identity_retiming_round_trips() {
        let n = unbalanced();
        let g = ClassicGraph::extract(&n, unit_delay).unwrap();
        let applied = g.apply(&n, &vec![0; g.len()]).unwrap();
        assert_eq!(applied.stats().dffs, n.stats().dffs);
        let g2 = ClassicGraph::extract(&applied, unit_delay).unwrap();
        assert_eq!(g2.period(&vec![0; g2.len()]), g.period(&vec![0; g.len()]));
    }

    #[test]
    fn illegal_retiming_rejected() {
        let n = unbalanced();
        let g = ClassicGraph::extract(&n, unit_delay).unwrap();
        let mut r = vec![0i64; g.len()];
        // Push a register backward where none exists.
        if g.len() > 2 {
            r[1] = -5;
        }
        assert!(g.period(&r).is_none() || g.apply(&n, &r).is_err());
    }

    #[test]
    fn flow_min_period_matches_feas_with_no_more_registers() {
        let n = unbalanced();
        let g = ClassicGraph::extract(&n, unit_delay).unwrap();
        let feas = g.min_period(0.01);
        let flow = g.min_period_flow(0.01).unwrap();
        assert!(
            (flow.retiming.period - feas.period).abs() < 0.05,
            "flow search must reach the FEAS period: {} vs {}",
            flow.retiming.period,
            feas.period
        );
        assert_eq!(flow.retiming.r[0], 0, "host stays pinned");
        let feas_regs = g.register_count(&feas.r).unwrap();
        assert!(
            flow.registers <= feas_regs,
            "min-register probe returned {} registers, FEAS used {feas_regs}",
            flow.registers
        );
        // On a single ring the register count is a retiming invariant.
        assert_eq!(flow.registers, 2);
        let applied = g.apply(&n, &flow.retiming.r).unwrap();
        let g2 = ClassicGraph::extract(&applied, unit_delay).unwrap();
        let p2 = g2.period(&vec![0; g2.len()]).unwrap();
        assert!((p2 - flow.retiming.period).abs() < 1e-6);
    }

    #[test]
    fn flow_min_period_drops_registers_feas_leaves_behind() {
        // Two parallel paths a → z: FEAS pushes labels greedily and can
        // strand registers; the min-register probe must tie them down.
        // A 4-deep chain with 2 flops plus a short bypass with 2 flops:
        // balancing the chain must not duplicate flops on the bypass.
        let n = bench::parse(
            "two_path",
            "\
INPUT(a)
OUTPUT(z)
g1 = NOT(a)
g2 = NOT(g1)
q1 = DFF(g2)
q2 = DFF(q1)
g3 = NOT(q2)
g4 = NOT(g3)
b1 = NOT(a)
p1 = DFF(b1)
p2 = DFF(p1)
b2 = NOT(p2)
z = AND(g4, b2)
",
        )
        .unwrap();
        let g = ClassicGraph::extract(&n, unit_delay).unwrap();
        let feas = g.min_period(0.01);
        let flow = g.min_period_flow(0.01).unwrap();
        assert!((flow.retiming.period - feas.period).abs() < 0.05);
        assert!(flow.registers <= g.register_count(&feas.r).unwrap());
        assert!(flow.registers <= g.register_count(&vec![0; g.len()]).unwrap());
    }

    #[test]
    fn min_period_at_yield_degenerates_at_sigma_zero() {
        let g = ClassicGraph::extract(&unbalanced(), unit_delay).unwrap();
        let plain = g.min_period(0.01);
        let yielded = g.min_period_at_yield(0.01, 0.0, 0.9987);
        assert_eq!(plain.r, yielded.r);
        assert_eq!(plain.period.to_bits(), yielded.period.to_bits());
        assert_eq!(
            plain.original_period.to_bits(),
            yielded.original_period.to_bits()
        );
    }

    #[test]
    fn min_period_at_yield_pays_for_sigma() {
        let g = ClassicGraph::extract(&unbalanced(), unit_delay).unwrap();
        let plain = g.min_period(0.01);
        let yielded = g.min_period_at_yield(0.01, 0.05, 0.9987);
        // ~3 sigma at 5% of nominal: roughly 15% slower everywhere.
        assert!(yielded.period > plain.period);
        assert!(yielded.period < plain.period * 1.3);
        // The margined retiming stays legal on the unmargined graph.
        assert!(g.period(&yielded.r).is_some());
    }

    #[test]
    fn latch_netlist_rejected() {
        let n = unbalanced().to_master_slave().unwrap();
        assert!(matches!(
            ClassicGraph::extract(&n, unit_delay),
            Err(NetlistError::WrongSequentialStyle(_))
        ));
    }
}
