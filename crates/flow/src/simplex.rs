//! A spanning-tree network simplex engine for [`MinCostFlow`] problems.
//!
//! This is the algorithm class the paper hands its Eq. (14) formulation to
//! ("solved with the network simplex method \[25\] in polynomial time").
//! The implementation is the primal network simplex with:
//!
//! * a big-M artificial initial basis (one artificial arc per node),
//! * rolling first-eligible pricing: scan from one past the previous
//!   entering arc, wrapping around, and take the first arc whose reduced
//!   cost violates its bound. It does the least pricing work per pivot,
//!   and on the retiming instances it beat block search and
//!   candidate-list pricing at every size (s35932: 25 ms vs 84–210 ms),
//! * the *strongly feasible basis* leaving-arc rule (last blocking arc
//!   encountered traversing the cycle from the apex in the direction of
//!   the entering arc), which prevents degenerate cycling,
//! * an index-based spanning-tree store (parent / predecessor-arc / depth /
//!   child-link arrays plus reusable scratch buffers): each pivot
//!   re-hangs only the subtree cut off by the leaving arc and shifts its
//!   potentials by a constant — no per-pivot allocation, no full-tree
//!   recomputation.
//!
//! The arc table is read straight out of the instance's frozen
//! [`CsrGraph`](crate::csr::CsrGraph), so repeated solves of one
//! instance never rebuild adjacency.
//!
//! [`MinCostFlow::solve`] runs this engine below
//! [`SSP_MIN_NODES`](crate::SSP_MIN_NODES) nodes and successive shortest
//! paths ([`MinCostFlow::solve_ssp`]) from there on; both reach identical
//! objective values, which the test suite and `tests/differential.rs`
//! assert on randomized instances.

use crate::error::FlowError;
use crate::mincost::{FlowSolution, MinCostFlow};

/// Pivots per `pivot_batch` trace span.
const PIVOT_BATCH: usize = 256;

/// Sentinel for "no node / no arc" in the index-based tree arrays.
const NONE: u32 = u32::MAX;

/// Where an arc sits relative to the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArcState {
    /// Non-basic at its lower bound (flow 0).
    Lower,
    /// Basic (a spanning-tree arc).
    Tree,
    /// Non-basic at its upper bound (flow = capacity).
    Upper,
}

/// Struct-of-arrays arc table: user arcs first, artificial arcs after.
#[derive(Debug)]
struct Arcs {
    from: Vec<u32>,
    to: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<i64>,
    flow: Vec<i64>,
    state: Vec<ArcState>,
}

impl Arcs {
    fn with_capacity(m: usize) -> Arcs {
        Arcs {
            from: Vec::with_capacity(m),
            to: Vec::with_capacity(m),
            cap: Vec::with_capacity(m),
            cost: Vec::with_capacity(m),
            flow: Vec::with_capacity(m),
            state: Vec::with_capacity(m),
        }
    }

    fn push(&mut self, from: usize, to: usize, cap: i64, cost: i64, flow: i64, state: ArcState) {
        self.from.push(from as u32);
        self.to.push(to as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.flow.push(flow);
        self.state.push(state);
    }

    fn len(&self) -> usize {
        self.from.len()
    }

    /// Whether arc `a` may enter the basis: non-basic, with a reduced
    /// cost against `pot` that violates its bound.
    fn eligible(&self, pot: &[i64], a: usize) -> bool {
        let rc = self.cost[a] + pot[self.from[a] as usize] - pot[self.to[a] as usize];
        match self.state[a] {
            ArcState::Lower => rc < 0,
            ArcState::Upper => rc > 0,
            ArcState::Tree => false,
        }
    }

    /// Rolling first-eligible pricing: the first eligible arc at or after
    /// `cursor` (wrapping), with the cursor moved one past it. `None`
    /// means the basis is optimal.
    fn select_entering(&self, pot: &[i64], cursor: &mut usize) -> Option<usize> {
        let start = cursor.checked_rem(self.len())?;
        let e = (start..self.len())
            .chain(0..start)
            .find(|&a| self.eligible(pot, a))?;
        *cursor = e + 1;
        Some(e)
    }

    /// The optimum of a finished pivot run on `n` nodes: user-arc flows,
    /// their cost, and the potentials without the root's. Infeasible
    /// while an artificial arc (ids `user..`) still carries flow.
    fn solution(&self, pot: &[i64], user: usize, n: usize) -> Result<FlowSolution, FlowError> {
        if self.flow[user..].iter().any(|&f| f > 0) {
            return Err(FlowError::Infeasible);
        }
        let flows = self.flow[..user].to_vec();
        let cost = flows.iter().zip(&self.cost).map(|(f, c)| f * c).sum();
        Ok(FlowSolution {
            cost,
            flows,
            potentials: pot[..n].to_vec(),
        })
    }
}

/// Index-based spanning-tree bookkeeping: flat `u32` arrays for the
/// basis structure plus reusable scratch buffers, so a pivot allocates
/// nothing.
#[derive(Debug)]
struct SpanningTree {
    /// Parent node (`NONE` at the root).
    parent: Vec<u32>,
    /// Arc id connecting a node to its parent (`NONE` at the root).
    pred: Vec<u32>,
    /// Distance from the root.
    depth: Vec<u32>,
    /// Basis potentials (zero reduced cost on every tree arc).
    pot: Vec<i64>,
    /// Child-list threading: O(1) detach/attach, linear subtree walks.
    first_child: Vec<u32>,
    next_sib: Vec<u32>,
    prev_sib: Vec<u32>,
    // Scratch buffers reused across pivots.
    left: Vec<u32>,
    right: Vec<u32>,
    cycle: Vec<(u32, bool)>,
    path: Vec<u32>,
    pbuf: Vec<u32>,
    stack: Vec<u32>,
}

impl SpanningTree {
    fn new(nn: usize) -> SpanningTree {
        SpanningTree {
            parent: vec![NONE; nn],
            pred: vec![NONE; nn],
            depth: vec![0; nn],
            pot: vec![0; nn],
            first_child: vec![NONE; nn],
            next_sib: vec![NONE; nn],
            prev_sib: vec![NONE; nn],
            left: Vec::new(),
            right: Vec::new(),
            cycle: Vec::new(),
            path: Vec::new(),
            pbuf: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Initializes the artificial star basis: every node hangs off the
    /// root through its artificial arc, potentials make those arcs
    /// reduced-cost zero.
    fn init_star(&mut self, root: usize, arcs: &Arcs, first_artificial: usize) {
        self.parent[root] = NONE;
        self.pred[root] = NONE;
        self.depth[root] = 0;
        self.pot[root] = 0;
        for v in 0..root {
            let ai = first_artificial + v;
            self.attach(v as u32, root as u32);
            self.pred[v] = ai as u32;
            self.depth[v] = 1;
            self.pot[v] = if arcs.from[ai] as usize == root {
                arcs.cost[ai]
            } else {
                -arcs.cost[ai]
            };
        }
    }

    /// Unlinks `v` from its parent's child list.
    fn detach(&mut self, v: u32) {
        let p = self.parent[v as usize];
        let prev = self.prev_sib[v as usize];
        let next = self.next_sib[v as usize];
        if prev == NONE {
            self.first_child[p as usize] = next;
        } else {
            self.next_sib[prev as usize] = next;
        }
        if next != NONE {
            self.prev_sib[next as usize] = prev;
        }
        self.prev_sib[v as usize] = NONE;
        self.next_sib[v as usize] = NONE;
    }

    /// Links `v` as the first child of `p`.
    fn attach(&mut self, v: u32, p: u32) {
        let old = self.first_child[p as usize];
        self.next_sib[v as usize] = old;
        self.prev_sib[v as usize] = NONE;
        if old != NONE {
            self.prev_sib[old as usize] = v;
        }
        self.first_child[p as usize] = v;
        self.parent[v as usize] = p;
    }
}

impl MinCostFlow {
    /// Solves the problem with the network simplex method.
    ///
    /// # Errors
    /// [`FlowError::UnbalancedDemands`], [`FlowError::Infeasible`], or
    /// [`FlowError::IterationLimit`] if the pivot budget is exceeded.
    pub fn solve_network_simplex(&self) -> Result<FlowSolution, FlowError> {
        let n = self.node_count();
        let user = self.arc_count();
        let mut arcs = self.arc_table()?;
        let mut tree = SpanningTree::new(n + 1);
        tree.init_star(n, &arcs, user);

        let solve_span = retime_trace::span("network_simplex");
        let (pivots, degenerate) = pivot_to_optimality(&mut arcs, &mut tree)?;
        retime_trace::counter("pivots_total", pivots);
        retime_trace::counter("degenerate_total", degenerate);
        drop(solve_span);

        arcs.solution(&tree.pot, user, n)
    }

    /// Builds the initial simplex arc table after checking that demands
    /// balance. User arc `a` is read at its cost straight out of the
    /// frozen CSR arena (arc `2a`) and starts at its lower bound. Then
    /// one big-M artificial arc per node `v` (id `user + v`) carries the
    /// node's whole demand, so the star of artificials is a basis: a
    /// node with positive demand receives from the root `n`, any other
    /// ships to it (zero-demand arcs point to the root, making the
    /// initial star basis strongly feasible).
    fn arc_table(&self) -> Result<Arcs, FlowError> {
        let n = self.node_count();
        let total: i64 = (0..n).map(|v| self.demand(v)).sum();
        if total != 0 {
            return Err(FlowError::UnbalancedDemands { total });
        }
        let g = self.frozen();
        let user = self.arc_count();
        let mut arcs = Arcs::with_capacity(user + n);
        let mut max_cost = 1i64;
        for a in 0..user {
            let e = 2 * a;
            max_cost = max_cost.max(g.cost(e).abs());
            arcs.push(
                g.tail(e),
                g.head(e),
                g.cap(e),
                g.cost(e),
                0,
                ArcState::Lower,
            );
        }
        let big_m = max_cost.saturating_mul((n as i64) + 2).saturating_add(1);
        for v in 0..n {
            let b = self.demand(v);
            if b > 0 {
                arcs.push(n, v, i64::MAX / 4, big_m, b, ArcState::Tree);
            } else {
                arcs.push(v, n, i64::MAX / 4, big_m, -b, ArcState::Tree);
            }
        }
        Ok(arcs)
    }
}

/// Pivots from the current basis to optimality, tracing the pivots in
/// `pivot_batch` spans of [`PIVOT_BATCH`] so a long solve shows progress
/// as nested spans instead of one opaque block. Returns the pivot count
/// and how many of those pivots were degenerate.
fn pivot_to_optimality(arcs: &mut Arcs, tree: &mut SpanningTree) -> Result<(u64, u64), FlowError> {
    let max_pivots = 200 * (arcs.len() + tree.parent.len()) + 10_000;
    let mut cursor = 0usize;
    let mut pivots = 0usize;
    let mut degenerate_total = 0u64;
    loop {
        let _batch = retime_trace::span("pivot_batch");
        let batch_start = pivots;
        let mut batch_degenerate = 0u64;
        let mut optimal = false;
        while pivots - batch_start < PIVOT_BATCH {
            let Some(e_idx) = arcs.select_entering(&tree.pot, &mut cursor) else {
                optimal = true;
                break;
            };
            pivots += 1;
            if pivots > max_pivots {
                retime_trace::counter("pivot_count", (pivots - batch_start) as u64);
                retime_trace::counter("degenerate_pivots", batch_degenerate);
                return Err(FlowError::IterationLimit);
            }
            if pivot(arcs, tree, e_idx) {
                batch_degenerate += 1;
            }
        }
        retime_trace::counter("pivot_count", (pivots - batch_start) as u64);
        retime_trace::counter("degenerate_pivots", batch_degenerate);
        degenerate_total += batch_degenerate;
        if optimal {
            return Ok((pivots as u64, degenerate_total));
        }
    }
}

/// Room an arc has in the push direction: forward arcs can absorb
/// `cap − flow` (the entering arc at its upper bound is traversed in
/// reverse, so its room is `flow`), backward arcs can release `flow`.
fn room(arcs: &Arcs, ai: usize, fwd: bool, e_idx: usize) -> i64 {
    if fwd {
        if ai == e_idx && arcs.state[ai] == ArcState::Upper {
            arcs.flow[ai]
        } else {
            arcs.cap[ai] - arcs.flow[ai]
        }
    } else {
        arcs.flow[ai]
    }
}

/// One pivot: push flow around the cycle closed by the entering arc,
/// swap arc states (strongly-feasible leaving rule: last blocking arc in
/// cycle order), then re-hang the subtree cut off by the leaving arc and
/// shift its potentials by a constant. Returns whether the pivot was
/// degenerate (pushed zero flow).
fn pivot(arcs: &mut Arcs, tree: &mut SpanningTree, e_idx: usize) -> bool {
    // Direction of flow increase along the entering arc.
    let eu = arcs.from[e_idx] as usize;
    let ev = arcs.to[e_idx] as usize;
    let (push_from, push_to) = match arcs.state[e_idx] {
        ArcState::Lower => (eu, ev),
        ArcState::Upper => (ev, eu),
        ArcState::Tree => unreachable!("entering arc cannot be in the tree"),
    };
    // Collect the two tree paths to the apex (LCA).
    tree.left.clear(); // arcs from push_from up to apex
    tree.right.clear(); // arcs from push_to up to apex
    let (mut a, mut b) = (push_from, push_to);
    while tree.depth[a] > tree.depth[b] {
        tree.left.push(tree.pred[a]);
        a = tree.parent[a] as usize;
    }
    while tree.depth[b] > tree.depth[a] {
        tree.right.push(tree.pred[b]);
        b = tree.parent[b] as usize;
    }
    while a != b {
        tree.left.push(tree.pred[a]);
        tree.right.push(tree.pred[b]);
        a = tree.parent[a] as usize;
        b = tree.parent[b] as usize;
    }
    // The cycle, traversed in the push direction starting at the apex:
    // apex -> (left reversed, descending to push_from) -> entering arc ->
    // (right, ascending from push_to back to the apex). For each cycle
    // arc record whether the push direction increases (forward) or
    // decreases (backward) its flow; a tree arc points "down" (parent to
    // child) when it is the predecessor arc of its own head.
    tree.cycle.clear();
    for i in (0..tree.left.len()).rev() {
        let ai = tree.left[i];
        let fwd = tree.pred[arcs.to[ai as usize] as usize] == ai;
        tree.cycle.push((ai, fwd));
    }
    let left_len = tree.cycle.len();
    tree.cycle.push((e_idx as u32, true));
    for i in 0..tree.right.len() {
        let ai = tree.right[i];
        let fwd = tree.pred[arcs.to[ai as usize] as usize] != ai;
        tree.cycle.push((ai, fwd));
    }

    // Bottleneck over the cycle, then the leaving arc: the *last*
    // blocking arc in cycle order keeps the basis strongly feasible.
    let mut delta = i64::MAX;
    for &(ai, fwd) in &tree.cycle {
        delta = delta.min(room(arcs, ai as usize, fwd, e_idx));
    }
    let mut leaving_pos = 0usize;
    for (i, &(ai, fwd)) in tree.cycle.iter().enumerate() {
        if room(arcs, ai as usize, fwd, e_idx) == delta {
            leaving_pos = i;
        }
    }
    // Apply the push.
    if delta > 0 {
        for &(ai, fwd) in &tree.cycle {
            let ai = ai as usize;
            let upper_entering = ai == e_idx && arcs.state[ai] == ArcState::Upper;
            if fwd && !upper_entering {
                arcs.flow[ai] += delta;
            } else {
                arcs.flow[ai] -= delta;
            }
        }
    }
    let degenerate = delta == 0;
    let leaving = tree.cycle[leaving_pos].0 as usize;
    if leaving == e_idx {
        // Degenerate bound swap: the entering arc flips bounds; the tree
        // is untouched.
        arcs.state[e_idx] = if arcs.flow[e_idx] == 0 {
            ArcState::Lower
        } else {
            ArcState::Upper
        };
        return degenerate;
    }
    arcs.state[leaving] = if arcs.flow[leaving] == 0 {
        ArcState::Lower
    } else {
        ArcState::Upper
    };
    arcs.state[e_idx] = ArcState::Tree;

    // Re-hang: cutting the leaving arc strands the subtree rooted at its
    // child endpoint; the entering arc reconnects that subtree through
    // whichever of its endpoints lies inside (push_from for a leaving
    // arc on the left path, push_to on the right). The tree path from
    // that entry point up to the stranded root reverses, and the whole
    // subtree's potentials shift by one constant that restores zero
    // reduced cost on the entering arc.
    let entry = if leaving_pos < left_len {
        push_from
    } else {
        push_to
    };
    let other = if entry == eu { ev } else { eu };
    let lf = arcs.from[leaving] as usize;
    let lt = arcs.to[leaving] as usize;
    let cut_root = if tree.pred[lf] == leaving as u32 {
        lf
    } else {
        lt
    };
    let rc = arcs.cost[e_idx] + tree.pot[eu] - tree.pot[ev];
    let dpot = if entry == ev { rc } else { -rc };

    // Path entry -> cut_root, with each node's old predecessor arc.
    tree.path.clear();
    tree.pbuf.clear();
    let mut x = entry;
    loop {
        tree.path.push(x as u32);
        tree.pbuf.push(tree.pred[x]);
        if x == cut_root {
            break;
        }
        x = tree.parent[x] as usize;
    }
    // Reverse the path: entry becomes a child of the far endpoint via
    // the entering arc; each former ancestor re-hangs under its former
    // child, inheriting that child's old predecessor arc.
    tree.detach(entry as u32);
    tree.attach(entry as u32, other as u32);
    tree.pred[entry] = e_idx as u32;
    for i in 1..tree.path.len() {
        let node = tree.path[i];
        tree.detach(node);
        tree.attach(node, tree.path[i - 1]);
        tree.pred[node as usize] = tree.pbuf[i - 1];
    }
    // One sweep over the re-hung subtree fixes depths and applies the
    // constant potential shift (parents are always visited first).
    tree.stack.clear();
    tree.stack.push(entry as u32);
    while let Some(x) = tree.stack.pop() {
        let x = x as usize;
        tree.depth[x] = tree.depth[tree.parent[x] as usize] + 1;
        tree.pot[x] += dpot;
        let mut c = tree.first_child[x];
        while c != NONE {
            tree.stack.push(c);
            c = tree.next_sib[c as usize];
        }
    }
    degenerate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_engines_agree(p: &MinCostFlow) {
        let ssp = p.solve_ssp().expect("ssp solves");
        let nsx = p.solve_network_simplex().expect("simplex solves");
        assert_eq!(ssp.cost, nsx.cost, "engines must agree on the optimum");
        // Simplex flows must satisfy conservation too.
        let mut excess = vec![0i64; p.node_count()];
        for a in 0..p.arc_count() {
            let (from, to, cap, _) = p.raw_arc(a);
            let f = nsx.flows[a];
            assert!(f >= 0 && f <= cap);
            excess[to] += f;
            excess[from] -= f;
        }
        for (v, &e) in excess.iter().enumerate() {
            assert_eq!(e, p.demand(v), "conservation at node {v}");
        }
    }

    #[test]
    fn agrees_on_simple_route() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 10, 1);
        p.add_arc(1, 2, 10, 1);
        p.add_arc(0, 2, 10, 3);
        p.set_demand(0, -5);
        p.set_demand(2, 5);
        assert_engines_agree(&p);
    }

    #[test]
    fn agrees_with_capacities() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 3, 1);
        p.add_arc(1, 2, 3, 1);
        p.add_arc(0, 2, 10, 3);
        p.set_demand(0, -5);
        p.set_demand(2, 5);
        assert_engines_agree(&p);
    }

    #[test]
    fn agrees_with_negative_costs() {
        let mut p = MinCostFlow::new(4);
        p.add_arc(0, 1, 10, -2);
        p.add_arc(1, 2, 10, 1);
        p.add_arc(0, 2, 10, 0);
        p.add_arc(2, 3, 10, -1);
        p.set_demand(0, -4);
        p.set_demand(3, 4);
        assert_engines_agree(&p);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 2, 1);
        p.add_arc(1, 2, 10, 1);
        p.set_demand(0, -5);
        p.set_demand(2, 5);
        assert_eq!(p.solve_network_simplex(), Err(FlowError::Infeasible));
    }

    #[test]
    fn empty_instance_is_trivially_optimal() {
        let sol = MinCostFlow::new(0).solve_network_simplex().unwrap();
        assert_eq!(sol.cost, 0);
        assert!(sol.flows.is_empty() && sol.potentials.is_empty());
    }

    #[test]
    fn zero_demand_instance() {
        let mut p = MinCostFlow::new(3);
        p.add_arc(0, 1, 5, 2);
        let sol = p.solve_network_simplex().unwrap();
        assert_eq!(sol.cost, 0);
    }

    #[test]
    fn randomized_cross_check() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for case in 0..40 {
            let n = 4 + (next(8) as usize);
            let mut p = MinCostFlow::new(n);
            let arcs = n + (next(2 * n as u64) as usize);
            for _ in 0..arcs {
                let u = next(n as u64) as usize;
                let v = next(n as u64) as usize;
                if u == v {
                    continue;
                }
                let cap = 1 + next(20) as i64;
                // Non-negative random costs: negative costs on cyclic
                // topologies can form negative cycles, which the SSP
                // engine rejects by design (negative-cost agreement is
                // covered by `agrees_with_negative_costs` on an acyclic
                // instance).
                let cost = next(16) as i64;
                p.add_arc(u, v, cap, cost);
            }
            // Balanced random demands.
            let mut total = 0i64;
            for v in 0..n - 1 {
                let d = next(7) as i64 - 3;
                p.set_demand(v, d);
                total += d;
            }
            p.set_demand(n - 1, -total);
            match (p.solve_ssp(), p.solve_network_simplex()) {
                (Ok(a), Ok(b)) => assert_eq!(a.cost, b.cost, "case {case}"),
                (Err(FlowError::Infeasible), Err(FlowError::Infeasible)) => {}
                (a, b) => panic!("case {case}: engines disagree: {a:?} vs {b:?}"),
            }
        }
    }
}
