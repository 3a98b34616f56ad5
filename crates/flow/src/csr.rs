//! Flat compressed-sparse-row (CSR) arc storage shared by the solvers.
//!
//! Every engine in this crate used to walk its own `Vec<Vec<usize>>`
//! adjacency lists, rebuilt per solve (and, for the simplex, per pivot).
//! This module replaces those with one flat arc arena:
//!
//! * [`CsrIndex`] — node-indexed `first_out` offsets plus an `arc_at`
//!   permutation, built once by counting sort. `out(v)` is a contiguous
//!   slice of directed-arc ids, **in ascending arc-id order**, which is
//!   exactly the insertion order the old adjacency lists had — so
//!   engines that switched to the index produce bit-identical results.
//! * [`CsrGraph`] — the arena itself: parallel `tail`/`head`/`cap`/`cost`
//!   arrays over the paired directed arcs (arc `2i` is user arc `i`,
//!   `2i + 1` its residual reverse, `e ^ 1` maps between them) plus the
//!   index. [`MinCostFlow`](crate::MinCostFlow) freezes one lazily and
//!   reuses it across repeated solves of the same instance — e.g. the
//!   probes of a binary period search, or one instance solved by several
//!   engines.
//!
//! Solvers never mutate the arena: per-solve residual capacities are a
//! flat copy of [`CsrGraph::caps`], so a solve costs one `memcpy`
//! instead of a nested-`Vec` clone.

/// Node-indexed view over a flat arc array: for each node `v`,
/// `out(v)` yields the ids of the directed arcs leaving `v`, ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrIndex {
    /// `first_out[v] .. first_out[v + 1]` indexes `arc_at` for node `v`.
    first_out: Vec<u32>,
    /// Directed-arc ids grouped by tail node, ascending within a group.
    arc_at: Vec<u32>,
}

impl CsrIndex {
    /// Builds the index over `n` nodes from the per-arc tail array by
    /// counting sort — `O(n + m)`, no comparisons. Scanning arcs in id
    /// order keeps each `out(v)` slice ascending.
    ///
    /// # Panics
    /// Panics if a tail is out of range.
    #[must_use]
    pub fn build(n: usize, tails: &[u32]) -> CsrIndex {
        let mut first_out = vec![0u32; n + 1];
        for &t in tails {
            assert!((t as usize) < n, "arc tail {t} out of range for {n} nodes");
            first_out[t as usize + 1] += 1;
        }
        for v in 0..n {
            first_out[v + 1] += first_out[v];
        }
        let mut cursor = first_out.clone();
        let mut arc_at = vec![0u32; tails.len()];
        for (e, &t) in tails.iter().enumerate() {
            let slot = cursor[t as usize];
            arc_at[slot as usize] = e as u32;
            cursor[t as usize] = slot + 1;
        }
        CsrIndex { first_out, arc_at }
    }

    /// Number of nodes the index covers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.first_out.len() - 1
    }

    /// Number of directed arcs the index covers.
    #[must_use]
    pub fn arc_count(&self) -> usize {
        self.arc_at.len()
    }

    /// The directed arcs leaving `v`, in ascending arc-id order.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn out(&self, v: usize) -> &[u32] {
        let lo = self.first_out[v] as usize;
        let hi = self.first_out[v + 1] as usize;
        &self.arc_at[lo..hi]
    }
}

/// A frozen flat-arc graph: parallel per-arc arrays plus a [`CsrIndex`].
///
/// Arcs come in residual pairs — `e ^ 1` is the reverse of `e`, with
/// `tail(e) == head(e ^ 1)`. The arena is immutable once built; solvers
/// copy [`CsrGraph::caps`] into a working residual array per solve.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    n: usize,
    tail: Vec<u32>,
    head: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<i64>,
    index: CsrIndex,
}

impl CsrGraph {
    /// Builds the arena (and its index) from parallel per-arc arrays.
    ///
    /// # Panics
    /// Panics if the arrays disagree in length or an endpoint is out of
    /// range.
    #[must_use]
    pub fn new(
        n: usize,
        tail: Vec<u32>,
        head: Vec<u32>,
        cap: Vec<i64>,
        cost: Vec<i64>,
    ) -> CsrGraph {
        assert_eq!(tail.len(), head.len(), "tail/head length mismatch");
        assert_eq!(tail.len(), cap.len(), "tail/cap length mismatch");
        assert_eq!(tail.len(), cost.len(), "tail/cost length mismatch");
        assert!(
            head.iter().all(|&h| (h as usize) < n),
            "arc head out of range"
        );
        let index = CsrIndex::build(n, &tail);
        CsrGraph {
            n,
            tail,
            head,
            cap,
            cost,
            index,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of directed arcs (including residual reverses).
    #[must_use]
    pub fn arc_count(&self) -> usize {
        self.head.len()
    }

    /// Tail (source endpoint) of directed arc `e`.
    #[must_use]
    pub fn tail(&self, e: usize) -> usize {
        self.tail[e] as usize
    }

    /// Head (target endpoint) of directed arc `e`.
    #[must_use]
    pub fn head(&self, e: usize) -> usize {
        self.head[e] as usize
    }

    /// Capacity of directed arc `e` in the frozen (zero-flow) state.
    #[must_use]
    pub fn cap(&self, e: usize) -> i64 {
        self.cap[e]
    }

    /// Per-unit cost of directed arc `e`.
    #[must_use]
    pub fn cost(&self, e: usize) -> i64 {
        self.cost[e]
    }

    /// All frozen capacities — solvers clone this flat array into their
    /// per-solve residual state.
    #[must_use]
    pub fn caps(&self) -> &[i64] {
        &self.cap
    }

    /// The directed arcs leaving `v`, in ascending arc-id order.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn out(&self, v: usize) -> &[u32] {
        self.index.out(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sort_preserves_insertion_order() {
        // Arcs interleaved over nodes; each out() slice must come back
        // in ascending arc-id order (the old Vec<Vec> insertion order).
        let tails = vec![1u32, 0, 1, 2, 0, 1];
        let idx = CsrIndex::build(3, &tails);
        assert_eq!(idx.out(0), &[1, 4]);
        assert_eq!(idx.out(1), &[0, 2, 5]);
        assert_eq!(idx.out(2), &[3]);
        assert_eq!(idx.node_count(), 3);
        assert_eq!(idx.arc_count(), 6);
    }

    #[test]
    fn empty_nodes_have_empty_slices() {
        let idx = CsrIndex::build(4, &[2u32, 2]);
        assert!(idx.out(0).is_empty());
        assert!(idx.out(1).is_empty());
        assert_eq!(idx.out(2), &[0, 1]);
        assert!(idx.out(3).is_empty());
    }

    #[test]
    fn graph_accessors_roundtrip() {
        let g = CsrGraph::new(
            3,
            vec![0, 1, 1, 2],
            vec![1, 0, 2, 1],
            vec![5, 0, 7, 0],
            vec![2, -2, 3, -3],
        );
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.arc_count(), 4);
        assert_eq!((g.tail(2), g.head(2), g.cap(2), g.cost(2)), (1, 2, 7, 3));
        assert_eq!(g.caps(), &[5, 0, 7, 0]);
        assert_eq!(g.out(1), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tail_rejected() {
        let _ = CsrIndex::build(2, &[0u32, 5]);
    }
}
