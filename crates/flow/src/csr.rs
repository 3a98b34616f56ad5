//! Flat compressed-sparse-row (CSR) adjacency over an arc array.
//!
//! [`CsrIndex`] holds node-indexed `first_out` offsets plus an `arc_at`
//! permutation, built once by counting sort. `out(v)` is a contiguous
//! slice of arc ids **in ascending arc-id order**, i.e. insertion order,
//! so the solvers that walk it are deterministic. [`MaxFlow`] indexes
//! its paired residual arcs with it, and [`Closure`] its requirements.
//!
//! [`MaxFlow`]: crate::MaxFlow
//! [`Closure`]: crate::Closure

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sort_preserves_insertion_order() {
        // Arcs interleaved over nodes; each out() slice must come back
        // in ascending arc-id order, i.e. insertion order.
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
    #[should_panic(expected = "out of range")]
    fn out_of_range_tail_rejected() {
        let _ = CsrIndex::build(2, &[0u32, 5]);
    }
}
