//! Flat adjacency and the one topological sort of the netlist layer.
//!
//! [`Csr`] holds a graph's adjacency lists in compressed sparse rows,
//! built from an edge list by one stable counting sort, so every row
//! keeps its edges in list order. [`topo_sort`] is Kahn's algorithm over
//! such fanout rows: the cloud's order, the netlist's combinational
//! order, the `.bench` reader's cycle check and the simulator's
//! evaluation order are all this one sort under different source rules.

use crate::cell::CellId;
use crate::cloud::NodeId;

/// A dense index type: a row or item of a [`Csr`].
pub trait Dense: Copy {
    /// The index as a `usize`.
    fn index(self) -> usize;
    /// The id of index `i`.
    fn from_index(i: usize) -> Self;
}

impl Dense for NodeId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl Dense for CellId {
    fn index(self) -> usize {
        self.0 as usize
    }
    fn from_index(i: usize) -> Self {
        CellId(i as u32)
    }
}

/// Adjacency lists in compressed sparse rows: row `r` is
/// `items[start[r]..start[r + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Dense> Csr<T> {
    /// Groups `pairs` of `(row, item)` into `rows` rows with one stable
    /// counting sort: each row lists its items in pair order.
    ///
    /// # Panics
    /// Panics if a row is out of range or there are `2^32` pairs or more.
    pub fn group(rows: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Csr<T> {
        let mut start = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            start[r + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] = start[r + 1]
                .checked_add(start[r])
                .expect("a graph's edge count fits in u32");
        }
        let mut fill = start.clone();
        let mut items = vec![T::from_index(0); start[rows] as usize];
        for (r, item) in pairs {
            items[fill[r] as usize] = item;
            fill[r] += 1;
        }
        Csr { start, items }
    }

    /// Row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[self.start[r] as usize..self.start[r + 1] as usize]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.start.len() - 1
    }

    /// Total number of items over all rows.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether every row is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Kahn's topological sort over `fanout`, where an edge counts unless
/// its tail is a source (`is_source`): sources are ordered, but release
/// nothing. Seeds every node without a counted in-edge in index order
/// and pops the ready nodes last in, first out.
///
/// # Errors
/// On a cycle, the first index left with a counted in-edge: a node on a
/// cycle or fed from one. Which nodes are left does not depend on the
/// visiting order.
pub fn topo_sort<T: Dense>(
    fanout: &Csr<T>,
    is_source: impl Fn(usize) -> bool,
) -> Result<Vec<T>, usize> {
    let n = fanout.rows();
    let mut indeg = vec![0u32; n];
    for u in (0..n).filter(|&u| !is_source(u)) {
        for &v in fanout.row(u) {
            indeg[v.index()] += 1;
        }
    }
    let mut ready: Vec<T> = (0..n)
        .filter(|&v| indeg[v] == 0)
        .map(T::from_index)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = ready.pop() {
        order.push(u);
        if is_source(u.index()) {
            continue;
        }
        for &v in fanout.row(u.index()) {
            indeg[v.index()] -= 1;
            if indeg[v.index()] == 0 {
                ready.push(v);
            }
        }
    }
    match indeg.iter().position(|&d| d > 0) {
        Some(witness) => Err(witness),
        None => Ok(order),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph over `NodeId`s from `(tail, head)` index pairs.
    fn fanout(rows: usize, edges: &[(usize, u32)]) -> Csr<NodeId> {
        Csr::group(rows, edges.iter().map(|&(u, v)| (u, NodeId(v))))
    }

    fn ids(order: &[u32]) -> Vec<NodeId> {
        order.iter().map(|&v| NodeId(v)).collect()
    }

    #[test]
    fn group_is_stable_per_row() {
        let csr = fanout(4, &[(2, 10), (0, 11), (2, 12), (0, 13), (1, 14)]);
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.len(), 5);
        assert_eq!(csr.row(0), ids(&[11, 13]));
        assert_eq!(csr.row(1), ids(&[14]));
        assert_eq!(csr.row(2), ids(&[10, 12]));
        assert!(csr.row(3).is_empty());
    }

    #[test]
    fn sort_seeds_in_index_order_and_pops_lifo() {
        // 0 -> 2, 1 -> 2; 3 has no edges. Seeds 0, 1, 3; 3 pops first.
        let g = fanout(4, &[(0, 2), (1, 2)]);
        assert_eq!(topo_sort(&g, |_| false), Ok(ids(&[3, 1, 0, 2])));
    }

    #[test]
    fn sources_release_nothing() {
        // 0 <-> 1 is a cycle unless 1 is a source.
        let g = fanout(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(topo_sort(&g, |_| false), Err(0));
        assert_eq!(topo_sort(&g, |u| u == 1), Ok(ids(&[2, 0, 1])));
    }
}
