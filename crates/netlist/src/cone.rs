//! Reusable fan-in cone walks over a [`CombCloud`].
//!
//! Every per-endpoint query of the paper — the backward delays
//! `D^b(v, t)`, the cut-set `g(t)`, the canonical cut of `g(t)`'s fan-in
//! closure — only ever touches the fan-in cone `FIC(t)`. A [`ConeWalk`]
//! finds that cone (or the union of several cones) by an iterative
//! depth-first search over fanins, marking members with an epoch stamp
//! so a rerun costs O(cone), not O(cloud): nothing is cleared between
//! walks.
//!
//! The walk yields the cone in **reverse post-order**: every node comes
//! before all of its fanins, so a single-root walk lists the root first.
//! Iterating the order forwards is therefore a valid order for backward
//! (sink-to-source) propagation, and iterating it in reverse is a valid
//! order for forward (source-to-sink) propagation.

use crate::cloud::{CombCloud, NodeId};

/// Scratch for repeated fan-in cone walks over one cloud (see the module
/// docs). Allocated once at the cloud's size and reused across walks.
#[derive(Debug, Clone)]
pub struct ConeWalk {
    /// `mark[v] == epoch` iff `v` is in the current walk.
    mark: Vec<u32>,
    epoch: u32,
    /// DFS stack: a node and the index of its next fanin to visit.
    stack: Vec<(NodeId, u32)>,
    /// The current walk in reverse post-order.
    order: Vec<NodeId>,
}

impl ConeWalk {
    /// Empty scratch sized for `cloud`; contains no node until the first
    /// [`ConeWalk::walk`].
    pub fn new(cloud: &CombCloud) -> ConeWalk {
        ConeWalk {
            mark: vec![0; cloud.len()],
            epoch: 1,
            stack: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Replaces the current set with the union of the fan-in cones of
    /// `roots` (each root included) and returns it in reverse post-order:
    /// every node precedes its fanins.
    ///
    /// # Panics
    /// Panics if a root is out of range for the cloud this walk was
    /// sized for.
    pub fn walk(
        &mut self,
        cloud: &CombCloud,
        roots: impl IntoIterator<Item = NodeId>,
    ) -> &[NodeId] {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp overflow: forget every old stamp once per 2^32 walks.
            self.mark.fill(0);
            self.epoch = 1;
        }
        let epoch = self.epoch;
        self.order.clear();
        for root in roots {
            if self.mark[root.index()] == epoch {
                continue;
            }
            self.mark[root.index()] = epoch;
            self.stack.push((root, 0));
            while let Some(&(v, next)) = self.stack.last() {
                if let Some(&u) = cloud.fanin(v).get(next as usize) {
                    let top = self.stack.len() - 1;
                    self.stack[top].1 += 1;
                    if self.mark[u.index()] != epoch {
                        self.mark[u.index()] = epoch;
                        self.stack.push((u, 0));
                    }
                } else {
                    self.order.push(v);
                    self.stack.pop();
                }
            }
        }
        self.order.reverse();
        &self.order
    }

    /// The current walk in reverse post-order (empty before the first
    /// walk).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Whether `v` is in the current walk.
    pub fn contains(&self, v: NodeId) -> bool {
        self.mark[v.index()] == self.epoch
    }

    /// Whether the current walk, read as the moved set of a
    /// [`crate::Cut`], passes [`crate::Cut::validate`]'s rule restricted
    /// to its own members: every fanin of a member is a member, and no
    /// member is a sink. Nodes outside the set are unmoved and impose no
    /// constraint, so this is exactly `Cut::validate` of that cut.
    pub fn is_valid_moved_set(&self, cloud: &CombCloud) -> bool {
        self.order
            .iter()
            .all(|&v| !cloud.kind(v).is_sink() && cloud.fanin(v).iter().all(|&u| self.contains(u)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench, Cut};

    fn cloud() -> CombCloud {
        CombCloud::extract(
            &bench::parse(
                "w",
                "\
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
g1 = NAND(a, b)
g2 = NOT(g1)
y = NAND(g2, b)
z = BUFF(a)
",
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn sink(cloud: &CombCloud, prefix: &str) -> NodeId {
        cloud
            .sinks()
            .iter()
            .copied()
            .find(|&t| cloud.node_name(t).starts_with(prefix))
            .unwrap()
    }

    #[test]
    fn order_puts_every_node_before_its_fanins() {
        let cloud = cloud();
        let mut w = ConeWalk::new(&cloud);
        let t = sink(&cloud, "y");
        let order = w.walk(&cloud, [t]).to_vec();
        assert_eq!(order[0], t);
        let pos = |v: NodeId| order.iter().position(|&x| x == v);
        for &v in &order {
            for &u in cloud.fanin(v) {
                assert!(pos(u).unwrap() > pos(v).unwrap());
            }
        }
        // y's cone: the sink, y, g2, g1, a, b — not z.
        assert_eq!(order.len(), 6);
        assert!(!w.contains(cloud.find("z").unwrap()));
    }

    #[test]
    fn rewalk_forgets_the_previous_cone() {
        let cloud = cloud();
        let mut w = ConeWalk::new(&cloud);
        assert!(w.order().is_empty());
        assert!((0..cloud.len()).all(|i| !w.contains(NodeId(i as u32))));
        w.walk(&cloud, [sink(&cloud, "y")]);
        let z = sink(&cloud, "z");
        let order = w.walk(&cloud, [z]).to_vec();
        assert_eq!(order.len(), 3); // z's sink, the buffer, a
        for i in 0..cloud.len() {
            let v = NodeId(i as u32);
            assert_eq!(w.contains(v), order.contains(&v));
        }
    }

    #[test]
    fn multi_root_walk_is_the_union_of_cones() {
        let cloud = cloud();
        let mut w = ConeWalk::new(&cloud);
        let roots = [cloud.find("g2").unwrap(), cloud.find("z").unwrap()];
        let mut got = w.walk(&cloud, roots).to_vec();
        let mut want: Vec<NodeId> = roots.iter().flat_map(|&r| cloud.fanin_cone(r)).collect();
        got.sort_unstable();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
    }

    #[test]
    fn moved_set_check_matches_cut_validate() {
        let cloud = cloud();
        let mut w = ConeWalk::new(&cloud);
        for i in 0..cloud.len() {
            let v = NodeId(i as u32);
            w.walk(&cloud, [v]);
            let mut cut = Cut::initial(&cloud);
            for &u in w.order() {
                cut.set_moved(u, true);
            }
            assert_eq!(w.is_valid_moved_set(&cloud), cut.validate(&cloud).is_ok());
        }
    }
}
