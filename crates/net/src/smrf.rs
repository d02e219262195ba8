//! Stateless Multicast RPL Forwarding (SMRF).
//!
//! The prototype's multicast plane (§6): SMRF forwards multicast packets
//! *down* the RPL DODAG only — a node accepts a multicast frame only from
//! its preferred parent and re-broadcasts it if any descendant subtree
//! contains group members. A packet originated below the root therefore
//! first travels up to the root via link-local unicast, then floods down
//! the member branches. This module computes the forwarding sets and
//! per-member hop counts the simulator charges time and energy for.

use std::collections::HashSet;

use crate::rpl::{Dodag, Node};

/// The down-tree delivery plan for one multicast transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticastPlan {
    /// Hops from the source up to the root (empty if the source is the
    /// root).
    pub uplink: Vec<(Node, Node)>,
    /// Down-tree forwarding transmissions `(forwarder, receiver)`, each
    /// after the transmission that reached its forwarder.
    pub downlink: Vec<(Node, Node)>,
    /// Total hops to reach each member: `(member, hop count)`.
    pub member_hops: Vec<(Node, usize)>,
}

impl MulticastPlan {
    /// Total number of radio transmissions the plan needs.
    pub fn transmissions(&self) -> usize {
        // Down-tree forwarding is broadcast: one TX per distinct forwarder.
        let forwarders: HashSet<Node> = self.downlink.iter().map(|(f, _)| *f).collect();
        self.uplink.len() + forwarders.len()
    }
}

/// Reusable marking scratch for [`plan`].
///
/// The marking pass needs an `on_path` flag per node. Allocating (and
/// zeroing) an O(nodes) bitmap per plan made fleet-scale discovery waves
/// quadratic — 100k sources × 100k-entry memsets. Generation stamping
/// reuses one buffer across plans with O(1) reset: a slot counts as
/// marked only if it carries the current generation.
#[derive(Debug, Default)]
pub struct MarkScratch {
    stamp: Vec<u64>,
    generation: u64,
    /// The `(parent, child)` tree edges the current pass marked — the
    /// only edges the down-tree walk visits.
    edges: Vec<(Node, Node)>,
}

impl MarkScratch {
    /// Creates an empty scratch; it grows to the DODAG size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fresh marking pass over `n` nodes.
    fn begin(&mut self, n: usize) -> u64 {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.edges.clear();
        self.generation += 1;
        self.generation
    }
}

/// Computes which nodes must forward a group packet from `source` so
/// that every member receives it, and how many hops each member is from
/// the source. Unreachable members are skipped.
///
/// `members` must be ascending and free of repeats (a [`BTreeSet`]'s
/// iteration order), which makes the plan deterministic without sorting
/// it. `scratch` is reused across plans.
///
/// A plan costs the union of the members' root paths, not the fan-out
/// of the nodes on them: the marking climb records each `(parent,
/// child)` edge it marks, and the down-tree walk visits only those
/// edges. Sorted, they list each forwarder's marked children in node
/// order — the order of [`Dodag::children`] — so the walk emits the
/// same transmissions, in the same order, as one that filtered every
/// child of every marked node.
///
/// Returns `None` if the source is detached from the DODAG.
///
/// [`BTreeSet`]: std::collections::BTreeSet
pub fn plan(
    dodag: &Dodag,
    source: Node,
    members: impl IntoIterator<Item = Node>,
    scratch: &mut MarkScratch,
) -> Option<MulticastPlan> {
    if !dodag.reachable(source) {
        return None;
    }
    let mut uplink = Vec::new();
    let mut cur = source;
    while let Some(p) = dodag.parent[cur] {
        uplink.push((cur, p));
        cur = p;
    }
    let up_hops = uplink.len();

    // Mark every node on a root→member path, recording the marked edges.
    // The climb stops at the first already-marked ancestor, so the total
    // marking work is O(union of member paths).
    let generation = scratch.begin(dodag.len());
    let mut member_hops = Vec::new();
    for m in members {
        if !dodag.reachable(m) {
            continue;
        }
        member_hops.push((m, up_hops + dodag.depth[m] as usize));
        let mut cur = m;
        while scratch.stamp[cur] != generation {
            scratch.stamp[cur] = generation;
            let Some(p) = dodag.parent[cur] else { break };
            scratch.edges.push((p, cur));
            cur = p;
        }
    }

    // Walk down from the root over the marked edges only, depth first.
    let edges = &mut scratch.edges;
    edges.sort_unstable();
    let mut downlink = Vec::with_capacity(edges.len());
    let mut frontier = vec![dodag.root];
    while let Some(node) = frontier.pop() {
        let first = edges.partition_point(|&(p, _)| p < node);
        for &(_, child) in edges[first..].iter().take_while(|&&(p, _)| p == node) {
            downlink.push((node, child));
            frontier.push(child);
        }
    }
    Some(MulticastPlan {
        uplink,
        downlink,
        member_hops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkQuality;
    use crate::rpl::Topology;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Root 0 with two branches: 0-1-3 and 0-2-4-5.
    fn tree() -> Dodag {
        let mut t = Topology::new(6);
        t.link(0, 1, LinkQuality::PERFECT);
        t.link(1, 3, LinkQuality::PERFECT);
        t.link(0, 2, LinkQuality::PERFECT);
        t.link(2, 4, LinkQuality::PERFECT);
        t.link(4, 5, LinkQuality::PERFECT);
        Dodag::build(&t, 0)
    }

    /// Plans with a fresh scratch; `members` ascending.
    fn plan_of(d: &Dodag, source: Node, members: &[Node]) -> Option<MulticastPlan> {
        plan(d, source, members.iter().copied(), &mut MarkScratch::new())
    }

    /// The reference planner: marks the root→member paths, then walks
    /// down from the root over *every* child of each marked node.
    /// [`plan`] must agree with it element for element.
    fn plan_all_children(
        dodag: &Dodag,
        source: Node,
        members: &BTreeSet<Node>,
    ) -> Option<MulticastPlan> {
        if !dodag.reachable(source) {
            return None;
        }
        let up_path = dodag.path_to_root(source);
        let uplink: Vec<(Node, Node)> = up_path.windows(2).map(|w| (w[0], w[1])).collect();
        let mut marked = vec![false; dodag.len()];
        for &m in members {
            if !dodag.reachable(m) {
                continue;
            }
            let mut cur = m;
            while !marked[cur] {
                marked[cur] = true;
                match dodag.parent[cur] {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
        let up_hops = uplink.len();
        let mut downlink = Vec::new();
        let mut member_hops = Vec::new();
        if members.contains(&dodag.root) {
            member_hops.push((dodag.root, up_hops));
        }
        let mut frontier = vec![(dodag.root, up_hops)];
        while let Some((node, hops)) = frontier.pop() {
            for &child in dodag.children(node) {
                if !marked[child] {
                    continue;
                }
                downlink.push((node, child));
                if members.contains(&child) {
                    member_hops.push((child, hops + 1));
                }
                frontier.push((child, hops + 1));
            }
        }
        member_hops.sort_unstable();
        Some(MulticastPlan {
            uplink,
            downlink,
            member_hops,
        })
    }

    #[test]
    fn root_source_floods_only_member_branches() {
        let d = tree();
        let p = plan_of(&d, 0, &[3]).unwrap();
        assert!(p.uplink.is_empty());
        assert_eq!(p.downlink, vec![(0, 1), (1, 3)]);
        assert_eq!(p.member_hops, vec![(3, 2)]);
        // Branch 2-4-5 must not be touched.
        assert!(!p.downlink.iter().any(|(f, _)| *f == 2 || *f == 4));
    }

    #[test]
    fn below_root_source_goes_up_first() {
        let d = tree();
        let p = plan_of(&d, 3, &[5]).unwrap();
        assert_eq!(p.uplink, vec![(3, 1), (1, 0)]);
        assert_eq!(p.downlink, vec![(0, 2), (2, 4), (4, 5)]);
        // 2 hops up + 3 down.
        assert_eq!(p.member_hops, vec![(5, 5)]);
    }

    #[test]
    fn multiple_members_share_forwarders() {
        let d = tree();
        let p = plan_of(&d, 0, &[4, 5]).unwrap();
        // One TX by 0, one by 2, one by 4 reaches both members.
        assert_eq!(p.transmissions(), 3);
        assert_eq!(p.member_hops, vec![(4, 2), (5, 3)]);
    }

    #[test]
    fn member_at_source_counts_zero_hops() {
        let d = tree();
        let p = plan_of(&d, 0, &[0, 3]).unwrap();
        assert!(p.member_hops.contains(&(0, 0)));
        assert!(p.member_hops.contains(&(3, 2)));
    }

    #[test]
    fn empty_membership_needs_no_downlink() {
        let d = tree();
        let p = plan_of(&d, 3, &[]).unwrap();
        assert!(p.downlink.is_empty());
        assert_eq!(
            p.uplink.len(),
            2,
            "uplink still happens (SMRF is stateless)"
        );
    }

    #[test]
    fn detached_source_returns_none() {
        let mut t = Topology::new(3);
        t.link(0, 1, LinkQuality::PERFECT);
        let d = Dodag::build(&t, 0);
        assert!(plan_of(&d, 2, &[1]).is_none());
    }

    #[test]
    fn unreachable_members_are_skipped() {
        let mut t = Topology::new(3);
        t.link(0, 1, LinkQuality::PERFECT);
        let d = Dodag::build(&t, 0);
        let p = plan_of(&d, 0, &[1, 2]).unwrap();
        assert_eq!(p.member_hops, vec![(1, 1)]);
    }

    /// The walk visits the member paths, not the root's fan-out: on a
    /// 50 000-child star, four members mark four edges.
    #[test]
    fn star_plan_walks_only_member_edges() {
        const LEAVES: usize = 50_000;
        let mut t = Topology::new(LEAVES + 1);
        for leaf in 1..=LEAVES {
            t.link(0, leaf, LinkQuality::PERFECT);
        }
        let d = Dodag::build(&t, 0);
        let members = [7, 1_000, 25_000, LEAVES];
        let mut scratch = MarkScratch::new();
        let p = plan(&d, 0, members, &mut scratch).unwrap();
        assert_eq!(scratch.edges.len(), 4);
        assert_eq!(p.downlink, members.map(|m| (0, m)));
        assert_eq!(p.member_hops, members.map(|m| (m, 1)));
    }

    proptest! {
        /// The marked-edge walk equals the all-children walk on chains,
        /// stars and fan-out 1–8 trees with detached nodes, for member
        /// sets that may hold the root, the source and detached nodes,
        /// and from every source — one scratch reused throughout.
        #[test]
        fn marked_edge_walk_matches_all_children_walk(
            linked in 1usize..40,
            detached in 0usize..4,
            fanout in 1usize..10,
            root in 0usize..40,
            member_bits: u64,
        ) {
            // Fan-out 9 stands for the star; fan-out 1 is the chain.
            let n = linked + detached;
            let mut t = Topology::new(n);
            for i in 1..linked {
                let parent = if fanout > 8 { 0 } else { (i - 1) / fanout };
                t.link(parent, i, LinkQuality::PERFECT);
            }
            let d = Dodag::build(&t, root % linked);
            let members: BTreeSet<Node> = (0..n).filter(|i| member_bits & (1 << i) != 0).collect();
            let mut scratch = MarkScratch::new();
            for source in 0..n {
                let walked = plan(&d, source, members.iter().copied(), &mut scratch);
                prop_assert_eq!(walked, plan_all_children(&d, source, &members), "source {}", source);
            }
        }
    }
}
