//! RPL-like routing: a DODAG (destination-oriented DAG) built over the
//! physical topology.
//!
//! The prototype uses "the IPv6 Routing Protocol for Low-Power and Lossy
//! Networks (RPL)" for unicast and group management. The reproduction
//! builds the DODAG with ETX-weighted shortest paths from the root
//! (Dijkstra — functionally what RPL's objective function MRHOF
//! converges to on a static topology) and routes unicast along tree paths
//! through the lowest common ancestor, as a storing-mode RPL network does.

use crate::link::LinkQuality;

/// A node index in the topology.
pub type Node = usize;

/// The physical connectivity graph.
///
/// Each node keeps its neighbours in an ordered `Vec` (deterministic
/// iteration for the DODAG build), and that is the only record of an
/// edge. A link is symmetric, so [`Topology::quality`] scans whichever
/// endpoint's list is shorter: a hop between a hub with thousands of
/// neighbours and a leaf reads the leaf's one or two entries, and a hop
/// inside a fanout-8 tree reads at most nine.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    links: Vec<Vec<(Node, LinkQuality)>>,
}

impl Topology {
    /// Creates a topology with `n` unconnected nodes.
    pub fn new(n: usize) -> Self {
        Topology {
            links: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Grows the topology by one node, returning its index.
    pub fn add_node(&mut self) -> Node {
        self.links.push(Vec::new());
        self.links.len() - 1
    }

    /// Adds a bidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `a == b`.
    pub fn link(&mut self, a: Node, b: Node, quality: LinkQuality) {
        assert!(a != b, "self links are not allowed");
        assert!(a < self.links.len() && b < self.links.len());
        if self.quality(a, b).is_some() {
            // Re-linking updates the existing neighbour entries in place,
            // keeping their original position (and hence iteration order).
            for (n, q) in &mut self.links[a] {
                if *n == b {
                    *q = quality;
                }
            }
            for (n, q) in &mut self.links[b] {
                if *n == a {
                    *q = quality;
                }
            }
        } else {
            self.links[a].push((b, quality));
            self.links[b].push((a, quality));
        }
    }

    /// Removes a bidirectional link (a fault-injected partition). Returns
    /// whether the link existed. Surviving neighbour entries keep their
    /// positions, so a rebuilt DODAG visits them in the same order as a
    /// topology that never had the link — heal-and-rebuild is an exact
    /// inverse.
    pub fn unlink(&mut self, a: Node, b: Node) -> bool {
        if self.quality(a, b).is_none() {
            return false;
        }
        self.links[a].retain(|(n, _)| *n != b);
        self.links[b].retain(|(n, _)| *n != a);
        true
    }

    /// The quality of the direct link `a → b`, if it exists.
    pub fn quality(&self, a: Node, b: Node) -> Option<LinkQuality> {
        let (at_a, at_b) = (self.links.get(a)?, self.links.get(b)?);
        let (list, to) = if at_a.len() <= at_b.len() {
            (at_a, b)
        } else {
            (at_b, a)
        };
        list.iter().find(|&&(n, _)| n == to).map(|&(_, q)| q)
    }

    /// Neighbours of `a`.
    pub fn neighbours(&self, a: Node) -> &[(Node, LinkQuality)] {
        &self.links[a]
    }
}

/// A min-heap entry for the DODAG build: smallest rank first, ties broken
/// by the lowest node index (determinism).
#[derive(PartialEq)]
struct MinRank {
    rank: f64,
    node: Node,
}

impl Eq for MinRank {}

impl Ord for MinRank {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we want the minimum.
        other
            .rank
            .partial_cmp(&self.rank)
            .expect("ranks are never NaN")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for MinRank {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The routing tree rooted at the border router.
///
/// Beyond the raw `parent`/`rank` arrays, construction precomputes the
/// per-node tree `depth` and the child adjacency lists, so routing and
/// multicast planning are `O(path)` / `O(subtree)` instead of `O(nodes)`
/// — the difference between tens and thousands of simulated nodes.
#[derive(Debug, Clone)]
pub struct Dodag {
    /// The DODAG root.
    pub root: Node,
    /// Preferred parent per node (`None` for the root and unreachable
    /// nodes).
    pub parent: Vec<Option<Node>>,
    /// Rank (ETX distance from the root; `f64::INFINITY` if unreachable).
    pub rank: Vec<f64>,
    /// Hop depth below the root (0 for the root and unreachable nodes).
    pub depth: Vec<u32>,
    children: Vec<Vec<Node>>,
}

impl Dodag {
    /// Builds the DODAG by ETX-weighted shortest paths (ETX = 1/PRR).
    pub fn build(topo: &Topology, root: Node) -> Dodag {
        let n = topo.len();
        let mut rank = vec![f64::INFINITY; n];
        let mut parent = vec![None; n];
        let mut visited = vec![false; n];
        rank[root] = 0.0;
        // Heap-backed extract-min with lazy deletion: O(E log V) instead
        // of the former O(V²) scan, which stopped mattering at hundreds of
        // nodes but dominates a 100 000-node fleet build. Ties break on
        // the node index, matching the linear scan's lowest-index-first
        // visit order so the produced DODAG is bit-identical.
        let mut heap = std::collections::BinaryHeap::with_capacity(n);
        heap.push(MinRank {
            rank: 0.0,
            node: root,
        });
        while let Some(MinRank { rank: r, node: u }) = heap.pop() {
            if visited[u] || r > rank[u] {
                continue; // Stale heap entry (a shorter path got there first).
            }
            visited[u] = true;
            for &(v, q) in topo.neighbours(u) {
                let etx = 1.0 / q.prr;
                if rank[u] + etx < rank[v] {
                    rank[v] = rank[u] + etx;
                    parent[v] = Some(u);
                    heap.push(MinRank {
                        rank: rank[v],
                        node: v,
                    });
                }
            }
        }
        // Child adjacency, in node order (deterministic).
        let mut children = vec![Vec::new(); n];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push(v);
            }
        }
        // Depth by walking down from the root (parents always come first
        // in a breadth-first frontier).
        let mut depth = vec![0u32; n];
        let mut frontier = vec![root];
        while let Some(u) = frontier.pop() {
            for &c in &children[u] {
                depth[c] = depth[u] + 1;
                frontier.push(c);
            }
        }
        Dodag {
            root,
            parent,
            rank,
            depth,
            children,
        }
    }

    /// Number of nodes the DODAG was built over.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the DODAG covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// True if `node` can reach the root.
    pub fn reachable(&self, node: Node) -> bool {
        self.rank[node].is_finite()
    }

    /// The chain of nodes from `node` up to the root (inclusive).
    pub fn path_to_root(&self, node: Node) -> Vec<Node> {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path
    }

    /// True if `anc` lies on `node`'s chain to the root (inclusive of
    /// `node` itself) — the test behind subtree-scoped anycast: an
    /// instance only serves requesters it actually routes for.
    pub fn on_root_path(&self, node: Node, anc: Node) -> bool {
        if !self.reachable(node) || !self.reachable(anc) {
            return false;
        }
        let mut cur = node;
        while self.depth[cur] > self.depth[anc] {
            cur = self.parent[cur].expect("deeper nodes have parents");
        }
        cur == anc
    }

    /// The hop path `a → b` through the tree (via the lowest common
    /// ancestor), or `None` if either side is unreachable. See
    /// [`Dodag::route_into`], which reuses a caller's buffer.
    pub fn route(&self, a: Node, b: Node) -> Option<Vec<Node>> {
        let mut path = Vec::new();
        self.route_into(a, b, &mut path).then_some(path)
    }

    /// Writes the hop path `a → b` through the tree (via the lowest
    /// common ancestor) into `path`, replacing what it held; returns
    /// false, with `path` empty, if either side is unreachable.
    ///
    /// `O(path length)` with no hashing, and no allocation once `path`
    /// has grown to the longest route: the climb from `a` is written in
    /// order, and the descent to `b` is filled in back to front by
    /// climbing from `b`.
    pub fn route_into(&self, a: Node, b: Node, path: &mut Vec<Node>) -> bool {
        path.clear();
        if !self.reachable(a) || !self.reachable(b) {
            return false;
        }
        let lca = self.lca(a, b);
        let mut up = a;
        while up != lca {
            path.push(up);
            up = self.parent[up].expect("nodes below the LCA have parents");
        }
        path.push(lca);
        let descent = path.len();
        path.resize(descent + (self.depth[b] - self.depth[lca]) as usize, lca);
        let mut down = b;
        for hop in path[descent..].iter_mut().rev() {
            *hop = down;
            down = self.parent[down].expect("nodes below the LCA have parents");
        }
        true
    }

    /// Tree hop distance `a → b` (via the lowest common ancestor), or
    /// `None` if either side is unreachable — `O(depth)`, zero
    /// allocation, so anycast resolution can rank candidate instances
    /// per send.
    pub fn distance(&self, a: Node, b: Node) -> Option<u32> {
        if !self.reachable(a) || !self.reachable(b) {
            return None;
        }
        let lca = self.lca(a, b);
        Some(self.depth[a] + self.depth[b] - 2 * self.depth[lca])
    }

    /// The lowest common ancestor of two reachable nodes: the precomputed
    /// depths let both sides climb in lockstep.
    fn lca(&self, a: Node, b: Node) -> Node {
        let (mut up, mut down) = (a, b);
        while self.depth[up] > self.depth[down] {
            up = self.parent[up].expect("deeper nodes have parents");
        }
        while self.depth[down] > self.depth[up] {
            down = self.parent[down].expect("deeper nodes have parents");
        }
        while up != down {
            up = self.parent[up].expect("distinct nodes below the LCA");
            down = self.parent[down].expect("distinct nodes below the LCA");
        }
        up
    }

    /// Children of `node` in the tree (precomputed at build).
    pub fn children(&self, node: Node) -> &[Node] {
        &self.children[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A line: 0 - 1 - 2 - 3.
    fn line() -> Topology {
        let mut t = Topology::new(4);
        t.link(0, 1, LinkQuality::PERFECT);
        t.link(1, 2, LinkQuality::PERFECT);
        t.link(2, 3, LinkQuality::PERFECT);
        t
    }

    #[test]
    fn dodag_parents_point_towards_root() {
        let d = Dodag::build(&line(), 0);
        assert_eq!(d.parent, vec![None, Some(0), Some(1), Some(2)]);
        assert_eq!(d.rank[3], 3.0);
    }

    #[test]
    fn route_through_lca() {
        // Star with two branches: 0 root; 1,2 under 0; 3 under 1; 4 under 2.
        let mut t = Topology::new(5);
        t.link(0, 1, LinkQuality::PERFECT);
        t.link(0, 2, LinkQuality::PERFECT);
        t.link(1, 3, LinkQuality::PERFECT);
        t.link(2, 4, LinkQuality::PERFECT);
        let d = Dodag::build(&t, 0);
        assert_eq!(d.route(3, 4).unwrap(), vec![3, 1, 0, 2, 4]);
        assert_eq!(d.route(3, 0).unwrap(), vec![3, 1, 0]);
        assert_eq!(d.route(0, 4).unwrap(), vec![0, 2, 4]);
        assert_eq!(d.route(3, 3).unwrap(), vec![3]);
    }

    #[test]
    fn etx_prefers_reliable_paths() {
        // 0-2 direct but lossy; 0-1-2 through two good links.
        let mut t = Topology::new(3);
        t.link(0, 2, LinkQuality::new(0.4)); // ETX 2.5
        t.link(0, 1, LinkQuality::PERFECT);
        t.link(1, 2, LinkQuality::PERFECT); // ETX 2.0 total
        let d = Dodag::build(&t, 0);
        assert_eq!(d.parent[2], Some(1), "must route around the lossy link");
    }

    #[test]
    fn unreachable_nodes_have_no_route() {
        let mut t = Topology::new(3);
        t.link(0, 1, LinkQuality::PERFECT);
        // Node 2 is isolated.
        let d = Dodag::build(&t, 0);
        assert!(!d.reachable(2));
        assert_eq!(d.route(0, 2), None);
        assert_eq!(d.route(2, 1), None);
    }

    #[test]
    fn distance_matches_route_length() {
        let mut t = Topology::new(6);
        t.link(0, 1, LinkQuality::PERFECT);
        t.link(0, 2, LinkQuality::PERFECT);
        t.link(1, 3, LinkQuality::PERFECT);
        t.link(2, 4, LinkQuality::PERFECT);
        // Node 5 is isolated.
        let d = Dodag::build(&t, 0);
        for a in 0..5 {
            for b in 0..5 {
                let hops = d.route(a, b).unwrap().len() as u32 - 1;
                assert_eq!(d.distance(a, b), Some(hops), "{a} -> {b}");
            }
        }
        assert_eq!(d.distance(0, 5), None);
        assert_eq!(d.distance(5, 1), None);
    }

    #[test]
    fn children_inverse_of_parent() {
        let d = Dodag::build(&line(), 0);
        assert_eq!(d.children(0), vec![1]);
        assert_eq!(d.children(1), vec![2]);
        assert_eq!(d.children(3), Vec::<Node>::new());
    }

    #[test]
    fn unlink_removes_both_directions_and_rebuild_reroutes() {
        let mut t = line();
        t.link(0, 3, LinkQuality::new(0.5)); // a lossy shortcut
        assert!(t.unlink(1, 2), "link existed");
        assert!(!t.unlink(1, 2), "second unlink is a no-op");
        assert_eq!(t.quality(1, 2), None);
        assert_eq!(t.quality(2, 1), None);
        let d = Dodag::build(&t, 0);
        // 2 and 3 are now only reachable through the shortcut.
        assert_eq!(d.parent[3], Some(0));
        assert_eq!(d.parent[2], Some(3));
        assert_eq!(d.parent[1], Some(0));
    }

    #[test]
    fn relinking_replaces_quality() {
        let mut t = Topology::new(2);
        t.link(0, 1, LinkQuality::new(0.5));
        t.link(0, 1, LinkQuality::PERFECT);
        assert_eq!(t.quality(0, 1), Some(LinkQuality::PERFECT));
        assert_eq!(t.neighbours(0).len(), 1);
    }

    #[test]
    #[should_panic(expected = "self links")]
    fn self_link_panics() {
        Topology::new(2).link(1, 1, LinkQuality::PERFECT);
    }
}
