//! 3-D torus geometry and dimension-order routing.

/// A compute node, numbered `0..num_nodes` in x-fastest order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A unidirectional torus link, identified as `(source node, direction)`.
/// Direction encoding: `0,1` = ±x, `2,3` = ±y, `4,5` = ±z.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Number of torus directions per node (±x, ±y, ±z).
pub const NUM_DIRS: u32 = 6;

/// An `(x, y, z)` coordinate on the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// X coordinate.
    pub x: u32,
    /// Y coordinate.
    pub y: u32,
    /// Z coordinate.
    pub z: u32,
}

/// A 3-D torus of `dims[0] × dims[1] × dims[2]` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus3d {
    dims: [u32; 3],
}

impl Torus3d {
    /// A torus with the given dimensions (each at least 1).
    pub fn new(dims: [u32; 3]) -> Self {
        assert!(dims.iter().all(|&d| d >= 1), "torus dims must be >= 1");
        Torus3d { dims }
    }

    /// The torus dimensions.
    pub fn dims(&self) -> [u32; 3] {
        self.dims
    }

    /// Total node count.
    pub fn num_nodes(&self) -> u32 {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Total unidirectional link count (`6 × nodes`).
    pub fn num_links(&self) -> u32 {
        self.num_nodes() * NUM_DIRS
    }

    /// Coordinate of a node id (x varies fastest).
    pub(crate) fn coord(&self, n: NodeId) -> Coord {
        let [dx, dy, _] = self.dims;
        debug_assert!(n.0 < self.num_nodes());
        Coord {
            x: n.0 % dx,
            y: (n.0 / dx) % dy,
            z: n.0 / (dx * dy),
        }
    }

    /// Node id of a coordinate.
    pub fn node(&self, c: Coord) -> NodeId {
        let [dx, dy, dz] = self.dims;
        debug_assert!(c.x < dx && c.y < dy && c.z < dz);
        NodeId(c.x + dx * (c.y + dy * c.z))
    }

    /// The outgoing link of `n` in direction `dir` (see [`LinkId`] encoding).
    pub(crate) fn link(&self, n: NodeId, dir: u32) -> LinkId {
        debug_assert!(dir < NUM_DIRS);
        LinkId(n.0 * NUM_DIRS + dir)
    }

    /// Neighbour of `n` in direction `dir`, with wrap-around.
    pub fn neighbor(&self, n: NodeId, dir: u32) -> NodeId {
        let mut c = self.coord(n);
        let axis = (dir / 2) as usize;
        let d = self.dims[axis];
        let mut vals = [c.x, c.y, c.z];
        vals[axis] = if dir.is_multiple_of(2) {
            (vals[axis] + 1) % d
        } else {
            (vals[axis] + d - 1) % d
        };
        [c.x, c.y, c.z] = vals;
        self.node(c)
    }

    /// Wrap-around (torus) Manhattan distance between two nodes.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        let axis = |p: u32, q: u32, d: u32| {
            let fwd = (q + d - p) % d;
            fwd.min((d - fwd) % d)
        };
        axis(ca.x, cb.x, self.dims[0])
            + axis(ca.y, cb.y, self.dims[1])
            + axis(ca.z, cb.z, self.dims[2])
    }

    /// Dimension-order (x, then y, then z) shortest route from `a` to `b`,
    /// as the ordered list of traversed links. Ties between the two wrap
    /// directions break toward the positive direction. An empty path means
    /// `a == b`.
    pub fn route(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        let target = self.coord(b);
        let mut cur = a;
        let mut path = Vec::new();
        for axis in 0..3u32 {
            let d = self.dims[axis as usize];
            loop {
                let cc = self.coord(cur);
                let (p, q) = match axis {
                    0 => (cc.x, target.x),
                    1 => (cc.y, target.y),
                    _ => (cc.z, target.z),
                };
                if p == q {
                    break;
                }
                let fwd = (q + d - p) % d;
                let bwd = d - fwd;
                let dir = if fwd <= bwd { axis * 2 } else { axis * 2 + 1 };
                path.push(self.link(cur, dir));
                cur = self.neighbor(cur, dir);
            }
        }
        debug_assert_eq!(cur, b);
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Torus3d {
        Torus3d::new([4, 3, 2])
    }

    #[test]
    fn coord_node_round_trip() {
        let t = t();
        for n in 0..t.num_nodes() {
            let c = t.coord(NodeId(n));
            assert_eq!(t.node(c), NodeId(n));
        }
    }

    #[test]
    fn neighbors_wrap() {
        let t = t();
        let n = t.node(Coord { x: 3, y: 0, z: 0 });
        assert_eq!(t.neighbor(n, 0), t.node(Coord { x: 0, y: 0, z: 0 }));
        assert_eq!(t.neighbor(n, 1), t.node(Coord { x: 2, y: 0, z: 0 }));
        let m = t.node(Coord { x: 0, y: 0, z: 0 });
        assert_eq!(t.neighbor(m, 3), t.node(Coord { x: 0, y: 2, z: 0 }));
        assert_eq!(t.neighbor(m, 5), t.node(Coord { x: 0, y: 0, z: 1 }));
    }

    #[test]
    fn neighbor_is_involutive_with_opposite_dir() {
        let t = t();
        for n in 0..t.num_nodes() {
            for dir in 0..NUM_DIRS {
                let opp = dir ^ 1;
                assert_eq!(t.neighbor(t.neighbor(NodeId(n), dir), opp), NodeId(n));
            }
        }
    }

    #[test]
    fn distance_examples() {
        let t = t();
        let a = t.node(Coord { x: 0, y: 0, z: 0 });
        let b = t.node(Coord { x: 3, y: 2, z: 1 });
        // x: min(3,1)=1, y: min(2,1)=1, z: min(1,1)=1
        assert_eq!(t.distance(a, b), 3);
        assert_eq!(t.distance(a, a), 0);
        assert_eq!(t.distance(a, b), t.distance(b, a));
    }

    #[test]
    fn route_length_equals_distance_and_reaches_target() {
        let t = t();
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                let path = t.route(NodeId(a), NodeId(b));
                assert_eq!(path.len() as u32, t.distance(NodeId(a), NodeId(b)));
                // Walk the path link by link and confirm it lands on b.
                let mut cur = NodeId(a);
                for l in &path {
                    let src = NodeId(l.0 / NUM_DIRS);
                    let dir = l.0 % NUM_DIRS;
                    assert_eq!(src, cur, "link must leave the current node");
                    cur = t.neighbor(cur, dir);
                }
                assert_eq!(cur, NodeId(b));
            }
        }
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = t();
        assert!(t.route(NodeId(5), NodeId(5)).is_empty());
    }

    #[test]
    fn link_ids_are_unique_per_node_dir() {
        let t = t();
        let mut seen = std::collections::HashSet::new();
        for n in 0..t.num_nodes() {
            for dir in 0..NUM_DIRS {
                assert!(seen.insert(t.link(NodeId(n), dir).0));
            }
        }
        assert_eq!(seen.len() as u32, t.num_links());
    }

    #[test]
    fn degenerate_single_node_torus() {
        let t = Torus3d::new([1, 1, 1]);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.distance(NodeId(0), NodeId(0)), 0);
        assert!(t.route(NodeId(0), NodeId(0)).is_empty());
    }
}
