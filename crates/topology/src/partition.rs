//! Compute partitions: ranks, nodes, cores, and psets.
//!
//! On the Blue Gene/P a job runs on a *partition* — a torus-shaped block of
//! compute nodes. In "virtual node" (VN) mode each of the four cores runs
//! one MPI rank. Every 64 compute nodes form a *pset* served by one I/O
//! node (ION); all filesystem traffic from those nodes funnels through that
//! ION, which is why aggregator placement is pset-aware.

use crate::torus::{NodeId, Torus3d};

/// A pset index (one ION per pset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pset(pub u32);

/// Geometry of a compute partition.
#[derive(Debug, Clone, Copy)]
pub struct PartitionSpec {
    /// The torus of compute nodes.
    pub torus: Torus3d,
    /// MPI ranks per node (4 in VN mode, 1 in SMP mode).
    pub(crate) ranks_per_node: u32,
    /// Compute nodes per pset (64 on Intrepid).
    pub(crate) nodes_per_pset: u32,
}

impl PartitionSpec {
    /// Intrepid-style partition for `np` MPI ranks in VN mode.
    ///
    /// Chooses a near-cubic torus shape for `np/4` nodes, matching the
    /// standard partition shapes on the real machine. `np` must be a
    /// multiple of 256 (one pset of 64 nodes × 4 ranks) and a power of two,
    /// which covers every configuration in the paper (16Ki–64Ki ranks).
    pub fn intrepid_vn(np: u32) -> Self {
        assert!(np.is_power_of_two(), "np must be a power of two, got {np}");
        assert!(
            np >= 256,
            "np must be at least one pset (256 ranks), got {np}"
        );
        let nodes = np / 4;
        let dims = near_cubic_dims(nodes);
        PartitionSpec {
            torus: Torus3d::new(dims),
            ranks_per_node: 4,
            nodes_per_pset: 64,
        }
    }

    /// A small partition for tests: `nodes` nodes, `ranks_per_node` ranks
    /// each, `nodes_per_pset` nodes per pset.
    pub fn custom(dims: [u32; 3], ranks_per_node: u32, nodes_per_pset: u32) -> Self {
        assert!(ranks_per_node >= 1);
        assert!(nodes_per_pset >= 1);
        PartitionSpec {
            torus: Torus3d::new(dims),
            ranks_per_node,
            nodes_per_pset,
        }
    }

    /// Number of compute nodes.
    pub(crate) fn num_nodes(&self) -> u32 {
        self.torus.num_nodes()
    }

    /// Number of MPI ranks.
    pub fn num_ranks(&self) -> u32 {
        self.num_nodes() * self.ranks_per_node
    }

    /// Number of psets (== number of IONs). Partial trailing psets are
    /// allowed for odd test geometries.
    pub fn num_psets(&self) -> u32 {
        self.num_nodes().div_ceil(self.nodes_per_pset)
    }

    /// The compute node hosting `rank` (TXYZ-style: consecutive ranks fill a
    /// node's cores first).
    pub fn node_of_rank(&self, rank: u32) -> NodeId {
        debug_assert!(rank < self.num_ranks());
        NodeId(rank / self.ranks_per_node)
    }

    /// The core index (0-based within the node) hosting `rank`.
    pub fn core_of_rank(&self, rank: u32) -> u32 {
        rank % self.ranks_per_node
    }

    /// Ranks hosted by `node`, in order.
    pub fn ranks_of_node(&self, node: NodeId) -> std::ops::Range<u32> {
        let lo = node.0 * self.ranks_per_node;
        lo..lo + self.ranks_per_node
    }

    /// The pset containing `node`.
    pub(crate) fn pset_of_node(&self, node: NodeId) -> Pset {
        Pset(node.0 / self.nodes_per_pset)
    }

    /// The pset containing `rank`.
    pub fn pset_of_rank(&self, rank: u32) -> Pset {
        self.pset_of_node(self.node_of_rank(rank))
    }

    /// Ranks in `pset`, in order.
    pub fn ranks_of_pset(&self, pset: Pset) -> std::ops::Range<u32> {
        let node_lo = pset.0 * self.nodes_per_pset;
        let node_hi = (node_lo + self.nodes_per_pset).min(self.num_nodes());
        node_lo * self.ranks_per_node..node_hi * self.ranks_per_node
    }

    /// Ranks per pset for a full pset.
    pub fn ranks_per_pset(&self) -> u32 {
        self.nodes_per_pset * self.ranks_per_node
    }

    /// Choose `count` aggregator/writer ranks spread evenly over the
    /// partition, at most one per node, balanced across psets — the way the
    /// Blue Gene MPI-IO library places its `bgp_nodes_pset` aggregators
    /// (§V-B of the paper).
    ///
    /// `count` is clamped to the number of nodes. The returned ranks are
    /// sorted and distinct.
    pub fn spread_aggregators(&self, count: u32) -> Vec<u32> {
        let nodes = self.num_nodes();
        let count = count.clamp(1, nodes);
        // Even stride over node ids; node ids group by pset, so an even
        // stride also balances psets.
        let mut out = Vec::with_capacity(count as usize);
        for i in 0..count {
            // i * nodes / count spreads without overflow for our sizes.
            let node = (i as u64 * nodes as u64 / count as u64) as u32;
            out.push(node * self.ranks_per_node);
        }
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
        out
    }
}

/// Near-cubic torus dimensions for `nodes` (a power of two): factors into
/// `2^a × 2^b × 2^c` with `a ≥ b ≥ c` and `a - c ≤ 1`.
fn near_cubic_dims(nodes: u32) -> [u32; 3] {
    assert!(nodes.is_power_of_two());
    let log = nodes.trailing_zeros();
    let a = log.div_ceil(3);
    let b = (log - a).div_ceil(2);
    let c = log - a - b;
    [1 << a, 1 << b, 1 << c]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_cubic_shapes() {
        assert_eq!(near_cubic_dims(4096), [16, 16, 16]);
        assert_eq!(near_cubic_dims(8192), [32, 16, 16]);
        assert_eq!(near_cubic_dims(16384), [32, 32, 16]);
        assert_eq!(near_cubic_dims(1), [1, 1, 1]);
        assert_eq!(near_cubic_dims(2), [2, 1, 1]);
    }

    #[test]
    fn intrepid_vn_paper_sizes() {
        for np in [16384u32, 32768, 65536] {
            let p = PartitionSpec::intrepid_vn(np);
            assert_eq!(p.num_ranks(), np);
            assert_eq!(p.num_nodes(), np / 4);
            assert_eq!(p.num_psets(), np / 256);
            assert_eq!(p.ranks_per_pset(), 256);
        }
    }

    #[test]
    fn rank_node_core_mapping() {
        let p = PartitionSpec::intrepid_vn(16384);
        assert_eq!(p.node_of_rank(0), NodeId(0));
        assert_eq!(p.node_of_rank(3), NodeId(0));
        assert_eq!(p.node_of_rank(4), NodeId(1));
        assert_eq!(p.core_of_rank(6), 2);
        assert_eq!(p.ranks_of_node(NodeId(2)), 8..12);
    }

    #[test]
    fn pset_mapping() {
        let p = PartitionSpec::intrepid_vn(16384);
        assert_eq!(p.pset_of_rank(0), Pset(0));
        assert_eq!(p.pset_of_rank(255), Pset(0));
        assert_eq!(p.pset_of_rank(256), Pset(1));
        assert_eq!(p.ranks_of_pset(Pset(1)), 256..512);
    }

    #[test]
    fn partial_trailing_pset() {
        // 6 nodes, 4 per pset -> 2 psets; the second has 2 nodes.
        let p = PartitionSpec::custom([6, 1, 1], 2, 4);
        assert_eq!(p.num_psets(), 2);
        assert_eq!(p.ranks_of_pset(Pset(0)), 0..8);
        assert_eq!(p.ranks_of_pset(Pset(1)), 8..12);
    }

    #[test]
    fn aggregator_spread_is_even_one_per_node() {
        let p = PartitionSpec::intrepid_vn(16384); // 4096 nodes
        let aggs = p.spread_aggregators(256); // 64:1 ratio
        assert_eq!(aggs.len(), 256);
        // Distinct nodes, even stride of 16 nodes.
        let nodes: Vec<u32> = aggs.iter().map(|&r| p.node_of_rank(r).0).collect();
        assert!(nodes.windows(2).all(|w| w[1] - w[0] == 16));
        // Balanced across psets: 4096/64 = 64 psets, 256 aggs -> 4 per pset.
        let mut per_pset = vec![0u32; p.num_psets() as usize];
        for &r in &aggs {
            per_pset[p.pset_of_rank(r).0 as usize] += 1;
        }
        assert!(per_pset.iter().all(|&c| c == 4));
    }

    #[test]
    fn aggregator_count_clamps_to_nodes() {
        let p = PartitionSpec::custom([2, 2, 1], 4, 4);
        let aggs = p.spread_aggregators(100);
        assert_eq!(aggs.len(), 4); // one per node max
        let aggs1 = p.spread_aggregators(0);
        assert_eq!(aggs1.len(), 1);
    }
}
