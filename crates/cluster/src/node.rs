//! The per-node aggregator: validated sharded ingest over the node's
//! shard partition, emitting one sequence-numbered count plane per
//! epoch.

use crate::partition::shard_owner;
use dam_core::validate::{IngestPolicy, IngestSummary};
use dam_core::{DamClient, DamConfig};
use dam_geo::{Grid2D, Point};

/// One node's aggregated counts for one epoch — the unit the transport
/// delivers and the coordinator merges.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePlane {
    /// Producing node (in `0..nodes`).
    pub node: usize,
    /// Epoch the counts belong to.
    pub epoch: usize,
    /// Delivery sequence id, a pure function of `(node, epoch)`: a
    /// replayed delivery carries the *same* id, which is how the
    /// coordinator recognises and drops it.
    pub seq: u64,
    /// Validated-ingest accounting for the node's share of the batch
    /// (disjoint node covers sum to the single-node summary).
    pub summary: IngestSummary,
    /// The node's whole-number count plane over the output grid.
    pub counts: Vec<f64>,
}

impl NodePlane {
    /// The delivery sequence id of `(node, epoch)`.
    #[inline]
    pub fn sequence_id(node: usize, epoch: usize) -> u64 {
        ((node as u64) << 40) | epoch as u64
    }
}

/// One aggregator of a K-node deployment: owns its own response tables
/// (identical on every node — same grid, same config) and ingests only
/// the report shards the epoch's partition assigns it.
pub struct AggregatorNode {
    node: usize,
    nodes: usize,
    partition_seed: u64,
    client: DamClient,
    policy: IngestPolicy,
    /// `dam.threads`, resolved once at construction.
    threads: usize,
    scratch: Vec<f64>,
}

impl AggregatorNode {
    /// Builds node `node` of a `nodes`-strong cluster. `dam` is the same
    /// pipeline configuration every node (and the coordinator's
    /// single-node reference) runs; `policy` the validated-ingest
    /// policy; `partition_seed` keys the shard ownership draws.
    pub fn new(
        grid: Grid2D,
        dam: &DamConfig,
        policy: IngestPolicy,
        node: usize,
        nodes: usize,
        partition_seed: u64,
    ) -> Self {
        assert!(nodes > 0 && node < nodes, "node {node} outside cluster of {nodes}");
        Self {
            node,
            nodes,
            partition_seed,
            client: DamClient::new(grid, dam),
            policy,
            threads: dam.resolved_threads(),
            scratch: Vec::new(),
        }
    }

    /// Ingests this node's share of epoch `epoch`'s batch: validated
    /// sharded randomization restricted to the shards
    /// [`shard_owner`] assigns to `self.node`, under the epoch's master
    /// `seed` (the same seed the single-node reference uses — that is
    /// what makes the K planes merge bit-identically to its plane).
    pub fn ingest_epoch(&mut self, epoch: usize, seed: u64, points: &[Point]) -> NodePlane {
        let (node, nodes, pseed) = (self.node, self.nodes, self.partition_seed);
        let summary = self.client.report_batch_validated_partition_in(
            points,
            seed,
            Some(self.threads),
            self.policy,
            |shard| shard_owner(pseed, epoch, shard, nodes) == node,
            &mut self.scratch,
        );
        NodePlane {
            node,
            epoch,
            seq: NodePlane::sequence_id(node, epoch),
            summary,
            counts: self.scratch.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_geo::rng::splitmix64;
    use dam_geo::BoundingBox;

    fn points(n: usize, salt: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = splitmix64(salt ^ i as u64) as f64 / u64::MAX as f64;
                let b = splitmix64(salt ^ (i as u64) << 1 ^ 0x5150) as f64 / u64::MAX as f64;
                Point::new(a, b)
            })
            .collect()
    }

    #[test]
    fn disjoint_node_planes_sum_to_the_single_node_plane() {
        let grid = Grid2D::new(BoundingBox::unit(), 8);
        let dam = DamConfig::dam(2.0);
        let pts = points(40_000, 77);
        let seed = 1234;

        // Single-node reference.
        let client = DamClient::new(grid.clone(), &dam);
        let mut reference = Vec::new();
        let ref_summary =
            client.report_batch_validated_in(&pts, seed, None, IngestPolicy::Clamp, &mut reference);

        // Three nodes each ingest their share; planes merge by addition.
        let nodes = 3;
        let mut merged = vec![0.0; reference.len()];
        let mut summary = IngestSummary::default();
        for node in 0..nodes {
            let mut agg =
                AggregatorNode::new(grid.clone(), &dam, IngestPolicy::Clamp, node, nodes, 9);
            let plane = agg.ingest_epoch(4, seed, &pts);
            assert_eq!(plane.seq, NodePlane::sequence_id(node, 4));
            for (acc, v) in merged.iter_mut().zip(&plane.counts) {
                *acc += v;
            }
            summary.merge(&plane.summary);
        }
        let ref_bits: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        let merged_bits: Vec<u64> = merged.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ref_bits, merged_bits, "merged node planes must equal single-node ingest");
        assert_eq!(summary, ref_summary);
    }

    #[test]
    fn sequence_ids_are_unique_per_node_epoch() {
        let mut seen = std::collections::BTreeSet::new();
        for node in 0..16 {
            for epoch in 0..64 {
                assert!(seen.insert(NodePlane::sequence_id(node, epoch)));
            }
        }
    }
}
