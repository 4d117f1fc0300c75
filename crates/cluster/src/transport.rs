//! Plane delivery between aggregator nodes and the coordinator, as a
//! deterministic in-process simulation.
//!
//! The coordinator never talks to nodes directly: it polls the
//! [`SimTransport`] on its simulated clock. The tests, `fig_cluster`, and
//! the CI chaos smoke all run against it — every failure it injects (node down, delivery
//! delayed by a key-dependent number of ticks, duplicated, corrupted) is
//! a pure function of `dam_fault::NodeFaultPlan`'s
//! `(seed, family, node, epoch)` streams, so a cluster run is
//! bit-identical however often it is replayed and whatever the thread
//! count.

use crate::node::NodePlane;
use dam_fault::NodeFaultPlan;

/// One node's in-flight delivery.
#[derive(Debug)]
struct Pending {
    plane: NodePlane,
    /// Tick the plane becomes available; `None` until the first poll
    /// fixes it (first-poll tick + the keyed delay).
    ready_at: Option<u64>,
    delivered: bool,
}

/// Deterministic in-process transport simulation driven by a
/// [`NodeFaultPlan`].
pub struct SimTransport {
    plan: NodeFaultPlan,
    nodes: usize,
    epoch: usize,
    pending: Vec<Option<Pending>>,
    /// Replayed deliveries carried into the *next* epoch (a duplicate
    /// that surfaces after its window already closed).
    stale: Vec<NodePlane>,
    /// Operator-forced outages (the quorum-degradation experiments):
    /// a forced-down node delivers nothing regardless of the plan.
    forced_down: Vec<bool>,
}

impl SimTransport {
    /// A transport for `nodes` aggregators under `plan`'s fault streams.
    pub fn new(nodes: usize, plan: NodeFaultPlan) -> Self {
        assert!(nodes > 0, "a cluster has at least one node");
        Self {
            plan,
            nodes,
            epoch: 0,
            pending: (0..nodes).map(|_| None).collect(),
            stale: Vec::new(),
            forced_down: vec![false; nodes],
        }
    }

    /// Forces node `node` down (or back up): it delivers nothing while
    /// forced, independent of the plan's crash stream. This is the
    /// deterministic knob the quorum-degradation experiment uses to keep
    /// exactly one of eight nodes dark for a full window.
    pub fn force_outage(&mut self, node: usize, down: bool) {
        self.forced_down[node] = down;
    }

    /// Whether node `node` produces anything at all for `epoch` (its
    /// ingest can be skipped entirely when not). Down-ness combines the
    /// plan's crash stream with forced outages.
    pub fn node_down(&self, node: usize, epoch: usize) -> bool {
        self.forced_down[node] || self.plan.node_down(node, epoch)
    }

    /// Stages epoch `epoch`'s node planes for delivery (`None` for nodes
    /// that produced nothing). Corruption is applied here — in the
    /// "network", after the node honestly aggregated — and duplicates /
    /// delays are decided lazily at poll time from the same keyed
    /// streams. Unclaimed duplicates of the previous epoch become stale
    /// replays surfacing at this epoch's first polls.
    pub fn begin_epoch(&mut self, epoch: usize, planes: Vec<Option<NodePlane>>) {
        assert_eq!(planes.len(), self.nodes, "one plane slot per node");
        self.epoch = epoch;
        for (node, slot) in planes.into_iter().enumerate() {
            self.pending[node] = slot.map(|mut plane| {
                debug_assert_eq!(plane.node, node);
                debug_assert_eq!(plane.epoch, epoch);
                self.plan.corrupt_plane(node, epoch, &mut plane.counts);
                Pending { plane, ready_at: None, delivered: false }
            });
        }
    }

    /// Polls node `node` for the epoch in flight at simulated tick
    /// `tick`, once per node per retry attempt. Returns every delivery
    /// surfacing at this poll — possibly none (down / not yet ready),
    /// possibly several (duplicates), and possibly *stale* replays of
    /// earlier epochs the coordinator must recognise by sequence id and
    /// drop.
    pub fn poll(&mut self, node: usize, tick: u64) -> Vec<NodePlane> {
        let mut out = Vec::new();
        // Stale replays surface before the epoch's own delivery, exactly
        // once each.
        let mut i = 0;
        while i < self.stale.len() {
            if self.stale[i].node == node {
                out.push(self.stale.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if let Some(pending) = self.pending[node].as_mut() {
            if !pending.delivered {
                let ready = *pending.ready_at.get_or_insert_with(|| {
                    tick + self.plan.delivery_delay(node, self.epoch) as u64
                });
                if tick >= ready {
                    pending.delivered = true;
                    out.push(pending.plane.clone());
                    if self.plan.duplicated(node, self.epoch) {
                        // One duplicate arrives immediately (same seq id),
                        // one replays into the next epoch's polls.
                        out.push(pending.plane.clone());
                        self.stale.push(pending.plane.clone());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_core::validate::IngestSummary;

    fn plane(node: usize, epoch: usize) -> NodePlane {
        NodePlane {
            node,
            epoch,
            seq: NodePlane::sequence_id(node, epoch),
            summary: IngestSummary::default(),
            counts: vec![1.0, 2.0, 3.0, 4.0],
        }
    }

    #[test]
    fn clean_transport_delivers_everything_first_poll() {
        let mut t = SimTransport::new(2, NodeFaultPlan::clean(1));
        t.begin_epoch(0, vec![Some(plane(0, 0)), Some(plane(1, 0))]);
        assert_eq!(t.poll(0, 0).len(), 1);
        assert_eq!(t.poll(1, 0).len(), 1);
        // Delivered once; later polls are empty.
        assert!(t.poll(0, 5).is_empty());
    }

    #[test]
    fn forced_outage_is_an_operator_decision_not_a_draw() {
        let mut t = SimTransport::new(2, NodeFaultPlan::clean(1));
        t.force_outage(1, true);
        assert!(t.node_down(1, 0) && !t.node_down(0, 0));
        t.force_outage(1, false);
        assert!(!t.node_down(1, 3));
    }

    #[test]
    fn delays_hold_planes_until_their_tick() {
        // delay=1 forces every delivery late by 1..=delaymax ticks.
        let plan = NodeFaultPlan::parse("seed=4,delay=1.0,delaymax=3").unwrap();
        let mut t = SimTransport::new(1, plan);
        t.begin_epoch(0, vec![Some(plane(0, 0))]);
        assert!(t.poll(0, 10).is_empty(), "first poll fixes ready_at > 10");
        // By 10 + delaymax the plane must have surfaced.
        let arrived: usize = (11..=13).map(|tick| t.poll(0, tick).len()).sum();
        assert_eq!(arrived, 1);
    }

    #[test]
    fn duplicates_share_a_sequence_id_and_replay_stale() {
        let plan = NodeFaultPlan::parse("seed=9,dup=1.0").unwrap();
        let mut t = SimTransport::new(1, plan);
        t.begin_epoch(3, vec![Some(plane(0, 3))]);
        let got = t.poll(0, 0);
        assert_eq!(got.len(), 2, "duplicate arrives with the original");
        assert_eq!(got[0].seq, got[1].seq);
        // The stale replay surfaces in the next epoch's polls, carrying
        // the OLD epoch's sequence id.
        t.begin_epoch(4, vec![Some(plane(0, 4))]);
        let next = t.poll(0, 10);
        assert!(next.iter().any(|p| p.epoch == 3), "stale replay expected");
        assert!(next.iter().any(|p| p.epoch == 4));
    }

    #[test]
    fn corruption_happens_in_the_network() {
        let plan = NodeFaultPlan::parse("seed=6,corrupt=1.0").unwrap();
        let mut t = SimTransport::new(1, plan);
        t.begin_epoch(0, vec![Some(plane(0, 0))]);
        let got = t.poll(0, 0);
        assert!(
            got[0].counts.iter().any(|v| !v.is_finite() || *v < 0.0),
            "plane must arrive corrupted"
        );
    }
}
