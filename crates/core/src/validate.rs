//! Ingest validation: quarantine accounting, the clamp-vs-reject policy
//! for untrusted report streams and the count-plane sanitizer.
//!
//! The production deployments the ROADMAP targets ingest reports from
//! millions of uncontrolled clients: GPS glitches put points kilometres
//! outside the service area, broken serializers deliver `NaN`
//! coordinates, and replayed batches duplicate whole shards. Bucketing
//! all of that unchecked — `Grid2D::cell_of` clamps any finite coordinate
//! into the grid and maps `NaN` to cell `(0, 0)` — is exactly how a
//! multiplicative EM post-process ends up amplifying garbage counts into
//! confident phantom mass.
//!
//! So every batch path ([`crate::DamClient::report_batch`] and its
//! validated/partitioned forms share one per-point loop) checks each point
//! before it reaches the randomizer, invalid reports are **quarantined**
//! (counted, never ingested), and the caller chooses what happens to
//! finite but out-of-domain coordinates via [`IngestPolicy`]:
//!
//! * [`IngestPolicy::Clamp`] — project the point onto the domain boundary
//!   and ingest it (counted as clamped). The lenient production default:
//!   a point just outside the bounding box is almost always measurement
//!   jitter, and dropping it would bias border cells down.
//! * [`IngestPolicy::Reject`] — quarantine out-of-domain points too. The
//!   strict mode for domains where out-of-range coordinates indicate a
//!   hostile or broken client rather than jitter.
//!
//! Non-finite coordinates are always quarantined — there is no meaningful
//! clamp for `NaN`.
//!
//! Validation runs inside the sharded pipeline's fill closure, and the
//! per-shard quarantine/clamp counters ride the same deterministic
//! shard-order merge as the counts themselves (extra tail slots on each
//! shard's buffer), so an [`IngestSummary`] is bit-identical for any
//! thread count, like everything else in the pipeline. Quarantined points
//! consume no randomness: a stream prefixed by garbage reports the valid
//! suffix exactly as if the garbage had never arrived.

use dam_geo::{BoundingBox, Grid2D, Point};

/// What to do with a finite point outside the input domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// Project onto the domain boundary and ingest (counted as clamped).
    #[default]
    Clamp,
    /// Quarantine it like a malformed report.
    Reject,
}

/// Deterministic accounting of one validated batch (or a running stream
/// of them): every report is seen, and then either accepted, accepted
/// after clamping, or quarantined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSummary {
    /// Reports presented to validation.
    pub seen: u64,
    /// Reports quarantined (never ingested).
    pub quarantined: u64,
    /// Reports ingested after being clamped onto the domain boundary
    /// (subset of the accepted ones; zero under [`IngestPolicy::Reject`]).
    pub clamped: u64,
}

impl IngestSummary {
    /// Reports that entered the pipeline.
    #[inline]
    pub fn accepted(&self) -> u64 {
        self.seen - self.quarantined
    }

    /// Folds another batch's accounting into this one.
    pub fn merge(&mut self, other: &IngestSummary) {
        self.seen += other.seen;
        self.quarantined += other.quarantined;
        self.clamped += other.clamped;
    }
}

/// Outcome of validating a single point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointCheck {
    /// In-domain and finite: ingest as-is.
    Accept(Point),
    /// Finite but out-of-domain under [`IngestPolicy::Clamp`]: ingest the
    /// projected point.
    Clamped(Point),
    /// Non-finite, or out-of-domain under [`IngestPolicy::Reject`]:
    /// count it and drop it.
    Quarantine,
}

/// The square the grid actually covers (side `d · cell_side` anchored at
/// the bbox minimum — the region `Grid2D::cell_of` buckets without
/// clamping).
pub fn covered_square(grid: &Grid2D) -> BoundingBox {
    let side = grid.d() as f64 * grid.cell_side();
    let bbox = grid.bbox();
    BoundingBox::new(bbox.min_x, bbox.min_y, bbox.min_x + side, bbox.min_y + side)
}

/// Validates one point of a batch against `domain` — the grid's
/// [`covered_square`], which the batch hot path hoists out of its
/// per-point loop — under `policy`.
#[inline]
pub fn check_point_in(domain: &BoundingBox, policy: IngestPolicy, p: Point) -> PointCheck {
    // Common case first: a finite in-domain point pays only the contains
    // check. `BoundingBox` coordinates are finite by construction and
    // `NaN`/`∞` fail its comparisons, so containment alone proves the
    // point finite; everything else takes the slow path.
    if domain.contains(p) {
        return PointCheck::Accept(p);
    }
    if !p.x.is_finite() || !p.y.is_finite() {
        return PointCheck::Quarantine;
    }
    match policy {
        IngestPolicy::Clamp => PointCheck::Clamped(Point::new(
            p.x.clamp(domain.min_x, domain.max_x),
            p.y.clamp(domain.min_y, domain.max_y),
        )),
        IngestPolicy::Reject => PointCheck::Quarantine,
    }
}

/// Zeroes non-finite and negative entries of a count plane in place,
/// returning how many cells were sanitized, so a pipeline keeps serving
/// through a corrupted plane rather than rejecting the window.
pub fn sanitize_counts(counts: &mut [f64]) -> usize {
    let mut hit = 0;
    for c in counts.iter_mut() {
        if !c.is_finite() || *c < 0.0 {
            *c = 0.0;
            hit += 1;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use dam_geo::BoundingBox;

    fn unit_grid(d: u32) -> Grid2D {
        Grid2D::new(BoundingBox::unit(), d)
    }

    #[test]
    fn finite_in_domain_points_pass_through() {
        let g = unit_grid(4);
        for policy in [IngestPolicy::Clamp, IngestPolicy::Reject] {
            let p = Point::new(0.3, 0.7);
            assert_eq!(check_point_in(&covered_square(&g), policy, p), PointCheck::Accept(p));
        }
    }

    #[test]
    fn non_finite_is_always_quarantined() {
        let g = unit_grid(4);
        for policy in [IngestPolicy::Clamp, IngestPolicy::Reject] {
            for p in [
                Point::new(f64::NAN, 0.5),
                Point::new(0.5, f64::INFINITY),
                Point::new(f64::NEG_INFINITY, f64::NAN),
            ] {
                assert_eq!(check_point_in(&covered_square(&g), policy, p), PointCheck::Quarantine);
            }
        }
    }

    #[test]
    fn out_of_domain_respects_policy() {
        let g = unit_grid(4);
        let p = Point::new(3.0, -1.0);
        assert_eq!(
            check_point_in(&covered_square(&g), IngestPolicy::Clamp, p),
            PointCheck::Clamped(Point::new(1.0, 0.0))
        );
        assert_eq!(
            check_point_in(&covered_square(&g), IngestPolicy::Reject, p),
            PointCheck::Quarantine
        );
    }

    #[test]
    fn covered_square_uses_the_grid_side_not_the_raw_bbox() {
        // Non-square bbox: the grid covers a square of the max side.
        let g = Grid2D::new(BoundingBox::new(0.0, 0.0, 1.0, 2.0), 4);
        let sq = covered_square(&g);
        assert_eq!(sq.max_x, 2.0);
        assert_eq!(sq.max_y, 2.0);
        // A point inside the covered square but outside the data bbox is
        // accepted, matching what cell_of buckets.
        assert_eq!(
            check_point_in(&covered_square(&g), IngestPolicy::Reject, Point::new(1.9, 1.9)),
            PointCheck::Accept(Point::new(1.9, 1.9))
        );
    }

    #[test]
    fn sanitize_zeroes_only_the_bad_cells() {
        let mut plane = [1.0, f64::NAN, 3.0, f64::NEG_INFINITY, -4.0, 0.0];
        assert_eq!(sanitize_counts(&mut plane), 3);
        assert_eq!(plane, [1.0, 0.0, 3.0, 0.0, 0.0, 0.0]);
        assert_eq!(sanitize_counts(&mut plane), 0);
    }

    #[test]
    fn summary_merge_accumulates() {
        let mut a = IngestSummary { seen: 10, quarantined: 2, clamped: 1 };
        a.merge(&IngestSummary { seen: 5, quarantined: 1, clamped: 0 });
        assert_eq!(a, IngestSummary { seen: 15, quarantined: 3, clamped: 1 });
        assert_eq!(a.accepted(), 12);
    }
}
