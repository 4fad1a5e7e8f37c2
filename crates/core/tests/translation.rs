//! Translation-invariance tests: BIRCH's statistics and decisions are
//! functions of deviations from cluster means, so translating the whole
//! dataset must not change radii, diameters, inter-cluster distances, or
//! the clustering itself.
//!
//! The paper's (N, LS, SS) form violates this in floating point:
//! `SS − ‖LS‖²/N` cancels catastrophically once coordinates are large
//! relative to the spread (the `cf::classic` reference tests pin that
//! collapse). The stored (N, μ, SSE) form keeps every statistic in
//! deviation form and stays flat, so every offset must pass outright.
//!
//! Every fixture coordinate is a dyadic rational (multiples of 2⁻¹¹)
//! and every offset is an exact small-integer float, so the shifted
//! cloud is an *exact* translate of the origin cloud: any reported
//! difference is arithmetic error inside the CF algebra, not input
//! rounding.

use birch_core::{Birch, BirchConfig, Cf, DistanceMetric, Point};
use std::collections::HashMap;

/// Dyadic spreads: 2⁻¹⁰ and 2⁻¹¹, exact multiples of ulp(1e8) = 2⁻²⁶.
const S: f64 = 9.765_625e-4;
const H: f64 = 4.882_812_5e-4;
/// Inter-cluster gap (2³, trivially exact at every offset).
const GAP: f64 = 8.0;
const CLUSTERS: usize = 3;
const PER_CLUSTER: usize = 12;

/// Three tight, well-separated 2-D clusters translated by `offset`.
/// Spread patterns are asymmetric (no two within-cluster points are
/// equidistant from a centroid) so nearest-entry decisions have no exact
/// ties for rounding noise to flip.
fn cloud_with_gap(offset: f64, gap: f64) -> Vec<Point> {
    let mut pts = Vec::with_capacity(CLUSTERS * PER_CLUSTER);
    for c in 0..CLUSTERS {
        #[allow(clippy::cast_precision_loss)]
        let base = offset + (c as f64) * gap;
        for i in 0..PER_CLUSTER {
            #[allow(clippy::cast_precision_loss)]
            let (fx, fy) = ((i % 3) as f64, (i % 4) as f64);
            #[allow(clippy::cast_precision_loss)]
            let tweak = ((i % 5) as f64) * H;
            pts.push(Point::xy(base + fx * S + tweak, base + fy * S + fx * H));
        }
    }
    pts
}

/// One CF per cluster, built directly from the points.
fn cluster_cfs(offset: f64) -> Vec<Cf> {
    cloud_with_gap(offset, GAP)
        .chunks(PER_CLUSTER)
        .map(Cf::from_points)
        .collect()
}

fn rel_diff(shifted: f64, origin: f64) -> f64 {
    (shifted - origin).abs() / origin.abs().max(1e-300)
}

/// Worst relative drift across radius, diameter, and all five metrics
/// on every cluster pair, comparing the cloud at `offset` to the same
/// cloud at the origin.
fn max_translation_drift(offset: f64) -> f64 {
    let origin = cluster_cfs(0.0);
    let shifted = cluster_cfs(offset);
    let mut worst: f64 = 0.0;
    for (a, b) in origin.iter().zip(&shifted) {
        worst = worst.max(rel_diff(b.radius(), a.radius()));
        worst = worst.max(rel_diff(b.diameter(), a.diameter()));
    }
    let metrics = [
        DistanceMetric::D0,
        DistanceMetric::D1,
        DistanceMetric::D2,
        DistanceMetric::D3,
        DistanceMetric::D4,
    ];
    for i in 0..origin.len() {
        for j in 0..origin.len() {
            if i == j {
                continue;
            }
            for m in metrics {
                let d0 = m.distance(&origin[i], &origin[j]);
                let d1 = m.distance(&shifted[i], &shifted[j]);
                worst = worst.max(rel_diff(d1, d0));
            }
        }
    }
    worst
}

fn assert_statistics_invariant(offset: f64, tol: f64) {
    let drift = max_translation_drift(offset);
    assert!(
        drift <= tol,
        "translation drift {drift:.3e} exceeds {tol:.0e} at offset {offset:.0e}"
    );
}

#[test]
fn statistics_translation_invariant_at_1e4() {
    assert_statistics_invariant(1e4, 1e-9);
}

#[test]
fn statistics_translation_invariant_at_1e8() {
    // At offset 1e8 the squared terms of (N, LS, SS) would be ~1e16, so
    // the ~1e-6 squared deviations sit 22 decimal digits down — entirely
    // below f64's 16. The deviation form never forms those squares.
    assert_statistics_invariant(1e8, 1e-9);
}

// ---------------------------------------------------------------------
// End-to-end: the full Phase 1 → 3 (+4 labelling) pipeline must put the
// same points in the same clusters regardless of translation.
// ---------------------------------------------------------------------

fn memberships(offset: f64) -> Vec<Option<usize>> {
    // A tighter gap (2⁻³) than the statistics fixture: cluster
    // separation sits *below* the distance noise of the paper's
    // (N, LS, SS) closed forms at offset 1e8 (several units —
    // `nb·SSa + na·SSb − 2·LS_a·LS_b` cancels at the ulp(1e16·N) ≈ unit
    // scale), so that form would fuse clusters here, while staying ~128×
    // the point spread so the clustering itself is unambiguous.
    let config = BirchConfig::with_clusters(CLUSTERS).threads(1);
    let model = Birch::new(config)
        .fit(&cloud_with_gap(offset, 0.125))
        .expect("fit");
    model
        .labels()
        .expect("phase 4 labels enabled by default")
        .to_vec()
}

/// Asserts two labelings are the same partition up to renaming clusters.
fn assert_same_partition(origin: &[Option<usize>], shifted: &[Option<usize>], offset: f64) {
    assert_eq!(origin.len(), shifted.len());
    let mut fwd: HashMap<usize, usize> = HashMap::new();
    let mut rev: HashMap<usize, usize> = HashMap::new();
    for (i, (a, b)) in origin.iter().zip(shifted).enumerate() {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                let f = *fwd.entry(*a).or_insert(*b);
                let r = *rev.entry(*b).or_insert(*a);
                assert!(
                    f == *b && r == *a,
                    "memberships diverge at offset {offset:.0e}: point {i} maps \
                     cluster {a} -> {b}, but an earlier point mapped {a} -> {f} \
                     and {b} <- {r}"
                );
            }
            _ => panic!(
                "memberships diverge at offset {offset:.0e}: point {i} is an \
                 outlier in one run ({a:?}) but clustered in the other ({b:?})"
            ),
        }
    }
}

fn assert_pipeline_invariant(offset: f64) {
    let origin = memberships(0.0);
    let shifted = memberships(offset);
    assert_same_partition(&origin, &shifted, offset);
}

#[test]
fn pipeline_memberships_translation_invariant_at_1e4() {
    assert_pipeline_invariant(1e4);
}

#[test]
fn pipeline_memberships_translation_invariant_at_1e8() {
    // Were every radius and diameter to collapse to 0 (as with
    // (N, LS, SS) here), the threshold test would always pass, entries
    // would fuse across true cluster boundaries, and Phase 3 could not
    // recover the origin partition.
    assert_pipeline_invariant(1e8);
}
