//! Phase 4 (optional): refinement and labeling.
//!
//! Paper §5: Phase 3's clusters are built from summaries, so individual
//! points can sit in the "wrong" cluster (copies of a point split across
//! entries, misplacements from skewed input). Phase 4 fixes this with
//! "additional passes over the data": using the Phase-3 centroids as
//! seeds, each original data point is re-assigned to its closest seed —
//! one pass of the classic centroid-refinement (k-means/Lloyd) step, which
//! the paper notes "can be proved to converge to a minimum". It also
//! labels every point with its cluster and can discard as outliers points
//! too far from every seed.

use crate::cf::Cf;
use crate::distance::D0_PRUNE_SLACK_REL;
use crate::point::{sq_dist, Point};
use std::borrow::Borrow;

/// Configuration for the refinement pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase4Config {
    /// Number of reassignment passes (≥ 1 when Phase 4 runs at all).
    pub passes: usize,
    /// Discard a point whose distance to its closest seed exceeds
    /// `factor ×` that seed cluster's radius (`None` keeps all points).
    /// Seeds with zero radius fall back to the mean non-zero seed radius.
    pub outlier_factor: Option<f64>,
}

impl Default for Phase4Config {
    fn default() -> Self {
        Self {
            passes: 1,
            outlier_factor: None,
        }
    }
}

/// Result of refinement.
#[derive(Debug, Clone)]
pub struct Phase4Result {
    /// Per-point label: the cluster index, or `None` for discarded
    /// outliers.
    pub labels: Vec<Option<usize>>,
    /// Refined cluster CFs (empty clusters retain their seed CF so indices
    /// stay stable across passes).
    pub clusters: Vec<Cf>,
    /// Points discarded as outliers over the final pass.
    pub discarded: u64,
}

/// Runs `config.passes` refinement passes of `points` (optionally
/// weighted) against the `seeds` produced by Phase 3.
///
/// # Panics
///
/// Panics if `seeds` is empty, `config.passes == 0`, or (when provided)
/// `weights.len() != points.len()`.
#[must_use]
pub fn refine(
    points: &[Point],
    weights: Option<&[f64]>,
    seeds: &[Cf],
    config: Phase4Config,
) -> Phase4Result {
    assert!(!seeds.is_empty(), "phase 4 requires at least one seed");
    assert!(config.passes >= 1, "phase 4 requires at least one pass");
    if let Some(w) = weights {
        assert_eq!(w.len(), points.len(), "weights/points length mismatch");
    }

    let mut clusters: Vec<Cf> = seeds.to_vec();
    let mut labels = vec![None; points.len()];
    let mut discarded = 0u64;

    for _ in 0..config.passes {
        let _sp = crate::obs::span::enter("refine_pass");
        let seeds = Centroids::new(clusters.iter().map(Cf::centroid));
        let radii: Vec<f64> = clusters.iter().map(Cf::radius).collect();
        let mean_radius = {
            let nz: Vec<f64> = radii.iter().copied().filter(|&r| r > 0.0).collect();
            if nz.is_empty() {
                0.0
            } else {
                nz.iter().sum::<f64>() / nz.len() as f64
            }
        };

        let dim = seeds.dim;
        let mut next: Vec<Cf> = (0..clusters.len()).map(|_| Cf::empty(dim)).collect();
        discarded = 0;

        for (i, p) in points.iter().enumerate() {
            let (best, best_d) = seeds.nearest(p);
            let keep = match config.outlier_factor {
                None => true,
                Some(f) => {
                    let scale = if radii[best] > 0.0 {
                        radii[best]
                    } else {
                        mean_radius
                    };
                    scale == 0.0 || best_d <= f * scale
                }
            };
            if keep {
                let w = weights.map_or(1.0, |w| w[i]);
                next[best].add_weighted_point(p, w);
                labels[i] = Some(best);
            } else {
                labels[i] = None;
                discarded += 1;
            }
        }

        // Keep empty clusters' previous CFs so seed indices stay stable.
        for (c, n) in clusters.iter_mut().zip(next) {
            if !n.is_empty() {
                *c = n;
            }
        }
    }

    Phase4Result {
        labels,
        clusters,
        discarded,
    }
}

/// Smallest dimension at which the point-vs-centroid scan skips
/// centroids by the reverse-triangle norm bound. Below it the bound's
/// branch costs more than the squared distance it saves; the crossover
/// was measured with the `nearest_centroid` bench (DESIGN §11.5).
const BOUND_MIN_DIM: usize = 12;

/// Seed centroids as one flat row-major slab — the layout of the
/// point-vs-centroid scan shared by Phase 4 and
/// [`crate::BirchModel::predict`] — with each centroid's norm at dims
/// that take the norm bound.
#[derive(Debug, Clone, Default)]
pub(crate) struct Centroids {
    dim: usize,
    coords: Vec<f64>,
    norms: Vec<f64>,
}

impl Centroids {
    /// The slab of `centroids`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the centroids' dimensions disagree.
    pub(crate) fn new<P: Borrow<Point>>(centroids: impl IntoIterator<Item = P>) -> Self {
        let mut slab = Centroids::default();
        for c in centroids {
            let c = c.borrow().coords();
            if slab.coords.is_empty() {
                slab.dim = c.len();
            }
            assert_eq!(c.len(), slab.dim, "centroid dimension mismatch");
            slab.coords.extend_from_slice(c);
            if slab.dim >= BOUND_MIN_DIM {
                slab.norms.push(norm(c));
            }
        }
        slab
    }

    /// Index and distance of the centroid nearest to `p` (Euclidean, per
    /// the paper: "the Euclidian distance to the closest seed"); the
    /// lowest index wins ties. `(0, +∞)` when there are no centroids.
    ///
    /// Dims 1–4 scan with the squared distance monomorphized over the
    /// dimension, the point in registers; larger dims with [`sq_dist`].
    /// From [`BOUND_MIN_DIM`] on, the scan skips centroids by the norm
    /// bound. Every form returns the plain scan's result bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `p`'s dimension disagrees with the centroids'.
    pub(crate) fn nearest(&self, p: &Point) -> (usize, f64) {
        if self.coords.is_empty() {
            return (0, f64::INFINITY);
        }
        assert_eq!(
            p.dim(),
            self.dim,
            "dimension mismatch: {} vs {}",
            p.dim(),
            self.dim
        );
        let none = |_: usize, _: f64| false;
        match self.dim {
            1 => scan(p, &self.coords, 1, sq_fixed::<1>, none),
            2 => scan(p, &self.coords, 2, sq_fixed::<2>, none),
            3 => scan(p, &self.coords, 3, sq_fixed::<3>, none),
            4 => scan(p, &self.coords, 4, sq_fixed::<4>, none),
            d if d < BOUND_MIN_DIM => scan(p, &self.coords, d, sq_dist, none),
            d => bounded(p, &self.coords, d, &self.norms),
        }
    }
}

fn norm(p: &[f64]) -> f64 {
    p.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// [`sq_dist`] at a fixed dimension `D`, summed in the same order.
#[inline(always)]
fn sq_fixed<const D: usize>(p: &[f64], c: &[f64]) -> f64 {
    let (p, c): (&[f64; D], &[f64; D]) = (
        p.try_into().expect("point of dim D"),
        c.try_into().expect("centroid of dim D"),
    );
    let mut d_sq = 0.0;
    for k in 0..D {
        let d = p[k] - c[k];
        d_sq += d * d;
    }
    d_sq
}

/// [`scan`] with the norm bound: centroid `i` (of norm `norms[i]`) is
/// skipped when its reverse-triangle lower bound `|‖p‖ − ‖c‖|` (shaved by
/// [`D0_PRUNE_SLACK_REL`] against norm round-off, as in the Phase 1
/// descend prune) already exceeds the best distance. The bound never
/// exceeds the true distance and taking over the best needs a strict
/// win, so a skipped centroid is never the lowest-index minimizer.
fn bounded(p: &[f64], slab: &[f64], dim: usize, norms: &[f64]) -> (usize, f64) {
    let pn = norm(p);
    let skip = |i: usize, best_sq: f64| {
        let cn = norms[i];
        let b = ((pn - cn).abs() - D0_PRUNE_SLACK_REL * (pn + cn)).max(0.0);
        b * b > best_sq
    };
    scan(p, slab, dim, sq_dist, skip)
}

/// The nearest-centroid scan over a `dim`-wide row-major `slab`: each
/// centroid `i` that `skip(i, best squared distance)` does not veto is
/// measured by `sq`, and the first strict minimum is kept.
#[inline(always)]
fn scan(
    p: &[f64],
    slab: &[f64],
    dim: usize,
    sq: impl Fn(&[f64], &[f64]) -> f64,
    skip: impl Fn(usize, f64) -> bool,
) -> (usize, f64) {
    let mut best = 0;
    let mut best_sq = f64::INFINITY;
    for (i, c) in slab.chunks_exact(dim).enumerate() {
        if skip(i, best_sq) {
            continue;
        }
        let d = sq(p, c);
        if d < best_sq {
            best_sq = d;
            best = i;
        }
    }
    (best, best_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (Vec<Point>, Vec<Cf>) {
        let mut pts = Vec::new();
        for i in 0..20 {
            let off = f64::from(i % 5) * 0.1;
            pts.push(Point::xy(off, off));
            pts.push(Point::xy(50.0 + off, 50.0 + off));
        }
        // Deliberately offset seeds: refinement should still capture the
        // blobs.
        let seeds = vec![
            Cf::from_points(&[Point::xy(1.0, 1.0), Point::xy(2.0, 2.0)]),
            Cf::from_points(&[Point::xy(48.0, 48.0), Point::xy(49.0, 49.0)]),
        ];
        (pts, seeds)
    }

    #[test]
    fn one_pass_assigns_all_points() {
        let (pts, seeds) = two_blobs();
        let r = refine(&pts, None, &seeds, Phase4Config::default());
        assert_eq!(r.labels.len(), pts.len());
        assert!(r.labels.iter().all(Option::is_some));
        assert_eq!(r.discarded, 0);
        let total: f64 = r.clusters.iter().map(Cf::n).sum();
        assert_eq!(total, 40.0);
        // Each blob fully captured by one cluster.
        let n0 = r.clusters[0].n();
        let n1 = r.clusters[1].n();
        assert_eq!(n0, 20.0);
        assert_eq!(n1, 20.0);
    }

    #[test]
    fn centroids_improve_after_refinement() {
        let (pts, seeds) = two_blobs();
        let r = refine(&pts, None, &seeds, Phase4Config::default());
        // Blob 0's true centroid is (0.2, 0.2): the refined centroid must
        // be much closer to it than the seed (1.5, 1.5) was.
        let c = r.clusters[0].centroid();
        assert!(c.dist(&Point::xy(0.2, 0.2)) < 0.01, "centroid {c:?}");
    }

    #[test]
    fn multiple_passes_converge() {
        let (pts, seeds) = two_blobs();
        let one = refine(
            &pts,
            None,
            &seeds,
            Phase4Config {
                passes: 1,
                outlier_factor: None,
            },
        );
        let five = refine(
            &pts,
            None,
            &seeds,
            Phase4Config {
                passes: 5,
                outlier_factor: None,
            },
        );
        // With well-separated blobs one pass already lands the answer;
        // more passes must not change it.
        assert_eq!(one.labels, five.labels);
    }

    #[test]
    fn outlier_discard_drops_far_points() {
        let (mut pts, seeds) = two_blobs();
        pts.push(Point::xy(500.0, -500.0));
        let cfg = Phase4Config {
            passes: 2,
            outlier_factor: Some(3.0),
        };
        let r = refine(&pts, None, &seeds, cfg);
        assert_eq!(r.discarded, 1);
        assert_eq!(*r.labels.last().unwrap(), None);
        // Regular points all kept.
        assert_eq!(r.labels.iter().filter(|l| l.is_some()).count(), 40);
    }

    #[test]
    fn weighted_points_shift_centroid() {
        let pts = vec![Point::xy(0.0, 0.0), Point::xy(10.0, 0.0)];
        let weights = vec![9.0, 1.0];
        let seeds = vec![Cf::from_points(&pts)];
        let r = refine(&pts, Some(&weights), &seeds, Phase4Config::default());
        let c = r.clusters[0].centroid();
        assert!((c[0] - 1.0).abs() < 1e-12, "weighted centroid {c:?}");
    }

    #[test]
    fn empty_cluster_keeps_seed_cf() {
        // All points near seed 0; seed 1 receives nothing and must keep its
        // original CF (stable indices).
        let pts = vec![Point::xy(0.0, 0.0), Point::xy(0.1, 0.0)];
        let lonely = Cf::from_points(&[Point::xy(99.0, 99.0)]);
        let seeds = vec![Cf::from_points(&pts), lonely.clone()];
        let r = refine(&pts, None, &seeds, Phase4Config::default());
        assert_eq!(r.clusters[1], lonely);
    }

    /// Oracle: the plain linear scan both nearest-centroid forms replace.
    fn brute(p: &Point, centroids: &[Point]) -> (usize, f64) {
        let mut best = 0;
        let mut best_sq = f64::INFINITY;
        for (i, c) in centroids.iter().enumerate() {
            let d = p.sq_dist(c);
            if d < best_sq {
                best_sq = d;
                best = i;
            }
        }
        (best, best_sq.sqrt())
    }

    /// A deterministic point at `dim` whose coordinates trace `phase`.
    fn wavy(dim: usize, phase: f64, scale: f64) -> Point {
        Point::new(
            (0..dim)
                .map(|k| (phase * (0.29 + 0.37 * k as f64)).sin() * scale)
                .collect(),
        )
    }

    /// The bounded scan and the dispatching [`Centroids::nearest`]
    /// against the brute scan, bit for bit.
    fn assert_scans_match_brute(p: &Point, centroids: &[Point], ctx: &str) {
        let seeds = Centroids::new(centroids);
        let norms: Vec<f64> = centroids.iter().map(|c| norm(c)).collect();
        let (bi, bd) = brute(p, centroids);
        for (name, (i, d)) in [
            ("bounded", bounded(p, &seeds.coords, p.dim(), &norms)),
            ("nearest", seeds.nearest(p)),
        ] {
            assert_eq!(bi, i, "{name} {ctx}");
            assert_eq!(bd.to_bits(), d.to_bits(), "{name} {ctx}");
        }
    }

    /// Dims 1–6 and two dims past [`BOUND_MIN_DIM`], where
    /// [`Centroids::nearest`] itself takes the bound.
    const SCAN_DIMS: [usize; 8] = [1, 2, 3, 4, 5, 6, BOUND_MIN_DIM, BOUND_MIN_DIM + 3];

    #[test]
    fn pruned_nearest_seed_matches_brute_scan() {
        for dim in SCAN_DIMS {
            let centroids: Vec<Point> = (0..30)
                .map(|i| wavy(dim, f64::from(i) * 1.31, 40.0))
                .collect();
            for i in 0..500 {
                let p = wavy(dim, f64::from(i) * 0.53, 60.0);
                assert_scans_match_brute(&p, &centroids, &format!("dim {dim} point {i}"));
            }
        }
    }

    #[test]
    fn equidistant_centroids_keep_the_lowest_index() {
        // Centroids at ±e_k and duplicates of them: every one sits at the
        // same distance from the origin, so the lowest index must win;
        // from a point on an axis, the earlier of the two duplicates
        // must.
        for dim in SCAN_DIMS {
            let axis = |k: usize, s: f64| {
                let mut c = vec![0.0; dim];
                c[k] = s;
                Point::new(c)
            };
            let mut centroids: Vec<Point> = (0..dim)
                .flat_map(|k| [axis(k, 3.0), axis(k, -3.0)])
                .collect();
            centroids.extend(centroids.clone());
            let origin = Point::new(vec![0.0; dim]);
            assert_scans_match_brute(&origin, &centroids, &format!("dim {dim} origin"));
            assert_eq!(Centroids::new(&centroids).nearest(&origin).0, 0);
            for k in 0..dim {
                let p = axis(k, -5.0);
                assert_scans_match_brute(&p, &centroids, &format!("dim {dim} axis {k}"));
                assert_eq!(Centroids::new(&centroids).nearest(&p).0, 2 * k + 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn no_seeds_panics() {
        let _ = refine(&[Point::xy(0.0, 0.0)], None, &[], Phase4Config::default());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weight_length_mismatch_panics() {
        let pts = vec![Point::xy(0.0, 0.0)];
        let seeds = vec![Cf::from_point(&pts[0])];
        let _ = refine(&pts, Some(&[1.0, 2.0]), &seeds, Phase4Config::default());
    }
}
