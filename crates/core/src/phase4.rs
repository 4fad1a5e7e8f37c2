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
//!
//! The per-point query, the closest seed, is `Centroids::nearest`, which
//! [`crate::BirchModel::predict`] shares. At dims 1–5 with at least 32
//! seeds it goes through a [`CellGrid`]: a uniform grid over the seeds
//! whose cells list the only seeds that can be closest to a point inside
//! them, so a point scans a handful of seeds instead of all K (about 3 of
//! 100 on DS1). Points outside the grid, and seed sets with no sound grid,
//! scan all K. Every path returns the full scan's seed and distance bit
//! for bit, lowest index on ties (DESIGN §11.6).

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

/// Largest dimension at which [`Centroids`] indexes its centroids with a
/// [`CellGrid`]; the `nearest_centroid` bench measured no win above it
/// (DESIGN §11.6).
const GRID_MAX_DIM: usize = 5;

/// Grid cells per centroid of the production [`CellGrid`], measured with
/// the `nearest_centroid` bench (DESIGN §11.6).
pub const GRID_CELLS_PER_CENTROID: usize = 8;

/// Fewest centroids [`Centroids`] indexes with a [`CellGrid`]; below it
/// the full scan is as fast (DESIGN §11.6).
const GRID_MIN_CENTROIDS: usize = 32;

/// Cap on the (cell, centroid) pairs one [`CellGrid`] build evaluates:
/// past it the grid gets fewer cells than `cells_per_centroid` asks.
const GRID_MAX_BUILD_PAIRS: usize = 1 << 22;

/// Cap on a [`CellGrid`]'s candidate lists, in entries (16 MiB).
const GRID_MAX_IDS: usize = 1 << 22;

/// Relative slack of the candidate rule, 2⁻⁴⁰: far above the
/// `4(D + 1)·2⁻⁵³` that the rounding of the squared distances and their
/// bounds can reach at any grid dim (DESIGN §11.6).
const GRID_SLACK_REL: f64 = 1.0 / 1_099_511_627_776.0;

/// Inflation of every cell box, relative to `|lo| + |hi|` of its axis,
/// 2⁻⁴⁸: covers the rounding of the query's cell and of the box corners
/// (DESIGN §11.6).
const GRID_MARGIN_REL: f64 = 1.0 / 281_474_976_710_656.0;

/// Seed centroids as one flat row-major slab — the layout of the
/// point-vs-centroid scan shared by Phase 4 and
/// [`crate::BirchModel::predict`] — with each centroid's norm at dims
/// that take the norm bound and a [`CellGrid`] at dims that take the
/// grid.
#[derive(Debug, Clone, Default)]
pub(crate) struct Centroids {
    dim: usize,
    coords: Vec<f64>,
    norms: Vec<f64>,
    grid: Option<CellGrid>,
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
        if slab.dim <= GRID_MAX_DIM && slab.coords.len() >= GRID_MIN_CENTROIDS * slab.dim {
            slab.grid = CellGrid::new(&slab.coords, slab.dim, GRID_CELLS_PER_CENTROID);
        }
        slab
    }

    /// Index and distance of the centroid nearest to `p` (Euclidean, per
    /// the paper: "the Euclidian distance to the closest seed"); the
    /// lowest index wins ties. `(0, +∞)` when there are no centroids.
    ///
    /// Up to [`GRID_MAX_DIM`], a point inside the centroids' [`CellGrid`]
    /// scans only its cell's candidates; any other point, or a slab with
    /// no sound grid, scans them all. Dims 1–4 scan with the squared
    /// distance monomorphized over the dimension, the point in registers;
    /// larger dims with [`sq_dist`]. From [`BOUND_MIN_DIM`] on, the scan
    /// skips centroids by the norm bound. Every form returns the plain
    /// scan's result bit for bit.
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
        match self.dim {
            1 => self.indexed(p, 1, sq_fixed::<1>),
            2 => self.indexed(p, 2, sq_fixed::<2>),
            3 => self.indexed(p, 3, sq_fixed::<3>),
            4 => self.indexed(p, 4, sq_fixed::<4>),
            d if d < BOUND_MIN_DIM => self.indexed(p, d, sq_dist),
            d => bounded(p, &self.coords, d, &self.norms),
        }
    }

    /// The grid's answer for `p` when it has one, else the full [`scan`].
    #[inline(always)]
    fn indexed(&self, p: &[f64], dim: usize, sq: impl Fn(&[f64], &[f64]) -> f64) -> (usize, f64) {
        let none = |_: usize, _: f64| false;
        if let Some(found) = self
            .grid
            .as_ref()
            .and_then(|g| g.lookup(p, &self.coords, dim, &sq))
        {
            debug_assert!(
                {
                    let (i, d) = scan(p, &self.coords, dim, &sq, none);
                    found.0 == i && found.1.to_bits() == d.to_bits()
                },
                "cell grid disagrees with the full scan at {p:?}"
            );
            return found;
        }
        scan(p, &self.coords, dim, sq, none)
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

/// The squared gap from `x` to the interval `[bl, bh]` (0 inside it) and
/// the squared reach from `x` to its far end. `x − bl = −(bl − x)` and
/// `bh − x = −(x − bh)` exactly, so the gap is the larger of `bl − x` and
/// `x − bh` (clamped at 0) and the reach the smaller.
#[inline(always)]
fn gap_reach_sq(bl: f64, bh: f64, x: f64) -> (f64, f64) {
    let (below, above) = (bl - x, x - bh);
    let (gap, reach) = if below > above {
        (below, above)
    } else {
        (above, below)
    };
    let gap = if gap > 0.0 { gap } else { 0.0 };
    (gap * gap, reach * reach)
}

/// The least of `v` (+∞ when empty), kept in four independent lanes so
/// that the comparisons pipeline.
fn min_of(v: &[f64]) -> f64 {
    let mut lanes = [f64::INFINITY; 4];
    let chunks = v.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        for (m, &x) in lanes.iter_mut().zip(c) {
            *m = if x < *m { x } else { *m };
        }
    }
    tail.iter()
        .chain(&lanes)
        .copied()
        .fold(f64::INFINITY, f64::min)
}

/// An exact cell index over a centroid slab: a uniform grid over the
/// centroids' bounding box, padded by about one centroid spacing per
/// side, whose every cell lists (ascending) the centroids that can be
/// the scan's answer for a point in it (DESIGN §11.6).
///
/// Centroid `c` is a candidate of cell `B` iff `minD²(B', c) ≤ (1 + s)·
/// min_c' maxD²(B', c') + f64::MIN_POSITIVE`, where `B'` is `B` inflated
/// by `GRID_MARGIN_REL` and `s` is `GRID_SLACK_REL`. The slack and
/// the inflation cover the rounding of the squared distances, of the
/// bounds and of the query's cell, so the scan's lowest-index minimizer
/// is always a candidate; scanning the candidates in ascending order
/// with the scan's strict `<` then returns its index and distance bit for
/// bit. `Centroids` builds one at dims up to `GRID_MAX_DIM` with
/// [`GRID_CELLS_PER_CENTROID`]; it is public so that the
/// `nearest_centroid` bench can time it at any dim and cell count.
#[derive(Debug, Clone)]
pub struct CellGrid {
    axes: Vec<Axis>,
    /// CSR offsets: cell `b`'s candidates are `ids[start[b]..start[b + 1]]`.
    start: Vec<u32>,
    ids: Vec<u32>,
}

/// One axis of a [`CellGrid`].
#[derive(Debug, Clone, Copy)]
struct Axis {
    /// The padded box's low side.
    lo: f64,
    /// Reciprocal cell width.
    inv_w: f64,
    /// Cells along the axis, as the query's bound.
    cells: f64,
    /// Cell-index stride (axis 0 is the fastest).
    stride: usize,
}

impl CellGrid {
    /// The grid over the `dim`-wide row-major `slab` with about
    /// `cells_per_centroid` cells per centroid (fewer past
    /// `GRID_MAX_BUILD_PAIRS`), or `None` when no sound or useful grid
    /// exists: no centroids, a non-finite coordinate, a zero extent on
    /// every axis, a box whose squared diagonal could overflow, or
    /// candidate lists longer than half the centroids on average or than
    /// `GRID_MAX_IDS` in all.
    #[must_use]
    pub fn new(slab: &[f64], dim: usize, cells_per_centroid: usize) -> Option<Self> {
        if dim == 0 || cells_per_centroid == 0 {
            return None;
        }
        let k = slab.len() / dim;
        if k == 0 || slab.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for c in slab.chunks_exact(dim) {
            for (a, &x) in c.iter().enumerate() {
                lo[a] = lo[a].min(x);
                hi[a] = hi[a].max(x);
            }
        }
        let extent = lo.iter().zip(&hi).map(|(l, h)| h - l).fold(0.0, f64::max);
        // One centroid spacing, were the centroids spread evenly over a
        // cube of side `extent`; it also gives a zero-extent axis a width.
        let pad = extent / (k as f64).powf(1.0 / dim as f64);
        for (l, h) in lo.iter_mut().zip(&mut hi) {
            *l -= pad;
            *h += pad;
        }
        let side: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| h - l).collect();
        let diag_sq: f64 = side.iter().map(|s| s * s).sum();
        if !(extent > 0.0 && diag_sq < f64::MAX / 4.0) {
            return None;
        }

        // Near-cubic cells, at most `target` of them over the padded box.
        // The first width gives exactly `target` before rounding (the
        // geometric mean of the sides is taken in logs so that it cannot
        // overflow); a short axis still gets one cell, so widen until the
        // rounded counts fit.
        let target = cells_per_centroid
            .saturating_mul(k)
            .min(GRID_MAX_BUILD_PAIRS / k)
            .max(1);
        let log_mean = side.iter().map(|s| s.ln()).sum::<f64>() / dim as f64;
        let mut w = (log_mean - (target as f64).ln() / dim as f64).exp();
        let (counts, total) = loop {
            let counts: Vec<usize> = side
                .iter()
                .map(|s| ((s / w) as usize).clamp(1, target))
                .collect();
            let total = counts.iter().fold(1usize, |t, &g| t.saturating_mul(g));
            if total <= target {
                break (counts, total);
            }
            w *= 1.125;
        };
        let width: Vec<f64> = side
            .iter()
            .zip(&counts)
            .map(|(s, &g)| s / g as f64)
            .collect();
        let margin: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .map(|(l, h)| GRID_MARGIN_REL * (l.abs() + h.abs()))
            .collect();

        // The centroids axis by axis, so that each box side meets one
        // contiguous column.
        let columns: Vec<Vec<f64>> = (0..dim)
            .map(|a| slab.chunks_exact(dim).map(|c| c[a]).collect())
            .collect();
        let max_ids = (total.saturating_mul(k) / 2).min(GRID_MAX_IDS);
        let mut start = Vec::with_capacity(total + 1);
        start.push(0u32);
        let mut ids = Vec::new();
        // The box of cell `j` on axis `a`, inflated by the margin.
        let side_of = |a: usize, j: usize| {
            (
                lo[a] + j as f64 * width[a] - margin[a],
                lo[a] + (j + 1) as f64 * width[a] + margin[a],
            )
        };
        // Cells run axis 0 fastest, so the squared gaps and reaches over
        // axes 1.. (`rest_*`) are summed once per row of cells, and each
        // cell adds its axis-0 term.
        let (mut rest_near, mut rest_far) = (vec![0.0; k], vec![0.0; k]);
        let (mut near, mut far) = (vec![0.0; k], vec![0.0; k]);
        let mut row = vec![0usize; dim];
        for _ in 0..total / counts[0] {
            rest_near.fill(0.0);
            rest_far.fill(0.0);
            for a in 1..dim {
                let (bl, bh) = side_of(a, row[a]);
                for ((n, f), &x) in rest_near.iter_mut().zip(&mut rest_far).zip(&columns[a]) {
                    let (gap_sq, reach_sq) = gap_reach_sq(bl, bh, x);
                    *n += gap_sq;
                    *f += reach_sq;
                }
            }
            for j in 0..counts[0] {
                let (bl, bh) = side_of(0, j);
                for ((((n, f), &rn), &rf), &x) in near
                    .iter_mut()
                    .zip(&mut far)
                    .zip(&rest_near)
                    .zip(&rest_far)
                    .zip(&columns[0])
                {
                    let (gap_sq, reach_sq) = gap_reach_sq(bl, bh, x);
                    *n = rn + gap_sq;
                    *f = rf + reach_sq;
                }
                let limit = min_of(&far) * (1.0 + GRID_SLACK_REL) + f64::MIN_POSITIVE;
                ids.extend(
                    (0u32..)
                        .zip(&near)
                        .filter(|&(_, &n)| n <= limit)
                        .map(|(i, _)| i),
                );
                if ids.len() > max_ids {
                    return None;
                }
                start.push(u32::try_from(ids.len()).ok()?);
            }
            for (j, &g) in row.iter_mut().zip(&counts).skip(1) {
                *j += 1;
                if *j < g {
                    break;
                }
                *j = 0;
            }
        }
        let mut stride = 1;
        let axes = (0..dim)
            .map(|a| {
                let axis = Axis {
                    lo: lo[a],
                    inv_w: 1.0 / width[a],
                    cells: counts[a] as f64,
                    stride,
                };
                stride *= counts[a];
                axis
            })
            .collect();
        Some(CellGrid { axes, start, ids })
    }

    /// Cells in the grid.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.start.len() - 1
    }

    /// Candidate-list entries over all cells.
    #[must_use]
    pub fn candidates(&self) -> usize {
        self.ids.len()
    }

    /// `Centroids::nearest`'s answer for `p` against the `slab` the grid
    /// was built over, or `None` when `p` lies outside the grid (or has a
    /// non-finite coordinate) and needs the full scan.
    ///
    /// # Panics
    ///
    /// May panic if `slab` is not the grid's, or `p`'s dimension is not
    /// the slab's.
    #[must_use]
    pub fn nearest(&self, p: &[f64], slab: &[f64]) -> Option<(usize, f64)> {
        match self.axes.len() {
            1 => self.lookup(p, slab, 1, sq_fixed::<1>),
            2 => self.lookup(p, slab, 2, sq_fixed::<2>),
            3 => self.lookup(p, slab, 3, sq_fixed::<3>),
            4 => self.lookup(p, slab, 4, sq_fixed::<4>),
            d => self.lookup(p, slab, d, sq_dist),
        }
    }

    /// The cell of `p` from `(p − lo)·inv_w`, then the first strict
    /// minimum of `sq` over its candidates, in ascending index.
    #[inline(always)]
    fn lookup(
        &self,
        p: &[f64],
        slab: &[f64],
        dim: usize,
        sq: impl Fn(&[f64], &[f64]) -> f64,
    ) -> Option<(usize, f64)> {
        let mut cell = 0;
        for (&x, axis) in p[..dim].iter().zip(&self.axes) {
            let t = (x - axis.lo) * axis.inv_w;
            if !(t >= 0.0 && t < axis.cells) {
                return None;
            }
            cell += t as usize * axis.stride;
        }
        let mut best = 0;
        let mut best_sq = f64::INFINITY;
        for &i in &self.ids[self.start[cell] as usize..self.start[cell + 1] as usize] {
            let i = i as usize;
            let d = sq(p, &slab[i * dim..(i + 1) * dim]);
            if d < best_sq {
                best_sq = d;
                best = i;
            }
        }
        Some((best, best_sq.sqrt()))
    }
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

    /// The bounded scan, the dispatching [`Centroids::nearest`] and a
    /// [`CellGrid`] over the centroids (at any dim, when one is built and
    /// holds `p`) against the brute scan, bit for bit.
    fn assert_scans_match_brute(p: &Point, centroids: &[Point], ctx: &str) {
        let seeds = Centroids::new(centroids);
        let norms: Vec<f64> = centroids.iter().map(|c| norm(c)).collect();
        let grid = CellGrid::new(&seeds.coords, p.dim(), GRID_CELLS_PER_CENTROID);
        let (bi, bd) = brute(p, centroids);
        let grid_answer = grid.and_then(|g| g.nearest(p, &seeds.coords));
        for (name, (i, d)) in [
            ("bounded", bounded(p, &seeds.coords, p.dim(), &norms)),
            ("nearest", seeds.nearest(p)),
        ]
        .into_iter()
        .chain(grid_answer.map(|found| ("grid", found)))
        {
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
                // -5 lies outside the grid, -2 inside it.
                for s in [-5.0, -2.0] {
                    let p = axis(k, s);
                    let ctx = format!("dim {dim} axis {k} at {s}");
                    assert_scans_match_brute(&p, &centroids, &ctx);
                    assert_eq!(Centroids::new(&centroids).nearest(&p).0, 2 * k + 1);
                }
            }
        }
    }

    /// `k` centroids at `dim` in one of the property test's layouts.
    fn layout(kind: usize, k: usize, dim: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut slab: Vec<f64> = (0..k * dim).map(|_| unit() * 100.0).collect();
        match kind {
            // Every third centroid repeats an earlier one.
            1 => {
                for i in (2..k).step_by(3) {
                    let j = (unit() * i as f64) as usize;
                    slab.copy_within(j * dim..(j + 1) * dim, i * dim);
                }
            }
            // Axis 0 has zero extent.
            2 => slab.iter_mut().step_by(dim).for_each(|x| *x = 7.0),
            // All centroids identical.
            3 => {
                let first = slab[..dim].to_vec();
                slab.chunks_exact_mut(dim)
                    .for_each(|c| c.copy_from_slice(&first));
            }
            // Offset 1e8, spacing about 0.1.
            4 => slab.iter_mut().for_each(|x| *x = 1e8 + *x * 0.01),
            // Near ±1e150 and ±1e300.
            5 | 6 => {
                let scale = if kind == 5 { 1e150 } else { 1e300 };
                slab.iter_mut()
                    .for_each(|x| *x = (*x - 50.0).signum() * scale * (1.0 + *x * 1e-3));
            }
            // An integer lattice: many duplicates and exact ties.
            7 => slab.iter_mut().for_each(|x| *x = (*x / 10.0).floor()),
            _ => {}
        }
        slab
    }

    /// Queries that probe `grid`: every centroid, the midpoint of each
    /// consecutive pair (exact ties where it is representable), every
    /// cell edge and grid border with its neighbouring floats on each
    /// axis, and points scattered over the box and past it.
    fn probes(grid: &CellGrid, slab: &[f64], dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let rows: Vec<&[f64]> = slab.chunks_exact(dim).collect();
        let mut out: Vec<Vec<f64>> = rows.iter().map(|c| c.to_vec()).collect();
        out.extend(
            rows.windows(2)
                .map(|w| w[0].iter().zip(w[1]).map(|(a, b)| (a + b) / 2.0).collect()),
        );
        for a in 0..dim {
            let base = rows[(seed as usize + a) % rows.len()];
            let axis = grid.axes[a];
            for j in 0..=axis.cells as usize {
                let edge = axis.lo + j as f64 / axis.inv_w;
                for x in [edge.next_down(), edge, edge.next_up()] {
                    let mut q = base.to_vec();
                    q[a] = x;
                    out.push(q);
                }
            }
        }
        for i in 0..200u32 {
            let t = f64::from(i) * 0.618_033_988_749_895;
            out.push(
                (0..dim)
                    .map(|a| {
                        let u = (t * (1.0 + a as f64)).fract() * 1.2 - 0.1;
                        let axis = grid.axes[a];
                        axis.lo + u * axis.cells / axis.inv_w
                    })
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn grid_keeps_ties_on_cell_edges() {
        // Ten integer values, each repeated, in dim 1: every half-integer
        // query ties two centroids, and at some counts a cell edge lands
        // on it. Without both the margin and the slack, the lower of the
        // two drops out of the query's cell (at K = 30, for one).
        for k in 10..=300 {
            let slab: Vec<f64> = (0..k).map(|i| f64::from(i % 10)).collect();
            let grid = CellGrid::new(&slab, 1, GRID_CELLS_PER_CENTROID).expect("a grid");
            for h in 0..9 {
                let q = [f64::from(h) + 0.5];
                let want = scan(&q, &slab, 1, sq_dist, |_, _| false);
                let got = grid.nearest(&q, &slab).expect("inside the grid");
                assert_eq!(want.0, got.0, "k {k} at {q:?}");
                assert_eq!(want.1.to_bits(), got.1.to_bits(), "k {k} at {q:?}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// At every grid dim, whatever the layout, a [`CellGrid`] either
        /// declines or answers every query it holds with the full scan's
        /// index and distance bits, and declines the layouts it must.
        #[test]
        fn grid_matches_scan_on_any_layout(
            k in 1usize..=300,
            kind in 0usize..8,
            seed in proptest::prelude::any::<u64>(),
        ) {
            for dim in 1..=GRID_MAX_DIM {
                let slab = layout(kind, k, dim, seed);
                let grid = CellGrid::new(&slab, dim, GRID_CELLS_PER_CENTROID);
                let degenerate = k == 1 || kind == 3 || (kind == 2 && dim == 1);
                if degenerate || kind == 6 {
                    proptest::prop_assert!(grid.is_none(), "kind {kind} dim {dim} built a grid");
                }
                let Some(grid) = grid else { continue };
                proptest::prop_assert!(grid.nearest(&vec![f64::NAN; dim], &slab).is_none());
                for q in probes(&grid, &slab, dim, seed) {
                    let want = scan(&q, &slab, dim, sq_dist, |_, _| false);
                    if let Some(got) = grid.nearest(&q, &slab) {
                        proptest::prop_assert_eq!(want.0, got.0, "k {k} kind {kind} dim {dim} at {q:?}");
                        proptest::prop_assert_eq!(want.1.to_bits(), got.1.to_bits());
                    }
                }
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
