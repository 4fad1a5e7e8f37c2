//! Phase 4 / `predict` nearest-centroid scan microbenchmark: the scan with
//! and without the reverse-triangle norm bound, and through the exact
//! cell grid, swept over dimensionality, centroid count and grid cells.
//!
//! Per (K, dim), a mixture of `K` isotropic normals of per-axis deviation
//! `--sigma` (default 1, DS1's cluster spread) with centres uniform in
//! DS1's 10·4√2 extent along every axis is generated, a model is fitted
//! to a sample of it with `K` clusters, and each remaining point is
//! labelled against the model's centroids by:
//!
//! * `bound` — the first-strict-minimum scan that skips a centroid when
//!   `|‖p‖ − ‖c‖|` (shaved by the Phase 1 prune slack) already exceeds the
//!   best distance so far;
//! * `brute` — the same scan without the bound;
//! * `grid` — the production [`CellGrid`] built at this dim with `c`
//!   cells per centroid (one row per `--cells` value), falling back to
//!   `brute` for a point outside it;
//! * `predict` — the production [`BirchModel::predict`].
//!
//! Dims 1–4 run the local scans monomorphized over the dimension, as
//! production does. The four arms are sampled in interleaved windows
//! and the min wall per point is kept, as is the min wall of the grid's
//! build (`build-us`). Every arm must return the same label for every
//! point, and the bin panics if one does not.
//!
//! ```text
//! cargo run --release -p birch-bench --bin nearest_centroid \
//!     [-- --seed 42 --reps 7 --sigma 1 --k 10,100,1000 --cells 1,2,4,8 \
//!         --dims 1,2,3,4,5,6]
//! ```

use birch_bench::{print_header, print_row};
use birch_core::distance::D0_PRUNE_SLACK_REL;
use birch_core::phase4::{CellGrid, GRID_CELLS_PER_CENTROID};
use birch_core::{Birch, BirchConfig, BirchModel, Point};
use std::time::Instant;

/// Points fitted per dim at K ≤ 100; larger K fit `K / 100` times as
/// many.
const FIT_POINTS: usize = 20_000;
/// Points labelled per timed window.
const SCAN_POINTS: usize = 50_000;
/// Extent of the centres along every axis: DS1's 10-cell grid of
/// spacing 4√2.
const EXTENT: f64 = 10.0 * 4.0 * std::f64::consts::SQRT_2;

/// xorshift64 — deterministic input without external RNG crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal draw (Box–Muller).
    fn normal(&mut self) -> f64 {
        let u = 1.0 - self.f64();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * self.f64()).cos()
    }
}

/// `n` points of a mixture of `k` normals.
fn mixture(k: usize, dim: usize, n: usize, sigma: f64, rng: &mut Rng) -> Vec<Point> {
    let centres: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dim).map(|_| rng.f64() * EXTENT).collect())
        .collect();
    (0..n)
        .map(|_| {
            let c = &centres[(rng.next() % k as u64) as usize];
            Point::new(c.iter().map(|x| x + sigma * rng.normal()).collect())
        })
        .collect()
}

/// Centroids as a flat row-major slab plus their norms.
struct Slab {
    dim: usize,
    coords: Vec<f64>,
    norms: Vec<f64>,
}

fn norm(p: &[f64]) -> f64 {
    p.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// The nearest centroid's index and distance (lowest index on ties):
/// production's `phase4` scan, local so that both arms can be timed at
/// every dim. Centroid `i` is measured by `sq` unless `skip(i, best
/// squared distance)` vetoes it.
#[inline(always)]
fn scan(
    p: &[f64],
    s: &Slab,
    sq: impl Fn(&[f64], &[f64]) -> f64,
    skip: impl Fn(usize, f64) -> bool,
) -> (usize, f64) {
    let mut best = 0;
    let mut best_sq = f64::INFINITY;
    for (i, c) in s.coords.chunks_exact(s.dim).enumerate() {
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

/// Whether centroid `i`'s reverse-triangle bound `|‖p‖ − ‖c‖|`, shaved by
/// the Phase 1 prune slack, already exceeds the best distance.
#[inline(always)]
fn beyond_bound(s: &Slab, pn: f64, i: usize, best_sq: f64) -> bool {
    let cn = s.norms[i];
    let b = ((pn - cn).abs() - D0_PRUNE_SLACK_REL * (pn + cn)).max(0.0);
    b * b > best_sq
}

/// `point::sq_dist`, local so that it inlines here as it does in
/// production.
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// [`sq_dist`] at a fixed dimension `D`.
#[inline(always)]
fn sq_fixed<const D: usize>(a: &[f64], b: &[f64]) -> f64 {
    let (a, b): (&[f64; D], &[f64; D]) = (a.try_into().unwrap(), b.try_into().unwrap());
    let mut s = 0.0;
    for k in 0..D {
        let d = a[k] - b[k];
        s += d * d;
    }
    s
}

/// [`scan`] with the norm bound when `BOUND`, the squared distance
/// monomorphized at dims 1–4. Kept out of line, as production's
/// `predict` is, so each arm pays the same call per point.
#[inline(never)]
fn nearest<const BOUND: bool>(p: &Point, s: &Slab) -> (usize, f64) {
    assert_eq!(p.dim(), s.dim, "dimension mismatch");
    let pn = if BOUND { norm(p) } else { 0.0 };
    let skip = |i, best_sq| BOUND && beyond_bound(s, pn, i, best_sq);
    match s.dim {
        1 => scan(p, s, sq_fixed::<1>, skip),
        2 => scan(p, s, sq_fixed::<2>, skip),
        3 => scan(p, s, sq_fixed::<3>, skip),
        4 => scan(p, s, sq_fixed::<4>, skip),
        _ => scan(p, s, sq_dist, skip),
    }
}

/// Centroids of `s` the bound skips when labelling `p`.
fn pruned(p: &Point, s: &Slab) -> usize {
    let pn = norm(p);
    let mut best_sq = f64::INFINITY;
    let mut skipped = 0;
    for (i, c) in s.coords.chunks_exact(s.dim).enumerate() {
        if beyond_bound(s, pn, i, best_sq) {
            skipped += 1;
        } else {
            best_sq = best_sq.min(sq_dist(p, c));
        }
    }
    skipped
}

/// Nanoseconds per point of one pass of `label` over `points`, and the
/// labels' checksum.
fn pass(points: &[Point], mut label: impl FnMut(&Point) -> usize) -> (f64, u64) {
    let t0 = Instant::now();
    let mut sum = 0u64;
    for (i, p) in points.iter().enumerate() {
        sum = sum.wrapping_add((label(p) as u64).wrapping_mul(i as u64 | 1));
    }
    (t0.elapsed().as_nanos() as f64 / points.len() as f64, sum)
}

/// A comma-separated list of integers.
fn list(flag: &str, v: &str) -> Vec<usize> {
    v.split(',')
        .map(|x| {
            x.parse()
                .unwrap_or_else(|_| panic!("{flag} must be integers"))
        })
        .collect()
}

fn main() {
    let mut seed = 42u64;
    let mut reps = 7usize;
    let mut sigma = 1.0f64;
    let mut ks = vec![100usize];
    let mut cells = vec![GRID_CELLS_PER_CENTROID];
    let mut dims = vec![2usize, 3, 4, 5, 8, 32];
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => seed = value("--seed").parse().expect("--seed must be an integer"),
            "--reps" => reps = value("--reps").parse().expect("--reps must be an integer"),
            "--sigma" => sigma = value("--sigma").parse().expect("--sigma must be a number"),
            "--k" => ks = list("--k", &value("--k")),
            "--cells" => cells = list("--cells", &value("--cells")),
            "--dims" => dims = list("--dims", &value("--dims")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: nearest_centroid [--seed n] [--reps n] [--sigma s] [--k a,b,…] \
                     [--cells a,b,…] [--dims a,b,…]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (try --help)"),
        }
    }
    assert!(reps >= 1, "--reps must be >= 1");

    println!(
        "Nearest-centroid scan, sigma={sigma}, {SCAN_POINTS} points per pass, reps={reps} \
         (min wall kept)\n"
    );
    let widths = [5, 4, 3, 9, 9, 8, 11, 9, 7, 7, 7, 10, 9];
    print_header(
        &[
            "k",
            "dim",
            "c",
            "bound-ns",
            "brute-ns",
            "grid-ns",
            "predict-ns",
            "build-us",
            "cand",
            "inside",
            "pruned",
            "bound/brute",
            "grid/brute",
        ],
        &widths,
    );
    for &k in &ks {
        for &dim in &dims {
            let mut rng = Rng(seed ^ (dim as u64) << 8 ^ (k as u64) << 24);
            // Fit points, memory and Phase 2's output grow with K so that
            // the fit finds K clusters.
            let grow = k.div_ceil(100);
            let mut points = mixture(k, dim, FIT_POINTS * grow + SCAN_POINTS, sigma, &mut rng);
            let fit = points.split_off(SCAN_POINTS);
            // Pages and memory grow with the entry size, so every dim's tree
            // holds as many entries as the dim-2 defaults do.
            let scale = dim.div_ceil(2);
            let mut base = BirchConfig::with_clusters(k);
            base.phase2_max_entries *= grow;
            let (page, memory) = (base.page_bytes * scale, base.memory_bytes * scale * grow);
            let config = base.threads(1).page_size(page).memory(memory);
            let model: BirchModel = Birch::new(config).fit(&fit).expect("fit the mixture");
            let centroids: Vec<&Point> = model.clusters().iter().map(|c| &c.centroid).collect();
            let slab = Slab {
                dim,
                coords: centroids.iter().flat_map(|c| c.coords()).copied().collect(),
                norms: centroids.iter().map(|c| norm(c.coords())).collect(),
            };
            let pruned: usize = points.iter().map(|p| pruned(p, &slab)).sum();
            let share = pruned as f64 / (SCAN_POINTS * centroids.len()) as f64;

            for &c in &cells {
                let (mut bound_ns, mut brute_ns, mut grid_ns, mut predict_ns, mut build_us) = (
                    f64::INFINITY,
                    f64::INFINITY,
                    f64::INFINITY,
                    f64::INFINITY,
                    f64::INFINITY,
                );
                let mut grid = None;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    grid = CellGrid::new(&slab.coords, dim, c);
                    build_us = build_us.min(t0.elapsed().as_secs_f64() * 1e6);
                    let grid = grid.as_ref();
                    let (t_bound, a) = pass(&points, |p| nearest::<true>(p, &slab).0);
                    let (t_brute, b) = pass(&points, |p| nearest::<false>(p, &slab).0);
                    let (t_grid, g) = pass(&points, |p| {
                        grid.and_then(|g| g.nearest(p, &slab.coords))
                            .unwrap_or_else(|| nearest::<false>(p, &slab))
                            .0
                    });
                    let (t_predict, m) = pass(&points, |p| model.predict(p));
                    assert!(
                        a == b && b == g && g == m,
                        "k {k} dim {dim} c {c}: the scans disagree on a label"
                    );
                    bound_ns = bound_ns.min(t_bound);
                    brute_ns = brute_ns.min(t_brute);
                    grid_ns = grid_ns.min(t_grid);
                    predict_ns = predict_ns.min(t_predict);
                }
                let (cand, inside) = grid.as_ref().map_or(("-".into(), "-".into()), |g| {
                    let inside = points
                        .iter()
                        .filter(|p| g.nearest(p, &slab.coords).is_some())
                        .count();
                    (
                        format!("{:.1}", g.candidates() as f64 / g.cells() as f64),
                        format!("{:.0}%", 100.0 * inside as f64 / points.len() as f64),
                    )
                });
                print_row(
                    &[
                        format!("{}", centroids.len()),
                        format!("{dim}"),
                        format!("{c}"),
                        format!("{bound_ns:.1}"),
                        format!("{brute_ns:.1}"),
                        format!("{grid_ns:.1}"),
                        format!("{predict_ns:.1}"),
                        format!("{build_us:.0}"),
                        cand,
                        inside,
                        format!("{:.0}%", 100.0 * share),
                        format!("{:.2}", bound_ns / brute_ns),
                        format!("{:.2}", grid_ns / brute_ns),
                    ],
                    &widths,
                );
            }
        }
    }
}
