//! A reference evaluation of the paper's formulas on the classic
//! `(N, LS, SS)` triple.
//!
//! **Definition 4.1**: for a cluster of `N` `d`-dimensional points `{Xᵢ}`,
//! `CF = (N, LS, SS)` where `LS = Σ Xᵢ` is the linear sum and `SS = Σ Xᵢ·Xᵢ`
//! is the (scalar) square sum. Radius (eq. 2), diameter (eq. 3) and the
//! inter-cluster distances D0–D4 (eqs. 4–8) all have closed forms over the
//! triple:
//!
//! ```text
//! R²  = (SS − ‖LS‖²/N) / N
//! D²  = (2N·SS − 2‖LS‖²) / (N(N−1))
//! D2² = (N₂·SS₁ + N₁·SS₂ − 2·LS₁·LS₂) / (N₁·N₂)
//! D3² = (2N·SSₘ − 2‖LSₘ‖²) / (N(N−1)),  N = N₁+N₂, subscript m = merged
//! D4² = ‖LS₁‖²/N₁ + ‖LS₂‖²/N₂ − ‖LSₘ‖²/N
//! ```
//!
//! These are exact in real arithmetic, but in f64 they subtract large,
//! nearly equal terms and collapse for tight clusters far from the
//! origin (see the [module docs](crate::cf)). The tree therefore stores
//! the stable form ([`crate::cf::Cf`]). This type only exists so that the
//! stability bench and the tests can measure that failure against a
//! double-double truth and cross-check the stable form near the origin.
//! Its arithmetic is the paper's, operation for operation, with every
//! `‖LS‖²` computed as `dot(ls, ls)`.

use crate::distance::DistanceMetric;
use crate::point::{dot, Point};

/// The paper's `(N, LS, SS)` of a point set, accumulated point by point.
#[derive(Debug, Clone, PartialEq)]
pub struct Cf {
    n: f64,
    ls: Vec<f64>,
    ss: f64,
}

impl Cf {
    /// The CF of no points at dimensionality `dim`.
    #[must_use]
    pub fn empty(dim: usize) -> Self {
        Self {
            n: 0.0,
            ls: vec![0.0; dim],
            ss: 0.0,
        }
    }

    /// The CF of `points` (all of dimensionality `dim`).
    #[must_use]
    pub fn from_points<'a, I: IntoIterator<Item = &'a Point>>(dim: usize, points: I) -> Self {
        let mut cf = Self::empty(dim);
        for p in points {
            cf.add_point(p);
        }
        cf
    }

    /// Adds one point: `N += 1`, `LS += X`, `SS += X·X`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_point(&mut self, p: &Point) {
        assert_eq!(p.dim(), self.ls.len(), "dimension mismatch");
        self.n += 1.0;
        for (l, c) in self.ls.iter_mut().zip(p.iter()) {
            *l += c;
        }
        self.ss += dot(p, p);
    }

    /// Radius `sqrt((SS − ‖LS‖²/N) / N)` (eq. 2), the deviation clamped
    /// at 0. Zero for an empty CF.
    #[must_use]
    pub fn radius(&self) -> f64 {
        if self.n == 0.0 {
            return 0.0;
        }
        let sq_dev = (self.ss - dot(&self.ls, &self.ls) / self.n).max(0.0);
        (sq_dev / self.n).sqrt()
    }

    /// Diameter `sqrt((2N·SS − 2‖LS‖²) / (N(N−1)))` (eq. 3). Zero when
    /// `N ≤ 1`.
    #[must_use]
    pub fn diameter(&self) -> f64 {
        if self.n <= 1.0 {
            return 0.0;
        }
        let num = 2.0 * self.n * self.ss - 2.0 * dot(&self.ls, &self.ls);
        (num.max(0.0) / (self.n * (self.n - 1.0))).sqrt()
    }

    /// Distance to `other` under `metric`, by the closed forms above.
    ///
    /// # Panics
    ///
    /// Panics if either CF is empty.
    #[must_use]
    pub fn distance(&self, metric: DistanceMetric, other: &Cf) -> f64 {
        assert!(
            self.n > 0.0 && other.n > 0.0,
            "distance between empty clusters is undefined"
        );
        let (a, b) = (self, other);
        let (na, nb) = (a.n, b.n);
        match metric {
            DistanceMetric::D0 => {
                a.ls.iter()
                    .zip(&b.ls)
                    .map(|(&x, &y)| {
                        let d = x / na - y / nb;
                        d * d
                    })
                    .sum::<f64>()
                    .sqrt()
            }
            DistanceMetric::D1 => {
                a.ls.iter()
                    .zip(&b.ls)
                    .map(|(&x, &y)| (x / na - y / nb).abs())
                    .sum()
            }
            DistanceMetric::D2 => {
                let num = nb * a.ss + na * b.ss - 2.0 * dot(&a.ls, &b.ls);
                (num.max(0.0) / (na * nb)).sqrt()
            }
            DistanceMetric::D3 => {
                let n = na + nb;
                if n <= 1.0 {
                    return 0.0;
                }
                let num = 2.0 * n * (a.ss + b.ss) - 2.0 * a.merged_ls_sq(b);
                (num.max(0.0) / (n * (n - 1.0))).sqrt()
            }
            DistanceMetric::D4 => {
                let n = na + nb;
                let inc = dot(&a.ls, &a.ls) / na + dot(&b.ls, &b.ls) / nb - a.merged_ls_sq(b) / n;
                inc.max(0.0).sqrt()
            }
        }
    }

    /// `‖LS_a + LS_b‖²` without materializing the merged vector, the
    /// self-norms summed first so the result is symmetric in `(a, b)`.
    fn merged_ls_sq(&self, b: &Cf) -> f64 {
        (dot(&self.ls, &self.ls) + dot(&b.ls, &b.ls)) + 2.0 * dot(&self.ls, &b.ls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cf::stable;
    use crate::quad::{dd_mean, dd_sq_deviation, Dd};

    fn points(raw: &[&[f64]]) -> Vec<Point> {
        raw.iter().map(|c| Point::new(c.to_vec())).collect()
    }

    fn reference(pts: &[Point]) -> Cf {
        Cf::from_points(pts[0].dim(), pts)
    }

    fn sq(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    fn centroid(pts: &[Point]) -> Vec<f64> {
        let mut c = vec![0.0; pts[0].dim()];
        for p in pts {
            for (ci, x) in c.iter_mut().zip(p.iter()) {
                *ci += x;
            }
        }
        c.iter().map(|x| x / pts.len() as f64).collect()
    }

    /// Sum of squared distances from `pts` to their own centroid.
    fn scatter(pts: &[Point]) -> f64 {
        let c = centroid(pts);
        pts.iter().map(|p| sq(p, &c)).sum()
    }

    /// Every metric straight from its definition (eqs. 4–8), over the
    /// points rather than any CF.
    fn brute_force(metric: DistanceMetric, a: &[Point], b: &[Point]) -> f64 {
        let (ca, cb) = (centroid(a), centroid(b));
        let merged: Vec<Point> = a.iter().chain(b).cloned().collect();
        let n = merged.len() as f64;
        match metric {
            DistanceMetric::D0 => sq(&ca, &cb).sqrt(),
            DistanceMetric::D1 => ca.iter().zip(&cb).map(|(x, y)| (x - y).abs()).sum(),
            DistanceMetric::D2 => {
                let s: f64 = a.iter().flat_map(|p| b.iter().map(|q| sq(p, q))).sum();
                (s / (a.len() * b.len()) as f64).sqrt()
            }
            DistanceMetric::D3 => {
                let s: f64 = merged
                    .iter()
                    .flat_map(|p| merged.iter().map(|q| sq(p, q)))
                    .sum();
                (s / (n * (n - 1.0))).sqrt()
            }
            DistanceMetric::D4 => (scatter(&merged) - scatter(a) - scatter(b)).sqrt(),
        }
    }

    /// Agreement to 1e-12 relative (absolute below 1).
    fn assert_close(got: f64, want: f64, ctx: &str) {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs().max(1.0),
            "{ctx}: {got} vs {want}"
        );
    }

    #[test]
    fn closed_forms_equal_brute_force_pairwise_sums() {
        let a = points(&[&[0.0, 0.0, 1.0], &[1.0, 1.0, 0.5], &[2.0, -1.0, 0.0]]);
        let b = points(&[&[5.0, 5.0, -2.0], &[6.0, 4.0, -1.5]]);
        let (ra, rb) = (reference(&a), reference(&b));
        for m in DistanceMetric::ALL {
            let ctx = m.to_string();
            assert_close(ra.distance(m, &rb), brute_force(m, &a, &b), &ctx);
            assert_close(rb.distance(m, &ra), brute_force(m, &b, &a), &ctx);
        }
        let n = a.len() as f64;
        let pairs: f64 = a.iter().flat_map(|p| a.iter().map(|q| sq(p, q))).sum();
        assert_close(ra.radius(), (scatter(&a) / n).sqrt(), "radius");
        assert_close(ra.diameter(), (pairs / (n * (n - 1.0))).sqrt(), "diameter");
        assert_eq!(reference(&a[..1]).diameter(), 0.0);
        assert_eq!(Cf::empty(3).radius(), 0.0);
    }

    #[test]
    fn agrees_with_stable_backend_near_the_origin() {
        let clouds = [
            points(&[&[0.5, 1.5], &[2.0, -3.0], &[4.25, 0.125]]),
            points(&[&[-1.0, 2.5], &[3.0, 3.0]]),
            points(&[&[7.0, -4.0]]),
            points(&[&[0.1, 0.2], &[0.3, 0.4], &[0.5, 0.6], &[0.7, 0.8]]),
        ];
        let refs: Vec<Cf> = clouds.iter().map(|c| reference(c)).collect();
        let stables: Vec<stable::Cf> = clouds.iter().map(stable::Cf::from_points).collect();
        for (r, s) in refs.iter().zip(&stables) {
            assert_close(r.radius(), s.radius(), "radius");
            assert_close(r.diameter(), s.diameter(), "diameter");
        }
        for (i, (ri, si)) in refs.iter().zip(&stables).enumerate() {
            for (rj, sj) in refs.iter().zip(&stables).skip(i + 1) {
                for m in DistanceMetric::ALL {
                    assert_close(ri.distance(m, rj), m.distance(si, sj), &m.to_string());
                }
            }
        }
    }

    #[test]
    fn radius_and_d4_collapse_at_large_offset() {
        // Two tight clusters (dyadic spreads ~1e-3, so every coordinate is
        // exact at offset 1e8) two units apart. Against the double-double
        // truth of the realized points the reference loses the radius and
        // D4 at offset 1e8; the stable form keeps both.
        const Q: f64 = 4.882_812_5e-4; // 2⁻¹¹
        let cloud = |base: f64| -> Vec<Point> {
            (0..16u32)
                .map(|i| Point::xy(base + f64::from(i % 5) * Q, base + f64::from(i % 3) * Q))
                .collect()
        };
        let (a, b) = (cloud(1e8), cloud(1e8 + 2.0));
        let (na, nb) = (a.len() as f64, b.len() as f64);
        let mean_a = dd_mean(a.iter().map(Point::coords), 2);
        let mean_b = dd_mean(b.iter().map(Point::coords), 2);
        let sq_dev = dd_sq_deviation(a.iter().map(Point::coords), &mean_a);
        let radius_truth = sq_dev.div_f64(na).to_f64().sqrt();
        let mut dmu_sq = Dd::ZERO;
        for (x, y) in mean_a.iter().zip(&mean_b) {
            let d = *x - *y;
            dmu_sq = dmu_sq + d * d;
        }
        let d4_truth = dmu_sq.mul_f64(na * nb / (na + nb)).to_f64().sqrt();
        let rel = |est: f64, truth: f64| (est - truth).abs() / truth;

        let (ra, rb) = (reference(&a), reference(&b));
        assert!(rel(ra.radius(), radius_truth) >= 1e-2, "radius survived");
        let d4 = ra.distance(DistanceMetric::D4, &rb);
        assert!(rel(d4, d4_truth) >= 1e-2, "D4 survived");

        let (sa, sb) = (stable::Cf::from_points(&a), stable::Cf::from_points(&b));
        assert!(rel(sa.radius(), radius_truth) <= 1e-9);
        assert!(rel(DistanceMetric::D4.distance(&sa, &sb), d4_truth) <= 1e-9);
    }
}
