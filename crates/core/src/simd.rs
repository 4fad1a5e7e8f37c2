//! Explicit-width lane kernels for the batched [`CfBlock`] distance
//! scans — the deviation-form metrics streamed through `f64x4` lanes,
//! and the nearest-row scans specialized per dimension and metric. These
//! are the production kernels: [`crate::distance`] re-exports
//! `pair_in_block`, `closest_among`, `closest_pair` and `farthest_pair`
//! from here.
//!
//! The scalar kernels in [`crate::distance`] evaluate the §3 metrics one
//! coordinate at a time in serial order. That order is a feature (it is
//! the bit-exactness contract every historical pin rests on) but it also
//! serializes the additions: at dim 32 the compiler cannot reorder
//! `s += d·d` into independent chains without `-ffast-math`-style
//! licenses it does not have. This module grants that license explicitly
//! and in a controlled way:
//!
//! * **Lane type** — [`lane::F64x4`] is four `f64` lanes as a plain
//!   `[f64; 4]` with `#[inline(always)]` element-wise arithmetic. The
//!   fixed width and independent lanes give LLVM a straight-line shape
//!   it vectorizes to the target's native vectors (SSE2 is in the
//!   `x86_64` baseline; wider units are used when the build enables
//!   them). Raw `core::arch` intrinsics are deliberately *not* used:
//!   rustc requires every caller of a `#[target_feature]` intrinsic to
//!   carry the attribute itself — build-level feature enablement does
//!   not lift the obligation — which is incompatible with this crate's
//!   `#![forbid(unsafe_code)]` and with `std::ops` trait impls. The
//!   value-semantics lane type compiles to the same instructions with
//!   no `unsafe` anywhere.
//!
//! * **Deviation sweep** — every metric needs either `Σ Δμᵢ²` or
//!   `Σ |Δμᵢ|` over the compensated centroid difference
//!   `Δμᵢ = (μ_aᵢ − μ_bᵢ) + (c_aᵢ − c_bᵢ)`. `dev_serial` and
//!   `dev_lanes` compute both through one const-generic accumulator.
//!   Row-vs-row sweeps run over the block's stride-padded slabs
//!   ([`CfBlock::stride`]) so the lane loop has no scalar tail (zero
//!   padding contributes exactly `0`); probe-vs-row sweeps take the
//!   probe's unpadded `dim` slices and finish the remainder serially.
//!
//! * **Small-dim specializations** — dims 1–4 dispatch to fully-unrolled
//!   serial-order loops (`dev_serial`) that live entirely in registers.
//!   They preserve the scalar accumulation order, so lane results at
//!   dim ≤ 4 are **bit-identical** to the scalar oracle — the low-dim
//!   regime can never regress into different arithmetic, and every
//!   dim-2 historical pin keeps holding through the lane path.
//!
//! * **Per-(dim, metric) row scans** — the nearest-row scans
//!   (`closest_among`, `closest_pair`, `farthest_pair`) are the §6.1
//!   cost model's inner loop. One row loop
//!   (`scan_rows`) serves all of them, monomorphized once per scan by
//!   `specialize` over the metric and the sweep: dims 1–4 hold the
//!   probe's μ and carry in `[f64; D]` registers (`Fixed`), larger dims
//!   take the lane sweep (`Lanes`). The row loop indexes the block's
//!   slabs directly, and the probe's `SSE/N` is hoisted out of it. A row
//!   therefore pays no per-row metric or dimension dispatch and no
//!   operand re-slicing. `specialize` is the module's one (metric, dim)
//!   dispatch: the single-pair kernels (`pair_in_block`,
//!   `distance_to_row`) go through it too, as a one-pair body.
//!
//! * **Key-then-`sqrt` selection** — each metric is split at its final
//!   `sqrt` ([`Metric::key`], [`Metric::finish`]). The scans compare the
//!   key and take the `sqrt` only when the key beats the current best's
//!   key (`Winner::offer`). `sqrt` is monotone, so `key < best_key` is
//!   necessary for `sqrt(key) < best_d`; the distance comparison that
//!   follows is the scalar scan's own. The strict-`<` (or strict-`>`),
//!   earliest-row-wins choice is therefore unchanged, ties included —
//!   two keys one ulp apart whose roots round to the same distance still
//!   keep the earlier row.
//!
//! * **Tolerance contract** — above dim 4 the lane reduction reorders
//!   the sums (four partial sums + one horizontal fold), so results may
//!   differ from the scalar oracle in the last ulps. The bound is
//!   [`crate::distance::SIMD_TOLERANCE_REL`]; the differential tests
//!   below and the tree auditor ([`crate::audit`]) both enforce it
//!   against the serial-order oracles in [`crate::distance`].

use crate::cf::Cf;
use crate::distance::{CfBlock, DistanceMetric, LANE_WIDTH};

/// The portable explicit-width lane type: a plain array with
/// `#[inline(always)]` lane arithmetic that LLVM vectorizes to the
/// target's native vector unit (see the module docs for why raw
/// intrinsics are not an option under `#![forbid(unsafe_code)]`).
mod lane {
    /// Four `f64` lanes as an array.
    #[derive(Clone, Copy)]
    pub struct F64x4([f64; 4]);

    impl F64x4 {
        /// All lanes zero.
        #[inline(always)]
        pub fn zero() -> Self {
            Self([0.0; 4])
        }

        /// Lanes from a 4-element chunk (as yielded by `chunks_exact(4)`;
        /// the length conversion folds away, leaving an unchecked
        /// 4-wide load).
        #[inline(always)]
        pub fn from_chunk(c: &[f64]) -> Self {
            let a: [f64; 4] = c.try_into().expect("lane chunk of width 4");
            Self(a)
        }

        /// Lane-wise `|x|`.
        #[inline(always)]
        pub fn abs(self) -> Self {
            let v = self.0;
            Self([v[0].abs(), v[1].abs(), v[2].abs(), v[3].abs()])
        }

        /// Horizontal sum `(l0 + l2) + (l1 + l3)` — the one place lane
        /// order folds back to a scalar; fixed as part of the kernel's
        /// reproducibility story (same fold on every target).
        #[inline(always)]
        pub fn hsum(self) -> f64 {
            let v = self.0;
            (v[0] + v[2]) + (v[1] + v[3])
        }
    }

    impl std::ops::Add for F64x4 {
        type Output = Self;
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            Self([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
        }
    }

    impl std::ops::Sub for F64x4 {
        type Output = Self;
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            Self([a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]])
        }
    }

    impl std::ops::Mul for F64x4 {
        type Output = Self;
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            let (a, b) = (self.0, o.0);
            Self([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
        }
    }
}

use lane::F64x4;

/// Fully-unrolled serial-order deviation sum over the first `D`
/// coordinates: bit-identical to the scalar kernel's
/// `for i { s += …(Δμᵢ) }` loop because it *is* that loop, with the trip
/// count known at compile time so it lives in registers.
#[inline(always)]
fn dev_serial<const ABS: bool, const D: usize>(
    av: &[f64],
    ac: &[f64],
    bv: &[f64],
    bc: &[f64],
) -> f64 {
    // One up-front length check per operand; the indexed loads below are
    // then provably in bounds and check-free.
    let (av, ac) = (&av[..D], &ac[..D]);
    let (bv, bc) = (&bv[..D], &bc[..D]);
    let mut s = 0.0;
    for i in 0..D {
        let d = (av[i] - bv[i]) + (ac[i] - bc[i]);
        s += if ABS { d.abs() } else { d * d };
    }
    s
}

/// Lane-parallel deviation sum: full `f64x4` chunks accumulated in four
/// partial sums, horizontally folded, then any scalar remainder added in
/// serial order. Reorders the serial sum — covered by the
/// [`crate::distance::SIMD_TOLERANCE_REL`] contract.
///
/// The sweep length is the *shortest* operand (a probe passes unpadded
/// `dim` slices against a row's padded stride, and padding past `dim` is
/// all zeros, so the short interpretation loses nothing). The heads are
/// narrowed to the full-chunk prefix up front so the `k + 4 <= full`
/// guard proves every 4-wide load in bounds — LLVM drops the per-element
/// checks and emits straight vector loads, where a naive `s[i + k]` form
/// keeps checks that serialize the whole loop.
#[inline]
fn dev_lanes<const ABS: bool>(av: &[f64], ac: &[f64], bv: &[f64], bc: &[f64]) -> f64 {
    let len = av.len().min(ac.len()).min(bv.len()).min(bc.len());
    let full = len & !3;
    let (avh, ach) = (&av[..full], &ac[..full]);
    let (bvh, bch) = (&bv[..full], &bc[..full]);
    let mut acc = F64x4::zero();
    let mut k = 0;
    while k + 4 <= full {
        let d = (F64x4::from_chunk(&avh[k..k + 4]) - F64x4::from_chunk(&bvh[k..k + 4]))
            + (F64x4::from_chunk(&ach[k..k + 4]) - F64x4::from_chunk(&bch[k..k + 4]));
        acc = if ABS { acc + d.abs() } else { acc + d * d };
        k += 4;
    }
    let mut s = acc.hsum();
    while k < len {
        let d = (av[k] - bv[k]) + (ac[k] - bc[k]);
        s += if ABS { d.abs() } else { d * d };
        k += 1;
    }
    s
}

/// The §3 metrics split at their final `sqrt`, one zero-sized type each,
/// so a scan can be monomorphized over the metric.
mod metric {
    use super::{Metric, Stats};

    /// D0: `‖Δμ‖²`.
    pub struct D0;
    /// D1: `Σ|Δμᵢ|` — no `sqrt`, the key is the distance.
    pub struct D1;
    /// D2: `SSE_a/N_a + SSE_b/N_b + ‖Δμ‖²`.
    pub struct D2;
    /// D3: `2·SSEₘ/(N−1)` of the merged cluster.
    pub struct D3;
    /// D4: `(N_a·N_b/N)·‖Δμ‖²`.
    pub struct D4;

    impl Metric for D0 {
        const ABS: bool = false;
        #[inline(always)]
        fn key(_: &Stats, _: f64, _: f64, dev: f64) -> f64 {
            dev
        }
    }

    impl Metric for D1 {
        const ABS: bool = true;
        #[inline(always)]
        fn key(_: &Stats, _: f64, _: f64, dev: f64) -> f64 {
            dev
        }
        #[inline(always)]
        fn finish(key: f64) -> f64 {
            key
        }
    }

    impl Metric for D2 {
        const ABS: bool = false;
        #[inline(always)]
        fn key(a: &Stats, n: f64, sse: f64, dev: f64) -> f64 {
            (a.sse_per_n + sse / n + dev).max(0.0)
        }
    }

    impl Metric for D3 {
        const ABS: bool = false;
        #[inline(always)]
        fn key(a: &Stats, n: f64, sse: f64, dev: f64) -> f64 {
            let m = a.n + n;
            if m <= 1.0 {
                return 0.0; // fractional weights: merged "cluster" of ≤ one point
            }
            let sse_m = a.sse + sse + (a.n * n / m) * dev;
            (2.0 * sse_m / (m - 1.0)).max(0.0)
        }
    }

    impl Metric for D4 {
        const ABS: bool = false;
        #[inline(always)]
        fn key(a: &Stats, n: f64, _: f64, dev: f64) -> f64 {
            let m = a.n + n;
            ((a.n * n / m) * dev).max(0.0)
        }
    }
}

/// The first operand's scalar statistics, with D2's `SSE/N` term
/// computed once per probe instead of once per row.
#[derive(Clone, Copy)]
struct Stats {
    n: f64,
    sse: f64,
    sse_per_n: f64,
}

impl Stats {
    #[inline(always)]
    fn new(n: f64, sse: f64) -> Self {
        Stats {
            n,
            sse,
            sse_per_n: sse / n,
        }
    }
}

/// One §3 metric split at its final `sqrt`: [`Metric::key`] is the value
/// the `sqrt` is taken of (D1, which has none, is its own key) and
/// [`Metric::finish`] turns a key into the distance. `finish(key(…))` is
/// `stable_distance`'s epilogue operation for operation, so a distance
/// computed this way is bit-identical to the scalar kernel's whenever
/// the deviation sum is.
trait Metric {
    /// Whether the deviation sum is `Σ|Δμᵢ|` (D1) rather than `Σ Δμᵢ²`.
    const ABS: bool;

    /// The pre-`sqrt` key of the non-empty operands `a` and `(n, sse)`
    /// whose deviation sum is `dev`.
    fn key(a: &Stats, n: f64, sse: f64, dev: f64) -> f64;

    /// The distance of a key.
    #[inline(always)]
    fn finish(key: f64) -> f64 {
        key.sqrt()
    }
}

/// [`Metric::key`] under the kernels' shared empty-operand contract:
/// debug-assert, `+∞` in release (whose `sqrt` is `+∞` again).
#[inline(always)]
fn key_of<K: Metric>(a: &Stats, n: f64, sse: f64, dev: f64) -> f64 {
    if a.n <= 0.0 || n <= 0.0 {
        debug_assert!(false, "distance with an empty CF operand");
        return f64::INFINITY;
    }
    K::key(a, n, sse, dev)
}

/// A borrowed CF operand for the lane kernels: the scalar
/// stats plus the (possibly stride-padded) mean and carry slices.
#[derive(Clone, Copy)]
struct Operand<'a> {
    n: f64,
    sse: f64,
    vec: &'a [f64],
    vec_c: &'a [f64],
}

impl<'a> Operand<'a> {
    #[inline(always)]
    fn probe(cf: &'a Cf) -> Self {
        Operand {
            n: cf.n(),
            sse: cf.scalar_stat(),
            vec: cf.mean(),
            vec_c: cf.mean_carry(),
        }
    }
}

/// A block's four slabs borrowed *once* per scan, so the row loops slice
/// off resident base pointers instead of re-deriving every accessor per
/// row (which the measured kernels showed costs more than the arithmetic
/// at low dims).
#[derive(Clone, Copy)]
struct Rows<'a> {
    stride: usize,
    n: &'a [f64],
    sse: &'a [f64],
    vec: &'a [f64],
    vec_c: &'a [f64],
}

impl<'a> Rows<'a> {
    #[inline(always)]
    fn of(block: &'a CfBlock) -> Self {
        Rows {
            stride: block.stride(),
            n: block.n_slab(),
            sse: block.scalar_slab(),
            vec: block.vec_slab(),
            vec_c: block.vec_c_slab(),
        }
    }

    /// Row `i` as full padded stride slices (tail-free lane sweep).
    #[inline(always)]
    fn row(&self, i: usize) -> Operand<'a> {
        let s = self.stride;
        Operand {
            n: self.n[i],
            sse: self.sse[i],
            vec: &self.vec[i * s..(i + 1) * s],
            vec_c: &self.vec_c[i * s..(i + 1) * s],
        }
    }
}

/// The lane twin of `stable_distance`: the metric's key over the
/// deviation sum of [`specialize`]'s sweep, then its `sqrt`. Shares the
/// empty-operand contract (debug-assert, `+∞` in release).
#[inline]
fn lane_distance(metric: DistanceMetric, dim: usize, a: Operand<'_>, b: Operand<'_>) -> f64 {
    specialize(metric, dim, OnePair { a, b })
}

/// Lane form of [`crate::distance::distance_to_row`] (probe vs block
/// row). Bit-identical to the scalar kernel at dim ≤ 4, within the
/// tolerance contract above.
#[inline]
pub(crate) fn distance_to_row(metric: DistanceMetric, ent: &Cf, block: &CfBlock, i: usize) -> f64 {
    lane_distance(
        metric,
        block.dim(),
        Operand::probe(ent),
        Rows::of(block).row(i),
    )
}

/// Distance between block rows `i` and `j`, both swept as padded stride
/// slices so the sweep is tail-free. Within
/// [`crate::distance::SIMD_TOLERANCE_REL`] of the scalar oracle
/// [`crate::distance::pair_in_block_scalar`], bit-identical at dim ≤ 4.
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
#[inline]
pub fn pair_in_block(metric: DistanceMetric, block: &CfBlock, i: usize, j: usize) -> f64 {
    let rows = Rows::of(block);
    lane_distance(metric, block.dim(), rows.row(i), rows.row(j))
}

// ---------------------------------------------------------------------
// Per-(dim, metric) nearest-row scans.
// ---------------------------------------------------------------------

/// How a scan sweeps the deviation between its probe and one row. The
/// probe is loaded once per scan (once per outer row for the pair
/// scans); `dev` then reads only the row.
trait Sweep<'a>: Sized {
    /// Slab slots per row, given the block's runtime stride.
    fn stride(block_stride: usize) -> usize;
    /// The probe, from its μ and carry slices.
    fn load(v: &'a [f64], c: &'a [f64]) -> Self;
    /// Deviation sum (`Σ|Δμᵢ|` when `abs`, else `Σ Δμᵢ²`) of the probe
    /// against one row's stride slices.
    fn dev(&self, abs: bool, rv: &[f64], rc: &[f64]) -> f64;
}

/// Dims 1–4: the probe's μ and carry in registers, each row one
/// [`LANE_WIDTH`] stride, summed in the scalar kernel's serial order
/// (bit-identical to it).
struct Fixed<const D: usize> {
    v: [f64; D],
    c: [f64; D],
}

impl<'a, const D: usize> Sweep<'a> for Fixed<D> {
    #[inline(always)]
    fn stride(block_stride: usize) -> usize {
        debug_assert_eq!(block_stride, LANE_WIDTH, "dims 1–4 pad to one lane");
        LANE_WIDTH
    }

    #[inline(always)]
    fn load(v: &'a [f64], c: &'a [f64]) -> Self {
        Fixed {
            v: v[..D].try_into().expect("probe of dim D"),
            c: c[..D].try_into().expect("probe of dim D"),
        }
    }

    #[inline(always)]
    fn dev(&self, abs: bool, rv: &[f64], rc: &[f64]) -> f64 {
        if abs {
            dev_serial::<true, D>(&self.v, &self.c, rv, rc)
        } else {
            dev_serial::<false, D>(&self.v, &self.c, rv, rc)
        }
    }
}

/// Dims > 4: the lane sweep over the probe's borrowed slices, under the
/// tolerance contract.
struct Lanes<'a> {
    v: &'a [f64],
    c: &'a [f64],
}

impl<'a> Sweep<'a> for Lanes<'a> {
    #[inline(always)]
    fn stride(block_stride: usize) -> usize {
        block_stride
    }

    #[inline(always)]
    fn load(v: &'a [f64], c: &'a [f64]) -> Self {
        Lanes { v, c }
    }

    #[inline(always)]
    fn dev(&self, abs: bool, rv: &[f64], rc: &[f64]) -> f64 {
        if abs {
            dev_lanes::<true>(self.v, self.c, rv, rc)
        } else {
            dev_lanes::<false>(self.v, self.c, rv, rc)
        }
    }
}

/// The running winner of a scan — the one selection step every scan
/// shares. `MAX` selects the first maximum instead of the first minimum.
/// With `first_wins` the first offer is taken whatever its distance (the
/// scalar `closest_pair`'s `is_none_or` start); otherwise the winner
/// starts at `±∞` and an offer must strictly beat it.
struct Winner<T, const MAX: bool> {
    at: Option<T>,
    key: f64,
    d: f64,
    first_wins: bool,
}

impl<T, const MAX: bool> Winner<T, MAX> {
    #[inline(always)]
    fn new(first_wins: bool) -> Self {
        let start = if MAX {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        Winner {
            at: None,
            key: start,
            d: start,
            first_wins,
        }
    }

    /// Offers `at` with metric key `key`. The `sqrt` runs only when the
    /// key strictly beats the best key: `sqrt` is monotone, so that is
    /// necessary for the distance to strictly beat the best distance,
    /// and the distance comparison that follows is the scalar scan's.
    #[inline(always)]
    fn offer<K: Metric>(&mut self, at: T, key: f64) {
        let beats = |x: f64, y: f64| if MAX { x > y } else { x < y };
        let open = self.first_wins && self.at.is_none();
        if open || beats(key, self.key) {
            let d = K::finish(key);
            if open || beats(d, self.d) {
                self.at = Some(at);
                self.key = key;
                self.d = d;
            }
        }
    }
}

/// The one row loop behind every nearest-row scan: offers rows `from..`
/// of `rows` to `winner`, keyed against the probe `(a, sweep)`.
#[inline(always)]
fn scan_rows<'a, K: Metric, S: Sweep<'a>, T, const MAX: bool>(
    rows: &Rows<'_>,
    from: usize,
    probe: (&Stats, &S),
    winner: &mut Winner<T, MAX>,
    at: impl Fn(usize) -> T,
) {
    let (a, sweep) = probe;
    let s = S::stride(rows.stride);
    let vecs = rows.vec[from * s..]
        .chunks_exact(s)
        .zip(rows.vec_c[from * s..].chunks_exact(s));
    let stats = rows.n[from..].iter().zip(&rows.sse[from..]);
    for (j, ((rv, rc), (&n, &sse))) in (from..).zip(vecs.zip(stats)) {
        let key = key_of::<K>(a, n, sse, sweep.dev(K::ABS, rv, rc));
        winner.offer::<K>(at(j), key);
    }
}

/// A scan monomorphized per (metric, sweep) by [`specialize`].
trait Body<'a> {
    type Out;
    fn run<K: Metric, S: Sweep<'a>>(self) -> Self::Out;
}

/// Chooses the (metric, dim) monomorphization of `body` once per scan:
/// dims 1–4 hold the probe in registers, larger dims take the lane
/// sweep.
#[inline(always)]
fn specialize<'a, B: Body<'a>>(metric: DistanceMetric, dim: usize, body: B) -> B::Out {
    #[inline(always)]
    fn by_dim<'a, K: Metric, B: Body<'a>>(dim: usize, body: B) -> B::Out {
        match dim {
            1 => body.run::<K, Fixed<1>>(),
            2 => body.run::<K, Fixed<2>>(),
            3 => body.run::<K, Fixed<3>>(),
            4 => body.run::<K, Fixed<4>>(),
            _ => body.run::<K, Lanes<'a>>(),
        }
    }
    match metric {
        DistanceMetric::D0 => by_dim::<metric::D0, B>(dim, body),
        DistanceMetric::D1 => by_dim::<metric::D1, B>(dim, body),
        DistanceMetric::D2 => by_dim::<metric::D2, B>(dim, body),
        DistanceMetric::D3 => by_dim::<metric::D3, B>(dim, body),
        DistanceMetric::D4 => by_dim::<metric::D4, B>(dim, body),
    }
}

/// The probe-vs-rows scan of [`closest_among`].
struct Among<'a> {
    probe: &'a Cf,
    rows: Rows<'a>,
}

impl<'a> Body<'a> for Among<'a> {
    type Out = Option<(usize, f64)>;

    #[inline(always)]
    fn run<K: Metric, S: Sweep<'a>>(self) -> Self::Out {
        let a = Stats::new(self.probe.n(), self.probe.scalar_stat());
        let sweep = S::load(self.probe.mean(), self.probe.mean_carry());
        let mut w = Winner::<usize, false>::new(false);
        scan_rows::<K, S, _, false>(&self.rows, 0, (&a, &sweep), &mut w, |j| j);
        w.at.map(|i| (i, w.d))
    }
}

/// One pair's distance, for [`lane_distance`].
struct OnePair<'a> {
    a: Operand<'a>,
    b: Operand<'a>,
}

impl<'a> OnePair<'a> {
    /// The pair's pre-`sqrt` key under `K`, swept by `S`.
    #[inline(always)]
    fn key<K: Metric, S: Sweep<'a>>(&self) -> f64 {
        let (a, b) = (self.a, self.b);
        let dev = S::load(a.vec, a.vec_c).dev(K::ABS, b.vec, b.vec_c);
        key_of::<K>(&Stats::new(a.n, a.sse), b.n, b.sse, dev)
    }
}

impl<'a> Body<'a> for OnePair<'a> {
    type Out = f64;

    #[inline(always)]
    fn run<K: Metric, S: Sweep<'a>>(self) -> f64 {
        K::finish(self.key::<K, S>())
    }
}

/// The all-pairs scan of [`closest_pair`] (`MAX = false`) and
/// [`farthest_pair`] (`MAX = true`): row `i` is the probe against rows
/// `i+1..`.
struct Pairs<'a, const MAX: bool> {
    rows: Rows<'a>,
}

impl<'a, const MAX: bool> Body<'a> for Pairs<'a, MAX> {
    type Out = Option<(usize, usize, f64)>;

    #[inline(always)]
    fn run<K: Metric, S: Sweep<'a>>(self) -> Self::Out {
        let r = self.rows;
        let s = S::stride(r.stride);
        // The closest-pair scan takes its first pair unconditionally,
        // like the scalar form; the farthest starts from −∞.
        let mut w = Winner::<(usize, usize), MAX>::new(!MAX);
        for i in 0..r.n.len() {
            let a = Stats::new(r.n[i], r.sse[i]);
            let sweep = S::load(&r.vec[i * s..(i + 1) * s], &r.vec_c[i * s..(i + 1) * s]);
            let at = |j| (i, j);
            scan_rows::<K, S, _, MAX>(&r, i + 1, (&a, &sweep), &mut w, at);
        }
        if MAX {
            let (i, j) = w.at.unwrap_or((0, 1));
            Some((i, j, w.d))
        } else {
            w.at.map(|(i, j)| (i, j, w.d))
        }
    }
}

/// First-minimum closest row to `ent`: the batched form of the descent
/// scan (`best` starts at `+∞`, strictly-smaller wins, so the earliest of
/// tied rows is kept — the same tie-break as `CfTree::descend` and
/// `CfTree::closest_leaf_entry`). Returns `None` on an empty block.
/// Same winner and tie-break as
/// [`crate::distance::closest_among_scalar`], with bit-identical
/// distances at dim ≤ 4.
#[must_use]
#[inline]
pub fn closest_among(metric: DistanceMetric, ent: &Cf, block: &CfBlock) -> Option<(usize, f64)> {
    let _sp = crate::obs::span::enter("simd_kernel");
    if block.is_empty() {
        return None;
    }
    debug_assert_eq!(ent.dim(), block.dim(), "dimension mismatch");
    let rows = Rows::of(block);
    specialize(metric, block.dim(), Among { probe: ent, rows })
}

/// First-minimum closest pair among the block's rows (`i < j`, earliest
/// pair wins ties) — the batched form of the §4.3 merging-refinement scan.
/// Returns `None` when the block has fewer than two rows.
#[must_use]
#[inline]
pub fn closest_pair(metric: DistanceMetric, block: &CfBlock) -> Option<(usize, usize, f64)> {
    let _sp = crate::obs::span::enter("simd_kernel");
    if block.len() < 2 {
        return None;
    }
    specialize(
        metric,
        block.dim(),
        Pairs::<false> {
            rows: Rows::of(block),
        },
    )
}

/// First-maximum farthest pair among the block's rows (`i < j`, earliest
/// pair wins ties) — the batched form of the split seeding scan (§4.2:
/// "the farthest pair of entries"). Returns `None` when the block has
/// fewer than two rows.
#[must_use]
#[inline]
pub fn farthest_pair(metric: DistanceMetric, block: &CfBlock) -> Option<(usize, usize, f64)> {
    if block.len() < 2 {
        return None;
    }
    let _sp = crate::obs::span::enter("simd_kernel");
    specialize(
        metric,
        block.dim(),
        Pairs::<true> {
            rows: Rows::of(block),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{
        closest_among_scalar, closest_pair_scalar, distance_to_row as scalar_row,
        farthest_pair_scalar, pair_in_block_scalar, SIMD_TOLERANCE_REL,
    };
    use crate::point::Point;

    /// Deterministic xorshift point clouds at any dimension.
    fn fixture(dim: usize, rows: usize) -> Vec<Cf> {
        let mut s = 0x5EED_u64 ^ (dim as u64) << 8;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 * 40.0 - 20.0
        };
        (0..rows)
            .map(|r| {
                let pts: Vec<Point> = (0..(r % 4) + 1)
                    .map(|_| Point::new((0..dim).map(|_| next()).collect()))
                    .collect();
                Cf::from_points(&pts)
            })
            .collect()
    }

    fn assert_within_contract(m: DistanceMetric, lane: f64, scalar: f64, ctx: &str) {
        let tol = SIMD_TOLERANCE_REL * scalar.abs().max(1.0);
        assert!(
            (lane - scalar).abs() <= tol,
            "{m} {ctx}: lane {lane} vs scalar {scalar} exceeds tolerance"
        );
    }

    #[test]
    fn small_dims_are_bit_identical_to_scalar() {
        for dim in [1usize, 2, 3, 4] {
            let cfs = fixture(dim, 8);
            let block = CfBlock::from_cfs(&cfs);
            let probe = &cfs[0];
            for m in DistanceMetric::ALL {
                for i in 0..cfs.len() {
                    let lane = distance_to_row(m, probe, &block, i);
                    let scalar = scalar_row(m, probe, &block, i);
                    assert_eq!(lane.to_bits(), scalar.to_bits(), "{m} dim {dim} row {i}");
                    for j in (i + 1)..cfs.len() {
                        let lane = pair_in_block(m, &block, i, j);
                        let scalar = pair_in_block_scalar(m, &block, i, j);
                        assert_eq!(
                            lane.to_bits(),
                            scalar.to_bits(),
                            "{m} dim {dim} pair {i},{j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn large_dims_stay_within_tolerance_contract() {
        // Dims straddling the lane boundaries: 5 (one chunk + tail),
        // 8 (two clean chunks), 32, 33 (eight chunks + tail).
        for dim in [5usize, 8, 32, 33] {
            let cfs = fixture(dim, 6);
            let block = CfBlock::from_cfs(&cfs);
            let probe = &cfs[0];
            for m in DistanceMetric::ALL {
                for i in 0..cfs.len() {
                    assert_within_contract(
                        m,
                        distance_to_row(m, probe, &block, i),
                        scalar_row(m, probe, &block, i),
                        &format!("dim {dim} row {i}"),
                    );
                    for j in (i + 1)..cfs.len() {
                        assert_within_contract(
                            m,
                            pair_in_block(m, &block, i, j),
                            pair_in_block_scalar(m, &block, i, j),
                            &format!("dim {dim} pair {i},{j}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scans_agree_with_scalar_oracles() {
        // Winners must match the scalar scans at every dim: distances
        // agree within 1e-12 relative while the fixtures keep every
        // inter-row gap far wider, so no ordering can flip.
        for dim in [2usize, 3, 5, 8, 33] {
            let cfs = fixture(dim, 10);
            let block = CfBlock::from_cfs(&cfs);
            let probe = &cfs[3];
            for m in DistanceMetric::ALL {
                let lane = closest_among(m, probe, &block);
                let scalar = closest_among_scalar(m, probe, &block);
                assert_eq!(
                    lane.map(|(i, _)| i),
                    scalar.map(|(i, _)| i),
                    "{m} dim {dim} closest_among winner"
                );
                let (lp, sp) = (closest_pair(m, &block), closest_pair_scalar(m, &block));
                assert_eq!(
                    lp.map(|(i, j, _)| (i, j)),
                    sp.map(|(i, j, _)| (i, j)),
                    "{m} dim {dim} closest_pair"
                );
                let (lf, sf) = (farthest_pair(m, &block), farthest_pair_scalar(m, &block));
                assert_eq!(
                    lf.map(|(i, j, _)| (i, j)),
                    sf.map(|(i, j, _)| (i, j)),
                    "{m} dim {dim} farthest_pair"
                );
            }
        }
    }

    #[test]
    fn padded_rows_contribute_zero() {
        // A block at dim 5 pads each row to stride 8; mutate the block
        // through its public API (set/insert/remove) and verify the lane
        // distances still match the scalar oracle — stale padding would
        // show up as a tolerance violation here.
        let cfs = fixture(5, 6);
        let mut block = CfBlock::from_cfs(&cfs[..4]);
        block.set(1, &cfs[4]);
        block.insert(2, &cfs[5]);
        block.remove(0);
        assert_eq!(block.stride(), 8);
        for m in DistanceMetric::ALL {
            for i in 0..block.len() {
                for j in (i + 1)..block.len() {
                    assert_within_contract(
                        m,
                        pair_in_block(m, &block, i, j),
                        pair_in_block_scalar(m, &block, i, j),
                        &format!("mutated pair {i},{j}"),
                    );
                }
            }
        }
    }

    /// A stable CF from raw `(N, μ, carry, SSE)`, so a fixture can pin
    /// exact statistics.
    fn raw_cf(n: f64, mean: &[f64], carry: &[f64], sse: f64) -> Cf {
        let mut w = vec![n.to_bits()];
        w.extend(mean.iter().chain(carry).map(|v| v.to_bits()));
        w.extend([sse.to_bits(), 0.0f64.to_bits()]);
        Cf::from_words(&w, mean.len())
    }

    /// Rows whose deviation sums are exact in any summation order: means
    /// on the 1/8 grid in [−8, 8], so even the dim-5 lane sweep (which
    /// reorders the sums) matches the scalar oracle bit for bit. Dims
    /// 1–4 also carry dyadic Neumaier carries, which the serial order
    /// keeps exact too. Rows 3 and 7 duplicate rows 1 and 2 (ties).
    fn exact_rows(dim: usize) -> Vec<Cf> {
        let mut s = 0x0DD5_u64 ^ (dim as u64);
        let mut next = move |lo: i64, hi: i64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            lo + (s % (hi - lo + 1) as u64) as i64
        };
        let mut rows: Vec<Cf> = (0..9)
            .map(|_| {
                let mean: Vec<f64> = (0..dim).map(|_| next(-64, 64) as f64 / 8.0).collect();
                let carry: Vec<f64> = (0..dim)
                    .map(|_| {
                        if dim <= 4 {
                            next(-4, 4) as f64 * 2f64.powi(-40)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let n = [1.0, 2.0, 3.0, 0.5, 7.0][next(0, 4) as usize];
                raw_cf(n, &mean, &carry, next(0, 40) as f64 / 4.0)
            })
            .collect();
        rows.insert(3, rows[1].clone());
        rows.insert(7, rows[2].clone());
        rows
    }

    type Among = Option<(usize, u64)>;
    type Pair = Option<(usize, usize, u64)>;

    fn among_bits(r: Option<(usize, f64)>) -> Among {
        r.map(|(i, d)| (i, d.to_bits()))
    }

    fn pair_bits(r: Option<(usize, usize, f64)>) -> Pair {
        r.map(|(i, j, d)| (i, j, d.to_bits()))
    }

    /// Production scans against the scalar oracles on `block`: the same
    /// index and the same distance bits, for every probe in `probes`.
    fn assert_scans_match_oracles(m: DistanceMetric, probes: &[Cf], block: &CfBlock, ctx: &str) {
        for (p, probe) in probes.iter().enumerate() {
            let want = among_bits(closest_among_scalar(m, probe, block));
            assert_eq!(
                among_bits(closest_among(m, probe, block)),
                want,
                "{m} {ctx} closest_among probe {p}"
            );
        }
        assert_eq!(
            pair_bits(closest_pair(m, block)),
            pair_bits(closest_pair_scalar(m, block)),
            "{m} {ctx} closest_pair"
        );
        assert_eq!(
            pair_bits(farthest_pair(m, block)),
            pair_bits(farthest_pair_scalar(m, block)),
            "{m} {ctx} farthest_pair"
        );
    }

    #[test]
    fn specialized_scans_match_scalar_oracles_bit_for_bit() {
        for dim in 1..=5 {
            let rows = exact_rows(dim);
            let block = CfBlock::from_cfs(&rows);
            let mut probes = rows.clone();
            probes.push(raw_cf(2.0, &vec![0.0625; dim], &vec![0.0; dim], 0.5));
            for m in DistanceMetric::ALL {
                assert_scans_match_oracles(m, &probes, &block, &format!("dim {dim}"));
            }
        }
    }

    #[test]
    fn duplicate_rows_keep_the_earliest() {
        for dim in 1..=5 {
            let rows = exact_rows(dim);
            let block = CfBlock::from_cfs(&rows);
            for m in DistanceMetric::ALL {
                // Row 3 duplicates row 1, so the probe row 1 is at
                // distance 0 from both under D0/D1/D4: row 1 must win.
                if matches!(
                    m,
                    DistanceMetric::D0 | DistanceMetric::D1 | DistanceMetric::D4
                ) {
                    assert_eq!(closest_among(m, &rows[1], &block).map(|(i, _)| i), Some(1));
                }
            }
        }
    }

    /// Runs `f`, mapping a panic to `None`.
    fn unwinds<T>(f: impl FnOnce() -> T) -> Option<T> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
    }

    #[test]
    fn zero_n_rows_match_scalar_oracles() {
        // Empty rows fall under the shared empty-operand contract: both
        // kernel families debug-assert, and in release both score the
        // row `+∞` — never a win for a minimum, always one for the
        // farthest pair. Either way the two must agree.
        for dim in 1..=5 {
            let mut rows = exact_rows(dim);
            rows.insert(0, Cf::empty(dim));
            rows.insert(5, Cf::empty(dim));
            let block = CfBlock::from_cfs(&rows);
            for m in DistanceMetric::ALL {
                let probe = &rows[2];
                assert_eq!(
                    unwinds(|| among_bits(closest_among(m, probe, &block))),
                    unwinds(|| among_bits(closest_among_scalar(m, probe, &block))),
                    "{m} dim {dim} closest_among"
                );
                assert_eq!(
                    unwinds(|| pair_bits(closest_pair(m, &block))),
                    unwinds(|| pair_bits(closest_pair_scalar(m, &block))),
                    "{m} dim {dim} closest_pair"
                );
                assert_eq!(
                    unwinds(|| pair_bits(farthest_pair(m, &block))),
                    unwinds(|| pair_bits(farthest_pair_scalar(m, &block))),
                    "{m} dim {dim} farthest_pair"
                );
            }
        }
    }

    /// The pre-`sqrt` key of `a` against `b` under `m`.
    fn key(m: DistanceMetric, dim: usize, a: &Cf, b: &Cf) -> f64 {
        struct Key<'a>(OnePair<'a>);
        impl<'a> Body<'a> for Key<'a> {
            type Out = f64;
            fn run<K: Metric, S: Sweep<'a>>(self) -> f64 {
                self.0.key::<K, S>()
            }
        }
        let (a, b) = (Operand::probe(a), Operand::probe(b));
        specialize(m, dim, Key(OnePair { a, b }))
    }

    #[test]
    fn pre_sqrt_tie_keeps_the_earlier_row() {
        // Row `hi` has key 1 + 2⁻⁵², row `lo` key 1.0; both roots round
        // to 1.0. Whichever comes first must win, as in the scalar scan,
        // even though the later one has the smaller (or, for the
        // farthest pair, larger) key. D2/D3 get the extra 2⁻⁵² from the
        // row's SSE, so they run at every dim; D0/D4 need it from a
        // second coordinate, so they start at dim 2. D1 has no sqrt.
        let eps = 2f64.powi(-52);
        for dim in 1..=5 {
            let zeros = vec![0.0; dim];
            let at = |x: &[f64]| {
                let mut v = zeros.clone();
                v[..x.len()].copy_from_slice(x);
                v
            };
            let probe = raw_cf(1.0, &zeros, &zeros, 0.0);
            let far = raw_cf(1.0, &at(&[9.0]), &zeros, 0.0);
            for m in [
                DistanceMetric::D0,
                DistanceMetric::D2,
                DistanceMetric::D3,
                DistanceMetric::D4,
            ] {
                let (hi, lo) = match m {
                    DistanceMetric::D2 => (
                        raw_cf(1.0, &at(&[1.0]), &zeros, eps),
                        raw_cf(1.0, &at(&[1.0]), &zeros, 0.0),
                    ),
                    DistanceMetric::D3 => (
                        raw_cf(1.0, &at(&[1.0]), &zeros, eps / 2.0),
                        raw_cf(1.0, &at(&[1.0]), &zeros, 0.0),
                    ),
                    _ if dim == 1 => continue,
                    DistanceMetric::D0 => (
                        raw_cf(1.0, &at(&[1.0, 2f64.powi(-26)]), &zeros, 0.0),
                        raw_cf(1.0, &at(&[1.0]), &zeros, 0.0),
                    ),
                    _ => (
                        raw_cf(1.0, &at(&[1.0, 1.0 + eps]), &zeros, 0.0),
                        raw_cf(1.0, &at(&[1.0, 1.0]), &zeros, 0.0),
                    ),
                };
                let ctx = format!("{m} dim {dim}");
                assert_eq!(key(m, dim, &probe, &hi), 1.0 + eps, "{ctx} hi key");
                assert_eq!(key(m, dim, &probe, &lo), 1.0, "{ctx} lo key");
                assert_eq!(m.distance(&probe, &hi), 1.0, "{ctx} roots tie");
                assert_eq!(m.distance(&probe, &lo), 1.0, "{ctx} roots tie");
                for order in [[&far, &hi, &lo], [&far, &lo, &hi]] {
                    let block = CfBlock::from_cfs(order);
                    assert_eq!(closest_among(m, &probe, &block), Some((1, 1.0)), "{ctx}");
                    assert_scans_match_oracles(m, std::slice::from_ref(&probe), &block, &ctx);
                }
                // Farthest pair: the probe as row 0, the tied pair rows
                // next; the pair with the earlier row must win.
                for order in [[&probe, &hi, &lo], [&probe, &lo, &hi]] {
                    let block = CfBlock::from_cfs(order);
                    assert_eq!(farthest_pair(m, &block), Some((0, 1, 1.0)), "{ctx}");
                    assert_scans_match_oracles(m, std::slice::from_ref(&probe), &block, &ctx);
                }
            }
        }
    }

    #[test]
    fn empty_block_scans_return_none() {
        let block = CfBlock::new();
        let probe = fixture(3, 1).pop().unwrap();
        assert!(closest_among(DistanceMetric::D2, &probe, &block).is_none());
        assert!(closest_pair(DistanceMetric::D2, &block).is_none());
        assert!(farthest_pair(DistanceMetric::D2, &block).is_none());
    }
}
