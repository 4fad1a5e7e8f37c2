//! The Clustering Feature (CF) — the paper's central data structure,
//! stored in a numerically stable form.
//!
//! **Definition 4.1**: for a cluster of `N` `d`-dimensional points `{Xᵢ}`,
//! `CF = (N, LS, SS)` where `LS = Σ Xᵢ` is the linear sum and `SS = Σ Xᵢ·Xᵢ`
//! is the (scalar) square sum. The **CF Additivity Theorem (4.1)** — merging
//! disjoint clusters adds their CFs component-wise — is what lets BIRCH
//! cluster incrementally: centroid `X0` (eq. 1), radius `R` (eq. 2),
//! diameter `D` (eq. 3) and the inter-cluster distances `D0…D4` (eqs. 4–8)
//! are all computable from CFs alone, without storing the points.
//!
//! The paper's triple is algebraically exact but *numerically* treacherous:
//! every quality-bearing statistic evaluates a difference of large, nearly
//! equal terms (`SS − ‖LS‖²/N` and friends). For a tight cluster at a large
//! coordinate offset the true deviation falls below the f64 rounding of the
//! operands and the clamped difference silently collapses to 0 —
//! catastrophic cancellation. BETULA (Lang & Schubert, see PAPERS.md) fixes
//! this by storing the translation-invariant form `(N, μ, SSE)` instead.
//!
//! The tree stores BETULA's form: [`stable`] keeps `(N, μ, SSE)` with
//! Neumaier-compensated mean and SSE accumulation, so every statistic is
//! translation-invariant at any offset, and it is re-exported as [`Cf`].
//! The accessor names are representation-neutral: `vec_stat` (μ),
//! `scalar_stat` (SSE) and `vec_stat_sq` (the memoized `‖μ‖²`), which is
//! what the SoA blocks and audits read.
//!
//! [`classic`] is not a backend. It is a small reference that evaluates
//! the paper's formulas on `(N, LS, SS)` directly, so the stability bench
//! and the tests can show the cancellation that the stable form removes.

pub mod classic;
pub mod stable;

pub use stable::Cf;

/// Relative dust threshold for [`Cf::subtract`]: a residual weight at or
/// below `N_DUST_REL` times the pre-subtraction weight is floating-point
/// dust, not a real cluster, and snaps to the empty CF. The same constant
/// makes the "cannot subtract more than is present" guard relative.
pub(crate) const N_DUST_REL: f64 = 1e-9;
