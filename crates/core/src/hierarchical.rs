//! Agglomerative hierarchical clustering over Clustering Features.
//!
//! Phase 3 of BIRCH applies "an agglomerative hierarchical clustering
//! algorithm … used directly to the subclusters represented by their CF
//! vectors" (§5). Because CFs merge exactly (the Additivity Theorem), the
//! distance between any two intermediate clusters under D0–D4 can be
//! recomputed from their merged CFs — no Lance–Williams update formula or
//! approximation is needed, which is precisely the "accuracy and
//! flexibility" advantage the paper claims.
//!
//! Two agglomerators share one contract (DESIGN.md §12):
//!
//! - **Nearest-neighbor chain** ([`agglomerate`]'s default for reducible
//!   metrics — see [`DistanceMetric::is_reducible`]): follows
//!   nearest-neighbor links until a mutual pair appears, merges it, and
//!   continues from the surviving chain. O(m) candidate memory and
//!   O(m²) worst-case distance evaluations, further cut by the
//!   cached-statistic lower-bound prune ([`pair_lower_bound`]). For
//!   reducible linkages the merge *set* equals the greedy closest-pair
//!   order's, so sorting the discovered merges by distance recovers the
//!   exact greedy dendrogram — including the `DistanceThreshold` cut,
//!   which must be evaluated against that monotone sequence rather than
//!   the chain's out-of-order discovery sequence.
//! - **Heap** ([`HacAlgorithm::Heap`], the differential oracle and the
//!   fallback for non-reducible metrics): a binary heap of candidate
//!   pairs with lazy invalidation — `O(m² log m)` time and `O(m²)` heap
//!   space, fine for small m and the only correct greedy executor when
//!   the linkage admits inversions (D0/D1/D3).
//!
//! Both paths evaluate every distance through the same
//! [`pair_in_block`] kernel over the same SoA block, merge cluster CFs
//! in the same canonical orientation (the cluster containing the
//! smaller original entry index absorbs the other), and emit labels in
//! first-encounter order — so on tie-free inputs their dendrograms,
//! labels, and cluster CFs agree *bit for bit*, which the property
//! suite pins.

use crate::cf::Cf;
use crate::distance::{pair_in_block, pair_lower_bound, CfBlock, DistanceMetric};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

/// When to stop merging.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Stop when exactly `k` clusters remain (the usual BIRCH input `K`).
    ClusterCount(usize),
    /// Stop when the closest remaining pair is farther apart than this
    /// distance (lets the data pick its own cluster count).
    DistanceThreshold(f64),
}

/// Which agglomerator executed (or should execute) the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HacAlgorithm {
    /// Nearest-neighbor-chain over the SoA block: O(m) candidate
    /// memory. Exact only for reducible metrics.
    NnChain,
    /// All-pairs candidate heap with lazy invalidation: O(m²) heap
    /// space. Exact greedy order for every metric — the oracle.
    Heap,
}

impl HacAlgorithm {
    /// Stable lowercase name for JSON/bench output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            HacAlgorithm::NnChain => "nn_chain",
            HacAlgorithm::Heap => "heap",
        }
    }
}

/// Work and memory counters of one agglomeration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HacStats {
    /// Which agglomerator ran.
    pub algorithm: HacAlgorithm,
    /// Full distance-kernel evaluations performed.
    pub pairs_evaluated: u64,
    /// Candidate pairs skipped by the cached-statistic lower bound
    /// ([`pair_lower_bound`]) — always 0 on the heap path.
    pub pairs_pruned: u64,
    /// High-water mark of candidate-state heap bytes: the SoA block plus
    /// the candidate heap (heap path) or the chain/merge-log vectors
    /// (NN-chain path). The headline contrast: O(m²) vs O(m).
    pub peak_candidate_bytes: usize,
}

/// Result of a hierarchical run: per-input labels and the cluster CFs.
#[derive(Debug, Clone)]
pub struct HierarchicalResult {
    /// `labels[i]` is the cluster index (into `clusters`) of input entry
    /// `i`. Cluster indices are assigned in first-encounter order over
    /// the input entries, so the labeling depends only on the final
    /// partition — not on merge bookkeeping — and is directly comparable
    /// across agglomerators.
    pub labels: Vec<usize>,
    /// Final cluster summaries, indexed by label. Each cluster CF is
    /// rebuilt by folding its member entries in input order (exact by
    /// Additivity), so it is bit-identical across agglomerators too.
    pub clusters: Vec<Cf>,
    /// Merge distances of the applied merges in monotone (greedy) order —
    /// the dendrogram's height sequence below the cut.
    pub merge_distances: Vec<f64>,
    /// Work and memory counters.
    pub stats: HacStats,
}

#[derive(Debug)]
struct Candidate {
    dist: f64,
    a: usize,
    b: usize,
    ver_a: u32,
    ver_b: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Min-heap on distance via reversed comparison; NaNs are rejected
        // at construction so total_cmp is safe and total.
        other.dist.total_cmp(&self.dist)
    }
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn validate(entries: &[Cf], stop: StopRule) {
    assert!(!entries.is_empty(), "cannot cluster zero entries");
    assert!(
        entries.iter().all(|e| !e.is_empty()),
        "entries must be non-empty CFs"
    );
    if let StopRule::ClusterCount(k) = stop {
        assert!(k >= 1, "cluster count must be >= 1");
        assert!(
            k <= entries.len(),
            "asked for {k} clusters from {} entries",
            entries.len()
        );
    }
}

/// Canonical labeling shared by both agglomerators: walk the entries in
/// input order, assign each union-find root a cluster index the first
/// time it is seen, and rebuild each cluster CF by folding its members
/// in that same order. The output depends only on the partition.
fn canonical_result(
    entries: &[Cf],
    parent: &mut [usize],
    merge_distances: Vec<f64>,
    stats: HacStats,
) -> HierarchicalResult {
    let m = entries.len();
    let mut root_cluster = vec![usize::MAX; m];
    let mut labels = Vec::with_capacity(m);
    let mut clusters: Vec<Cf> = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let r = find(parent, i);
        let c = if root_cluster[r] == usize::MAX {
            root_cluster[r] = clusters.len();
            clusters.push(e.clone());
            clusters.len() - 1
        } else {
            let c = root_cluster[r];
            clusters[c].merge(e);
            c
        };
        labels.push(c);
    }
    HierarchicalResult {
        labels,
        clusters,
        merge_distances,
        stats,
    }
}

/// Runs agglomerative clustering over `entries` with the given metric:
/// the NN-chain agglomerator (with the candidate prune) when the metric
/// is reducible, the exhaustive heap otherwise.
///
/// # Panics
///
/// Panics if `entries` is empty, if any entry is empty, or if the stop rule
/// asks for more clusters than there are entries (`k > m` is a caller bug;
/// `k == 0` likewise).
#[must_use]
pub fn agglomerate(entries: &[Cf], metric: DistanceMetric, stop: StopRule) -> HierarchicalResult {
    if metric.is_reducible() {
        agglomerate_with(entries, metric, stop, HacAlgorithm::NnChain, true)
    } else {
        agglomerate_with(entries, metric, stop, HacAlgorithm::Heap, true)
    }
}

/// Like [`agglomerate`] with an explicit algorithm and prune switch —
/// the differential-test entry point.
///
/// # Panics
///
/// As [`agglomerate`]; additionally panics if [`HacAlgorithm::NnChain`]
/// is forced for a non-reducible metric (its dendrogram would be wrong —
/// see [`DistanceMetric::is_reducible`]).
#[must_use]
pub fn agglomerate_with(
    entries: &[Cf],
    metric: DistanceMetric,
    stop: StopRule,
    algorithm: HacAlgorithm,
    prune: bool,
) -> HierarchicalResult {
    validate(entries, stop);
    match algorithm {
        HacAlgorithm::NnChain => nn_chain(entries, metric, stop, prune),
        HacAlgorithm::Heap => heap_greedy(entries, metric, stop),
    }
}

/// The nearest-neighbor-chain agglomerator (Schubert & Lang's aggregated
/// HAC, run directly over CF summaries).
///
/// The chain invariant: consecutive chain distances strictly decrease
/// (ties prefer the chain predecessor), so the chain never cycles and a
/// mutual nearest-neighbor pair is always reached. Reducibility
/// guarantees merging that pair never invalidates the remaining chain
/// prefix, and that the discovered merge set equals the greedy one — the
/// greedy order is recovered afterwards by sorting the merges by
/// distance (stable in discovery order, which for reducible linkages
/// keeps every cluster's creating merge ahead of its uses).
fn nn_chain(
    entries: &[Cf],
    metric: DistanceMetric,
    stop: StopRule,
    prune: bool,
) -> HierarchicalResult {
    assert!(
        metric.is_reducible(),
        "NN-chain requires a reducible metric; {metric} admits inversions \
         (use HacAlgorithm::Heap)"
    );
    let m = entries.len();
    let mut block = CfBlock::from_cfs(entries);
    // Slot model: the cluster containing original entry `i` as its
    // smallest member lives at slot `i` (so a slot index is also a
    // canonical representative). Merges keep the smaller slot.
    let mut cfs: Vec<Cf> = entries.to_vec();
    let mut alive = vec![true; m];
    // (lo, hi, dist) per merge, in chain discovery order.
    let mut merges: Vec<(usize, usize, f64)> = Vec::with_capacity(m.saturating_sub(1));
    let mut chain: Vec<usize> = Vec::new();
    let mut evaluated = 0u64;
    let mut pruned = 0u64;

    {
        let _sp = crate::obs::span::enter("hac_chain");
        while merges.len() + 1 < m {
            if chain.is_empty() {
                // Slot 0 survives every merge it joins (it is always the
                // smaller index), so it is a valid permanent seed.
                chain.push(0);
            }
            let a = *chain.last().expect("chain non-empty");
            let prev = if chain.len() >= 2 {
                Some(chain[chain.len() - 2])
            } else {
                None
            };
            // Nearest alive neighbor of `a`, ties preferring `prev` (the
            // termination guarantee): seed the running best with `prev`
            // and require a strict win from everyone else.
            let (mut best, mut best_d) = match prev {
                Some(p) => {
                    evaluated += 1;
                    (p, pair_in_block(metric, &block, a, p))
                }
                None => (usize::MAX, f64::INFINITY),
            };
            for (j, &j_alive) in alive.iter().enumerate() {
                if !j_alive || j == a || Some(j) == prev {
                    continue;
                }
                if prune && pair_lower_bound(metric, &block, a, j) > best_d {
                    pruned += 1;
                    continue;
                }
                evaluated += 1;
                let d = pair_in_block(metric, &block, a, j);
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
            if prev == Some(best) {
                // Mutual pair: merge, canonical orientation lo ← hi.
                chain.pop();
                chain.pop();
                let (lo, hi) = (a.min(best), a.max(best));
                let (head, tail) = cfs.split_at_mut(hi);
                head[lo].merge(&tail[0]);
                block.set(lo, &head[lo]);
                alive[hi] = false;
                merges.push((lo, hi, best_d));
            } else {
                chain.push(best);
            }
        }
    }

    let _sp = crate::obs::span::enter("hac_cut");
    // Recover the greedy (monotone) merge order: sort by distance,
    // stable in discovery order. For a reducible linkage the discovery
    // order already places each cluster's creating merge before any
    // merge that consumes it at equal height, so every sorted prefix is
    // ancestry-closed and unioning it reproduces the greedy partition.
    let mut order: Vec<usize> = (0..merges.len()).collect();
    order.sort_by(|&x, &y| merges[x].2.total_cmp(&merges[y].2).then(x.cmp(&y)));
    let n_apply = match stop {
        StopRule::ClusterCount(k) => m - k,
        // The chain discovers merges out of global distance order, so
        // the threshold cut must consult the *sorted* sequence: apply
        // exactly the merges at height ≤ t, which is what the greedy
        // executor's "stop at the first pop above t" also applies.
        StopRule::DistanceThreshold(t) => order.iter().take_while(|&&x| merges[x].2 <= t).count(),
    };
    let mut parent: Vec<usize> = (0..m).collect();
    let mut merge_distances = Vec::with_capacity(n_apply);
    for &x in order.iter().take(n_apply) {
        let (lo, hi, d) = merges[x];
        let rl = find(&mut parent, lo);
        let rh = find(&mut parent, hi);
        parent[rh] = rl;
        merge_distances.push(d);
    }

    let peak_candidate_bytes = block.heap_bytes()
        + cfs.iter().map(Cf::heap_bytes).sum::<usize>()
        + merges.capacity() * std::mem::size_of::<(usize, usize, f64)>()
        + order.capacity() * std::mem::size_of::<usize>()
        + chain.capacity() * std::mem::size_of::<usize>()
        + alive.capacity();
    let stats = HacStats {
        algorithm: HacAlgorithm::NnChain,
        pairs_evaluated: evaluated,
        pairs_pruned: pruned,
        peak_candidate_bytes,
    };
    canonical_result(entries, &mut parent, merge_distances, stats)
}

/// The all-pairs heap agglomerator: the exact greedy closest-pair order
/// for every metric (reducible or not), kept as the differential oracle
/// and the non-reducible fallback.
fn heap_greedy(entries: &[Cf], metric: DistanceMetric, stop: StopRule) -> HierarchicalResult {
    let m = entries.len();
    let mut cfs: Vec<Cf> = entries.to_vec();
    let mut alive = vec![true; m];
    let mut version = vec![0u32; m];
    let mut parent: Vec<usize> = (0..m).collect();
    let mut evaluated = 0u64;

    // A pair farther apart than the distance threshold can never merge —
    // the pop loop stops at the first such pair — so under that rule it
    // need not enter the heap at all, shrinking the O(m²) heap to the
    // pairs that can actually participate.
    let push_cutoff = match stop {
        StopRule::ClusterCount(_) => f64::INFINITY,
        StopRule::DistanceThreshold(t) => t,
    };
    let mut heap = match stop {
        // Exact-k keeps every pair; pre-size the full matrix.
        StopRule::ClusterCount(_) => BinaryHeap::with_capacity(m * (m.saturating_sub(1)) / 2),
        // The cutoff makes the population data-dependent; let it grow.
        StopRule::DistanceThreshold(_) => BinaryHeap::new(),
    };
    // The initial O(m²) matrix sweeps one contiguous SoA block, reusing
    // each entry's cached ‖vec‖² instead of re-deriving it per pair.
    let mut block = CfBlock::from_cfs(entries);
    {
        let _sp = crate::obs::span::enter("hac_init");
        for i in 0..m {
            for j in (i + 1)..m {
                evaluated += 1;
                let d = pair_in_block(metric, &block, i, j);
                if d > push_cutoff {
                    continue;
                }
                heap.push(Candidate {
                    dist: d,
                    a: i,
                    b: j,
                    ver_a: 0,
                    ver_b: 0,
                });
            }
        }
    }
    let mut peak_heap_cap = heap.capacity();

    let mut active = m;
    let mut merge_distances = Vec::new();
    let target = match stop {
        StopRule::ClusterCount(k) => k,
        StopRule::DistanceThreshold(_) => 1,
    };

    {
        let _sp = crate::obs::span::enter("hac_merge");
        while active > target {
            let Some(c) = heap.pop() else { break };
            if version[c.a] != c.ver_a || version[c.b] != c.ver_b {
                continue; // stale pair
            }
            if let StopRule::DistanceThreshold(t) = stop {
                if c.dist > t {
                    break;
                }
            }
            // Canonical orientation: the smaller slot absorbs the larger
            // (slot index = smallest member index, by induction), so the
            // merged CF is bit-identical to the NN-chain path's.
            let (lo, hi) = (c.a.min(c.b), c.a.max(c.b));
            let (head, tail) = cfs.split_at_mut(hi);
            head[lo].merge(&tail[0]);
            block.set(lo, &head[lo]);
            alive[hi] = false;
            version[lo] += 1;
            version[hi] = u32::MAX; // never valid again
            let rh = find(&mut parent, hi);
            let rl = find(&mut parent, lo);
            parent[rh] = rl;
            active -= 1;
            merge_distances.push(c.dist);

            // New candidate pairs from the merged cluster.
            for (i, &i_alive) in alive.iter().enumerate() {
                if i == lo || !i_alive {
                    continue;
                }
                evaluated += 1;
                let d = pair_in_block(metric, &block, lo, i);
                if d > push_cutoff {
                    continue;
                }
                let (a, b) = (lo.min(i), lo.max(i));
                heap.push(Candidate {
                    dist: d,
                    a,
                    b,
                    ver_a: version[a],
                    ver_b: version[b],
                });
            }
            peak_heap_cap = peak_heap_cap.max(heap.capacity());
        }
    }

    let peak_candidate_bytes = block.heap_bytes()
        + cfs.iter().map(Cf::heap_bytes).sum::<usize>()
        + peak_heap_cap * std::mem::size_of::<Candidate>();
    let stats = HacStats {
        algorithm: HacAlgorithm::Heap,
        pairs_evaluated: evaluated,
        pairs_pruned: 0,
        peak_candidate_bytes,
    };
    canonical_result(entries, &mut parent, merge_distances, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn singletons(raw: &[[f64; 2]]) -> Vec<Cf> {
        raw.iter()
            .map(|&[x, y]| Cf::from_point(&Point::xy(x, y)))
            .collect()
    }

    #[test]
    fn two_obvious_blobs() {
        let entries = singletons(&[
            [0.0, 0.0],
            [0.5, 0.0],
            [0.0, 0.5],
            [50.0, 50.0],
            [50.5, 50.0],
            [50.0, 50.5],
        ]);
        let r = agglomerate(&entries, DistanceMetric::D2, StopRule::ClusterCount(2));
        assert_eq!(r.clusters.len(), 2);
        assert_eq!(r.labels[0], r.labels[1]);
        assert_eq!(r.labels[1], r.labels[2]);
        assert_eq!(r.labels[3], r.labels[4]);
        assert_eq!(r.labels[4], r.labels[5]);
        assert_ne!(r.labels[0], r.labels[3]);
        // Cluster CFs carry the right weights.
        let mut ns: Vec<f64> = r.clusters.iter().map(Cf::n).collect();
        ns.sort_by(f64::total_cmp);
        assert_eq!(ns, vec![3.0, 3.0]);
        // D2 is reducible, so the default dispatch took the chain.
        assert_eq!(r.stats.algorithm, HacAlgorithm::NnChain);
    }

    #[test]
    fn k_equals_m_is_identity() {
        let entries = singletons(&[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]);
        let r = agglomerate(&entries, DistanceMetric::D0, StopRule::ClusterCount(3));
        assert_eq!(r.clusters.len(), 3);
        let mut seen = r.labels.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 3);
        assert!(r.merge_distances.is_empty());
    }

    #[test]
    fn k_equals_one_merges_everything() {
        let entries = singletons(&[[0.0, 0.0], [10.0, 0.0], [5.0, 8.0], [2.0, 2.0]]);
        let r = agglomerate(&entries, DistanceMetric::D0, StopRule::ClusterCount(1));
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].n(), 4.0);
        assert!(r.labels.iter().all(|&l| l == 0));
        assert_eq!(r.merge_distances.len(), 3);
    }

    #[test]
    fn merge_distances_reflect_structure() {
        // Tight pair + far singleton: the first merge is the tight pair at
        // a small distance, the second at a large one.
        let entries = singletons(&[[0.0, 0.0], [0.1, 0.0], [100.0, 0.0]]);
        let r = agglomerate(&entries, DistanceMetric::D0, StopRule::ClusterCount(1));
        assert_eq!(r.merge_distances.len(), 2);
        assert!(r.merge_distances[0] < 1.0);
        assert!(r.merge_distances[1] > 50.0);
    }

    #[test]
    fn distance_threshold_stop() {
        let entries = singletons(&[[0.0, 0.0], [0.1, 0.0], [100.0, 0.0], [100.1, 0.0]]);
        let r = agglomerate(
            &entries,
            DistanceMetric::D0,
            StopRule::DistanceThreshold(1.0),
        );
        assert_eq!(r.clusters.len(), 2);
    }

    #[test]
    fn distance_threshold_zero_merges_nothing_distinct() {
        let entries = singletons(&[[0.0, 0.0], [1.0, 0.0]]);
        let r = agglomerate(
            &entries,
            DistanceMetric::D0,
            StopRule::DistanceThreshold(0.5),
        );
        assert_eq!(r.clusters.len(), 2);
    }

    #[test]
    fn weighted_entries_pull_merges() {
        // A heavy subcluster and two singles; with D2 the singles near the
        // heavy blob should join it rather than each other when k=2.
        let blob: Vec<Point> = (0..50).map(|_| Point::xy(0.0, 0.0)).collect();
        let entries = vec![
            Cf::from_points(&blob),
            Cf::from_point(&Point::xy(1.0, 0.0)),
            Cf::from_point(&Point::xy(30.0, 0.0)),
        ];
        let r = agglomerate(&entries, DistanceMetric::D2, StopRule::ClusterCount(2));
        assert_eq!(r.labels[0], r.labels[1]);
        assert_ne!(r.labels[0], r.labels[2]);
    }

    #[test]
    fn all_metrics_terminate_on_random_input() {
        let raw: Vec<[f64; 2]> = (0..40)
            .map(|i| {
                let i = i as f64;
                [(i * 0.61).rem_euclid(10.0), (i * 0.41).rem_euclid(10.0)]
            })
            .collect();
        let entries = singletons(&raw);
        for m in DistanceMetric::ALL {
            let r = agglomerate(&entries, m, StopRule::ClusterCount(5));
            assert_eq!(r.clusters.len(), 5, "metric {m}");
            let total: f64 = r.clusters.iter().map(Cf::n).sum();
            assert_eq!(total, 40.0, "metric {m}");
            // Auto-dispatch: chain for reducible metrics, heap otherwise.
            let want = if m.is_reducible() {
                HacAlgorithm::NnChain
            } else {
                HacAlgorithm::Heap
            };
            assert_eq!(r.stats.algorithm, want, "metric {m}");
        }
    }

    #[test]
    fn labels_are_first_encounter_order() {
        // Entry 0's cluster must be label 0, the next new cluster in
        // input order label 1, etc. — on both agglomerators.
        let entries = singletons(&[[50.0, 50.0], [0.0, 0.0], [50.2, 50.0], [0.2, 0.0]]);
        for algo in [HacAlgorithm::NnChain, HacAlgorithm::Heap] {
            let r = agglomerate_with(
                &entries,
                DistanceMetric::D2,
                StopRule::ClusterCount(2),
                algo,
                true,
            );
            assert_eq!(r.labels, vec![0, 1, 0, 1], "{algo:?}");
        }
    }

    #[test]
    fn nn_chain_matches_heap_on_blobs() {
        // Deliberately tie-free: every pairwise distance is distinct, so
        // the greedy dendrogram is unique and both paths must match it.
        let entries = singletons(&[
            [0.0, 0.0],
            [0.5, 0.0],
            [0.0, 0.7],
            [50.0, 50.0],
            [50.6, 50.0],
            [50.0, 50.9],
            [100.0, 0.0],
            [100.3, 0.1],
        ]);
        for metric in [DistanceMetric::D2, DistanceMetric::D4] {
            for k in 1..=entries.len() {
                let chain = agglomerate_with(
                    &entries,
                    metric,
                    StopRule::ClusterCount(k),
                    HacAlgorithm::NnChain,
                    true,
                );
                let heap = agglomerate_with(
                    &entries,
                    metric,
                    StopRule::ClusterCount(k),
                    HacAlgorithm::Heap,
                    true,
                );
                assert_eq!(chain.labels, heap.labels, "{metric} k={k}");
                assert_eq!(
                    chain.merge_distances, heap.merge_distances,
                    "{metric} k={k}"
                );
                assert_eq!(chain.clusters.len(), heap.clusters.len());
                for (a, b) in chain.clusters.iter().zip(&heap.clusters) {
                    assert_eq!(a, b, "{metric} k={k}");
                }
            }
        }
    }

    #[test]
    fn nn_chain_prunes_and_stays_linear() {
        let raw: Vec<[f64; 2]> = (0..200)
            .map(|i| {
                let c = (i % 4) as f64 * 1000.0;
                let j = i as f64;
                [c + (j * 0.7).sin(), c + (j * 1.3).cos()]
            })
            .collect();
        let entries = singletons(&raw);
        let r = agglomerate(&entries, DistanceMetric::D2, StopRule::ClusterCount(4));
        assert_eq!(r.stats.algorithm, HacAlgorithm::NnChain);
        assert!(r.stats.pairs_pruned > 0, "well-separated blobs must prune");
        // O(m) candidate state: nowhere near the m²/2 pair matrix.
        let m = entries.len();
        let pair_matrix = m * (m - 1) / 2 * std::mem::size_of::<Candidate>();
        assert!(
            r.stats.peak_candidate_bytes < pair_matrix / 4,
            "chain state {} vs pair matrix {pair_matrix}",
            r.stats.peak_candidate_bytes
        );
    }

    #[test]
    #[should_panic(expected = "reducible")]
    fn nn_chain_rejects_non_reducible_metric() {
        let entries = singletons(&[[0.0, 0.0], [1.0, 0.0]]);
        let _ = agglomerate_with(
            &entries,
            DistanceMetric::D3,
            StopRule::ClusterCount(1),
            HacAlgorithm::NnChain,
            true,
        );
    }

    #[test]
    #[should_panic(expected = "cannot cluster zero entries")]
    fn empty_input_panics() {
        let _ = agglomerate(&[], DistanceMetric::D0, StopRule::ClusterCount(1));
    }

    #[test]
    #[should_panic(expected = "asked for")]
    fn too_many_clusters_panics() {
        let entries = singletons(&[[0.0, 0.0]]);
        let _ = agglomerate(&entries, DistanceMetric::D0, StopRule::ClusterCount(2));
    }
}
