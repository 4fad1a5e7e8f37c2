//! The traced run: the pipeline driven stage by stage through each layer's
//! public entry point, with spans recorded around every call.
//!
//! The chain is exactly what `Birch::fit` runs for unweighted points:
//! `Phase1Builder::feed_point ×N → finish` (or `parallel::run_with_sink`
//! when the workload has more than one thread) `→ phase2::condense →
//! CfTree::into_leaf_entries → phase3::global_cluster_with →
//! phase4::refine`. The benchmark checks that its clusters and labels are
//! bit-identical to the untraced fit's, so the per-layer numbers describe
//! the program the end-to-end numbers time.

use crate::stats::{percentile, ratio};
use birch_core::phase1::Phase1Builder;
use birch_core::phase4::Phase4Config;
use birch_core::threshold::ThresholdEstimator;
use birch_core::{
    parallel, phase2, phase3, phase4, BirchConfig, Cf, CfTree, MemoryGauge, NoopSink, Point,
};
use birch_pager::IoStats;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One span: a named interval with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span within its trace.
    pub id: u32,
    /// The enclosing span (`None` for the root).
    pub parent: Option<u32>,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, relative to the run's origin.
    pub start: Duration,
    /// End, relative to the run's origin.
    pub end: Duration,
}

/// In-memory span recorder for one fit. All spans share `trace_id`.
#[derive(Debug)]
pub struct Tracer {
    /// Identifier shared by every span of this fit.
    pub trace_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder whose span times are relative to `origin`.
    #[must_use]
    pub fn new(trace_id: u64, origin: Instant) -> Self {
        Self {
            trace_id,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let now = Instant::now();
        let id = self.push(name, now, now);
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end = self.origin.elapsed();
    }

    /// Records an already-finished interval under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.push(name, start, end);
    }

    fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        id
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id`.
    #[must_use]
    pub fn duration(&self, id: u32) -> Duration {
        let s = &self.spans[id as usize];
        s.end.saturating_sub(s.start)
    }

    /// Self time of span `id`: its duration minus what its direct
    /// children cover (children of one span never overlap here).
    #[must_use]
    pub fn self_time(&self, id: u32) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end.saturating_sub(s.start))
            .sum();
        self.duration(id).saturating_sub(children)
    }

    /// Appends the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut String) {
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"trace_id\":{},\"span_id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                self.trace_id,
                s.id,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
    }
}

/// The output of one traced fit.
#[derive(Debug)]
pub struct TracedFit {
    /// Final clusters (non-empty ones, as `Birch::fit` keeps them).
    pub clusters: Vec<Cf>,
    /// Phase-4 labels (`None` when Phase 4 is disabled).
    pub labels: Option<Vec<Option<usize>>>,
    /// Wall time of the whole traced fit (the root span).
    pub wall: Duration,
    /// Per-layer metrics by name (units live in the metric table).
    pub metrics: Vec<(&'static str, f64)>,
}

#[cfg(test)]
impl TracedFit {
    /// Value of the named metric.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// What Phase 1 (serial or sharded) hands on, plus its layer metrics.
struct Phase1Stage {
    tree: CfTree,
    estimator: ThresholdEstimator,
    io: IoStats,
    memory: MemoryGauge,
    metrics: Vec<(&'static str, f64)>,
}

/// Runs the staged chain over `points` with `config`, recording spans
/// into `t`.
///
/// # Errors
///
/// Fails on input `Birch::fit` would reject (empty, mixed dimensions) and
/// when no leaf entry survives Phase 1.
pub fn traced_fit(
    config: &BirchConfig,
    points: &[Point],
    t: &mut Tracer,
) -> Result<TracedFit, String> {
    let dim = points.first().ok_or("empty input")?.dim();
    if let Some(i) = points.iter().position(|p| p.dim() != dim) {
        return Err(format!(
            "point {i} has dimension {}, expected {dim}",
            points[i].dim()
        ));
    }
    let n = points.len() as f64;
    let threads = config.threads.min(points.len()).max(1);
    let root = t.enter("fit");
    let started = Instant::now();

    let stage = if threads > 1 {
        phase1_parallel(config, dim, points, threads, t)
    } else {
        phase1_serial(config, dim, points, t)
    };
    let Phase1Stage {
        tree,
        mut estimator,
        mut io,
        memory,
        mut metrics,
    } = stage;
    metrics.extend([
        ("phase1.leaf_entries", tree.leaf_entry_count() as f64),
        (
            "mem.node_arena_peak_bytes",
            memory.node_arena.peak_bytes as f64,
        ),
        ("mem.highwater_bytes", memory.highwater_bytes() as f64),
    ]);

    let sp = t.enter("phase2");
    let tree = if config.phase2 && tree.leaf_entry_count() > config.phase2_max_entries {
        phase2::condense(
            tree,
            config.phase2_max_entries,
            &mut estimator,
            None,
            &mut io,
        )
    } else {
        tree
    };
    t.exit(sp);
    metrics.extend([
        ("phase2.wall_s", t.duration(sp).as_secs_f64()),
        ("phase2.entries_out", tree.leaf_entry_count() as f64),
        ("threshold.final", tree.threshold()),
    ]);

    let sp = t.enter("phase3");
    let s = t.enter("phase3.leaf_entries");
    let entries = tree.into_leaf_entries();
    t.exit(s);
    if entries.is_empty() {
        return Err("no leaf entries left for Phase 3".to_string());
    }
    let entries_in = entries.len();
    let s = t.enter("phase3.global_cluster");
    let p3 = phase3::global_cluster_with(
        entries,
        config.metric,
        config.clusters,
        config.global_method,
    );
    t.exit(s);
    t.exit(sp);
    let (evaluated, pruned, peak_bytes) = p3.hac.map_or((0, 0, 0), |h| {
        (h.pairs_evaluated, h.pairs_pruned, h.peak_candidate_bytes)
    });
    metrics.extend([
        ("phase3.wall_s", t.duration(sp).as_secs_f64()),
        ("phase3.entries_in", entries_in as f64),
        ("phase3.pairs_evaluated", evaluated as f64),
        ("phase3.pairs_pruned", pruned as f64),
        (
            "phase3.prune_ratio",
            ratio(pruned as f64, (evaluated + pruned) as f64),
        ),
        ("phase3.peak_candidate_bytes", peak_bytes as f64),
    ]);

    let sp = t.enter("phase4");
    let (clusters, labels, discarded) = if config.phase4_passes > 0 {
        let p4 = phase4::refine(
            points,
            None,
            &p3.clusters,
            Phase4Config {
                passes: config.phase4_passes,
                outlier_factor: config.phase4_outlier_factor,
            },
        );
        (p4.clusters, Some(p4.labels), p4.discarded)
    } else {
        (p3.clusters, None, 0)
    };
    t.exit(sp);
    let phase4_s = t.duration(sp).as_secs_f64();
    metrics.extend([
        ("phase4.wall_s", phase4_s),
        ("phase4.points_per_s", ratio(n, phase4_s)),
        ("phase4.discarded", discarded as f64),
    ]);
    let clusters = clusters.into_iter().filter(|c| !c.is_empty()).collect();
    t.exit(root);
    Ok(TracedFit {
        clusters,
        labels,
        wall: started.elapsed(),
        metrics,
    })
}

/// Serial Phase 1: the builder's feed loop with one timing sample per
/// `feed_point` call. A call during which the rebuild count rose is a
/// rebuild stall.
fn phase1_serial(
    config: &BirchConfig,
    dim: usize,
    points: &[Point],
    t: &mut Tracer,
) -> Phase1Stage {
    let sp = t.enter("phase1");
    let mut b = Phase1Builder::new(config, dim);
    let mut insert_ns: Vec<u32> = Vec::with_capacity(points.len());
    let (mut stall, mut stall_max, mut rebuilds) = (Duration::ZERO, Duration::ZERO, 0);
    for p in points {
        let start = Instant::now();
        b.feed_point(p);
        let end = Instant::now();
        let d = end - start;
        insert_ns.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
        let now = b.metrics().snapshot().rebuilds;
        if now > rebuilds {
            rebuilds = now;
            stall += d;
            stall_max = stall_max.max(d);
            t.record("rebuild_stall", start, end);
        }
    }
    let f = t.enter("phase1.finish");
    let out = b.finish();
    t.exit(f);
    t.exit(sp);
    let m = &out.metrics;
    let metrics = vec![
        ("phase1.wall_s", t.duration(sp).as_secs_f64()),
        (
            "phase1.insert_ns_p50",
            f64::from(percentile(&mut insert_ns, 50.0)),
        ),
        (
            "phase1.insert_ns_p99",
            f64::from(percentile(&mut insert_ns, 99.0)),
        ),
        ("phase1.distance_calls", m.distance_calls as f64),
        (
            "phase1.distance_calls_per_point",
            ratio(m.distance_calls as f64, points.len() as f64),
        ),
        ("phase1.splits", m.splits as f64),
        ("phase1.merge_refinements", m.merge_refinements as f64),
        ("rebuild.count", m.rebuilds as f64),
        ("rebuild.stall_s", stall.as_secs_f64()),
        ("rebuild.stall_max_s", stall_max.as_secs_f64()),
        ("outlier.spilled", m.outliers_spilled as f64),
        ("outlier.reabsorbed", m.outliers_reabsorbed as f64),
        ("outlier.discarded", m.outliers_discarded as f64),
        (
            "outlier.disk_bytes_written",
            out.io.disk_bytes_written as f64,
        ),
        ("parallel.wall_s", 0.0),
        ("parallel.merge_s", 0.0),
        ("parallel.shard_wall_max_s", 0.0),
        ("parallel.shard_skew", 0.0),
        ("parallel.rebuilds", 0.0),
        ("parallel.leaf_entries", 0.0),
    ];
    Phase1Stage {
        tree: out.tree,
        estimator: out.estimator,
        io: out.io,
        memory: out.memory,
        metrics,
    }
}

/// Sharded Phase 1 through `parallel::run_with_sink`. The shards' feed
/// loops run on worker threads, out of the benchmark's reach, so the
/// per-call insert samples and rebuild stalls read 0 here; the work
/// counters are the shards' and the merge's totals.
fn phase1_parallel(
    config: &BirchConfig,
    dim: usize,
    points: &[Point],
    threads: usize,
    t: &mut Tracer,
) -> Phase1Stage {
    let sp = t.enter("parallel");
    let out = parallel::run_with_sink(config, dim, points, None, threads, &mut NoopSink);
    // The merge stage is the tail of the call; its wall is the library's.
    let end = Instant::now();
    t.record("parallel.merge", end - out.merge_wall, end);
    t.exit(sp);
    let wall = t.duration(sp).as_secs_f64();
    let shard_walls: Vec<f64> = out.shards.iter().map(|s| s.wall.as_secs_f64()).collect();
    let max = shard_walls.iter().copied().fold(0.0, f64::max);
    let min = shard_walls.iter().copied().fold(f64::INFINITY, f64::min);
    let m = &out.metrics;
    let leaf_entries = out.tree.leaf_entry_count() as f64;
    let metrics = vec![
        ("phase1.wall_s", wall),
        ("phase1.insert_ns_p50", 0.0),
        ("phase1.insert_ns_p99", 0.0),
        ("phase1.distance_calls", m.distance_calls as f64),
        (
            "phase1.distance_calls_per_point",
            ratio(m.distance_calls as f64, points.len() as f64),
        ),
        ("phase1.splits", m.splits as f64),
        ("phase1.merge_refinements", m.merge_refinements as f64),
        ("rebuild.count", m.rebuilds as f64),
        ("rebuild.stall_s", 0.0),
        ("rebuild.stall_max_s", 0.0),
        ("outlier.spilled", m.outliers_spilled as f64),
        ("outlier.reabsorbed", m.outliers_reabsorbed as f64),
        ("outlier.discarded", m.outliers_discarded as f64),
        (
            "outlier.disk_bytes_written",
            out.io.disk_bytes_written as f64,
        ),
        ("parallel.wall_s", wall),
        ("parallel.merge_s", out.merge_wall.as_secs_f64()),
        ("parallel.shard_wall_max_s", max),
        ("parallel.shard_skew", ratio(max, min)),
        ("parallel.rebuilds", out.io.rebuilds as f64),
        ("parallel.leaf_entries", leaf_entries),
    ];
    Phase1Stage {
        tree: out.tree,
        estimator: out.estimator,
        io: out.io,
        memory: out.memory,
        metrics,
    }
}
