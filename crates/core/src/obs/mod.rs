//! Run telemetry: typed pipeline events, sinks, and aggregated metrics.
//!
//! BIRCH's claims are *resource-trajectory* claims — single scan, bounded
//! memory, strictly growing threshold, bounded rebuild transient — so this
//! module gives every phase a structured way to report what it is doing
//! while it is doing it. The pieces:
//!
//! * [`Event`] — a typed record of one pipeline occurrence (a rebuild, a
//!   split, a threshold raise, an outlier spill, …).
//! * [`EventSink`] — the receiver trait. The pipeline is generic over the
//!   sink, and the default [`NoopSink`] compiles to nothing, so an
//!   uninstrumented run pays zero cost.
//! * [`MetricsRecorder`] — a built-in sink that aggregates counters,
//!   per-phase wall time, the insertion-depth histogram, and the full
//!   threshold-vs-points trajectory; [`Phase1Builder`] always carries one,
//!   and `IoStats`' event-derived counters are populated from it.
//! * [`TraceLog`] — a built-in ring-buffer sink keeping the last `N`
//!   events verbatim for post-mortem inspection (`birch-cli --trace`).
//! * [`MetricsReport`] — the recorder's frozen output, exportable as
//!   stable, hand-rolled JSON (no serde in this workspace).
//!
//! [`Phase1Builder`]: crate::phase1::Phase1Builder
//!
//! Three sibling submodules complete the observability substrate:
//! [`span`] (hierarchical wall-time profiler), [`mem`] (memory-budget
//! gauge against the paper's M), and [`prom`] (Prometheus text
//! exposition of a run's stats).

pub mod mem;
pub mod prom;
pub mod span;

use std::collections::VecDeque;
use std::time::Duration;

/// The four pipeline phases, as telemetry labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Phase 1 — the single data scan building the CF-tree.
    Load,
    /// Phase 2 — optional tree condensation.
    Condense,
    /// Phase 3 — global clustering of the leaf entries.
    Global,
    /// Phase 4 — optional refinement/labeling passes.
    Refine,
}

impl Phase {
    /// Zero-based index (`Load == 0` … `Refine == 3`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Phase::Load => 0,
            Phase::Condense => 1,
            Phase::Global => 2,
            Phase::Refine => 3,
        }
    }

    /// Stable lowercase name used in traces and JSON keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Load => "load",
            Phase::Condense => "condense",
            Phase::Global => "global",
            Phase::Refine => "refine",
        }
    }
}

/// One typed telemetry record emitted by the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A pipeline phase began.
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// A pipeline phase completed.
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Wall-clock duration of the phase.
        wall: Duration,
    },
    /// One entry was inserted into the CF-tree (full root-to-leaf
    /// insertion, not a split-free absorption probe).
    InsertDescend {
        /// Interior levels descended (`height - 1` at insertion time).
        depth: usize,
    },
    /// Node splits performed by one tree operation (leaf and interior
    /// splits combined; one insert can cascade several).
    SplitPerformed {
        /// Number of splits.
        count: u64,
    },
    /// Merging refinements (§4.3) performed by one tree operation.
    MergeRefinement {
        /// Number of refinements.
        count: u64,
    },
    /// The threshold was raised ahead of a rebuild (§5.1.2).
    ThresholdRaised {
        /// Threshold before the raise.
        old: f64,
        /// Threshold after the raise.
        new: f64,
        /// Input records scanned when the raise happened.
        points_seen: u64,
    },
    /// A tree rebuild is starting (§5.1): the tree outgrew its page
    /// budget and is reloaded under the raised threshold.
    RebuildTriggered {
        /// Threshold of the tree being rebuilt.
        old_threshold: f64,
        /// Threshold of the replacement tree.
        new_threshold: f64,
        /// Leaf entries in the tree being rebuilt.
        leaf_entries: usize,
        /// Pages (nodes) of the tree being rebuilt.
        pages: usize,
    },
    /// Leaf entries diverted to the outlier disk during a rebuild (§5.1.3).
    OutlierSpilled {
        /// Entries spilled.
        count: u64,
    },
    /// Parked outlier entries returned to the tree by a re-absorption
    /// scan, split by how they got there. Only `absorbed` is a true
    /// §5.1.3 re-absorption (merged into an existing entry without
    /// growing the tree); the other two are regular insertions.
    OutlierReabsorbed {
        /// Entries merged into an existing leaf entry without growing
        /// the tree.
        absorbed: u64,
        /// Entries re-inserted as regular data after outgrowing
        /// outlierhood (the mean points-per-entry moved under them).
        reinserted: u64,
        /// Entries folded into the tree because the disk refused the
        /// write-back (injected fault or force-full degradation).
        folded_back: u64,
    },
    /// Outlier entries discarded for good at the end of a scan.
    OutlierDiscarded {
        /// Entries dropped.
        count: u64,
    },
    /// The in-memory page high-water mark rose.
    PagesHighWater {
        /// The new peak page count.
        pages: usize,
    },
}

impl Event {
    /// Renders the event as one stable human-readable trace line.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Event::PhaseStarted { phase } => format!("phase {} started", phase.name()),
            Event::PhaseFinished { phase, wall } => {
                format!(
                    "phase {} finished in {:.3}s",
                    phase.name(),
                    wall.as_secs_f64()
                )
            }
            Event::InsertDescend { depth } => format!("insert descended {depth} levels"),
            Event::SplitPerformed { count } => format!("{count} node split(s)"),
            Event::MergeRefinement { count } => format!("{count} merge refinement(s)"),
            Event::ThresholdRaised {
                old,
                new,
                points_seen,
            } => format!("threshold raised {old:.4} -> {new:.4} at {points_seen} points"),
            Event::RebuildTriggered {
                old_threshold,
                new_threshold,
                leaf_entries,
                pages,
            } => format!(
                "rebuild: T {old_threshold:.4} -> {new_threshold:.4}, \
                 {leaf_entries} leaf entries in {pages} pages"
            ),
            Event::OutlierSpilled { count } => format!("{count} entrie(s) spilled to outlier disk"),
            Event::OutlierReabsorbed {
                absorbed,
                reinserted,
                folded_back,
            } => format!(
                "outlier scan: {absorbed} re-absorbed, {reinserted} re-inserted, \
                 {folded_back} folded back"
            ),
            Event::OutlierDiscarded { count } => format!("{count} outlier entrie(s) discarded"),
            Event::PagesHighWater { pages } => format!("page high-water mark now {pages}"),
        }
    }
}

/// Receiver of pipeline [`Event`]s.
///
/// The pipeline entry points are generic over the sink and default to
/// [`NoopSink`], which monomorphizes every `record` call to nothing — an
/// uninstrumented run is byte-for-byte the uninstrumented code.
pub trait EventSink {
    /// Receives one event. Called synchronously from the pipeline's hot
    /// paths, so implementations should be cheap.
    fn record(&mut self, event: &Event);

    /// Whether this sink does anything. Emitters may skip constructing
    /// expensive events when `false`; [`NoopSink`] returns `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The do-nothing sink: the default everywhere a sink is optional.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline]
    fn record(&mut self, _event: &Event) {}

    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

impl<S: EventSink + ?Sized> EventSink for &mut S {
    #[inline]
    fn record(&mut self, event: &Event) {
        (**self).record(event);
    }

    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// Fans one event stream out to two sinks (e.g. an internal
/// [`MetricsRecorder`] plus a caller-supplied trace).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tee<A, B>(
    /// First receiver.
    pub A,
    /// Second receiver.
    pub B,
);

impl<A: EventSink, B: EventSink> EventSink for Tee<A, B> {
    #[inline]
    fn record(&mut self, event: &Event) {
        self.0.record(event);
        self.1.record(event);
    }

    #[inline]
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }
}

/// One `(points scanned, threshold)` sample of the threshold trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdPoint {
    /// Input records scanned when the threshold was raised.
    pub points_seen: u64,
    /// The threshold after the raise.
    pub threshold: f64,
}

/// Telemetry of one Phase-1 shard of a parallel build (see
/// [`crate::parallel`]): wall time, per-shard rebuild/threshold activity,
/// and what the shard handed to the merge stage. A vector of these in
/// [`RunStats`] is how `--metrics-json` exposes shard skew — the slowest
/// shard bounds Phase-1 wall time, so uneven `wall`s are the first thing
/// to look at when parallel speedup disappoints.
///
/// [`RunStats`]: crate::birch::RunStats
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardReport {
    /// Shard index (chunk order, which is input order).
    pub shard: usize,
    /// Input records the shard scanned.
    pub points: u64,
    /// Wall-clock time of the shard's scan (inside its worker thread).
    pub wall: Duration,
    /// Rebuilds the shard performed under its `M/n` memory share.
    pub rebuilds: u64,
    /// The shard tree's final threshold.
    pub final_threshold: f64,
    /// Leaf entries the shard handed to the merge stage.
    pub leaf_entries: usize,
    /// The shard's page high-water mark.
    pub peak_pages: usize,
    /// Node splits in the shard's tree.
    pub splits: u64,
    /// Unresolved potential outliers carried into the merge stage.
    pub outliers_carried: u64,
    /// The shard's threshold raises as `(points scanned, new threshold)`.
    pub threshold_trajectory: Vec<ThresholdPoint>,
}

impl ShardReport {
    /// Serializes the shard report as one stable JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shard\":{},\"points\":{},\"wall_s\":{},\"rebuilds\":{},\
             \"final_threshold\":{},\"leaf_entries\":{},\"peak_pages\":{},\
             \"splits\":{},\"outliers_carried\":{},\"threshold_trajectory\":{}}}",
            self.shard,
            self.points,
            json_f64(self.wall.as_secs_f64()),
            self.rebuilds,
            json_f64(self.final_threshold),
            self.leaf_entries,
            self.peak_pages,
            self.splits,
            self.outliers_carried,
            trajectory_json(&self.threshold_trajectory),
        )
    }
}

/// Serializes shard reports as a JSON array (used by `RunStats::to_json`).
#[must_use]
pub fn shards_json(shards: &[ShardReport]) -> String {
    let mut out = String::from("[");
    for (i, s) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_json());
    }
    out.push(']');
    out
}

/// Serializes a threshold trajectory as a JSON array of
/// `{"points":…,"threshold":…}` objects.
#[must_use]
pub fn trajectory_json(points: &[ThresholdPoint]) -> String {
    let mut out = String::from("[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"points\":{},\"threshold\":{}}}",
            p.points_seen,
            json_f64(p.threshold)
        ));
    }
    out.push(']');
    out
}

/// A sink that aggregates the run into counters, per-phase wall time, the
/// insertion-depth histogram, and the threshold trajectory.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    report: MetricsReport,
}

impl MetricsRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A frozen copy of everything aggregated so far.
    #[must_use]
    pub fn report(&self) -> MetricsReport {
        self.report.clone()
    }

    /// Read-only view of the live aggregates (no clone).
    #[must_use]
    pub fn snapshot(&self) -> &MetricsReport {
        &self.report
    }

    /// Merges a frozen report into this recorder — used to fold the
    /// per-worker Phase-1 reports of a parallel fit into one run total.
    pub fn absorb_report(&mut self, other: &MetricsReport) {
        self.report.absorb(other);
    }

    /// Copies a [`TraceLog`]'s ring statistics (capacity, drop count)
    /// into the report so [`MetricsRecorder::one_line`] and the metrics
    /// JSON can say how lossy the trace was.
    pub fn note_trace(&mut self, trace: &TraceLog) {
        let stats = trace.stats();
        self.report.trace_capacity = self.report.trace_capacity.max(stats.capacity);
        self.report.trace_dropped += stats.dropped;
    }

    /// Records the Phase 3 agglomerator's candidate-pair work (performed
    /// and prune-skipped distance evaluations) into the report. Called by
    /// the pipeline after the global clustering step; pair counts are
    /// deliberately kept separate from Phase 1's `distance_calls` so the
    /// two prunes stay independently measurable.
    pub fn note_phase3_pairs(&mut self, evaluated: u64, pruned: u64) {
        self.report.phase3_pairs_evaluated += evaluated;
        self.report.phase3_pairs_pruned += pruned;
    }

    /// One-line summary for periodic progress printing, e.g.
    /// `inserts=1200 rebuilds=3 splits=57 peak_pages=9 T=0.81`. When a
    /// trace ring was attached (via [`MetricsRecorder::note_trace`]) the
    /// line also reports its loss, e.g. `trace_dropped=241/cap512`.
    #[must_use]
    pub fn one_line(&self) -> String {
        let r = &self.report;
        let t = r
            .threshold_trajectory
            .last()
            .map_or_else(|| "T0".to_string(), |p| format!("{:.3}", p.threshold));
        let mut line = format!(
            "inserts={} rebuilds={} splits={} refinements={} spilled={} peak_pages={} T={t}",
            r.inserts, r.rebuilds, r.splits, r.merge_refinements, r.outliers_spilled, r.peak_pages
        );
        if r.trace_capacity > 0 {
            line.push_str(&format!(
                " trace_dropped={}/cap{}",
                r.trace_dropped, r.trace_capacity
            ));
        }
        line
    }
}

impl EventSink for MetricsRecorder {
    fn record(&mut self, event: &Event) {
        let r = &mut self.report;
        r.events += 1;
        match *event {
            Event::PhaseStarted { .. } => {}
            Event::PhaseFinished { phase, wall } => r.phase_wall[phase.index()] += wall,
            Event::InsertDescend { depth } => {
                r.inserts += 1;
                if r.insert_depth_histogram.len() <= depth {
                    r.insert_depth_histogram.resize(depth + 1, 0);
                }
                r.insert_depth_histogram[depth] += 1;
            }
            Event::SplitPerformed { count } => r.splits += count,
            Event::MergeRefinement { count } => r.merge_refinements += count,
            Event::ThresholdRaised {
                new, points_seen, ..
            } => {
                r.thresholds_raised += 1;
                r.threshold_trajectory.push(ThresholdPoint {
                    points_seen,
                    threshold: new,
                });
            }
            Event::RebuildTriggered { pages, .. } => {
                r.rebuilds += 1;
                r.peak_pages = r.peak_pages.max(pages);
            }
            Event::OutlierSpilled { count } => r.outliers_spilled += count,
            Event::OutlierReabsorbed {
                absorbed,
                reinserted,
                folded_back,
            } => {
                r.outliers_reabsorbed += absorbed;
                r.outliers_reinserted += reinserted;
                r.outliers_folded_back += folded_back;
            }
            Event::OutlierDiscarded { count } => r.outliers_discarded += count,
            Event::PagesHighWater { pages } => r.peak_pages = r.peak_pages.max(pages),
        }
    }
}

/// Frozen aggregates of one run (the [`MetricsRecorder`]'s output).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Full tree insertions (each one `InsertDescend` event).
    pub inserts: u64,
    /// Node splits (leaf + interior).
    pub splits: u64,
    /// Merging refinements (§4.3).
    pub merge_refinements: u64,
    /// Tree rebuilds.
    pub rebuilds: u64,
    /// Threshold raises (usually equals `rebuilds`).
    pub thresholds_raised: u64,
    /// Entries spilled to the outlier disk.
    pub outliers_spilled: u64,
    /// Outlier entries truly re-absorbed: merged into an existing leaf
    /// entry without growing the tree (§5.1.3). Entries that came back
    /// another way are counted separately below.
    pub outliers_reabsorbed: u64,
    /// Outlier entries re-inserted as regular data after outgrowing
    /// outlierhood.
    pub outliers_reinserted: u64,
    /// Outlier entries folded into the tree on a refused disk
    /// write-back (fault paths).
    pub outliers_folded_back: u64,
    /// Outlier entries discarded at end of scan.
    pub outliers_discarded: u64,
    /// Page high-water mark observed via events.
    pub peak_pages: usize,
    /// Distance evaluations performed by the insert hot path (descent
    /// closest-child scans plus closest-leaf-entry scans) — populated from
    /// [`TreeStats`] by the Phase-1 driver rather than from events, since
    /// one counter bump per distance would drown the event stream.
    ///
    /// [`TreeStats`]: crate::tree::TreeStats
    pub distance_calls: u64,
    /// Phase 3 candidate-pair distances actually evaluated by the
    /// agglomerator (schema v5). Set via
    /// [`MetricsRecorder::note_phase3_pairs`], not from events.
    pub phase3_pairs_evaluated: u64,
    /// Phase 3 candidate pairs skipped by the cached-statistic lower
    /// bound (`pair_lower_bound`); 0 on the heap path or with the prune
    /// off. Same provenance as [`MetricsReport::phase3_pairs_evaluated`].
    pub phase3_pairs_pruned: u64,
    /// Capacity of the trace ring attached to the run (0 = no trace).
    /// Set via [`MetricsRecorder::note_trace`], not from events.
    pub trace_capacity: usize,
    /// Events the attached trace ring evicted (see [`TraceLog::dropped`]).
    pub trace_dropped: u64,
    /// `insert_depth_histogram[d]` = insertions that descended `d`
    /// interior levels.
    pub insert_depth_histogram: Vec<u64>,
    /// Every threshold raise as `(points scanned, new threshold)`, in
    /// emission order — non-decreasing in both components for a
    /// sequential run.
    pub threshold_trajectory: Vec<ThresholdPoint>,
    /// Wall time per phase, indexed by [`Phase::index`].
    pub phase_wall: [Duration; 4],
    /// Total events received.
    pub events: u64,
}

impl MetricsReport {
    /// Component-wise merge (sum counters, max peaks, concatenate the
    /// trajectory, sum phase times).
    pub fn absorb(&mut self, other: &MetricsReport) {
        self.inserts += other.inserts;
        self.splits += other.splits;
        self.merge_refinements += other.merge_refinements;
        self.rebuilds += other.rebuilds;
        self.thresholds_raised += other.thresholds_raised;
        self.outliers_spilled += other.outliers_spilled;
        self.outliers_reabsorbed += other.outliers_reabsorbed;
        self.outliers_reinserted += other.outliers_reinserted;
        self.outliers_folded_back += other.outliers_folded_back;
        self.outliers_discarded += other.outliers_discarded;
        self.peak_pages = self.peak_pages.max(other.peak_pages);
        self.distance_calls += other.distance_calls;
        self.phase3_pairs_evaluated += other.phase3_pairs_evaluated;
        self.phase3_pairs_pruned += other.phase3_pairs_pruned;
        self.trace_capacity = self.trace_capacity.max(other.trace_capacity);
        self.trace_dropped += other.trace_dropped;
        if self.insert_depth_histogram.len() < other.insert_depth_histogram.len() {
            self.insert_depth_histogram
                .resize(other.insert_depth_histogram.len(), 0);
        }
        for (i, v) in other.insert_depth_histogram.iter().enumerate() {
            self.insert_depth_histogram[i] += v;
        }
        self.threshold_trajectory
            .extend_from_slice(&other.threshold_trajectory);
        for (mine, theirs) in self.phase_wall.iter_mut().zip(&other.phase_wall) {
            *mine += *theirs;
        }
        self.events += other.events;
    }

    /// The event-derived counters as a JSON object fragment (used by
    /// [`RunStats::to_json`]).
    ///
    /// [`RunStats::to_json`]: crate::birch::RunStats::to_json
    #[must_use]
    pub fn counters_json(&self) -> String {
        format!(
            "{{\"inserts\":{},\"splits\":{},\"merge_refinements\":{},\"rebuilds\":{},\
             \"thresholds_raised\":{},\"outliers_spilled\":{},\"outliers_reabsorbed\":{},\
             \"outliers_reinserted\":{},\"outliers_folded_back\":{},\
             \"outliers_discarded\":{},\"distance_calls\":{},\
             \"phase3_pairs_evaluated\":{},\"phase3_pairs_pruned\":{},\
             \"events\":{}}}",
            self.inserts,
            self.splits,
            self.merge_refinements,
            self.rebuilds,
            self.thresholds_raised,
            self.outliers_spilled,
            self.outliers_reabsorbed,
            self.outliers_reinserted,
            self.outliers_folded_back,
            self.outliers_discarded,
            self.distance_calls,
            self.phase3_pairs_evaluated,
            self.phase3_pairs_pruned,
            self.events
        )
    }

    /// The threshold trajectory as a JSON array of
    /// `{"points":…,"threshold":…}` objects.
    #[must_use]
    pub fn trajectory_json(&self) -> String {
        trajectory_json(&self.threshold_trajectory)
    }

    /// The insertion-depth histogram as a JSON array (`[n_depth0, …]`).
    #[must_use]
    pub fn histogram_json(&self) -> String {
        let mut out = String::from("[");
        for (i, v) in self.insert_depth_histogram.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&v.to_string());
        }
        out.push(']');
        out
    }
}

/// Formats an `f64` as a JSON number (`null` when non-finite).
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` is Rust's shortest round-trip float formatting, which is
        // also valid JSON for finite values.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// A fixed-capacity ring buffer of the most recent events, for
/// post-mortem inspection (`birch-cli --trace`).
#[derive(Debug, Clone)]
pub struct TraceLog {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl TraceLog {
    /// Creates a trace keeping at most `capacity` events (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> + '_ {
        self.buf.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded (or everything was dropped).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring's loss statistics in one copyable struct — what schema
    /// v4's `"trace"` object serializes.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            capacity: self.capacity,
            retained: self.buf.len(),
            dropped: self.dropped,
        }
    }
}

/// Loss statistics of a [`TraceLog`] ring: how big it was, how much it
/// kept, and how much it evicted. A `dropped > 0` trace is a *suffix* of
/// the run, not the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Ring capacity in events.
    pub capacity: usize,
    /// Events currently retained.
    pub retained: usize,
    /// Events evicted because the ring was full.
    pub dropped: u64,
}

impl TraceStats {
    /// Serializes as the schema-v4 `"trace"` JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"capacity\":{},\"retained\":{},\"dropped\":{}}}",
            self.capacity, self.retained, self.dropped
        )
    }
}

impl EventSink for TraceLog {
    fn record(&mut self, event: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_counters_sum() {
        let mut rec = MetricsRecorder::new();
        rec.record(&Event::SplitPerformed { count: 3 });
        rec.record(&Event::SplitPerformed { count: 2 });
        rec.record(&Event::MergeRefinement { count: 1 });
        rec.record(&Event::OutlierSpilled { count: 7 });
        rec.record(&Event::OutlierReabsorbed {
            absorbed: 4,
            reinserted: 3,
            folded_back: 1,
        });
        rec.record(&Event::OutlierDiscarded { count: 2 });
        rec.record(&Event::RebuildTriggered {
            old_threshold: 0.0,
            new_threshold: 1.0,
            leaf_entries: 10,
            pages: 5,
        });
        let r = rec.report();
        assert_eq!(r.splits, 5);
        assert_eq!(r.merge_refinements, 1);
        assert_eq!(r.outliers_spilled, 7);
        assert_eq!(r.outliers_reabsorbed, 4);
        assert_eq!(r.outliers_reinserted, 3);
        assert_eq!(r.outliers_folded_back, 1);
        assert_eq!(r.outliers_discarded, 2);
        assert_eq!(r.rebuilds, 1);
        assert_eq!(r.events, 7);
    }

    #[test]
    fn recorder_histogram_buckets() {
        let mut rec = MetricsRecorder::new();
        for depth in [0, 0, 1, 2, 2, 2] {
            rec.record(&Event::InsertDescend { depth });
        }
        let r = rec.report();
        assert_eq!(r.inserts, 6);
        assert_eq!(r.insert_depth_histogram, vec![2, 1, 3]);
        assert_eq!(r.histogram_json(), "[2,1,3]");
    }

    #[test]
    fn recorder_trajectory_monotone() {
        let mut rec = MetricsRecorder::new();
        let mut t = 0.1;
        for i in 0..6u64 {
            let old = t;
            t *= 1.7;
            rec.record(&Event::ThresholdRaised {
                old,
                new: t,
                points_seen: 100 * (i + 1),
            });
        }
        let r = rec.report();
        assert_eq!(r.thresholds_raised, 6);
        for w in r.threshold_trajectory.windows(2) {
            assert!(w[1].threshold >= w[0].threshold, "trajectory decreased");
            assert!(
                w[1].points_seen >= w[0].points_seen,
                "points went backwards"
            );
        }
    }

    #[test]
    fn recorder_peak_pages_maxes() {
        let mut rec = MetricsRecorder::new();
        rec.record(&Event::PagesHighWater { pages: 4 });
        rec.record(&Event::RebuildTriggered {
            old_threshold: 0.0,
            new_threshold: 0.5,
            leaf_entries: 3,
            pages: 9,
        });
        rec.record(&Event::PagesHighWater { pages: 7 });
        assert_eq!(rec.report().peak_pages, 9);
    }

    #[test]
    fn recorder_phase_wall_accumulates() {
        let mut rec = MetricsRecorder::new();
        rec.record(&Event::PhaseStarted { phase: Phase::Load });
        rec.record(&Event::PhaseFinished {
            phase: Phase::Load,
            wall: Duration::from_millis(30),
        });
        rec.record(&Event::PhaseFinished {
            phase: Phase::Load,
            wall: Duration::from_millis(20),
        });
        rec.record(&Event::PhaseFinished {
            phase: Phase::Global,
            wall: Duration::from_millis(5),
        });
        let r = rec.report();
        assert_eq!(r.phase_wall[Phase::Load.index()], Duration::from_millis(50));
        assert_eq!(
            r.phase_wall[Phase::Global.index()],
            Duration::from_millis(5)
        );
        assert_eq!(r.phase_wall[Phase::Condense.index()], Duration::ZERO);
    }

    #[test]
    fn report_absorb_merges() {
        let mut a = MetricsRecorder::new();
        a.record(&Event::InsertDescend { depth: 1 });
        a.record(&Event::PagesHighWater { pages: 3 });
        let mut b = MetricsRecorder::new();
        b.record(&Event::InsertDescend { depth: 2 });
        b.record(&Event::InsertDescend { depth: 1 });
        b.record(&Event::PagesHighWater { pages: 8 });
        let mut total = a.report();
        total.absorb(&b.report());
        assert_eq!(total.inserts, 3);
        assert_eq!(total.peak_pages, 8);
        assert_eq!(total.insert_depth_histogram, vec![0, 2, 1]);
        assert_eq!(total.events, 5);
    }

    #[test]
    fn tee_fans_out_and_reference_sinks_forward() {
        let mut rec = MetricsRecorder::new();
        let mut trace = TraceLog::new(8);
        {
            let mut tee = Tee(&mut rec, &mut trace);
            assert!(tee.enabled());
            tee.record(&Event::SplitPerformed { count: 2 });
        }
        assert_eq!(rec.report().splits, 2);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn noop_sink_disabled() {
        let mut s = NoopSink;
        assert!(!s.enabled());
        s.record(&Event::SplitPerformed { count: 1 });
    }

    #[test]
    fn trace_ring_evicts_oldest() {
        let mut log = TraceLog::new(3);
        for d in 0..5 {
            log.record(&Event::InsertDescend { depth: d });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let depths: Vec<usize> = log
            .events()
            .map(|e| match e {
                Event::InsertDescend { depth } => *depth,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(depths, vec![2, 3, 4]);
    }

    #[test]
    fn trace_stats_surface_in_one_line() {
        let mut log = TraceLog::new(2);
        for d in 0..5 {
            log.record(&Event::InsertDescend { depth: d });
        }
        let stats = log.stats();
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.retained, 2);
        assert_eq!(stats.dropped, 3);
        assert_eq!(
            stats.to_json(),
            "{\"capacity\":2,\"retained\":2,\"dropped\":3}"
        );

        let mut rec = MetricsRecorder::new();
        assert!(
            !rec.one_line().contains("trace_dropped"),
            "no trace attached: {}",
            rec.one_line()
        );
        rec.note_trace(&log);
        assert!(
            rec.one_line().contains("trace_dropped=3/cap2"),
            "{}",
            rec.one_line()
        );
    }

    #[test]
    fn json_f64_formats() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn render_is_stable() {
        let line = Event::RebuildTriggered {
            old_threshold: 0.5,
            new_threshold: 1.25,
            leaf_entries: 42,
            pages: 7,
        }
        .render();
        assert!(line.contains("0.5000 -> 1.2500"), "{line}");
        assert!(line.contains("42 leaf entries in 7 pages"), "{line}");
    }
}
