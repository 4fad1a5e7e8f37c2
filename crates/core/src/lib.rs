//! BIRCH — Balanced Iterative Reducing and Clustering using Hierarchies.
//!
//! A faithful implementation of the clustering method of Zhang,
//! Ramakrishnan & Livny (SIGMOD 1996): cluster very large metric datasets
//! in a single scan under a fixed memory budget, by incrementally
//! maintaining a height-balanced tree of Clustering Features (CFs) and then
//! clustering the leaf summaries globally.
//!
//! The pipeline has four phases (paper Fig. 1):
//!
//! 1. **Phase 1** ([`phase1`]) — scan the data once, building a CF-tree
//!    within the memory budget, rebuilding with a larger threshold whenever
//!    memory runs out, optionally spilling outliers to disk.
//! 2. **Phase 2** ([`phase2`], optional) — condense the tree so the number
//!    of leaf entries suits the global algorithm.
//! 3. **Phase 3** ([`phase3`]) — cluster the leaf entries with an
//!    agglomerative hierarchical algorithm adapted to weighted CFs.
//! 4. **Phase 4** ([`phase4`], optional) — refine: reassign the original
//!    points to the Phase-3 centroids, label them, and discard outliers.
//!
//! Phase 1 can also run sharded across worker threads ([`parallel`]) —
//! exact in the totals by the CF Additivity Theorem — via
//! [`BirchConfig::threads`].
//!
//! The one-stop entry point is [`Birch`]:
//!
//! ```
//! use birch_core::{Birch, BirchConfig, Point};
//!
//! let pts: Vec<Point> = (0..200)
//!     .map(|i| {
//!         let c = f64::from(i % 2) * 20.0;
//!         Point::xy(c + f64::from(i % 7) * 0.05, c - f64::from(i % 5) * 0.05)
//!     })
//!     .collect();
//! let model = Birch::new(BirchConfig::with_clusters(2)).fit(&pts).unwrap();
//! assert_eq!(model.clusters().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod birch;
pub mod cf;
pub mod config;
pub mod distance;
pub mod hierarchical;
pub mod node;
pub mod obs;
pub mod outlier;
pub mod parallel;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod phase4;
pub mod point;
pub mod quad;
pub mod rebuild;
mod simd;
pub mod stream;
pub mod threshold;
pub mod tree;

pub use audit::{audit, audit_with, AuditOptions, AuditReport, AuditViolation, ViolationKind};
pub use birch::{Birch, BirchModel, ClusterSummary, RunStats, METRICS_SCHEMA_VERSION};
pub use cf::Cf;
pub use config::BirchConfig;
pub use distance::{DistanceMetric, ThresholdKind};
pub use obs::mem::MemoryGauge;
pub use obs::prom::prometheus_exposition;
pub use obs::span::{SpanNode, SpanReport};
pub use obs::{
    Event, EventSink, MetricsRecorder, MetricsReport, NoopSink, ShardReport, TraceLog, TraceStats,
};
pub use parallel::ParallelPhase1Output;
pub use point::{Point, PointError};
pub use stream::StreamingBirch;
pub use tree::TreeHealth;
pub use tree::{CfTree, InsertOutcome, TreeParams};
