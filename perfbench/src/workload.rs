//! The four workloads: the paper's base datasets (Table 3) at the sizes
//! and memory budgets that make each stress a different layer. See
//! `README.md` for why each was chosen, and why `BENCHMARK.json` gates
//! only `ds1_scan_1m` and `ds1_par2_1m`.

use birch_core::{BirchConfig, Point};
use birch_datagen::{presets, Dataset, DatasetSpec};

/// Points per cluster of the 1M-point workloads (K = 100).
const PER_CLUSTER_1M: usize = 10_000;

/// The paper's 80 KB per 100k points, at 1M points.
const M_SCAN_BYTES: usize = 800 * 1024;

/// One benchmark workload: a dataset recipe plus a pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    kind: Kind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ds1Scan,
    Ds3GlobalHac,
    Ds2oTight,
    Ds1Par2,
}

/// Every workload `--workload` accepts.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ds1_scan_1m",
        kind: Kind::Ds1Scan,
    },
    Workload {
        name: "ds3_global_hac",
        kind: Kind::Ds3GlobalHac,
    },
    Workload {
        name: "ds2o_tight_1m",
        kind: Kind::Ds2oTight,
    },
    Workload {
        name: "ds1_par2_1m",
        kind: Kind::Ds1Par2,
    },
];

impl Workload {
    /// Looks a workload up by name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Phase-1 threads the workload runs with.
    #[must_use]
    pub fn threads(self) -> usize {
        match self.kind {
            Kind::Ds1Par2 => 2,
            _ => 1,
        }
    }

    /// The dataset recipe for `seed`. `per_cluster` overrides the points
    /// per cluster (the benchmark's own tests run reduced sizes); `None`
    /// is the benchmark size.
    #[must_use]
    pub fn spec(self, seed: u64, per_cluster: Option<usize>) -> DatasetSpec {
        let n = per_cluster.unwrap_or(PER_CLUSTER_1M);
        match self.kind {
            Kind::Ds1Scan | Kind::Ds1Par2 => presets::ds1_scaled_n(seed, n),
            // DS3 at the paper's own size (nl = 0, nh = 2000) by default.
            Kind::Ds3GlobalHac => presets::ds3_scaled_n(seed, per_cluster.unwrap_or(1000)),
            Kind::Ds2oTight => DatasetSpec {
                ordering: birch_datagen::Ordering::Ordered,
                ..presets::ds2_scaled_n(seed, n)
            },
        }
    }

    /// The pipeline configuration for a dataset of `n` points. Every field
    /// the pipeline would otherwise derive from the environment or the
    /// input is set here: `threads` (which `BirchConfig::with_clusters`
    /// defaults from `BIRCH_THREADS`) and the dataset-size hint.
    #[must_use]
    pub fn config(self, n: usize) -> BirchConfig {
        let base = BirchConfig::with_clusters(100)
            .threads(self.threads())
            .total_points(n as u64);
        match self.kind {
            Kind::Ds1Scan | Kind::Ds1Par2 => base.memory(M_SCAN_BYTES),
            Kind::Ds3GlobalHac => {
                let mut c = base.memory(M_SCAN_BYTES);
                c.phase2_max_entries = 10_000;
                c
            }
            // The paper's fixed 80 KB, whatever the dataset size.
            Kind::Ds2oTight => base,
        }
    }
}

/// Generates the workload's dataset for `seed`.
#[must_use]
pub fn generate(w: Workload, seed: u64, per_cluster: Option<usize>) -> Dataset {
    Dataset::generate(&w.spec(seed, per_cluster))
}

/// FNV-1a over the point count, every coordinate's bits and every
/// ground-truth label: identifies a dataset exactly.
#[must_use]
pub fn checksum(points: &[Point], labels: &[Option<usize>]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(points.len() as u64);
    for p in points {
        for &c in p.coords() {
            eat(c.to_bits());
        }
    }
    for l in labels {
        eat(l.map_or(u64::MAX, |v| v as u64));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolve() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name).unwrap().kind, w.kind);
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn threads_are_explicit_whatever_the_environment() {
        for w in WORKLOADS {
            assert_eq!(w.config(1000).threads, w.threads());
        }
        assert_eq!(Workload::by_name("ds1_par2_1m").unwrap().threads(), 2);
    }

    #[test]
    fn benchmark_sizes() {
        let ds1 = Workload::by_name("ds1_scan_1m").unwrap().spec(42, None);
        assert_eq!(ds1.expected_points(), 1_000_000);
        let ds2o = Workload::by_name("ds2o_tight_1m").unwrap().spec(42, None);
        assert_eq!(ds2o.expected_points(), 1_000_000);
        assert_eq!(ds2o.ordering, birch_datagen::Ordering::Ordered);
        let tight = Workload::by_name("ds2o_tight_1m")
            .unwrap()
            .config(1_000_000);
        assert_eq!(tight.memory_bytes, 80 * 1024);
        let ds3 = Workload::by_name("ds3_global_hac").unwrap().spec(42, None);
        assert_eq!(ds3, presets::ds3(42));
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        for w in WORKLOADS {
            let a = generate(w, 7, Some(50));
            let b = generate(w, 7, Some(50));
            let c = generate(w, 8, Some(50));
            assert_eq!(a.points.len(), b.points.len(), "{}", w.name);
            let sum = |d: &Dataset| checksum(&d.points, &d.labels);
            assert_eq!(sum(&a), sum(&b), "{}", w.name);
            assert_ne!(sum(&a), sum(&c), "{}", w.name);
        }
    }
}
