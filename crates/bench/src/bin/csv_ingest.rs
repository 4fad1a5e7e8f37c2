//! CSV ingest throughput: `birch_datagen::csv::read_points` on the files
//! `birch-cli cluster` and perfbench read.
//!
//! Writes labelled CSVs to a temporary directory, one at a time — DS1 (the
//! paper's Table 3 grid, randomized order) at 10k, 25k, 100k and 1M
//! points, and 50k dim-32 points, which parse 16× more floats per row.
//! The 10k file (0.4 MB) is under `read_points`' chunking floor and the
//! 25k one (1.0 MB) is over it. Times `read_points` on each and prints the
//! median of `--reps` reads (default 5) as rows/s and MB/s, and the peak
//! RSS of those reads, each row followed by a
//! `# METRICS csv_ingest/<file> <json>` line. The peak is reset before
//! each file's reads (Linux `/proc/self/clear_refs`), so it covers that
//! file's reads and the points held to check them, plus whatever the
//! allocator kept from earlier files. Every read must return the points
//! and labels that were written, bit for bit, or the bin panics.
//!
//! ```text
//! cargo run --release -p birch-bench --bin csv_ingest [-- --reps 5 --seed 42]
//! ```

use birch_bench::{print_header, print_row};
use birch_core::Point;
use birch_datagen::csv::{read_points, write_points};
use birch_datagen::{presets, Dataset};
use std::path::Path;
use std::time::Instant;

/// xorshift64 — deterministic dim-32 input without external RNG crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A file's points and labels.
type Input = (Vec<Point>, Vec<Option<usize>>);

/// The file names, in order of peak RSS, so a file's peak is not inflated
/// by memory the allocator kept from a larger one.
const FILES: [&str; 5] = ["ds1_10k", "ds1_25k", "ds1_100k", "dim32_50k", "ds1_1m"];

/// File `name`'s points and labels. Points per file are fixed so every
/// run measures the same bytes.
fn input(name: &str, seed: u64) -> Input {
    let ds1 = |per_cluster| {
        let ds = Dataset::generate(&presets::ds1_scaled_n(seed, per_cluster));
        (ds.points, ds.labels)
    };
    match name {
        "ds1_10k" => ds1(100),
        "ds1_25k" => ds1(250),
        "ds1_100k" => ds1(1_000),
        "ds1_1m" => ds1(10_000),
        "dim32_50k" => {
            let mut rng = Rng(seed | 1);
            let points: Vec<Point> = (0..50_000)
                .map(|_| {
                    Point::new(
                        (0..32)
                            .map(|_| (rng.next() >> 11) as f64 / (1u64 << 53) as f64 * 100.0)
                            .collect(),
                    )
                })
                .collect();
            let labels = (0..points.len()).map(|i| Some(i % 100)).collect();
            (points, labels)
        }
        other => unreachable!("no input {other}"),
    }
}

/// Peak resident set size of this process (Linux `VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Resets `VmHWM` to the current resident set size.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM");
}

/// Table column widths.
const WIDTHS: [usize; 7] = [10, 9, 8, 8, 12, 8, 8];

fn same_bits(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            p.iter()
                .map(|c| c.to_bits())
                .eq(q.iter().map(|c| c.to_bits()))
        })
}

fn main() {
    let (mut reps, mut seed) = (5usize, 42u64);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--reps" => reps = value.parse().expect("--reps must be an integer"),
            "--seed" => seed = value.parse().expect("--seed must be an integer"),
            other => panic!("unknown flag {other:?}"),
        }
    }
    assert!(reps > 0, "--reps must be positive");
    let dir = std::env::temp_dir().join(format!("birch-csv-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!("read_points, median of {reps} reads, {cpus} CPU(s)\n");
    print_header(
        &["file", "rows", "MB", "read-s", "rows/s", "MB/s", "peak-MB"],
        &WIDTHS,
    );
    for name in FILES {
        let (points, labels) = input(name, seed);
        let path = dir.join(format!("{name}.csv"));
        write_points(&path, &points, Some(&labels)).expect("write CSV");
        measure(name, &path, (&points, &labels), reps);
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir(&dir).ok();
}

fn measure(name: &str, path: &Path, want: (&[Point], &[Option<usize>]), reps: usize) {
    let bytes = std::fs::metadata(path).expect("CSV metadata").len();
    let mut times = Vec::with_capacity(reps);
    reset_peak_rss();
    for _ in 0..reps {
        let start = Instant::now();
        let (points, labels) = read_points(path, true).expect("read CSV");
        times.push(start.elapsed().as_secs_f64());
        assert!(same_bits(&points, want.0), "{name}: points changed");
        assert_eq!(labels.as_deref(), Some(want.1), "{name}: labels changed");
    }
    let peak_mb = peak_rss_mb();
    times.sort_by(f64::total_cmp);
    let read_s = times[reps / 2];
    let rows = want.0.len();
    let rows_per_s = rows as f64 / read_s;
    let mb_per_s = bytes as f64 / 1e6 / read_s;
    print_row(
        &[
            name.into(),
            rows.to_string(),
            format!("{:.1}", bytes as f64 / 1e6),
            format!("{read_s:.4}"),
            format!("{rows_per_s:.0}"),
            format!("{mb_per_s:.1}"),
            format!("{peak_mb:.1}"),
        ],
        &WIDTHS,
    );
    println!(
        "# METRICS csv_ingest/{name} {{\"rows\":{rows},\"bytes\":{bytes},\"read_s\":{read_s:.6},\
         \"rows_per_s\":{rows_per_s:.1},\"mb_per_s\":{mb_per_s:.3},\"peak_rss_mb\":{peak_mb:.2}}}"
    );
}
