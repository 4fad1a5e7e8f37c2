//! CF numerical-stability sweep: the paper's classic (N, LS, SS) formulas
//! (the `cf::classic` reference) vs the stable (N, μ, SSE) CF the tree
//! stores, against a 128-bit ground truth.
//!
//! For each dim ∈ {2, 8, 32} × coordinate offset ∈ {0, 1e4, 1e8}, two
//! tight clusters are generated with *dyadic* spreads (exact multiples
//! of 2⁻¹¹), so the shifted cloud is an exact translate of the origin
//! cloud and every reported error is CF-algebra arithmetic, not input
//! rounding. Both forms ingest the identical points; their radius and
//! D4 (between the two clusters) are compared to a double-double
//! recomputation from the realized points.
//!
//! The committed `BENCH_cf_stability.json` is the evidence pair for the
//! cancellation bug: classic's relative error explodes (or clamps to
//! exactly 0, which is reported as error 1) by offset 1e8, while stable
//! stays ≤ 1e-9 across the whole sweep — asserted at the end of the run.
//!
//! ```text
//! cargo run --release -p birch-bench --bin cf_stability \
//!     [-- --seed 42 --out BENCH_cf_stability.json]
//! ```

use birch_core::cf::{classic, stable};
use birch_core::quad::{dd_mean, dd_sq_deviation, Dd};
use birch_core::DistanceMetric;

const DIMS: [usize; 3] = [2, 8, 32];
const OFFSETS: [f64; 3] = [0.0, 1e4, 1e8];
const PER_CLUSTER: usize = 64;
/// Dyadic spread quantum (2⁻¹¹): an exact multiple of ulp(1e8) = 2⁻²⁶,
/// so `offset + k·QUANTUM` is exactly representable at every offset.
const QUANTUM: f64 = 4.882_812_5e-4;
/// Inter-cluster gap along every axis (2¹, trivially dyadic).
const GAP: f64 = 2.0;

/// xorshift64 — deterministic input without external RNG crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A point cloud whose every coordinate is `offset + k·2⁻¹¹ (+ GAP)`
/// with k < 64 — spreads of ~0.03, exactly translatable.
fn cluster(dim: usize, offset: f64, shifted_by_gap: bool, rng: &mut Rng) -> Vec<Vec<f64>> {
    let base = if shifted_by_gap { offset + GAP } else { offset };
    (0..PER_CLUSTER)
        .map(|_| {
            (0..dim)
                .map(|_| base + (rng.next() % 64) as f64 * QUANTUM)
                .collect()
        })
        .collect()
}

/// Ground truth in double-double from the realized points: per-cluster
/// radius and the D4 distance between the two clusters.
fn dd_truth(a: &[Vec<f64>], b: &[Vec<f64>]) -> (f64, f64) {
    let dim = a[0].len();
    let na = a.len() as f64;
    let nb = b.len() as f64;
    let mean_a = dd_mean(a.iter().map(Vec::as_slice), dim);
    let mean_b = dd_mean(b.iter().map(Vec::as_slice), dim);
    let sq_dev = dd_sq_deviation(a.iter().map(Vec::as_slice), &mean_a);
    let radius = sq_dev.div_f64(na).to_f64().max(0.0).sqrt();
    let mut dmu_sq = Dd::ZERO;
    for d in 0..dim {
        let delta = mean_a[d] - mean_b[d];
        dmu_sq = dmu_sq + delta * delta;
    }
    let d4 = dmu_sq.mul_f64(na * nb / (na + nb)).to_f64().max(0.0).sqrt();
    (radius, d4)
}

/// Relative error, treating an exact-zero estimate of a nonzero truth
/// (the `.max(0.0)` clamp swallowing a negative cancellation residue)
/// as total loss (error 1) rather than dividing into it.
fn rel_err(estimate: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        return estimate.abs();
    }
    (estimate - truth).abs() / truth
}

struct Row {
    dim: usize,
    offset: f64,
    stat: &'static str,
    truth: f64,
    classic_err: f64,
    stable_err: f64,
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        String::from("null")
    }
}

fn main() {
    let mut seed = 42u64;
    let mut out_path = String::from("BENCH_cf_stability.json");
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
            "--out" => {
                out_path = it.next().expect("--out needs a value");
            }
            "--help" | "-h" => {
                eprintln!("usage: cf_stability [--seed n] [--out f]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?} (try --help)"),
        }
    }

    println!(
        "CF stability sweep: dims {DIMS:?} x offsets {OFFSETS:?}, \
         {PER_CLUSTER} pts/cluster\n"
    );
    println!(
        "{:>4} {:>8} {:>7} {:>13} {:>13} {:>13}",
        "dim", "offset", "stat", "truth", "classic-err", "stable-err"
    );

    let mut rows: Vec<Row> = Vec::new();
    for &dim in &DIMS {
        for &offset in &OFFSETS {
            // Same spread pattern at every offset (seed ignores the
            // offset), so each sweep row is an exact translate of its
            // offset-0 sibling.
            let mut rng = Rng(seed ^ ((dim as u64) << 8));
            let pts_a = cluster(dim, offset, false, &mut rng);
            let pts_b = cluster(dim, offset, true, &mut rng);

            let mut ca = classic::Cf::empty(dim);
            let mut sa = stable::Cf::empty(dim);
            for p in &pts_a {
                ca.add_point(&birch_core::Point::new(p.clone()));
                sa.add_point(&birch_core::Point::new(p.clone()));
            }
            let mut cb = classic::Cf::empty(dim);
            let mut sb = stable::Cf::empty(dim);
            for p in &pts_b {
                cb.add_point(&birch_core::Point::new(p.clone()));
                sb.add_point(&birch_core::Point::new(p.clone()));
            }

            let (radius_truth, d4_truth) = dd_truth(&pts_a, &pts_b);
            let classic_d4 = ca.distance(DistanceMetric::D4, &cb);
            let stable_d4 = DistanceMetric::D4.distance(&sa, &sb);

            for (stat, truth, c_est, s_est) in [
                ("radius", radius_truth, ca.radius(), sa.radius()),
                ("d4", d4_truth, classic_d4, stable_d4),
            ] {
                let row = Row {
                    dim,
                    offset,
                    stat,
                    truth,
                    classic_err: rel_err(c_est, truth),
                    stable_err: rel_err(s_est, truth),
                };
                println!(
                    "{:>4} {:>8.0e} {:>7} {:>13.6e} {:>13.3e} {:>13.3e}",
                    row.dim, row.offset, row.stat, row.truth, row.classic_err, row.stable_err
                );
                rows.push(row);
            }
        }
    }

    // `default_backend` names the form `birch_core::Cf` stores, the one
    // the claims defend.
    let mut json = format!(
        "{{\"bench\":\"cf_stability\",\"seed\":{seed},\
         \"default_backend\":\"stable\",\
         \"points_per_cluster\":{PER_CLUSTER},\"gap\":{GAP},\
         \"spread_quantum\":{QUANTUM},\"rows\":["
    );
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"dim\":{},\"offset\":{},\"stat\":\"{}\",\"truth\":{},\
             \"classic_rel_err\":{},\"stable_rel_err\":{}}}",
            r.dim,
            json_f64(r.offset),
            r.stat,
            json_f64(r.truth),
            json_f64(r.classic_err),
            json_f64(r.stable_err),
        ));
    }
    json.push_str("]}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nresults written to {out_path}");

    // The committed claims, enforced so a regression can't silently
    // rewrite the evidence: stable holds 1e-9 everywhere; classic has
    // visibly lost the statistic (>= 1e-2 relative, which includes the
    // exact-0 collapse reported as error 1) at offset 1e8.
    for r in &rows {
        assert!(
            r.stable_err <= 1e-9,
            "stable backend drifted: dim {} offset {:e} {} rel err {:e}",
            r.dim,
            r.offset,
            r.stat,
            r.stable_err
        );
        if r.offset == 1e8 {
            assert!(
                r.classic_err >= 1e-2,
                "classic reference unexpectedly survived dim {} offset {:e} {} (rel err {:e})",
                r.dim,
                r.offset,
                r.stat,
                r.classic_err
            );
        }
    }
    println!("claims hold: stable <= 1e-9 everywhere; classic >= 1e-2 at offset 1e8");
}
