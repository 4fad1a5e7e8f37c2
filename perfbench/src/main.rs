//! End-to-end BIRCH benchmark.
//!
//! ```text
//! birch-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's dataset from the seed (in a child process, so
//! the generator's memory stays out of the measured peak RSS), writes it
//! as CSV, then times the public API from outside: `read_points`, then
//! `Birch::fit`, then `BirchModel::predict` over every point. With
//! `--trace 1` it instead alternates untraced fits with the staged,
//! span-recording chain of [`trace::traced_fit`] and reports per-layer
//! numbers. The last line of standard output is the result as JSON.
//! See `README.md` for the workloads and every metric.

mod ops;
mod stats;
mod trace;
mod workload;

use birch_core::{Birch, BirchConfig, BirchModel, Cf, Point};
use birch_datagen::csv::{read_points, write_points};
use birch_eval::quality::{adjusted_rand_index, weighted_average_diameter};
use ops::{check_fit, check_labels, Ops};
use stats::{median, ratio};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::{traced_fit, Tracer};
use workload::{checksum, Workload};

/// The end-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: [(&str, &str); 6] = [
    ("points_per_s", "1/s"),
    ("setup_s", "s"),
    ("predict_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("quality_d", "dist"),
    ("ari", "ratio"),
];

/// The per-layer metrics (`--trace 1`): name, unit, and whether the value
/// is a deterministic count that must repeat exactly for a fixed seed.
const PER_LAYER: [(&str, &str, bool); 40] = [
    ("csv.read_s", "s", false),
    ("csv.mb_per_s", "MB/s", false),
    ("phase1.wall_s", "s", false),
    ("phase1.insert_ns_p50", "ns", false),
    ("phase1.insert_ns_p99", "ns", false),
    ("phase1.distance_calls", "count", true),
    ("phase1.distance_calls_per_point", "count", true),
    ("phase1.splits", "count", true),
    ("phase1.merge_refinements", "count", true),
    ("phase1.leaf_entries", "count", true),
    ("mem.node_arena_peak_bytes", "bytes", true),
    ("mem.highwater_bytes", "bytes", true),
    ("rebuild.count", "count", true),
    ("rebuild.stall_s", "s", false),
    ("rebuild.stall_max_s", "s", false),
    ("threshold.final", "dist", true),
    ("outlier.spilled", "count", true),
    ("outlier.reabsorbed", "count", true),
    ("outlier.discarded", "count", true),
    ("outlier.disk_bytes_written", "bytes", true),
    ("parallel.wall_s", "s", false),
    ("parallel.merge_s", "s", false),
    ("parallel.shard_wall_max_s", "s", false),
    ("parallel.shard_skew", "ratio", false),
    ("parallel.rebuilds", "count", true),
    ("parallel.leaf_entries", "count", true),
    ("phase2.wall_s", "s", false),
    ("phase2.entries_out", "count", true),
    ("phase3.wall_s", "s", false),
    ("phase3.entries_in", "count", true),
    ("phase3.pairs_evaluated", "count", true),
    ("phase3.pairs_pruned", "count", true),
    ("phase3.prune_ratio", "ratio", true),
    ("phase3.peak_candidate_bytes", "bytes", true),
    ("phase4.wall_s", "s", false),
    ("phase4.points_per_s", "1/s", false),
    ("phase4.discarded", "count", true),
    ("trace.overhead_frac", "ratio", false),
    ("fit.traced_wall_s", "s", false),
    ("fit.untraced_wall_s", "s", false),
];

/// CSV reads per run: at least this many, for at least `SETUP_MIN`;
/// `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN: Duration = Duration::from_secs(2);

/// Predict passes after each fit: at least one, for at least this long.
const PREDICT_MIN: Duration = Duration::from_millis(250);

/// Fits per run at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: birch-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Child mode: write the dataset to this CSV and print `n checksum`.
    emit_csv: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut emit_csv) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--emit-csv" => emit_csv = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        emit_csv,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.emit_csv {
        Some(path) => emit_csv(&args, path),
        None => run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("birch-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Child mode: generate, write the CSV, report size and checksum.
fn emit_csv(args: &Args, path: &Path) -> Result<(), String> {
    let ds = workload::generate(args.workload, args.seed, None);
    write_points(path, &ds.points, Some(&ds.labels)).map_err(|e| e.to_string())?;
    println!("{} {}", ds.points.len(), checksum(&ds.points, &ds.labels));
    Ok(())
}

/// Removes the generated CSV however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One run's verdict and figures.
#[derive(Default)]
struct Outcome {
    ops: Ops,
    /// Check failures that are not a single operation's (determinism,
    /// traced-vs-untraced identity, CSV round trip).
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# workload {} seed {} host_cpus {host_cpus}",
        w.name, args.seed
    );
    if host_cpus < w.threads() {
        println!(
            "# UNMEASURABLE: {} runs {} Phase-1 threads on {host_cpus} CPU(s); \
             its timings measure time-slicing, not parallel speed-up",
            w.name,
            w.threads()
        );
    }

    // Generated data lives next to the executable, inside the build
    // directory, and is removed when the run ends.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let build_dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    let data_dir = build_dir.join("perfbench-data");
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let csv = RemoveOnDrop(data_dir.join(format!(
        "{}-{}-{}.csv",
        w.name,
        args.seed,
        std::process::id()
    )));
    let child = Command::new(&exe)
        .args(["--emit-csv", &csv.0.to_string_lossy(), "--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("spawning the generator: {e}"))?;
    if !child.status.success() {
        return Err(format!(
            "generator failed: {}",
            String::from_utf8_lossy(&child.stderr)
        ));
    }
    let reply = String::from_utf8_lossy(&child.stdout);
    let mut fields = reply.split_whitespace().map(str::parse::<u64>);
    let (Some(Ok(n_generated)), Some(Ok(sum_generated))) = (fields.next(), fields.next()) else {
        return Err(format!("generator replied {reply:?}"));
    };

    let mut out = Outcome::default();
    let csv_bytes = std::fs::metadata(&csv.0).map_err(|e| e.to_string())?.len();
    let mut read_s = Vec::new();
    let mut loaded = None;
    let setup_start = Instant::now();
    while read_s.len() < SETUP_REPS || setup_start.elapsed() < SETUP_MIN {
        drop(loaded.take());
        let start = Instant::now();
        let pts = read_points(&csv.0, true).map_err(|e| format!("read_points: {e}"))?;
        read_s.push(start.elapsed().as_secs_f64());
        loaded = Some(pts);
    }
    let (points, truth) = loaded.expect("SETUP_REPS > 0");
    let truth = truth.expect("read with labels");
    drop(csv);
    if points.len() as u64 != n_generated || checksum(&points, &truth) != sum_generated {
        out.problems
            .push("CSV round trip changed the points".to_string());
    }
    println!("# input: {} points, {csv_bytes} CSV bytes", points.len());
    print_samples("read_s", &read_s);
    let setup_s = median(&read_s);
    let config = w.config(points.len());
    let budget = Duration::from_secs(args.seconds);

    if args.trace {
        measure_traced(args, &config, &points, budget, &build_dir, &mut out);
        let mb_per_s = ratio(csv_bytes as f64 / 1e6, setup_s);
        out.metrics
            .extend([("csv.read_s", setup_s), ("csv.mb_per_s", mb_per_s)]);
    } else {
        measure(&config, &points, &truth, budget, &mut out);
        out.metrics.push(("setup_s", setup_s));
        out.metrics.push(("peak_rss_mb", peak_rss_mb()?));
    }
    report(args, out);
    Ok(())
}

/// Exact identity of a fit's output: every cluster CF's bits and every
/// label.
fn fingerprint(clusters: &[Cf], labels: Option<&[Option<usize>]>) -> u64 {
    let mut words = Vec::new();
    for c in clusters {
        c.to_words(&mut words);
    }
    words.push(u64::MAX);
    words.extend(
        labels
            .unwrap_or(&[])
            .iter()
            .map(|l| l.map_or(u64::MAX - 1, |v| v as u64)),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn model_cfs(model: &BirchModel) -> Vec<Cf> {
    model.clusters().iter().map(|c| c.cf.clone()).collect()
}

/// One untraced `Birch::fit`, checked. Returns the model and its wall.
fn checked_fit(ops: &mut Ops, config: &BirchConfig, points: &[Point]) -> Option<(BirchModel, f64)> {
    ops.run("fit", || {
        let start = Instant::now();
        let model = Birch::new(config.clone())
            .fit(points)
            .map_err(|e| e.to_string())?;
        let wall = start.elapsed().as_secs_f64();
        check_fit(&model_cfs(&model), model.labels(), points.len())?;
        Ok((model, wall))
    })
}

/// Decides whether one more repetition fits the run's time budget,
/// judging by the mean time of those so far; at least `MIN_REPS` run.
struct Deadline {
    start: Instant,
    budget: Duration,
    reps: u32,
}

impl Deadline {
    fn new(budget: Duration) -> Self {
        Self {
            start: Instant::now(),
            budget,
            reps: 0,
        }
    }

    fn another(&mut self) -> bool {
        let elapsed = self.start.elapsed();
        let per_rep = elapsed.checked_div(self.reps).unwrap_or_default();
        let go = (self.reps as usize) < MIN_REPS || elapsed + per_rep <= self.budget;
        self.reps += u32::from(go);
        go
    }
}

/// Notes a determinism break: `got` differs from the first value seen.
fn same_as_first(first: &mut Option<u64>, got: u64, what: &str, problems: &mut Vec<String>) {
    match *first {
        None => *first = Some(got),
        Some(f) if f != got => problems.push(format!("{what} differs between repetitions")),
        Some(_) => {}
    }
}

/// The end-to-end run: fit then predict, repeated for `budget`.
fn measure(
    config: &BirchConfig,
    points: &[Point],
    truth: &[Option<usize>],
    budget: Duration,
    out: &mut Outcome,
) {
    let n = points.len() as f64;
    let (mut fit_s, mut predict_s) = (Vec::new(), Vec::new());
    let (mut fit_id, mut predict_id) = (None, None);
    let mut deadline = Deadline::new(budget);
    while deadline.another() {
        let Some((model, wall)) = checked_fit(&mut out.ops, config, points) else {
            continue;
        };
        fit_s.push(wall);
        let id = fingerprint(&model_cfs(&model), model.labels());
        if fit_id.is_none() {
            let cfs = model_cfs(&model);
            out.metrics
                .push(("quality_d", weighted_average_diameter(&cfs)));
            let found = model.labels().expect("checked: labels present");
            out.metrics.push(("ari", adjusted_rand_index(found, truth)));
        }
        same_as_first(&mut fit_id, id, "fit output", &mut out.problems);
        let mut spent = 0.0;
        while spent < PREDICT_MIN.as_secs_f64() {
            let predicted = out.ops.run("predict", || {
                let start = Instant::now();
                let labels: Vec<usize> = points.iter().map(|p| model.predict(p)).collect();
                let wall = start.elapsed().as_secs_f64();
                check_labels(labels.iter().copied(), model.clusters().len())?;
                if labels.len() != points.len() {
                    return Err(format!("{} predictions for {n} points", labels.len()));
                }
                let ids: Vec<Option<usize>> = labels.into_iter().map(Some).collect();
                Ok((wall, fingerprint(&[], Some(&ids))))
            });
            let Some((wall, id)) = predicted else { break };
            spent += wall;
            predict_s.push(wall);
            same_as_first(&mut predict_id, id, "predict output", &mut out.problems);
        }
    }
    print_samples("fit_s", &fit_s);
    print_samples("predict_s", &predict_s);
    out.metrics.push(("points_per_s", ratio(n, median(&fit_s))));
    out.metrics
        .push(("predict_per_s", ratio(n, median(&predict_s))));
}

/// Logs a timing's samples with their count and median.
fn print_samples(what: &str, xs: &[f64]) {
    let list: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    println!(
        "# {what}: n={} median={:.4} [{}]",
        xs.len(),
        median(xs),
        list.join(" ")
    );
}

/// The traced run: untraced and traced fits alternate for `budget`; the
/// per-layer figures are medians over the traced fits.
fn measure_traced(
    args: &Args,
    config: &BirchConfig,
    points: &[Point],
    budget: Duration,
    build_dir: &Path,
    out: &mut Outcome,
) {
    let origin = Instant::now();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut tracers: Vec<Tracer> = Vec::new();
    let mut reference = None;
    let mut reps = 0;
    let mut deadline = Deadline::new(budget);
    while deadline.another() {
        // Alternate which side runs first, so drift hits both alike.
        for traced in [reps % 2 == 1, reps % 2 == 0] {
            if traced {
                let id = args.seed * 1000 + reps as u64;
                let got = out.ops.run("traced fit", || {
                    let mut t = Tracer::new(id, origin);
                    let f = traced_fit(config, points, &mut t)?;
                    check_fit(&f.clusters, f.labels.as_deref(), points.len())?;
                    Ok((
                        fingerprint(&f.clusters, f.labels.as_deref()),
                        f.wall,
                        f.metrics,
                        t,
                    ))
                });
                if let Some((id, wall, metrics, t)) = got {
                    same_as_first(
                        &mut reference,
                        id,
                        "fit output (traced chain or Birch::fit)",
                        &mut out.problems,
                    );
                    traced_s.push(wall.as_secs_f64());
                    samples.push(metrics);
                    tracers.push(t);
                }
            } else if let Some((model, wall)) = checked_fit(&mut out.ops, config, points) {
                let id = fingerprint(&model_cfs(&model), model.labels());
                same_as_first(
                    &mut reference,
                    id,
                    "fit output (traced chain or Birch::fit)",
                    &mut out.problems,
                );
                untraced_s.push(wall);
            }
        }
        reps += 1;
    }

    for &(name, _, pinned) in &PER_LAYER {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|m| m.iter().find(|(n, _)| *n == name).map(|&(_, v)| v))
            .collect();
        if values.is_empty() {
            continue;
        }
        if pinned && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
            out.problems
                .push(format!("{name} differs between repetitions"));
        }
        out.metrics.push((name, median(&values)));
    }
    let (traced, untraced) = (median(&traced_s), median(&untraced_s));
    out.metrics.extend([
        ("trace.overhead_frac", ratio(traced, untraced) - 1.0),
        ("fit.traced_wall_s", traced),
        ("fit.untraced_wall_s", untraced),
    ]);
    if let Some(t) = tracers.first() {
        print_self_times(t);
    }
    write_spans(args, build_dir, &tracers);
}

/// Prints each span of one traced fit with its self time.
fn print_self_times(t: &Tracer) {
    println!("# span                      total_ms     self_ms");
    let mut stalls = (0usize, Duration::ZERO);
    for s in t.spans() {
        if s.name == "rebuild_stall" {
            stalls = (stalls.0 + 1, stalls.1 + t.duration(s.id));
            continue;
        }
        println!(
            "# {:<24} {:>10.3} {:>11.3}",
            s.name,
            t.duration(s.id).as_secs_f64() * 1e3,
            t.self_time(s.id).as_secs_f64() * 1e3
        );
    }
    println!(
        "# rebuild_stall x{:<15} {:>10.3}",
        stalls.0,
        stalls.1.as_secs_f64() * 1e3
    );
}

/// Writes every traced fit's spans as JSON lines into the build directory.
fn write_spans(args: &Args, build_dir: &Path, tracers: &[Tracer]) {
    let mut text = String::new();
    for t in tracers {
        t.write_jsonl(&mut text);
    }
    let dir = build_dir.join("perfbench-traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("# could not write spans to {}: {e}", path.display()),
    }
}

/// Peak resident set size of this process (Linux `VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Prints the metric table and, last, the one-line JSON result.
fn report(args: &Args, mut out: Outcome) {
    let table: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut json = String::new();
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) if v.is_finite() => v,
            Some(_) => {
                out.problems.push(format!("{name} is not finite"));
                0.0
            }
            None => {
                out.problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        println!("# {name:<34} {value:>20} {unit}");
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    for r in out.ops.reasons.iter().chain(&out.problems) {
        println!("# FAILED CHECK: {r}");
    }
    let correct = out.ops.failed == 0 && out.problems.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        out.ops.attempted, out.ops.failed
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::WORKLOADS;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(ToString::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "ds1_scan_1m",
            "--seed",
            "3",
            "--seconds",
            "7",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("ds1_scan_1m", 3, 7, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "ds1_scan_1m", "--seed"]).is_err());
        assert!(args(&["--workload", "ds1_scan_1m", "--seed", "1", "--trace", "2"]).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    /// For a fixed seed the traced chain reproduces `Birch::fit` bit for
    /// bit, and the pinned counters and quality figures repeat exactly.
    #[test]
    fn traced_chain_matches_fit_and_pins_repeat() {
        for w in WORKLOADS {
            let ds = workload::generate(w, 11, Some(200));
            let config = w.config(ds.points.len());
            let fit = || Birch::new(config.clone()).fit(&ds.points).unwrap();
            let (a, b) = (fit(), fit());
            let quality = |m: &BirchModel| {
                (
                    weighted_average_diameter(&model_cfs(m)).to_bits(),
                    adjusted_rand_index(m.labels().unwrap(), &ds.labels).to_bits(),
                )
            };
            assert_eq!(quality(&a), quality(&b), "{}", w.name);
            let id = fingerprint(&model_cfs(&a), a.labels());
            assert_eq!(id, fingerprint(&model_cfs(&b), b.labels()), "{}", w.name);

            let traced = || {
                let mut t = Tracer::new(0, Instant::now());
                let f = traced_fit(&config, &ds.points, &mut t).unwrap();
                assert!(t.spans().iter().any(|s| s.name == "phase3"));
                f
            };
            let (x, y) = (traced(), traced());
            assert_eq!(
                fingerprint(&x.clusters, x.labels.as_deref()),
                id,
                "{}",
                w.name
            );
            for &(name, _, pinned) in &PER_LAYER {
                if let (true, Some(vx)) = (pinned, x.metric(name)) {
                    assert_eq!(
                        vx.to_bits(),
                        y.metric(name).unwrap().to_bits(),
                        "{} {name}",
                        w.name
                    );
                }
            }
            // The reduced size still rebuilds, so the pins cover that path.
            assert!(x.metric("rebuild.count").unwrap() > 0.0, "{}", w.name);
            assert!(
                x.metric("phase3.pairs_evaluated").unwrap() > 0.0,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn tracer_self_time_excludes_children() {
        let origin = Instant::now();
        let mut t = Tracer::new(9, origin);
        let root = t.enter("root");
        let child = t.enter("child");
        std::thread::sleep(Duration::from_millis(2));
        t.exit(child);
        t.exit(root);
        assert_eq!(t.spans()[child as usize].parent, Some(root));
        assert!(t.self_time(root) < t.duration(root));
        assert_eq!(t.self_time(child), t.duration(child));
        let mut text = String::new();
        t.write_jsonl(&mut text);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"trace_id\":9"));
    }
}
