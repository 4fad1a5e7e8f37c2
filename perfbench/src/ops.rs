//! Failed-operation accounting and output checks.
//!
//! Every fit and predict pass runs under `catch_unwind`, so a panicking
//! input shows up as a failed operation in the result rather than as an
//! aborted run. An operation fails if it panics, returns an error, or its
//! output fails a check.

use birch_core::Cf;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Attempted/failed operation counts, plus the first few failure reasons.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that panicked, returned `Err`, or failed a check.
    pub failed: u64,
    /// Reasons for the first failures (capped, for the log).
    pub reasons: Vec<String>,
}

impl Ops {
    /// Runs one operation, counting it. Returns its value on success.
    pub fn run<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(r) => r,
            Err(payload) => Err(format!("panicked: {}", panic_message(&*payload))),
        };
        match outcome {
            Ok(v) => Some(v),
            Err(reason) => {
                self.failed += 1;
                if self.reasons.len() < 8 {
                    self.reasons.push(format!("{what}: {reason}"));
                }
                None
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Checks a fit's output against its input of `n` points: one label per
/// point, every label below the cluster count, and CF additivity — the
/// clusters' `N` plus the discarded (unlabelled) points is exactly `n`.
///
/// # Errors
///
/// Describes the first check that fails.
pub fn check_fit(
    clusters: &[Cf],
    labels: Option<&[Option<usize>]>,
    n: usize,
) -> Result<(), String> {
    let labels = labels.ok_or("no labels (Phase 4 did not run)")?;
    if labels.len() != n {
        return Err(format!("{} labels for {n} points", labels.len()));
    }
    check_labels(labels.iter().flatten().copied(), clusters.len())?;
    let discarded = labels.iter().filter(|l| l.is_none()).count();
    let clustered: f64 = clusters.iter().map(Cf::n).sum();
    if clustered + discarded as f64 != n as f64 {
        return Err(format!(
            "cluster N {clustered} + {discarded} discarded != {n} points"
        ));
    }
    Ok(())
}

/// Checks that every label indexes one of `k` clusters.
///
/// # Errors
///
/// Names the first out-of-range label.
pub fn check_labels(labels: impl IntoIterator<Item = usize>, k: usize) -> Result<(), String> {
    match labels.into_iter().find(|&l| l >= k) {
        Some(l) => Err(format!("label {l} >= cluster count {k}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birch_core::Point;

    #[test]
    fn panics_and_errors_count_as_failures() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("ok", || Ok(3)), Some(3));
        assert_eq!(ops.run("err", || Err::<(), _>("bad".to_string())), None);
        let panicked: Option<()> = ops.run("panic", || panic!("boom"));
        assert!(panicked.is_none());
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert!(ops.reasons[1].contains("boom"), "{:?}", ops.reasons);
    }

    #[test]
    fn fit_checks() {
        let a = Cf::from_point(&Point::xy(0.0, 0.0));
        let mut b = Cf::from_point(&Point::xy(5.0, 5.0));
        b.add_point(&Point::xy(5.0, 6.0));
        let clusters = [a, b];
        let good = [Some(0), Some(1), Some(1), None];
        assert!(check_fit(&clusters, Some(&good), 4).is_ok());
        assert!(check_fit(&clusters, None, 4).is_err());
        let lost = [Some(0), Some(1), Some(1), Some(1)];
        assert!(check_fit(&clusters, Some(&lost), 4).is_err(), "N mismatch");
        assert!(check_fit(&clusters, Some(&good), 5).is_err(), "length");
        let out_of_range = [Some(0), Some(2), Some(1), None];
        assert!(check_fit(&clusters, Some(&out_of_range), 4).is_err());
        assert!(check_labels([0, 1, 1], 2).is_ok());
        assert!(check_labels([0, 2], 2).is_err());
    }
}
