//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0.0 for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `xs`, reordering `xs` in
/// place (a selection, not a full sort). Returns 0 for an empty slice.
#[must_use]
pub fn percentile<T: Copy + Ord + Default>(xs: &mut [T], q: f64) -> T {
    if xs.is_empty() {
        return T::default();
    }
    let rank = ((q / 100.0) * xs.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, xs.len()) - 1;
    *xs.select_nth_unstable(idx).1
}

/// `num / den`, or 0 when `den` is 0 (a ratio over work that never ran).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut v, 0.1), 1);
        let mut one = vec![42u32];
        assert_eq!(percentile(&mut one, 99.0), 42);
        let mut none: Vec<u32> = Vec::new();
        assert_eq!(percentile(&mut none, 50.0), 0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
