//! Order statistics for the reported timings.

/// Median of `xs` (mean of the middle pair for an even count); `NaN`
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it. Returns `(value, percentile, n)`, or
/// `None` below eleven samples, where no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Sorted index i has n - 1 - i samples after it; the last index that
    // keeps ten behind it is n - 11.
    let i = n - 11;
    Some((v[i], 100.0 * (i + 1) as f64 / n as f64, n))
}

/// `tail` rendered for the human report.
pub fn tail_text(xs: &[f64]) -> String {
    match tail(xs) {
        Some((v, p, n)) => format!("p{p:.1} {v:.3} ms (n={n})"),
        None => format!("n/a (n={} < 11)", xs.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples leave no tail");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // Index 0 has exactly ten samples after it.
        let (v, p, n) = tail(&eleven).unwrap();
        assert_eq!((v, n), (1.0, 11));
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (v, p, n) = tail(&thousand).unwrap();
        assert_eq!(
            (v, p, n),
            (990.0, 99.0, 1000),
            "p99 of 1000 leaves 10 beyond"
        );
        let beyond = thousand.iter().filter(|&&x| x > v).count();
        assert_eq!(beyond, 10);
    }
}
