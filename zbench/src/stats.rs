//! Order statistics over timing samples.

/// The median of `xs` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`. With fewer than twenty samples no percentile
/// above the median has ten beyond it, and the maximum is reported as
/// percentile 100.
pub fn high_percentile(xs: &[f64]) -> (u32, f64) {
    let n = xs.len();
    if n < 20 {
        return (100, quantile(xs, 1.0));
    }
    let p = ((1.0 - 10.0 / n as f64) * 100.0).floor() as u32;
    (p, quantile(xs, p as f64 / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = high_percentile(&xs);
        assert_eq!(p, 90);
        assert!((v - 90.1).abs() < 1e-9);
        assert_eq!(high_percentile(&[1.0, 5.0, 2.0]), (100, 5.0));
    }
}
