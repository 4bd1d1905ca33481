//! Order statistics for latency samples and run-to-run spreads.

/// Sorts a sample in place; latencies are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending sample, linearly
/// interpolated between the two nearest ranks. 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// Mean of an ascending sample between its 90th and 99th percentile: the
/// slow tail, without the one or two worst outliers. A plain p95 is unsteady
/// whenever it falls on the edge between two classes of a mix (5 % of the
/// operations being slow puts it there exactly); averaging across the tail
/// moves smoothly instead.
pub fn tail_mean(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    let (lo, hi) = ((n * 90).div_ceil(100), (n * 99).div_ceil(100));
    match sorted.get(lo..hi.max(lo + 1).min(n)) {
        Some(tail) if !tail.is_empty() => tail.iter().sum::<f64>() / tail.len() as f64,
        _ => sorted.last().copied().unwrap_or(0.0),
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_mean_averages_p90_to_p99() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ranks 91..=99; the 100th, the outlier, is left out.
        assert_eq!(tail_mean(&v), 95.0);
        assert_eq!(tail_mean(&[1.0, 2.0, 3.0]), 3.0);
        assert_eq!(tail_mean(&[]), 0.0);
    }
}
