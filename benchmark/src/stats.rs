//! Summary statistics: medians, quartiles, and the tail-percentile rule.

/// Sorted copy of `xs` (total order, so NaN cannot panic the sort).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count; 0 for none).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method — the default of
/// Python's `statistics.quantiles(xs, n=4)` — so spreads computed here
/// match the ones an outside check computes from the same values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest rank (1-based) of the `permille`-th per-mille point among `n`
/// samples, in integer arithmetic so 99.9 % of 10 000 is exactly 9 990.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `xs`, given in per mille (990 = p99).
pub fn percentile(xs: &[f64], permille: usize) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), permille) - 1]
}

/// The highest of p99.9, p99 and p90 (in per mille) that leaves at least
/// ten of `n` samples beyond it; the median (500) when none does.
pub fn tail_permille(n: usize) -> usize {
    [999, 990, 900]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
        .unwrap_or(500)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(quartiles(&[2.0]), (2.0, 2.0));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 500), 50.0);
        assert_eq!(percentile(&xs, 990), 99.0);
        assert_eq!(percentile(&xs, 1000), 100.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert_eq!(percentile(&[], 500), 0.0);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        // 1200 requests: p99 leaves 12 beyond, p99.9 only 1.
        assert_eq!(tail_permille(1200), 990);
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(999), 900);
        assert_eq!(tail_permille(10_000), 999);
        assert_eq!(tail_permille(9_999), 990);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(99), 500);
        assert_eq!(tail_permille(20), 500);
        assert_eq!(tail_permille(3), 500);
    }
}
