//! Order statistics shared by every workload: percentiles, the `_tail`
//! percentile rule, quartile spreads and the failure ratio.

/// The percentiles the `_tail` rule picks from, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond percentile `p` among `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile of an ascending slice (`NaN` when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The `_tail` rule: the highest percentile of [`TAIL_LADDER`] that
/// leaves at least [`TAIL_MIN_BEYOND`] samples beyond it when `n`
/// samples are taken. Falls back to the median for tiny samples.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(min, q1, median, q3, max)` with the quartiles computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method); fewer than two values repeat the single value.
pub fn spread(values: &[f64]) -> [f64; 5] {
    let s = sorted(values);
    match s.len() {
        0 => [f64::NAN; 5],
        1 => [s[0]; 5],
        n => {
            // Python: j = i*m // 4 clamped to [1, n-1], delta = i*m - 4j
            // (not clamped), value = (s[j-1]*(4-delta) + s[j]*delta) / 4.
            let m = n as i64 + 1;
            let quartile = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - 4 * j) as f64;
                let j = j as usize;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            [s[0], quartile(1), median(&s), quartile(3), s[n - 1]]
        }
    }
}

/// Rates over consecutive batches of `batch` completions. `done` holds
/// `(completion time in seconds from the window start, amount)`; a
/// batch's rate is its amount over the time from the previous batch's
/// last completion (the window start for the first) to its own last.
/// A final batch short of `batch` completions is left out.
pub fn batch_rates(done: &[(f64, f64)], batch: usize) -> Vec<f64> {
    let mut done = done.to_vec();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut since = 0.0;
    done.chunks_exact(batch.max(1))
        .map(|chunk| {
            let end = chunk[chunk.len() - 1].0;
            let rate = chunk.iter().map(|d| d.1).sum::<f64>() / (end - since);
            since = end;
            rate
        })
        .collect()
}

/// Operations that failed over operations attempted.
pub fn failed_ratio(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(beyond(1000, 99.9) < TAIL_MIN_BEYOND);
        // 999 samples: p99 leaves 9, so the rule steps down to p90.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 50.0);
        // Below 100 samples no percentile above the median qualifies.
        assert_eq!(tail_percentile(12), 50.0);
        for n in [20usize, 40, 100, 150, 999, 1000, 5000, 12_345] {
            let p = tail_percentile(n);
            assert!(beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            let higher = TAIL_LADDER.iter().copied().filter(|&q| q > p);
            for q in higher {
                assert!(beyond(n, q) < TAIL_MIN_BEYOND, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let [min, q1, med, q3, max] = spread(&v);
        assert_eq!((min, med, max), (1.0, 5.5, 10.0));
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(spread(&[3.0, 1.0, 2.0]), [1.0, 1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn batch_rates_divide_each_batch_by_the_time_it_spans() {
        // Completions at 1..=5 s, unordered; batches of two leave the
        // fifth out: (2 + 4) / 2 s and (6 + 8) / 2 s.
        let done = [(3.0, 6.0), (1.0, 2.0), (5.0, 10.0), (2.0, 4.0), (4.0, 8.0)];
        assert_eq!(batch_rates(&done, 2), vec![3.0, 7.0]);
        assert_eq!(batch_rates(&done, 5), vec![6.0]);
        assert!(batch_rates(&done, 6).is_empty());
    }

    #[test]
    fn failed_ratio_counts_against_attempted() {
        assert_eq!(failed_ratio(0, 10), 0.0);
        assert_eq!(failed_ratio(1, 4), 0.25);
        assert_eq!(failed_ratio(0, 0), 0.0);
    }
}
