//! Order statistics for the benchmark's reported timings.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), so the spreads this benchmark
//! prints are the ones a reader recomputes from its raw samples.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Python's formula verbatim: j = i·(n+1) div 4, clamped to
        // [1, n-1]; the remainder against the clamped j interpolates
        // (and at the ends extrapolates) between v[j-1] and v[j].
        let m = (n + 1) as i64;
        let j = (i as i64 * m / 4).clamp(1, n as i64 - 1);
        let delta = (i as i64 * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The percentiles a tail may be read at, highest last.
pub const TAIL_LADDER: [f64; 6] = [75.0, 80.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest-rank percentile `p` of `values` (the ceil(p/100·n)-th
/// smallest) and the number of samples strictly beyond its rank.
pub fn percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    let v = sorted(values);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && rank <= n).then(|| (v[rank - 1], n - rank))
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// `min_beyond` samples beyond its rank, with its value and the number
/// of samples beyond it: `(percentile, value, beyond)`. A tail read
/// from fewer samples than that is noise, so `None` when even the
/// lowest rung does not qualify.
pub fn tail(values: &[f64], min_beyond: usize) -> Option<(f64, f64, usize)> {
    TAIL_LADDER
        .iter()
        .rev()
        .filter_map(|&p| percentile(values, p).map(|(v, beyond)| (p, v, beyond)))
        .find(|&(_, _, beyond)| beyond >= min_beyond)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((90.0, 90.0, 10)));
        // 1000 samples: p99 leaves 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((99.0, 990.0, 10)));
        // 250 samples: p95 leaves 12 beyond (rank 238), p99 only 2.
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((95.0, 238.0, 12)));
    }

    #[test]
    fn tail_steps_down_the_ladder_and_gives_up_below_it() {
        // 60 samples: p80 leaves 12 beyond, p90 only 6.
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((80.0, 48.0, 12)));
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v, 10), None);
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some((10.0, 10)));
        assert_eq!(percentile(&v, 95.0), Some((19.0, 1)));
        assert_eq!(percentile(&v, 100.0), Some((20.0, 0)));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
