//! Slice, percentile and histogram arithmetic.

use esr_obs::HistogramSnapshot;
use serde::{Deserialize, Serialize};

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: f64 = 10.0;

/// One reported number. `value` is the median over slices (or the one
/// whole-run figure), `lo`/`hi` the slice quartiles, `n` the samples
/// behind it (transactions, calls or slices, per metric).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub lo: f64,
    pub hi: f64,
    pub n: u64,
}

impl Metric {
    /// A whole-run quantity with no slice spread.
    pub fn whole(value: f64, unit: &str, n: u64) -> Metric {
        Metric { value, unit: unit.to_owned(), lo: value, hi: value, n }
    }

    /// The median and quartiles of per-slice (or per-repeat) values.
    pub fn over(values: &[f64], unit: &str, n: u64) -> Metric {
        let (lo, value, hi) = quartiles(values);
        Metric { value, unit: unit.to_owned(), lo, hi, n }
    }
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive
/// method), so spreads here and in the driver agree. Fewer than two
/// values have no spread; none at all is 0.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| {
                let pos = k * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let frac = pos as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            (at(1), at(2), at(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile of `sorted`, or `None` when fewer than ten
/// samples lie beyond it (the tail is then not resolved).
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 || (n as f64) * (1.0 - q).min(q) < MIN_BEYOND {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Percentile `q` of nanosecond samples grouped by slice, in
/// microseconds: the median over slices of each slice's percentile.
/// When fewer than half the slices hold enough samples, the percentile
/// of all samples pooled stands in (with no spread); when even that is
/// unresolved, the pooled median does.
pub fn sliced_percentile_us(slices: &[Vec<u64>], q: f64) -> Metric {
    let mut pooled: Vec<u64> = slices.iter().flatten().copied().collect();
    pooled.sort_unstable();
    let n = pooled.len() as u64;
    let per_slice: Vec<f64> = slices
        .iter()
        .filter_map(|s| {
            let mut s = s.clone();
            s.sort_unstable();
            percentile(&s, q).map(|ns| ns as f64 / 1e3)
        })
        .collect();
    if !per_slice.is_empty() && per_slice.len() * 2 >= slices.len() {
        return Metric::over(&per_slice, "us", n);
    }
    let ns = percentile(&pooled, q).or_else(|| pooled.get(pooled.len() / 2).copied()).unwrap_or(0);
    Metric::whole(ns as f64 / 1e3, "us", n)
}

/// What `after` recorded that `before` had not: the histogram of a
/// measurement window cut out of a cumulative one. `max` cannot be
/// windowed and keeps `after`'s.
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut buckets = Vec::with_capacity(after.buckets.len());
    let mut earlier = before.buckets.iter().peekable();
    for &(i, n) in &after.buckets {
        while earlier.peek().is_some_and(|&&(j, _)| j < i) {
            earlier.next();
        }
        let sub = match earlier.peek() {
            Some(&&(j, m)) if j == i => m,
            _ => 0,
        };
        if n > sub {
            buckets.push((i, n - sub));
        }
    }
    HistogramSnapshot {
        count: buckets.iter().map(|&(_, n)| n).sum(),
        sum: after.sum.saturating_sub(before.sum),
        max: after.max,
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_obs::LatencyHistogram;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 0.95), Some(190));
        assert_eq!(percentile(&v, 0.50), Some(100));
        assert_eq!(percentile(&v[..199], 0.95), None);
        assert_eq!(percentile(&v[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn sliced_percentile_is_the_median_of_slice_percentiles() {
        // Three slices of 200 samples whose p95s are 190, 1190 and 2190 ns.
        let slices: Vec<Vec<u64>> =
            (0..3).map(|k| (1..=200).map(|i| i + 1000 * k).collect()).collect();
        let m = sliced_percentile_us(&slices, 0.95);
        assert_eq!((m.lo, m.value, m.hi), (0.19, 1.19, 2.19));
        assert_eq!(m.n, 600);
        // Too few samples per slice: the pooled percentile stands in.
        let thin: Vec<Vec<u64>> = (0..4).map(|k| (1..=50).map(|i| i + 50 * k).collect()).collect();
        let m = sliced_percentile_us(&thin, 0.95);
        assert_eq!((m.lo, m.value, m.hi), (0.19, 0.19, 0.19));
    }

    #[test]
    fn hist_delta_cuts_out_the_window() {
        let h = LatencyHistogram::new();
        for v in [5, 5, 70] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [5, 900, 900, 901] {
            h.record(v);
        }
        let d = hist_delta(&h.snapshot(), &before);
        assert_eq!(d.count, 4);
        assert_eq!(d.sum, 5 + 900 + 900 + 901);
        assert_eq!(d.quantile(0.25), 5);
        assert!(d.p50() >= 900);
        assert_eq!(hist_delta(&before, &before).count, 0);
    }
}
