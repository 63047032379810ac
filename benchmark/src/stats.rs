//! Percentile, segment-median and spread arithmetic.
//!
//! Every latency the benchmark reports is a *median over segments of the
//! per-segment percentile*: a measured phase is cut into equal runs of
//! consecutive samples, the percentile is taken inside each, and the median
//! of those is the figure. One slow stretch (a merge cascade, a noisy
//! neighbour) then moves one segment instead of the whole tail.

/// Samples per segment: a p99 wants ten beyond it. A phase is cut into as
/// many segments of this size as it fills (the median of fifty segment
/// percentiles is far steadier than the median of five, and one percentile
/// over everything is moved by every stall), and is one segment if it does
/// not fill two.
pub const SEGMENT_SAMPLES: usize = 1000;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `q` of the samples at or below it. `0.0` for no samples.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, q)
}

/// Median (the 0.5 nearest-rank percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A latency figure plus the evidence behind it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SegmentStat {
    /// Median over segments of the per-segment percentile.
    pub value: f64,
    /// Samples in the smallest segment (a p99 wants >= 1000 of them).
    pub samples_per_segment: usize,
    /// Number of segments actually used.
    pub segments: usize,
}

/// Cuts `samples` (in order of occurrence) into equal segments of at least
/// [`SEGMENT_SAMPLES`] samples — as many as there are (at least one) — takes
/// the `q` percentile of each and returns the median of those. A tail
/// percentile of a handful of samples is an order statistic of whatever
/// happened to land there, so segments are never smaller. The tail that does
/// not divide evenly joins the last segment.
pub fn segment_percentile(samples: &[f64], q: f64) -> SegmentStat {
    if samples.is_empty() {
        return SegmentStat::default();
    }
    let segments = (samples.len() / SEGMENT_SAMPLES).max(1);
    let len = samples.len() / segments;
    let per_segment: Vec<f64> = (0..segments)
        .map(|s| {
            let end = if s + 1 == segments {
                samples.len()
            } else {
                (s + 1) * len
            };
            percentile(&samples[s * len..end], q)
        })
        .collect();
    SegmentStat {
        value: median(&per_segment),
        samples_per_segment: len,
        segments,
    }
}

/// Median and inter-quartile spread of repeated runs of one metric, the way
/// the acceptance rule reads them: quartiles by the exclusive method (what
/// Python's `statistics.quantiles(values, n=4)` returns), spread as
/// `(q3 - q1) / median`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median of the runs.
    pub median: f64,
    /// `(q3 - q1) / median`; `0.0` with fewer than two runs.
    pub iqr_share: f64,
    /// Number of runs.
    pub n: usize,
}

/// See [`Spread`].
pub fn spread(values: &[f64]) -> Spread {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return Spread {
            median: sorted.first().copied().unwrap_or(0.0),
            iqr_share: 0.0,
            n,
        };
    }
    let quantile = |k: usize| -> f64 {
        // Exclusive method: position k(n+1)/4 on a 1-based scale between
        // neighbours j and j+1, j held inside the sample (so the outer
        // quartiles of a very small sample extrapolate, as Python's do).
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * (pos - j as f64)
    };
    let median = quantile(2);
    let iqr_share = if median == 0.0 {
        0.0
    } else {
        (quantile(3) - quantile(1)) / median.abs()
    };
    Spread {
        median,
        iqr_share,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        // Unsorted input, odd length: the middle element.
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        // Even length: nearest rank takes the lower middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn segment_median_ignores_one_bad_segment() {
        // Five segments of 1000 samples at 10.0; the third has a slow tail.
        let mut samples = vec![10.0; 5 * SEGMENT_SAMPLES];
        for s in samples
            .iter_mut()
            .skip(2 * SEGMENT_SAMPLES)
            .take(SEGMENT_SAMPLES)
            .step_by(2)
        {
            *s = 1000.0;
        }
        let p99 = segment_percentile(&samples, 0.99);
        assert_eq!(p99.value, 10.0, "one slow segment must not set the figure");
        assert_eq!(p99.samples_per_segment, SEGMENT_SAMPLES);
        assert_eq!(p99.segments, 5);
        // The plain p99 over everything *is* moved by it.
        assert_eq!(percentile(&samples, 0.99), 1000.0);
    }

    #[test]
    fn segment_percentile_handles_remainders_and_small_samples() {
        // 3500 samples: three segments of 1166, the last takes the remainder.
        let samples: Vec<f64> = (1..=3500).map(f64::from).collect();
        let stat = segment_percentile(&samples, 1.0);
        // Per-segment maxima: 1166, 2332, 3500 -> median 2332.
        assert_eq!(stat.value, 2332.0);
        assert_eq!((stat.samples_per_segment, stat.segments), (1166, 3));
        // A long phase is cut into as many full segments as it fills.
        let long: Vec<f64> = (1..=50_500).map(f64::from).collect();
        let stat = segment_percentile(&long, 1.0);
        assert_eq!((stat.samples_per_segment, stat.segments), (1010, 50));
        // Maxima 1010, 2020, ..., the last 50 500: the lower middle is the 25th.
        assert_eq!(stat.value, 25.0 * 1010.0);
        // Too few for even one full segment: everything is one segment.
        let small = segment_percentile(&samples[..240], 0.99);
        assert_eq!((small.value, small.segments), (238.0, 1));
        let tiny = segment_percentile(&[3.0, 1.0], 0.5);
        assert_eq!((tiny.value, tiny.segments), (1.0, 1));
        assert_eq!(segment_percentile(&[], 0.5), SegmentStat::default());
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&values);
        assert!((s.median - 5.5).abs() < 1e-12);
        assert!((s.iqr_share - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(s.n, 10);
        // One run: no spread to speak of.
        assert_eq!(spread(&[7.0]).iqr_share, 0.0);
        assert_eq!(spread(&[7.0]).median, 7.0);
    }
}
