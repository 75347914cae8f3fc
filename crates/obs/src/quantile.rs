//! Quantile estimation over the log2-bucketed histograms.
//!
//! The histograms record only bucket counts, so exact quantiles are
//! unavailable — but a log2 bucket bounds the error tightly enough
//! for latency triage: [`QuantileView`] walks the cumulative bucket
//! counts to the bucket containing the requested rank and linearly
//! interpolates inside its `[lo, hi]` range. `max` is the upper bound
//! of the last non-empty bucket, i.e. an upper estimate of the true
//! maximum within one bucket width.

use crate::export::{BucketSample, HistogramSample};

/// p50/p90/p99/max of one histogram snapshot.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct QuantileView {
    /// Samples the view is computed over.
    pub count: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// Upper bound of the last non-empty bucket.
    pub max: u64,
}

impl QuantileView {
    /// The view of one histogram snapshot, `None` when it is empty.
    pub fn from_sample(h: &HistogramSample) -> Option<QuantileView> {
        let buckets = &h.buckets;
        let count: u64 = buckets.iter().map(|b| b.count).sum();
        if count == 0 {
            return None;
        }
        Some(QuantileView {
            count,
            p50: quantile(buckets, count, 0.50),
            p90: quantile(buckets, count, 0.90),
            p99: quantile(buckets, count, 0.99),
            max: buckets.last().map_or(0, |b| b.hi),
        })
    }
}

/// The `q`-quantile (0 < q <= 1) of `total` samples distributed over
/// `buckets` (sorted by `lo`, counts summing to `total`), by linear
/// interpolation inside the bucket containing the rank.
pub fn quantile(buckets: &[BucketSample], total: u64, q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if total == 0 {
        return 0.0;
    }
    // 1-based rank of the requested sample.
    let rank = (q * total as f64).ceil().max(1.0);
    let mut below = 0u64;
    for b in buckets {
        if b.count == 0 {
            continue;
        }
        let upto = below + b.count;
        if (upto as f64) >= rank {
            // The rank falls inside this bucket: interpolate between
            // its inclusive bounds by the fraction of the bucket's
            // samples below the rank.
            let into = (rank - below as f64) / b.count as f64;
            return b.lo as f64 + into * (b.hi - b.lo) as f64;
        }
        below = upto;
    }
    buckets.last().map_or(0.0, |b| b.hi as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn view_of(values: &[u64]) -> QuantileView {
        let r = Registry::new();
        let h = r.histogram("t", &[]);
        for &v in values {
            h.record(v);
        }
        QuantileView::from_sample(&r.snapshot().histograms[0]).expect("non-empty")
    }

    #[test]
    fn empty_histogram_has_no_view() {
        let r = Registry::new();
        r.histogram("empty", &[]);
        assert_eq!(QuantileView::from_sample(&r.snapshot().histograms[0]), None);
    }

    #[test]
    fn single_sample_quantiles_stay_in_its_bucket() {
        let v = view_of(&[1000]);
        assert_eq!(v.count, 1);
        // Bucket [512, 1023]: every quantile must land inside it.
        for q in [v.p50, v.p90, v.p99] {
            assert!((512.0..=1023.0).contains(&q), "{q}");
        }
        assert_eq!(v.max, 1023);
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_the_data() {
        // 90 fast samples (~bucket [64,127]) and 10 slow (~[4096,8191]).
        let mut values = vec![100u64; 90];
        values.extend(vec![5000u64; 10]);
        let v = view_of(&values);
        assert_eq!(v.count, 100);
        assert!(v.p50 <= v.p90 && v.p90 <= v.p99, "{v:?}");
        assert!(
            (64.0..=127.0).contains(&v.p50),
            "median lands in the fast bucket: {}",
            v.p50
        );
        assert!(
            (4096.0..=8191.0).contains(&v.p99),
            "p99 lands in the slow bucket: {}",
            v.p99
        );
        assert_eq!(v.max, 8191);
    }

    #[test]
    fn interpolation_moves_inside_a_bucket() {
        // All 100 samples in bucket [64, 127]: p10 must sit left of
        // p90 inside the bucket.
        let r = Registry::new();
        let h = r.histogram("t", &[]);
        for _ in 0..100 {
            h.record(100);
        }
        let s = &r.snapshot().histograms[0];
        let p10 = quantile(&s.buckets, 100, 0.10);
        let p90 = quantile(&s.buckets, 100, 0.90);
        assert!(p10 < p90, "{p10} < {p90}");
        assert!((64.0..=127.0).contains(&p10) && (64.0..=127.0).contains(&p90));
    }
}
