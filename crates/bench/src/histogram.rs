//! A dependency-free log-bucketed latency histogram.
//!
//! The workload runner times a 1-in-16 sample of the measured `Get`s (see
//! `workload::LATENCY_SAMPLE_STRIDE`) and feeds the nanosecond latency into
//! one of these per worker thread; the per-thread histograms
//! are merged after the join and the tail quantiles (p99 / p99.9 / max) go
//! into the cell's `BENCH_JSON` record next to the probe-count statistics.
//! Mean probe counts hide exactly the events the paper's worst-case panels
//! care about — a `Get` that fell through to the backup array, a `Get` that
//! stalled behind a growth episode of the elastic chain — and a log-bucketed
//! histogram captures that tail in 65 counters with a constant-time record
//! path.
//!
//! Buckets are powers of two: bucket `i` (for `i >= 1`) covers latencies in
//! `[2^(i-1), 2^i)` nanoseconds, bucket 0 holds exact zeros.  Quantiles
//! therefore come back as the *upper bound* of the bucket the quantile falls
//! in — at most 2× the true value, which is far below run-to-run scheduler
//! noise for tail latencies — except the final occupied bucket, which is
//! clamped to the exact observed maximum.

use std::time::Duration;

/// Number of counters: bucket 0 for zero plus one per possible bit length
/// of a `u64` nanosecond count.
const BUCKETS: usize = 65;

/// A log-bucketed histogram of nanosecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
            max_ns: 0,
        }
    }

    /// The bucket a nanosecond value falls in: its bit length (0 for 0).
    fn bucket(ns: u64) -> usize {
        (u64::BITS - ns.leading_zeros()) as usize
    }

    /// Records one latency in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Records one latency given as a [`Duration`] (saturating at `u64` ns —
    /// 584 years — which no real measurement reaches).
    pub fn record_duration(&mut self, elapsed: Duration) {
        self.record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds another histogram into this one (used to merge the per-thread
    /// histograms after the workload join).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The exact maximum recorded latency in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The latency in nanoseconds below which a `quantile` fraction of the
    /// samples fall: the upper bound of the bucket holding that rank,
    /// clamped to the exact maximum.  Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= quantile <= 1.0`.
    pub fn quantile_ns(&self, quantile: f64) -> u64 {
        assert!(
            (0.0..=1.0).contains(&quantile),
            "quantile must be in [0, 1], got {quantile}"
        );
        if self.total == 0 {
            return 0;
        }
        // Rank of the sample the quantile lands on, 1-based, at least 1 so
        // q=0 returns the first occupied bucket.
        let rank = ((quantile * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// The conventional tail triple `(p99, p99.9, max)` in nanoseconds.
    pub fn tail_ns(&self) -> (u64, u64, u64) {
        (
            self.quantile_ns(0.99),
            self.quantile_ns(0.999),
            self.max_ns(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.tail_ns(), (0, 0, 0));
    }

    #[test]
    fn buckets_are_bit_lengths() {
        assert_eq!(LatencyHistogram::bucket(0), 0);
        assert_eq!(LatencyHistogram::bucket(1), 1);
        assert_eq!(LatencyHistogram::bucket(2), 2);
        assert_eq!(LatencyHistogram::bucket(3), 2);
        assert_eq!(LatencyHistogram::bucket(4), 3);
        assert_eq!(LatencyHistogram::bucket(1023), 10);
        assert_eq!(LatencyHistogram::bucket(1024), 11);
        assert_eq!(LatencyHistogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn quantiles_return_bucket_upper_bounds() {
        let mut h = LatencyHistogram::new();
        // 98 fast samples in [64, 128), one slow in [1024, 2048), one exact
        // maximum.
        for _ in 0..98 {
            h.record(100);
        }
        h.record(1500);
        h.record(3000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.max_ns(), 3000);
        // p50 and p98 land in the fast bucket, upper bound 127.
        assert_eq!(h.quantile_ns(0.5), 127);
        assert_eq!(h.quantile_ns(0.98), 127);
        // p99 is the 99th sample: the [1024, 2048) bucket.
        assert_eq!(h.quantile_ns(0.99), 2047);
        // p99.9 rounds up to the last sample, clamped to the exact max.
        assert_eq!(h.quantile_ns(0.999), 3000);
        assert_eq!(h.quantile_ns(1.0), 3000);
        assert_eq!(h.tail_ns(), (2047, 3000, 3000));
    }

    #[test]
    fn top_bucket_is_clamped_to_the_exact_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        assert_eq!(h.quantile_ns(0.99), 1_000_000);
    }

    #[test]
    fn zero_latencies_have_their_own_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn merge_accumulates_counts_and_max() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..50 {
            a.record(10);
        }
        for _ in 0..50 {
            b.record(10_000);
        }
        b.record_duration(Duration::from_micros(100));
        a.merge(&b);
        assert_eq!(a.count(), 101);
        assert_eq!(a.max_ns(), 100_000);
        // Half the mass is in the slow bucket, so the median moved there.
        assert!(a.quantile_ns(0.75) >= 8191);
        assert!(a.quantile_ns(0.25) <= 15);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn out_of_range_quantile_panics() {
        LatencyHistogram::new().quantile_ns(1.5);
    }
}
