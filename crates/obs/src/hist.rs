//! Power-of-two-bucket latency histograms.
//!
//! Bucket `i` covers durations of `[2^i, 2^(i+1))` nanoseconds (bucket 0
//! also absorbs 0 ns). Recording is a few relaxed atomic adds, so one
//! histogram per span kind can sit inside latch- and lock-acquisition paths
//! without perturbing what it measures. Like the counters in
//! `ariesim_common::stats`, they order nothing and must never be used for
//! synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: covers up to 2^63 ns (~292 years).
pub const BUCKETS: usize = 64;

/// Live histogram; record from any thread, snapshot from any thread.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// Log2 bucket index for a duration in nanoseconds.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    63 - ns.max(1).leading_zeros() as usize
}

/// Inclusive upper bound (ns) of bucket `i`, used as its representative.
#[inline]
pub fn bucket_top(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl LatencyHistogram {
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of a histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum_ns: u64,
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Value (ns) at or below which a `q` fraction of samples fall.
    /// Resolution is one log2 bucket; the true max caps the answer.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_top(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    pub fn p50(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    pub fn max(&self) -> u64 {
        self.max_ns
    }
}

/// A last-value + running-max gauge (e.g. replication lag in bytes).
/// Same discipline as the histograms: relaxed atomics, safe to set from
/// any thread, never used for synchronization.
#[derive(Default)]
pub struct Gauge {
    last: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    pub fn set(&self, v: u64) {
        self.last.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn last(&self) -> u64 {
        self.last.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.last.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Format nanoseconds for the report tables: `ns`, `µs`, `ms`, or `s`.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        10_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = LatencyHistogram::default();
        // 90 fast samples (~100ns), 10 slow (~1ms).
        for _ in 0..90 {
            h.record_ns(100);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.p50() < 256, "p50={}", s.p50());
        assert!(s.quantile_ns(0.89) < 256);
        assert!(s.p95() >= 524_288, "p95={}", s.p95());
        assert_eq!(s.max(), 1_000_000);
        assert_eq!(s.sum_ns, 90 * 100 + 10 * 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::default().snapshot();
        assert_eq!((s.count, s.p50(), s.p99(), s.max()), (0, 0, 0, 0));
        assert_eq!(s.quantile_ns(0.0), 0);
        assert_eq!(s.quantile_ns(1.0), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = LatencyHistogram::default();
        h.record_ns(700);
        let s = h.snapshot();
        // One sample: every quantile is that sample (the true max caps the
        // bucket-top answer of 1023).
        assert_eq!(s.quantile_ns(0.0), 700);
        assert_eq!(s.p50(), 700);
        assert_eq!(s.p99(), 700);
        assert_eq!(s.quantile_ns(1.0), 700);
    }

    #[test]
    fn saturating_bucket_keeps_quantiles_finite() {
        let h = LatencyHistogram::default();
        h.record_ns(u64::MAX); // lands in the last bucket (i = 63)
        h.record_ns(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_top(BUCKETS - 1), u64::MAX);
        assert_eq!(s.count, 2);
        assert_eq!(s.p50(), u64::MAX);
        assert_eq!(s.p99(), u64::MAX);
        assert_eq!(s.max(), u64::MAX);
        // Out-of-range q is clamped to a valid rank, not a panic.
        assert_eq!(s.quantile_ns(2.0), u64::MAX);
        assert_eq!(s.quantile_ns(-1.0), u64::MAX);
    }

    #[test]
    fn concurrent_records_do_not_lose_samples() {
        let h = LatencyHistogram::default();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record_ns(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(15_000), "15.0µs");
        assert_eq!(fmt_ns(12_000_000), "12.0ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
    }
}
