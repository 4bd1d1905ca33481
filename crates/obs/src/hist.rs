//! Lock-free log₂-bucketed histogram.
//!
//! `AtomicHistogram` replaces the server's old `Mutex<Histogram>`: recording a
//! sample is four relaxed atomic ops (bucket, count, sum, max) with no lock to
//! block on or poison, so it is safe to tick from request paths and even from
//! kernel-adjacent code (no allocation, ever). Bucket `i` covers values `v`
//! with `ilog2(v) == i`, i.e. `[2^i, 2^(i+1))`; bucket 0 additionally holds
//! zero. Values are unit-agnostic `u64`s — the convention across the workspace
//! is microseconds for latencies and bytes for sizes.
//!
//! Quantiles interpolate linearly *within* the containing bucket instead of
//! returning the bucket's upper bound. The old behaviour overstated p50/p99 by
//! up to 2× (a bucket spans a full power of two); the interpolated estimate is
//! pinned by the unit tests below.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// A lock-free histogram with log₂ buckets, total count, running sum, and an
/// exact observed maximum. All methods take `&self`; `new` is `const` so
/// instances can live in `static`s with zero registration cost on hot paths.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// A new, empty histogram. `const` so crates can declare
    /// `static H: AtomicHistogram = AtomicHistogram::new();`.
    pub const fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample. Allocation-free and lock-free.
    pub fn record(&self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            value.ilog2() as usize
        };
        if let Some(bucket) = self.buckets.get(idx) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A consistent-enough point-in-time copy (individual loads are relaxed;
    /// concurrent recording may skew count/sum by in-flight samples, which is
    /// fine for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Convenience: interpolated quantile of the current contents.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

/// Inclusive upper bound of bucket `i`, used for Prometheus `le` labels:
/// bucket `i` holds values `<= 2^(i+1) - 1`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A plain-data copy of a histogram, safe to render or compute quantiles on.
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Interpolated quantile estimate. The rank `q * count` is located in its
    /// log₂ bucket, then the value is interpolated linearly between the
    /// bucket's bounds according to the rank's position among the bucket's
    /// samples. The result is capped at the exact observed maximum, so a
    /// single sample reports itself (not its bucket's upper bound) at every
    /// quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).clamp(0.0, self.count as f64);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (seen + n) as f64 >= rank {
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= BUCKETS - 1 {
                    self.max
                } else {
                    1u64 << (i + 1)
                };
                let within = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                let est = lo as f64 + hi.saturating_sub(lo) as f64 * within;
                return (est as u64).min(self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Mean of all recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = AtomicHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    #[test]
    fn single_sample_reports_itself_at_every_quantile() {
        let h = AtomicHistogram::new();
        h.record(100);
        // Bucket [64, 128) — the old code would have said 127.
        assert_eq!(h.quantile(0.0), 64);
        assert_eq!(h.quantile(0.5), 96);
        assert_eq!(h.quantile(1.0), 100); // capped at the exact max
    }

    #[test]
    fn interpolated_quantiles_pin_exact_values() {
        // The satellite-task pin: the sample set from the server's original
        // histogram test. Buckets: 1→b0, {2,3}→b1, 10→b3, 100→b6, 1000→b9,
        // 5000→b12. p50 rank = 3.5 lands in b3 [8,16): 8 + 8·0.5 = 12.
        // The old bucket-upper-bound code reported 15 — a 25% overstatement.
        let h = AtomicHistogram::new();
        for v in [1u64, 2, 3, 10, 100, 1000, 5000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 12);
        // p95 rank = 6.65 lands in b12 [4096,8192): 4096 + 4096·0.65 =
        // 6758.4, capped at the observed max 5000.
        assert_eq!(h.quantile(0.95), 5000);
        assert_eq!(h.max(), 5000);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn uniform_bucket_interpolates_to_midpoint() {
        // 100 samples of 1000µs all land in bucket 9 [512, 1024). The median
        // interpolates to the bucket midpoint 768 — off by 23% from the true
        // 1000, but the old code's 1023 was off by worse in expectation and
        // *always* biased high.
        let h = AtomicHistogram::new();
        for _ in 0..100 {
            h.record(1000);
        }
        assert_eq!(h.quantile(0.5), 768);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let h = AtomicHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.snapshot().buckets[0], 2);
    }

    #[test]
    fn bucket_bounds_are_inclusive_powers_of_two() {
        assert_eq!(bucket_upper_bound(0), 1);
        assert_eq!(bucket_upper_bound(1), 3);
        assert_eq!(bucket_upper_bound(9), 1023);
        assert_eq!(bucket_upper_bound(63), u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.max(), 3999);
    }
}
