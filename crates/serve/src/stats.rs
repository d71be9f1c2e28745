//! Serving observability: wait-free log-bucketed latency histograms and
//! point-in-time [`ServiceStats`] snapshots.

use start_sync::atomic::{AtomicU64, Ordering};

use start_core::CacheStats;

/// A power-of-two-bucketed histogram of microsecond latencies.
///
/// Bucket `i` in `1..63` counts samples in `[2^(i-1), 2^i)` µs; bucket 0
/// counts zeros; the top bucket (63) is open-ended, `[2^62, ∞)` — samples
/// at or above 2⁶³ µs land there too, outside the power-of-two invariant
/// the lower buckets keep. Quantiles that fall in the top bucket report
/// the observed maximum rather than a nominal bucket edge. The running sum
/// saturates at `u64::MAX` instead of wrapping, so `mean_us` degrades to a
/// pessimistic floor on pathological inputs instead of silently
/// corrupting after long uptimes.
///
/// `record` is a handful of relaxed atomic updates — lock-free (the
/// saturating sum is a CAS loop that only retries under contention on the
/// same counter), callable from every worker — and `snapshot` walks the
/// buckets without stopping recorders, so a snapshot taken under load is
/// approximate. Quantiles are reported as the upper edge of the bucket
/// containing them (≤ 2× resolution), which is exactly what a latency
/// monitor needs and nothing a correctness test should depend on.
pub struct Histogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Record one latency sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        // `bucket.min(63)` folds the >= 2^63 range into the open-ended top
        // bucket — see the type docs for its semantics.
        let bucket = (64 - us.leading_zeros()) as usize; // 0 for us == 0
                                                         // relaxed-ok: independent monotone tallies; snapshots are documented
                                                         // as approximate under load, no cross-counter ordering is promised.
        self.buckets[bucket.min(63)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed-ok: see above
                                                    // Saturate rather than wrap: a sum pinned at u64::MAX yields an
                                                    // obviously-degenerate mean; a wrapped sum yields a believable lie.
        let _ = self
            .sum_us
            // relaxed-ok: single-counter CAS loop, approximate snapshot
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(us)));
        self.max_us.fetch_max(us, Ordering::Relaxed); // relaxed-ok: monotone max
    }

    /// Upper bucket edge (µs) of the sample at quantile `q` in `[0, 1]`.
    /// The top bucket has no upper edge; quantiles landing there report the
    /// observed maximum instead.
    fn quantile_us(&self, counts: &[u64; 64], total: u64, q: f64) -> u64 {
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match i {
                    0 => 0,
                    63 => self.max_us.load(Ordering::Relaxed), // relaxed-ok: approximate snapshot
                    _ => 1u64 << i,
                };
            }
        }
        self.max_us.load(Ordering::Relaxed) // relaxed-ok: approximate snapshot
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        // relaxed-ok: snapshots are documented as approximate under load
        let counts: [u64; 64] = std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let total: u64 = counts.iter().sum();
        let sum = self.sum_us.load(Ordering::Relaxed); // relaxed-ok: approximate snapshot
        HistogramSnapshot {
            count: total,
            mean_us: if total == 0 { 0.0 } else { sum as f64 / total as f64 },
            p50_us: self.quantile_us(&counts, total, 0.50),
            p99_us: self.quantile_us(&counts, total, 0.99),
            max_us: self.max_us.load(Ordering::Relaxed), // relaxed-ok: approximate snapshot
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen read of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub mean_us: f64,
    /// Median latency, rounded up to the enclosing power-of-two bucket edge.
    pub p50_us: u64,
    /// 99th-percentile latency, same bucket-edge rounding.
    pub p99_us: u64,
    pub max_us: u64,
}

/// Point-in-time counters of one router replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with an embedding.
    pub completed: u64,
    /// Requests refused at the door (`QueueFull`, invalid, shutting down).
    pub rejected: u64,
    /// Requests answered with `WorkerPanicked`/`ModelPoisoned`.
    pub failed: u64,
    /// Micro-batches flushed by the workers.
    pub batches: u64,
    /// Requests sitting in the queue right now.
    pub queue_depth: usize,
    /// Time from `submit` to batch pickup.
    pub queue_wait: HistogramSnapshot,
    /// Time a worker spent encoding each batch.
    pub encode: HistogramSnapshot,
    /// Embedding-cache counters (hits/misses/occupancy) of the **current
    /// model version's** cache instance; a hot-swap starts these from zero
    /// (`cache.epoch` names the version they describe).
    pub cache: CacheStats,
}

impl ServiceStats {
    /// Mean flushed batch size — the micro-batcher's effectiveness.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.completed + self.failed) as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.p99_us, 0);
        assert_eq!(s.max_us, 0);
        assert_eq!(s.mean_us, 0.0);
    }

    #[test]
    fn quantiles_land_in_the_right_buckets() {
        let h = Histogram::new();
        // 99 fast samples at 10µs, one slow outlier at 10_000µs.
        for _ in 0..99 {
            h.record_us(10);
        }
        h.record_us(10_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 10_000);
        // 10µs lives in (8, 16]; p50 reports the upper edge.
        assert_eq!(s.p50_us, 16);
        // p99 rank is 99 of 100 — still inside the fast bucket.
        assert_eq!(s.p99_us, 16);
        assert!(s.mean_us > 10.0 && s.mean_us < 200.0);
    }

    #[test]
    fn zero_samples_occupy_bucket_zero() {
        let h = Histogram::new();
        h.record_us(0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_us, 0);
    }

    #[test]
    fn giant_samples_saturate_the_last_bucket() {
        let h = Histogram::new();
        h.record_us(u64::MAX);
        assert_eq!(h.snapshot().max_us, u64::MAX);
    }

    /// Regression: the running sum must saturate, not wrap. Two `u64::MAX`
    /// samples used to wrap the sum to `u64::MAX - 1` … with a carry lost,
    /// quietly corrupting `mean_us` for the rest of the uptime.
    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::new();
        h.record_us(u64::MAX);
        h.record_us(u64::MAX);
        h.record_us(10);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        // A wrapped sum would make the mean ~3 µs; the saturated sum keeps
        // it pinned at the (pessimistic, obviously degenerate) ceiling.
        assert!(s.mean_us >= (u64::MAX / 3) as f64, "mean collapsed: {}", s.mean_us);
    }

    /// The top bucket is open-ended `[2^62, ∞)`: quantiles landing in it
    /// report the observed max, not a fictitious power-of-two edge.
    #[test]
    fn top_bucket_quantiles_report_the_observed_max() {
        let h = Histogram::new();
        h.record_us(1 << 62); // nominal top-bucket floor
        h.record_us(u64::MAX); // beyond 2^63: folded into the same bucket
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50_us, u64::MAX);
        assert_eq!(s.p99_us, u64::MAX);
        assert_eq!(s.max_us, u64::MAX);
    }
}
