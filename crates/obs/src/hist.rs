//! Log-bucketed latency histogram, shared by the engine and the bench
//! driver.
//!
//! Buckets grow geometrically (×2 per bucket) starting at 250 ns, so the
//! bounds run 250 ns, 500 ns, 1 µs, 2 µs, … — 48 buckets cover every
//! latency up to ~19.5 hours with bounded relative error. Quantiles are
//! answered from the bucket midpoint, capped at the exact observed
//! maximum so `quantile(1.0)` never over-reports.
//!
//! Two flavours:
//! - [`Histogram`]: plain, single-writer; `merge` combines per-thread
//!   instances (this is what the bench driver uses).
//! - [`AtomicHistogram`]: lock-free multi-writer, striped per thread;
//!   the engine records per-operation latencies into one of these per op
//!   type and takes [`AtomicHistogram::snapshot`]s for reports.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stripe::Striped;

/// Number of geometric buckets. `bucket_bound(47)` = 250 << 47 ns.
pub const NUM_BUCKETS: usize = 48;

/// Upper bound (exclusive) of bucket `i`, in nanoseconds.
#[inline]
fn bucket_bound(i: usize) -> u64 {
    250u64 << i
}

/// O(1) bucket index for a latency of `ns` nanoseconds.
///
/// A value lands in the first bucket whose bound exceeds it:
/// `ns < 250 << i  ⇔  ns / 250 < 1 << i`, so the index is the bit
/// length of `ns / 250` (0 for `ns < 250`), clamped to the last bucket.
#[inline]
pub(crate) fn bucket_for(ns: u64) -> usize {
    let q = ns / 250;
    let bits = (64 - q.leading_zeros()) as usize;
    bits.min(NUM_BUCKETS - 1)
}

/// Quantile summary of a histogram, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramSummary {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
}

/// Single-writer log-bucketed histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { buckets: vec![0; NUM_BUCKETS], count: 0, sum_ns: 0, max_ns: 0 }
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_for(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.count as f64 / 1000.0
    }

    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1000.0
    }

    /// Latency at quantile `q` (0.0..=1.0), in microseconds.
    ///
    /// Answers from the midpoint of the bucket containing the q-th
    /// sample, capped at the exact observed maximum.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let hi = bucket_bound(i);
                let lo = if i == 0 { 0 } else { bucket_bound(i - 1) };
                let mid = lo + (hi - lo) / 2;
                return mid.min(self.max_ns) as f64 / 1000.0;
            }
        }
        self.max_ns as f64 / 1000.0
    }

    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }

    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean_us: self.mean_us(),
            p50_us: self.quantile_us(0.50),
            p99_us: self.quantile_us(0.99),
            p999_us: self.quantile_us(0.999),
            max_us: self.max_us(),
        }
    }
}

/// One stripe of an [`AtomicHistogram`]: every field a `record` writes.
struct HistStripe {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        HistStripe {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// Lock-free multi-writer histogram for in-engine recording.
///
/// `record` is wait-free (relaxed `fetch_add`s plus a `fetch_max`) and
/// writes only the calling thread's stripe ([`Striped`]), so readers on
/// different cores never share its lines; `snapshot` sums the stripes
/// (and takes the largest `max_ns`) into a plain [`Histogram`].
/// Snapshots are not atomic across buckets — a concurrent `record` may
/// be half visible — which is fine for reporting.
#[derive(Default)]
pub struct AtomicHistogram {
    stripes: Striped<HistStripe>,
}

impl AtomicHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record(&self, ns: u64) {
        let s = self.stripes.local();
        s.buckets[bucket_for(ns)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum_ns.fetch_add(ns, Ordering::Relaxed);
        s.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for s in self.stripes.all() {
            for (total, b) in h.buckets.iter_mut().zip(&s.buckets) {
                *total += b.load(Ordering::Relaxed);
            }
            h.count += s.count.load(Ordering::Relaxed);
            h.sum_ns = h.sum_ns.saturating_add(s.sum_ns.load(Ordering::Relaxed));
            h.max_ns = h.max_ns.max(s.max_ns.load(Ordering::Relaxed));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear scan `bucket_for` replaced; kept as the oracle.
    fn bucket_for_linear(ns: u64) -> usize {
        for i in 0..NUM_BUCKETS {
            if ns < bucket_bound(i) {
                return i;
            }
        }
        NUM_BUCKETS - 1
    }

    #[test]
    fn bucket_for_matches_linear_scan() {
        // Exhaustive boundary sweep: each bound, its neighbours, and zero.
        for i in 0..NUM_BUCKETS {
            let b = bucket_bound(i);
            for ns in [b.saturating_sub(1), b, b + 1] {
                assert_eq!(bucket_for(ns), bucket_for_linear(ns), "ns={ns}");
            }
        }
        assert_eq!(bucket_for(0), bucket_for_linear(0));
        assert_eq!(bucket_for(u64::MAX), bucket_for_linear(u64::MAX));
        // Pseudo-random sweep (splitmix64, fixed seed).
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            let ns = z ^ (z >> 31);
            assert_eq!(bucket_for(ns), bucket_for_linear(ns), "ns={ns}");
        }
    }

    #[test]
    fn records_and_reports() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(1_000); // 1 us
        }
        h.record(1_000_000); // 1 ms outlier
        assert_eq!(h.count(), 101);
        assert!(h.mean_us() > 1.0 && h.mean_us() < 20.0);
        assert!(h.quantile_us(0.5) < 10.0);
        assert!(h.p99_us() < 1_500.0);
        assert!(h.quantile_us(1.0) <= 1_000.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(500);
        b.record(2_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max_us() >= 2.0);
    }

    #[test]
    fn empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.99), 0.0);
    }

    #[test]
    fn huge_latency_clamped_to_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_us(0.5) > 0.0);
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let ah = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for ns in [100u64, 250, 999, 4096, 1 << 30] {
            ah.record(ns);
            plain.record(ns);
        }
        let snap = ah.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.mean_us(), plain.mean_us());
        assert_eq!(snap.quantile_us(0.99), plain.quantile_us(0.99));
        assert_eq!(snap.max_us(), plain.max_us());
    }

    #[test]
    fn striped_snapshot_is_exact_across_threads() {
        let ah = AtomicHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let ah = &ah;
                scope.spawn(move || {
                    for i in 0..100_000u64 {
                        ah.record(i % 1000 + t * 1_000_000);
                    }
                });
            }
        });
        let snap = ah.snapshot();
        let mut plain = Histogram::new();
        for t in 0..4u64 {
            for i in 0..100_000u64 {
                plain.record(i % 1000 + t * 1_000_000);
            }
        }
        assert_eq!(snap.count(), 400_000);
        assert_eq!(snap.buckets, plain.buckets);
        assert_eq!(snap.sum_ns, plain.sum_ns);
        assert_eq!(snap.max_ns, 3_000_999, "max is the largest stripe's max");
    }

    #[test]
    fn summary_quantiles_ordered() {
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            h.record(i * 100);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert!(s.p50_us <= s.p99_us);
        assert!(s.p99_us <= s.p999_us);
        assert!(s.p999_us <= s.max_us);
    }
}
