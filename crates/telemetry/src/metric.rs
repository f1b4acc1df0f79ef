//! Shared-handle metric primitives: [`Counter`], [`Gauge`] and
//! fixed-bucket [`LatencyHistogram`].
//!
//! Handles are cheap `Arc` clones around atomics: a component keeps one
//! clone for the hot increment path and registers another clone into a
//! [`crate::Registry`] under a stable name.
//!
//! # Single-writer contract
//!
//! Every handle is updated only by the component that owns it, on the
//! thread running that component's simulation (one sweep cell builds its
//! own devices and registry). Registries, snapshots and epoch recorders
//! only read. So an update is a relaxed load and a relaxed store, not a
//! `lock`-prefixed read-modify-write: with one writer no update can be
//! lost. Clones on the writer's thread may update in any interleaving.
//! Metrics never synchronize simulator state, they only count it, and
//! the sweep engine joins its worker threads before results are read.

use crate::registry::intern;
use std::collections::BTreeSet;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static BOUNDS: Mutex<BTreeSet<Arc<[u64]>>> = Mutex::new(BTreeSet::new());

/// Adds `delta` to `cell` under the single-writer contract (module docs),
/// wrapping on overflow as `fetch_add` does.
#[inline]
fn bump(cell: &AtomicU64, delta: u64) {
    let value = cell.load(Ordering::Relaxed);
    cell.store(value.wrapping_add(delta), Ordering::Relaxed);
}

/// Monotonic event counter.
///
/// Single writer: only the owning component's thread may update it (see
/// the [module docs](self)); any thread may read it.
///
/// `+=` is supported so struct fields that migrate from `u64` to
/// `Counter` keep their `self.stats.field += 1` call sites unchanged.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add(&self, delta: u64) {
        bump(&self.0, delta);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl AddAssign<u64> for Counter {
    #[inline]
    fn add_assign(&mut self, delta: u64) {
        self.add(delta);
    }
}

impl AddAssign<u64> for &Counter {
    #[inline]
    fn add_assign(&mut self, delta: u64) {
        self.add(delta);
    }
}

/// Point-in-time signed level (balloon held pages, allocator bytes).
///
/// Single writer: only the owning component's thread may update it (see
/// the [module docs](self)); any thread may read it.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        let level = self.0.load(Ordering::Relaxed);
        self.0.store(level.wrapping_add(delta), Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket latency histogram with deterministic integer-math
/// percentiles.
///
/// Bucket `i` counts samples `v <= bounds[i]`; one implicit overflow
/// bucket counts everything above the last bound. Percentiles are
/// nearest-rank over bucket upper edges, so identical sample multisets
/// always produce identical `p50/p95/p99` regardless of arrival order —
/// the property the sweep-determinism suite relies on.
///
/// Single writer: only the owning component's thread may record into it
/// (see the [module docs](self)); any thread may snapshot it.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    inner: Arc<HistInner>,
}

#[derive(Debug)]
struct HistInner {
    /// Interned: every histogram with these bounds, and every snapshot
    /// of one, shares them.
    bounds: Arc<[u64]>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LatencyHistogram {
    /// Histogram with explicit ascending bucket upper bounds.
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            inner: Arc::new(HistInner {
                bounds: intern(&BOUNDS, bounds),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Power-of-two bounds from 16 to 65536 — a good fit for core-cycle
    /// latencies of a DDR4-2666 channel (row hit ≈ 100 cycles, deep
    /// queueing in the thousands).
    pub fn cycles() -> Self {
        Self::with_bounds(&[
            16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536,
        ])
    }

    /// Linear byte-size bounds for compressed-line sizes (0..=64 bytes
    /// in 8-byte steps).
    pub fn line_bytes() -> Self {
        Self::with_bounds(&[0, 8, 16, 24, 32, 40, 48, 56, 64])
    }

    #[inline]
    pub fn record(&self, value: u64) {
        let inner = &*self.inner;
        let idx = inner.bounds.partition_point(|&b| b < value);
        bump(&inner.buckets[idx], 1);
        bump(&inner.count, 1);
        bump(&inner.sum, value);
        if value > inner.max.load(Ordering::Relaxed) {
            inner.max.store(value, Ordering::Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Plain-data copy of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: Arc::clone(&self.inner.bounds),
            counts: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
            max: self.inner.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data view of a [`LatencyHistogram`] at one instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds, shared with the histogram;
    /// `counts` has one extra overflow bucket at the end.
    pub bounds: Arc<[u64]>,
    /// Per-bucket sample counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile, reported as the upper edge of the
    /// bucket holding the ranked sample (`max` for the overflow
    /// bucket). `q` is in percent, e.g. `50.0`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // ceil(q/100 * count) with integer math: rank in 1..=count.
        let rank = ((q * self.count as f64 / 100.0).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Mean sample value (0 if empty).
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
    fn counter_add_assign_and_shared_handles() {
        let mut a = Counter::new();
        let b = a.clone();
        a += 2;
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn clones_on_one_thread_update_exactly() {
        // Two handles to each metric, updated in turn on one thread: no
        // update may be lost under the load-and-store writes.
        let (a, b) = (Counter::new(), Counter::new());
        let b2 = b.clone();
        let h = LatencyHistogram::with_bounds(&[10, 100]);
        let h2 = h.clone();
        let (g, g2) = (Gauge::new(), Gauge::new());
        let g2b = g2.clone();
        for i in 0..1000u64 {
            a.inc();
            let (writer, value) = if i % 2 == 0 { (&b, 3) } else { (&b2, 5) };
            writer.add(value);
            let hist = if i % 3 == 0 { &h } else { &h2 };
            hist.record(i * 7 % 250);
            let gauge = if i % 2 == 0 { &g2 } else { &g2b };
            gauge.add(if i % 4 == 0 { -2 } else { 1 });
        }
        g.add(7);
        g.add(-9);
        assert_eq!(a.get(), 1000);
        assert_eq!(b2.get(), 500 * 3 + 500 * 5);
        assert_eq!((g.get(), g2.get()), (-2, 250 * -2 + 750));
        let s = h2.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 4 * (0..250).sum::<u64>());
        assert_eq!(s.max, 249);
        // <=10: 0..=10; <=100: 11..=100; overflow: 101..250 — four times.
        assert_eq!(s.counts, vec![4 * 11, 4 * 90, 4 * 149]);
        assert_eq!(h.snapshot(), s);
    }

    #[test]
    fn counter_wraps_like_fetch_add() {
        let c = Counter::new();
        c.add(u64::MAX);
        c.add(2);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn gauge_tracks_level() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_on_upper_bounds() {
        let h = LatencyHistogram::with_bounds(&[10, 20, 30]);
        for v in [5, 10, 11, 20, 21, 30, 31, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        // <=10: {5,10}; <=20: {11,20}; <=30: {21,30}; overflow: {31,1000}
        assert_eq!(s.counts, vec![2, 2, 2, 2]);
        assert_eq!(s.count, 8);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 5 + 10 + 11 + 20 + 21 + 30 + 31 + 1000);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let h = LatencyHistogram::with_bounds(&[1, 2, 3, 4, 5, 10]);
        // 100 samples: 50× value 1, 45× value 3, 5× value 10.
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..45 {
            h.record(3);
        }
        for _ in 0..5 {
            h.record(10);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 1); // rank 50 falls in the first bucket
        assert_eq!(s.percentile(51.0), 3);
        assert_eq!(s.p95(), 3); // rank 95 = last of the 3s
        assert_eq!(s.p99(), 10);
        assert_eq!(s.percentile(100.0), 10);
    }

    #[test]
    fn percentile_overflow_bucket_reports_max() {
        let h = LatencyHistogram::with_bounds(&[10]);
        h.record(500);
        h.record(700);
        // Both samples land in the overflow bucket, whose reported edge
        // is the observed max.
        assert_eq!(h.snapshot().p50(), 700);
        assert_eq!(h.snapshot().p99(), 700);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = LatencyHistogram::cycles().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn percentile_order_independent() {
        let a = LatencyHistogram::cycles();
        let b = LatencyHistogram::cycles();
        let vals = [100u64, 7, 900, 33, 33, 2048, 5, 100];
        for &v in &vals {
            a.record(v);
        }
        for &v in vals.iter().rev() {
            b.record(v);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_rejected() {
        LatencyHistogram::with_bounds(&[10, 5]);
    }
}
