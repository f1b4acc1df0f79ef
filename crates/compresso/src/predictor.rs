//! The page-overflow predictor (§IV-B2, Fig. 5b).
//!
//! A 2-bit saturating counter per metadata-cache entry learns whether a
//! page is receiving streaming incompressible writebacks; a 3-bit global
//! counter learns whether the system as a whole is experiencing page
//! overflows. When both have their high bit set, the page is
//! speculatively stored uncompressed (grown to 4 KB) to avoid repeated
//! overflow data movement.

use compresso_telemetry::{Gauge, Registry};
use compresso_workloads::AddrMap;

/// 2-bit saturating counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter2(u8);

impl Counter2 {
    /// Increments, saturating at 3.
    pub fn up(&mut self) {
        self.0 = (self.0 + 1).min(3);
    }

    /// Decrements, saturating at 0.
    pub fn down(&mut self) {
        self.0 = self.0.saturating_sub(1);
    }

    /// High bit set (value ≥ 2).
    pub fn high(&self) -> bool {
        self.0 >= 2
    }

    /// Raw value (0–3).
    pub fn value(&self) -> u8 {
        self.0
    }
}

/// The combined local + global overflow predictor.
#[derive(Debug, Clone, Default)]
pub struct OverflowPredictor {
    /// Local 2-bit counters, keyed by page; lifetime tied to the
    /// metadata-cache residency of the page's entry.
    local: AddrMap<Counter2>,
    /// 3-bit global counter (0–7).
    global: u8,
    /// Telemetry mirror of `global` (0–7).
    global_gauge: Gauge,
    /// Telemetry mirror of the tracked-page count.
    tracked_gauge: Gauge,
}

impl OverflowPredictor {
    /// Creates a predictor with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writeback to `page` caused a cache-line overflow.
    pub fn line_overflow(&mut self, page: u64) {
        self.local.entry(page).or_default().up();
        self.tracked_gauge.set(self.local.len() as i64);
    }

    /// A writeback to `page` caused a cache-line underflow.
    pub fn line_underflow(&mut self, page: u64) {
        self.local.entry(page).or_default().down();
        self.tracked_gauge.set(self.local.len() as i64);
    }

    /// A page overflow occurred somewhere in the system.
    pub fn page_overflow(&mut self) {
        self.global = (self.global + 1).min(7);
        self.global_gauge.set(self.global as i64);
    }

    /// A quiet period (e.g. a page underflow / successful repack).
    pub fn page_calm(&mut self) {
        self.global = self.global.saturating_sub(1);
        self.global_gauge.set(self.global as i64);
    }

    /// Should `page` be speculatively stored uncompressed?
    /// True when the local and global high bits are both set.
    pub fn should_inflate(&self, page: u64) -> bool {
        self.global >= 4 && self.local.get(&page).is_some_and(|c| c.high())
    }

    /// The metadata-cache entry for `page` was evicted: its local counter
    /// disappears with it.
    pub fn on_mcache_eviction(&mut self, page: u64) {
        self.local.remove(&page);
        self.tracked_gauge.set(self.local.len() as i64);
    }

    /// Registers the predictor's levels under `prefix`
    /// (`{prefix}.global_level`, `{prefix}.tracked_pages`).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        registry.register_gauge(&format!("{prefix}.global_level"), &self.global_gauge);
        registry.register_gauge(&format!("{prefix}.tracked_pages"), &self.tracked_gauge);
    }

    /// Current global counter value (0–7).
    pub fn global_value(&self) -> u8 {
        self.global
    }

    /// Local counter value for `page`, if tracked.
    pub fn local_value(&self, page: u64) -> Option<u8> {
        self.local.get(&page).map(|c| c.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter2_saturates() {
        let mut c = Counter2::default();
        assert!(!c.high());
        c.up();
        c.up();
        assert!(c.high());
        c.up();
        c.up();
        assert_eq!(c.value(), 3);
        c.down();
        c.down();
        c.down();
        c.down();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn inflation_requires_both_local_and_global() {
        let mut p = OverflowPredictor::new();
        p.line_overflow(7);
        p.line_overflow(7);
        assert!(!p.should_inflate(7), "global counter still low");
        for _ in 0..4 {
            p.page_overflow();
        }
        assert!(p.should_inflate(7));
        assert!(!p.should_inflate(8), "other pages unaffected");
    }

    #[test]
    fn underflows_calm_the_local_counter() {
        let mut p = OverflowPredictor::new();
        for _ in 0..4 {
            p.page_overflow();
        }
        p.line_overflow(1);
        p.line_overflow(1);
        assert!(p.should_inflate(1));
        p.line_underflow(1);
        assert!(!p.should_inflate(1));
    }

    #[test]
    fn global_counter_saturates_at_7() {
        let mut p = OverflowPredictor::new();
        for _ in 0..20 {
            p.page_overflow();
        }
        assert_eq!(p.global_value(), 7);
        for _ in 0..20 {
            p.page_calm();
        }
        assert_eq!(p.global_value(), 0);
    }

    #[test]
    fn eviction_clears_local_state() {
        let mut p = OverflowPredictor::new();
        p.line_overflow(5);
        p.line_overflow(5);
        assert_eq!(p.local_value(5), Some(2));
        p.on_mcache_eviction(5);
        assert_eq!(p.local_value(5), None);
    }
}
