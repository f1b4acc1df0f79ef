//! The page-overflow predictor (§IV-B2, Fig. 5b).
//!
//! A 2-bit saturating local counter learns whether a page is receiving
//! streaming incompressible writebacks: line overflows raise it and
//! underflows lower it. It lives in the page's metadata-cache entry
//! ([`MetadataCache::local_counter`](crate::MetadataCache::local_counter)),
//! so it starts at 0 when the entry is filled and is lost when the entry
//! is evicted. A 3-bit global counter, kept here, learns whether the
//! system as a whole is experiencing page overflows. When both have their
//! high bit set, the page is speculatively stored uncompressed (grown to
//! 4 KB) to avoid repeated overflow data movement.

use compresso_telemetry::{Gauge, Registry};

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

/// The global half of the overflow predictor; each page's local half is
/// a [`Counter2`] in its metadata-cache entry.
#[derive(Debug, Clone, Default)]
pub struct OverflowPredictor {
    /// 3-bit global counter (0–7).
    global: u8,
    /// Telemetry mirror of `global` (0–7).
    global_gauge: Gauge,
}

impl OverflowPredictor {
    /// Creates a predictor with the global counter at zero.
    pub fn new() -> Self {
        Self::default()
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

    /// Should the page whose entry holds `local` be speculatively stored
    /// uncompressed? True when the local and global high bits are both
    /// set.
    pub fn should_inflate(&self, local: Counter2) -> bool {
        self.global >= 4 && local.high()
    }

    /// Registers the global level as `{prefix}.global_level`.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        registry.register_gauge(&format!("{prefix}.global_level"), &self.global_gauge);
    }

    /// Current global counter value (0–7).
    pub fn global_value(&self) -> u8 {
        self.global
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
        let mut local = Counter2::default();
        local.up();
        local.up();
        assert!(!p.should_inflate(local), "global counter still low");
        for _ in 0..4 {
            p.page_overflow();
        }
        assert!(p.should_inflate(local));
        assert!(
            !p.should_inflate(Counter2::default()),
            "a fresh entry's counter is low"
        );
    }

    #[test]
    fn underflows_calm_the_local_counter() {
        let mut p = OverflowPredictor::new();
        for _ in 0..4 {
            p.page_overflow();
        }
        let mut local = Counter2::default();
        local.up();
        local.up();
        assert!(p.should_inflate(local));
        local.down();
        assert!(!p.should_inflate(local));
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
}
