//! Event taxonomy for compressed-memory devices.
//!
//! The paper's data-movement analysis (Fig. 4, Fig. 6) classifies every
//! DRAM access a compressed system performs beyond what an uncompressed
//! system would: split-access line reads, overflow handling (line/page
//! overflows, inflation-room traffic, repacking), and metadata accesses.

use compresso_telemetry::{Counter, Registry};

/// Declares the live-counter twin of [`DeviceStats`]: same field names
/// (so `events.field += 1` call sites look identical to the old plain
/// struct), plus snapshot/reset/register derived from one field list.
macro_rules! device_events {
    ($( $field:ident => $name:literal ),+ $(,)?) => {
        /// Live counter handles behind [`DeviceStats`]. Devices mutate
        /// these on the hot path; a [`Registry`] holds clones of the
        /// same handles, so snapshots and epoch series observe every
        /// update without the device knowing about observers.
        #[derive(Debug, Clone, Default)]
        pub struct DeviceEvents {
            $( pub $field: Counter, )+
        }

        impl DeviceEvents {
            pub fn new() -> Self {
                Self::default()
            }

            /// Plain-data copy of every counter (the classic
            /// [`DeviceStats`] view).
            pub fn snapshot(&self) -> DeviceStats {
                DeviceStats { $( $field: self.$field.get(), )+ }
            }

            pub fn reset(&self) {
                $( self.$field.reset(); )+
            }

            /// Registers every counter under `prefix` using the
            /// paper-event names documented in DESIGN.md §9
            /// (e.g. prefix `compresso` → `compresso.page_overflow.total`).
            pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
                $( registry.register_counter(&format!("{prefix}.{}", $name), &self.$field); )+
            }
        }
    };
}

device_events! {
    demand_fills => "demand_fill.total",
    demand_writebacks => "demand_writeback.total",
    data_accesses => "data_access.total",
    split_access_extra => "split_access_extra.total",
    overflow_extra => "overflow_extra.total",
    repack_extra => "repack_extra.total",
    metadata_accesses => "metadata_access.total",
    mcache_hits => "mcache.hit.total",
    mcache_misses => "mcache.miss.total",
    line_overflows => "line_overflow.total",
    line_underflows => "line_underflow.total",
    page_overflows => "page_overflow.total",
    ir_expansions => "inflation_room.expansion.total",
    ir_placements => "inflation_room.placement.total",
    repacks => "repack.total",
    predictor_inflations => "predictor.inflation.total",
    zero_fills => "zero_fill.total",
    zero_writebacks => "zero_writeback.total",
    prefetch_hits => "prefetch_hit.total",
    injected_faults => "fault.injected.total",
    corruption_fallbacks => "fault.corruption_fallback.total",
    corruption_detected => "metadata.corruption_detected.total",
    corruption_undetected => "metadata.corruption_undetected.total",
    fault_extra => "fault.extra_access.total",
    eviction_storms => "fault.eviction_storm.total",
    alloc_retries => "alloc.retry.total",
    alloc_failures => "alloc.failure.total",
    balloon_retries => "balloon.retry.total",
    size_calls => "codec.size_fastpath.call.total",
    size_memo_hits => "codec.size_fastpath.memo_hit.total",
    size_memo_misses => "codec.size_fastpath.memo_miss.total",
}

/// Counters shared by all [`crate::MemoryDevice`] implementations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// OSPA cache-line fills requested by the LLC.
    pub demand_fills: u64,
    /// OSPA writebacks from the LLC.
    pub demand_writebacks: u64,

    /// DRAM bursts for demand data (the uncompressed system would also
    /// perform these, one per fill/writeback).
    pub data_accesses: u64,
    /// Extra DRAM bursts because a compressed line straddled a 64 B
    /// boundary (§IV, source i).
    pub split_access_extra: u64,
    /// Extra DRAM bursts handling line/page overflows, inflation-room
    /// placement and expansion (§IV, source ii).
    pub overflow_extra: u64,
    /// Extra DRAM bursts from repacking pages (Compresso only).
    pub repack_extra: u64,
    /// DRAM bursts for metadata (§IV, source iii: metadata-cache misses
    /// and dirty metadata evictions).
    pub metadata_accesses: u64,

    /// Metadata cache hits / misses.
    pub mcache_hits: u64,
    /// Metadata cache misses.
    pub mcache_misses: u64,

    /// Cache-line overflows (compressibility decreased on writeback).
    pub line_overflows: u64,
    /// Cache-line underflows (compressibility increased).
    pub line_underflows: u64,
    /// Page overflows (page no longer fits its allocation).
    pub page_overflows: u64,
    /// Dynamic inflation-room expansions (Compresso §IV-B3).
    pub ir_expansions: u64,
    /// Lines placed in an inflation room.
    pub ir_placements: u64,
    /// Dynamic repacks performed (Compresso §IV-B4).
    pub repacks: u64,
    /// Pages stored uncompressed by the overflow predictor (§IV-B2).
    pub predictor_inflations: u64,

    /// Fills of all-zero lines served from metadata alone.
    pub zero_fills: u64,
    /// Writebacks of all-zero lines absorbed by metadata alone.
    pub zero_writebacks: u64,
    /// Fills served from the compressed-burst prefetch buffer
    /// ("free prefetch", §VII-A).
    pub prefetch_hits: u64,

    /// Faults injected by an attached [`crate::FaultPlan`] (always zero
    /// in production runs).
    pub injected_faults: u64,
    /// Pages degraded after metadata corruption: rewritten uncompressed
    /// (Compresso) or re-planned via the OS path (LCP).
    pub corruption_fallbacks: u64,
    /// Corrupted metadata entries *detected* (CRC or field validation
    /// failed, or the entry disagreed with the committed view).
    pub corruption_detected: u64,
    /// Corrupted metadata entries accepted silently — a flipped entry
    /// that decoded back bit-identical. Nonzero only before the CRC
    /// landed in the packed format; asserted zero since (DESIGN.md §10).
    pub corruption_undetected: u64,
    /// Extra DRAM bursts spent on corruption fallbacks.
    pub fault_extra: u64,
    /// Forced metadata-cache eviction storms processed.
    pub eviction_storms: u64,
    /// Allocation attempts retried after a refused chunk/block grant.
    pub alloc_retries: u64,
    /// Allocations abandoned after the retry budget (page kept in a
    /// degraded layout instead of asserting).
    pub alloc_failures: u64,
    /// Balloon-driver inflate retries reported via
    /// `MpaController::on_balloon_retry`.
    pub balloon_retries: u64,

    /// Line sizes the device consumed: `size_memo_hits +
    /// size_memo_misses` (see [`crate::device`]).
    pub size_calls: u64,
    /// Line sizes served from the page's stored sizes, without touching
    /// the line data or the kernel (repack, recompression, re-plan).
    pub size_memo_hits: u64,
    /// Size-kernel runs: one per line on a page's first touch (or first
    /// need after recovery) and one per writeback.
    pub size_memo_misses: u64,
}

impl DeviceStats {
    /// Total DRAM bursts this device performed.
    pub fn total_accesses(&self) -> u64 {
        self.data_accesses
            + self.split_access_extra
            + self.overflow_extra
            + self.repack_extra
            + self.metadata_accesses
            + self.fault_extra
    }

    /// DRAM bursts the *uncompressed* system would have performed for the
    /// same demand stream (one per fill + one per writeback).
    pub fn baseline_accesses(&self) -> u64 {
        self.demand_fills + self.demand_writebacks
    }

    /// Compression-related extra accesses relative to the uncompressed
    /// baseline — the Fig. 4 / Fig. 6 metric. May be negative when
    /// zero-line and prefetch savings outweigh the overheads.
    pub fn relative_extra_accesses(&self) -> f64 {
        let base = self.baseline_accesses();
        if base == 0 {
            return 0.0;
        }
        (self.total_accesses() as f64 - base as f64) / base as f64
    }

    /// Breakdown of extra accesses by source, relative to baseline:
    /// `(split, overflow-related, metadata)`.
    pub fn extra_breakdown(&self) -> (f64, f64, f64) {
        let base = self.baseline_accesses().max(1) as f64;
        (
            self.split_access_extra as f64 / base,
            (self.overflow_extra + self.repack_extra) as f64 / base,
            self.metadata_accesses as f64 / base,
        )
    }

    /// Metadata cache hit rate in [0, 1].
    pub fn mcache_hit_rate(&self) -> f64 {
        let total = self.mcache_hits + self.mcache_misses;
        if total == 0 {
            0.0
        } else {
            self.mcache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_relative_extras() {
        let s = DeviceStats {
            demand_fills: 80,
            demand_writebacks: 20,
            data_accesses: 100,
            split_access_extra: 10,
            overflow_extra: 5,
            repack_extra: 2,
            metadata_accesses: 13,
            ..Default::default()
        };
        assert_eq!(s.baseline_accesses(), 100);
        assert_eq!(s.total_accesses(), 130);
        assert!((s.relative_extra_accesses() - 0.30).abs() < 1e-9);
        let (split, ovf, meta) = s.extra_breakdown();
        assert!((split - 0.10).abs() < 1e-9);
        assert!((ovf - 0.07).abs() < 1e-9);
        assert!((meta - 0.13).abs() < 1e-9);
    }

    #[test]
    fn zero_activity_is_zero() {
        let s = DeviceStats::default();
        assert_eq!(s.total_accesses(), 0);
        assert_eq!(s.relative_extra_accesses(), 0.0);
        assert_eq!(s.mcache_hit_rate(), 0.0);
    }

    #[test]
    fn savings_can_go_negative() {
        // Zero lines: fewer accesses than baseline.
        let s = DeviceStats {
            demand_fills: 100,
            data_accesses: 60,
            zero_fills: 40,
            ..Default::default()
        };
        assert!(s.relative_extra_accesses() < 0.0);
    }

    #[test]
    fn events_snapshot_and_registry_agree() {
        let mut ev = DeviceEvents::new();
        ev.page_overflows += 3;
        ev.repacks += 1;
        let reg = Registry::new();
        ev.register_metrics(&reg, "compresso");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("compresso.page_overflow.total"), Some(3));
        assert_eq!(snap.counter("compresso.repack.total"), Some(1));
        let stats = ev.snapshot();
        assert_eq!(stats.page_overflows, 3);
        assert_eq!(stats.repacks, 1);
        ev.reset();
        assert_eq!(ev.snapshot(), DeviceStats::default());
        // The registry sees the reset through the shared handles.
        assert_eq!(
            reg.snapshot().counter("compresso.page_overflow.total"),
            Some(0)
        );
    }

    #[test]
    fn size_fastpath_counters_are_registered() {
        let mut ev = DeviceEvents::new();
        ev.size_calls += 5;
        ev.size_memo_hits += 3;
        ev.size_memo_misses += 2;
        let reg = Registry::new();
        ev.register_metrics(&reg, "compresso");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("compresso.codec.size_fastpath.call.total"),
            Some(5)
        );
        assert_eq!(
            snap.counter("compresso.codec.size_fastpath.memo_hit.total"),
            Some(3)
        );
        assert_eq!(
            snap.counter("compresso.codec.size_fastpath.memo_miss.total"),
            Some(2)
        );
    }

    #[test]
    fn mcache_hit_rate_math() {
        let s = DeviceStats {
            mcache_hits: 75,
            mcache_misses: 25,
            ..Default::default()
        };
        assert!((s.mcache_hit_rate() - 0.75).abs() < 1e-9);
    }
}
