//! Event taxonomy for compressed-memory devices.
//!
//! The paper's data-movement analysis (Fig. 4, Fig. 6) classifies every
//! DRAM access a compressed system performs beyond what an uncompressed
//! system would: split-access line reads, overflow handling (line/page
//! overflows, inflation-room traffic, repacking), and metadata accesses.
//! The one `counters!` list below declares each event once: its
//! [`DeviceStats`] snapshot field, its [`DeviceEvents`] live handle and
//! its registered metric name.

use compresso_telemetry::counters;

counters! {
    /// Counters shared by all [`crate::MemoryDevice`] implementations.
    pub struct DeviceStats;
    /// Live counter handles behind [`DeviceStats`]. Devices bump these on
    /// the hot path; a [`compresso_telemetry::Registry`] holds clones of
    /// the same handles, so snapshots and epoch series observe every
    /// update without the device knowing about observers. The names are
    /// the paper-event names of DESIGN.md §9 (prefix `compresso` →
    /// `compresso.page_overflow.total`).
    pub struct DeviceEvents {
        /// OSPA cache-line fills requested by the LLC.
        demand_fills => "demand_fill.total",
        /// OSPA writebacks from the LLC.
        demand_writebacks => "demand_writeback.total",

        /// DRAM bursts for demand data (the uncompressed system would also
        /// perform these, one per fill/writeback).
        data_accesses => "data_access.total",
        /// Extra DRAM bursts because a compressed line straddled a 64 B
        /// boundary (§IV, source i).
        split_access_extra => "split_access_extra.total",
        /// Extra DRAM bursts handling line/page overflows, inflation-room
        /// placement and expansion (§IV, source ii).
        overflow_extra => "overflow_extra.total",
        /// Extra DRAM bursts from repacking pages (Compresso only).
        repack_extra => "repack_extra.total",
        /// DRAM bursts for metadata (§IV, source iii: metadata-cache misses
        /// and dirty metadata evictions).
        metadata_accesses => "metadata_access.total",

        /// Metadata cache hits.
        mcache_hits => "mcache.hit.total",
        /// Metadata cache misses.
        mcache_misses => "mcache.miss.total",

        /// Cache-line overflows (compressibility decreased on writeback).
        line_overflows => "line_overflow.total",
        /// Cache-line underflows (compressibility increased).
        line_underflows => "line_underflow.total",
        /// Page overflows (page no longer fits its allocation).
        page_overflows => "page_overflow.total",
        /// Dynamic inflation-room expansions (Compresso §IV-B3).
        ir_expansions => "inflation_room.expansion.total",
        /// Lines placed in an inflation room.
        ir_placements => "inflation_room.placement.total",
        /// Dynamic repacks performed (Compresso §IV-B4).
        repacks => "repack.total",
        /// Pages stored uncompressed by the overflow predictor (§IV-B2).
        predictor_inflations => "predictor.inflation.total",

        /// Fills of all-zero lines served from metadata alone.
        zero_fills => "zero_fill.total",
        /// Writebacks of all-zero lines absorbed by metadata alone.
        zero_writebacks => "zero_writeback.total",
        /// Fills served from the compressed-burst prefetch buffer
        /// ("free prefetch", §VII-A).
        prefetch_hits => "prefetch_hit.total",

        /// Faults injected by an attached [`crate::FaultPlan`] (always zero
        /// in production runs).
        injected_faults => "fault.injected.total",
        /// Pages degraded after metadata corruption: rewritten uncompressed
        /// (Compresso) or re-planned via the OS path (LCP).
        corruption_fallbacks => "fault.corruption_fallback.total",
        /// Corrupted metadata entries *detected* (CRC or field validation
        /// failed, or the entry disagreed with the committed view).
        corruption_detected => "metadata.corruption_detected.total",
        /// Corrupted metadata entries accepted silently — a flipped entry
        /// that decoded back bit-identical. Nonzero only before the CRC
        /// landed in the packed format; asserted zero since (DESIGN.md §10).
        corruption_undetected => "metadata.corruption_undetected.total",
        /// Extra DRAM bursts spent on corruption fallbacks.
        fault_extra => "fault.extra_access.total",
        /// Forced metadata-cache eviction storms processed.
        eviction_storms => "fault.eviction_storm.total",
        /// Allocation attempts retried after a refused chunk/block grant.
        alloc_retries => "alloc.retry.total",
        /// Allocations abandoned after the retry budget (page kept in a
        /// degraded layout instead of asserting).
        alloc_failures => "alloc.failure.total",
        /// Balloon-driver inflate retries reported via
        /// `MpaController::on_balloon_retry`.
        balloon_retries => "balloon.retry.total",

        /// Line sizes the device consumed: `size_memo_hits +
        /// size_memo_misses` (see [`crate::device`]).
        size_calls => "codec.size_fastpath.call.total",
        /// Line sizes served from the page's stored sizes, without touching
        /// the line data or the kernel (repack, recompression, re-plan).
        size_memo_hits => "codec.size_fastpath.memo_hit.total",
        /// Size-kernel runs: one per line on a page's first touch (or first
        /// need after recovery) and one per writeback.
        size_memo_misses => "codec.size_fastpath.memo_miss.total",
    }
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
    use compresso_telemetry::Registry;

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
        let mut ev = DeviceEvents::default();
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
    }

    #[test]
    fn size_fastpath_counters_are_registered() {
        let mut ev = DeviceEvents::default();
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
