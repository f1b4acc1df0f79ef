//! The memory-device abstraction, the uncompressed baseline, and the
//! stored line sizes the compressed devices keep.
//!
//! # Stored per-page line sizes
//!
//! Compresso's controller learns each line's bin from its metadata entry
//! and compresses a line again only when that line is written back
//! (§IV-B). The compressed devices mirror that: next to each page's
//! metadata they keep the compressed size of every line ([`LineSizes`]).
//! The size kernel is the devices' line codec, modified BPC (Tab. III);
//! the controller core both devices share runs it and serves the stored
//! sizes. The kernel runs 64 times on a page's first touch and once per
//! writeback; repacking, full-page recompression and LCP's re-plan read
//! the stored sizes and never run it. A recovered device has no stored
//! sizes: it sizes a page's lines the first time it needs them.
//!
//! The stored sizes are exact because the device is the **sole writer**
//! of its world: it is the only code that calls
//! [`LineSource::on_writeback`](compresso_workloads::LineSource::on_writeback),
//! and it re-sizes the line right after each call. Traces stay inside
//! the world's footprint, so an address never aliases another line's
//! bytes, and a line's bytes change only at its own writeback. The
//! sizes are simulator bookkeeping: they are not part of the packed 64 B
//! entry, its CRC or the journal.
//!
//! Compresso also tracks, per page, the sum of its stored sizes' bin
//! bytes: the data bytes the page would hold once repacked (the
//! free-space field of Fig. 3). It is set when a page is sized whole and
//! updated at each writeback re-size, so the repack trigger reads the
//! stored sizes only when repacking will free a chunk.
//!
//! The size counters in [`DeviceStats`] count this work exactly:
//! `size_memo_misses` is the number of kernel runs, `size_memo_hits` the
//! number of sizes served from stored state (64 per read of a page's
//! stored sizes), and `size_calls` their sum. A repack check decided by
//! the tracked sum reads no sizes and counts nothing.

use crate::metadata::LINES_PER_PAGE;
use crate::stats::{DeviceEvents, DeviceStats};
use compresso_cache_sim::Backend;
use compresso_mem_sim::{MainMemory, MemConfig, MemStats};
use compresso_telemetry::Registry;
use compresso_workloads::AddrSet;

/// Compressed size in bytes of each line of a page (0 for an all-zero
/// line), as of that line's last writeback.
pub type LineSizes = [u8; LINES_PER_PAGE];

/// A main-memory device: the uncompressed baseline, Compresso, or an LCP
/// variant. All devices speak OSPA line addresses on the LLC side and
/// perform MPA DRAM accesses internally.
pub trait MemoryDevice: Backend {
    /// Device name for reports ("uncompressed", "Compresso", "LCP", …).
    fn device_name(&self) -> &'static str;

    /// Snapshot of the compression/data-movement event counters.
    fn device_stats(&self) -> DeviceStats;

    /// Snapshot of the DRAM-level counters (row hits, activations, …)
    /// for energy.
    fn dram_stats(&self) -> MemStats;

    /// The metrics registry every subsystem of this device registers
    /// into (device events, DRAM controller, metadata cache, …).
    fn metrics(&self) -> &Registry;

    /// Current compression ratio: touched OSPA bytes over MPA bytes used
    /// (data + metadata). 1.0 for the uncompressed baseline.
    fn compression_ratio(&self) -> f64;

    /// MPA bytes currently in use (data + metadata).
    fn mpa_used_bytes(&self) -> u64;

    /// OSPA bytes touched so far.
    fn touched_ospa_bytes(&self) -> u64;
}

/// The uncompressed baseline: OSPA is MPA; every fill and writeback is
/// exactly one DRAM burst.
#[derive(Debug)]
pub struct UncompressedDevice {
    mem: MainMemory,
    stats: DeviceEvents,
    registry: Registry,
    touched_pages: AddrSet,
}

impl UncompressedDevice {
    /// Creates the baseline over the paper's DDR4-2666 channel.
    pub fn new() -> Self {
        Self::with_config(MemConfig::ddr4_2666())
    }

    /// Creates the baseline over an explicit DRAM configuration.
    pub fn with_config(config: MemConfig) -> Self {
        let registry = Registry::new();
        let stats = DeviceEvents::default();
        let mem = MainMemory::new(config);
        stats.register_metrics(&registry, "uncompressed");
        mem.register_metrics(&registry, "dram");
        Self {
            mem,
            stats,
            registry,
            touched_pages: AddrSet::default(),
        }
    }
}

impl Default for UncompressedDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for UncompressedDevice {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        self.stats.demand_fills += 1;
        self.stats.data_accesses += 1;
        self.touched_pages.insert(line_addr / 4096);
        self.mem.read(now, line_addr).complete_at
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        self.stats.demand_writebacks += 1;
        self.stats.data_accesses += 1;
        self.touched_pages.insert(line_addr / 4096);
        self.mem.write(now, line_addr).complete_at
    }
}

impl MemoryDevice for UncompressedDevice {
    fn device_name(&self) -> &'static str {
        "uncompressed"
    }

    fn device_stats(&self) -> DeviceStats {
        self.stats.snapshot()
    }

    fn dram_stats(&self) -> MemStats {
        self.mem.stats()
    }

    fn metrics(&self) -> &Registry {
        &self.registry
    }

    fn compression_ratio(&self) -> f64 {
        1.0
    }

    fn mpa_used_bytes(&self) -> u64 {
        self.touched_ospa_bytes()
    }

    fn touched_ospa_bytes(&self) -> u64 {
        self.touched_pages.len() as u64 * 4096
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_counts_one_access_per_demand() {
        let mut d = UncompressedDevice::new();
        let t1 = d.fill(0, 0x1000);
        assert!(t1 > 0);
        let t2 = d.writeback(t1, 0x2000);
        assert!(t2 >= t1);
        assert_eq!(d.device_stats().demand_fills, 1);
        assert_eq!(d.device_stats().demand_writebacks, 1);
        assert_eq!(d.device_stats().total_accesses(), 2);
        assert_eq!(d.device_stats().relative_extra_accesses(), 0.0);
    }

    #[test]
    fn baseline_ratio_is_one() {
        let mut d = UncompressedDevice::new();
        d.fill(0, 0);
        d.fill(0, 4096);
        assert_eq!(d.compression_ratio(), 1.0);
        assert_eq!(d.touched_ospa_bytes(), 8192);
        assert_eq!(d.mpa_used_bytes(), 8192);
    }
}
