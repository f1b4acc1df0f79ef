//! Energy model for the Compresso reproduction (§VII-C, Fig. 12).
//!
//! The paper evaluates energy with McPAT/CACTI plus a 40 nm TSMC
//! synthesis of the BPC unit. We replace those tools with an analytical
//! per-event model using the constants the paper itself reports:
//!
//! * the BPC unit draws 7 mW active — under 0.4% of a DDR4-2666 channel;
//! * a 96 KB metadata-cache access costs 0.08 nJ — under 0.8% of a DRAM
//!   read;
//! * DRAM event energies (activate / read / write burst) use typical
//!   DDR4 datasheet-derived values.
//!
//! Because Fig. 12 reports energy *relative to the uncompressed system*,
//! only the ratios between these constants matter, and those are anchored
//! to the paper's reported percentages.

#![forbid(unsafe_code)]

use compresso_core::DeviceStats;
use compresso_mem_sim::MemStats;

/// Per-event energy constants (nanojoules) and powers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy of one 64 B DRAM read burst.
    pub dram_read_nj: f64,
    /// Energy of one 64 B DRAM write burst.
    pub dram_write_nj: f64,
    /// Energy of one row activation (ACT+PRE pair).
    pub dram_activate_nj: f64,
    /// DRAM background power in watts (refresh, standby).
    pub dram_background_w: f64,
    /// One metadata-cache access (0.08 nJ per the paper).
    pub mcache_access_nj: f64,
    /// BPC compressor/decompressor active power in watts (7 mW).
    pub bpc_power_w: f64,
    /// Latency of one (de)compression in seconds (12 cycles at 3 GHz).
    pub codec_seconds: f64,
    /// Core active power in watts.
    pub core_power_w: f64,
    /// Core clock in Hz.
    pub core_hz: f64,
}

impl EnergyParams {
    /// The paper's platform constants.
    pub fn paper_default() -> Self {
        Self {
            dram_read_nj: 20.0,
            dram_write_nj: 22.0,
            dram_activate_nj: 15.0,
            dram_background_w: 0.15,
            mcache_access_nj: 0.08,
            bpc_power_w: 0.007,
            codec_seconds: 12.0 / 3.0e9,
            core_power_w: 10.0,
            core_hz: 3.0e9,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Energy totals for one run, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// DRAM dynamic + background energy.
    pub dram_nj: f64,
    /// Core energy (∝ runtime).
    pub core_nj: f64,
    /// Memory-controller compression overhead (BPC unit + metadata
    /// cache).
    pub mc_overhead_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total_nj(&self) -> f64 {
        self.dram_nj + self.core_nj + self.mc_overhead_nj
    }
}

/// Evaluates the energy of a run that took `cycles` core cycles.
pub fn evaluate(
    device: &DeviceStats,
    dram: &MemStats,
    cycles: u64,
    params: &EnergyParams,
) -> EnergyBreakdown {
    let seconds = cycles as f64 / params.core_hz;
    let dram_dynamic = dram.reads as f64 * params.dram_read_nj
        + dram.writes as f64 * params.dram_write_nj
        + dram.activations as f64 * params.dram_activate_nj;
    let dram_background = params.dram_background_w * seconds * 1e9;
    let codec_events = device
        .demand_fills
        .saturating_sub(device.zero_fills)
        .saturating_sub(device.prefetch_hits) as f64
        + device
            .demand_writebacks
            .saturating_sub(device.zero_writebacks) as f64;
    let bpc = codec_events.max(0.0) * params.bpc_power_w * params.codec_seconds * 1e9;
    let mcache = (device.mcache_hits + device.mcache_misses) as f64 * params.mcache_access_nj;
    EnergyBreakdown {
        dram_nj: dram_dynamic + dram_background,
        core_nj: params.core_power_w * seconds * 1e9,
        mc_overhead_nj: bpc + mcache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(reads: u64, writes: u64, acts: u64) -> MemStats {
        MemStats {
            reads,
            writes,
            activations: acts,
            ..Default::default()
        }
    }

    #[test]
    fn dram_energy_scales_with_accesses() {
        let p = EnergyParams::paper_default();
        let d = DeviceStats::default();
        let few = evaluate(&d, &stats(100, 0, 10), 1000, &p);
        let many = evaluate(&d, &stats(200, 0, 20), 1000, &p);
        assert!(many.dram_nj > few.dram_nj);
        assert!((many.dram_nj - few.dram_nj - (100.0 * 20.0 + 10.0 * 15.0)).abs() < 1e-6);
    }

    #[test]
    fn core_energy_scales_with_runtime() {
        let p = EnergyParams::paper_default();
        let d = DeviceStats::default();
        let short = evaluate(&d, &stats(0, 0, 0), 3_000_000, &p);
        let long = evaluate(&d, &stats(0, 0, 0), 6_000_000, &p);
        assert!((long.core_nj / short.core_nj - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_ratio_bpc_is_tiny_vs_dram() {
        // §VII-C: BPC active power is <0.4% of a channel; one compression
        // event's energy must be far below one DRAM read.
        let p = EnergyParams::paper_default();
        let per_codec_nj = p.bpc_power_w * p.codec_seconds * 1e9;
        assert!(per_codec_nj < 0.01 * p.dram_read_nj);
        // Metadata-cache access < 0.8% of a DRAM read.
        assert!(p.mcache_access_nj < 0.008 * p.dram_read_nj);
    }

    #[test]
    fn overhead_counts_codec_and_mcache_events() {
        let p = EnergyParams::paper_default();
        let d = DeviceStats {
            demand_fills: 100,
            zero_fills: 20,
            prefetch_hits: 10,
            demand_writebacks: 50,
            zero_writebacks: 5,
            mcache_hits: 140,
            mcache_misses: 10,
            ..Default::default()
        };
        let e = evaluate(&d, &stats(0, 0, 0), 0, &p);
        let codec_events = (100.0 - 20.0 - 10.0) + (50.0 - 5.0);
        let expected =
            codec_events * p.bpc_power_w * p.codec_seconds * 1e9 + 150.0 * p.mcache_access_nj;
        assert!((e.mc_overhead_nj - expected).abs() < 1e-9);
    }

    #[test]
    fn totals_add_up() {
        let p = EnergyParams::paper_default();
        let d = DeviceStats::default();
        let e = evaluate(&d, &stats(10, 10, 5), 1000, &p);
        assert!((e.total_nj() - (e.dram_nj + e.core_nj + e.mc_overhead_nj)).abs() < 1e-12);
    }
}
