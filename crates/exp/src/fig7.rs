//! Fig. 7: compression ratio squandered without dynamic repacking.
//!
//! Repacking matters for *long-running* applications (§IV-B4): over time,
//! writes make parts of the data more compressible (underflows), and the
//! paper's data-movement optimizations deliberately leave some pages
//! poorly packed. A system that never repacks keeps every page at its
//! high-water-mark size. This experiment models a long run directly: it
//! ages the benchmark's footprint through several writeback epochs (so
//! improving pages actually improve), interleaved with fill sweeps that
//! stream metadata-cache evictions — Compresso's repacking trigger — and
//! then compares the final compression ratios.

use crate::report::{f2, pct, render_table, Column};
use crate::sweep::{run_cells, successes, SweepOptions};
use compresso_cache_sim::Backend;
use compresso_core::{CompressoConfig, CompressoDevice, MemoryDevice};
use compresso_telemetry::{CellMetrics, EpochRecorder, MetricsReport};
use compresso_workloads::{all_benchmarks, DataWorld, Evolution, PAGE_BYTES};

/// Repacking impact for one benchmark.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Compression ratio with dynamic repacking (Compresso).
    pub with_repacking: f64,
    /// Compression ratio with repacking disabled.
    pub without_repacking: f64,
    /// Relative ratio (without / with): < 1 is squandered compression.
    pub relative: f64,
    /// Fraction of accesses spent on repack traffic (the cost side).
    pub repack_overhead: f64,
}

fn aged_run(
    benchmark: &str,
    repacking: bool,
    pages: usize,
    epoch: u64,
) -> (f64, f64, MetricsReport) {
    let profile = compresso_workloads::benchmark(benchmark).expect("known benchmark");
    let scan = DataWorld::new(&profile);
    let footprint = profile.footprint_pages as u64;
    // The aged region: the first `pages` pages whose data evolves with
    // writes (improving pages drive underflows; degrading ones inflate).
    let aged: Vec<u64> = (0..footprint)
        .filter(|&p| scan.evolution_of(p * PAGE_BYTES) != Evolution::Stable)
        .take(pages)
        .collect();
    let mut cfg = CompressoConfig::compresso();
    cfg.repacking = repacking;
    let mut device = CompressoDevice::new(cfg, DataWorld::new(&profile));
    let registry = device.metrics().clone();
    let mut recorder = EpochRecorder::new(registry.clone(), epoch);

    let mut t = 0u64;
    // Age: several epochs of writebacks over the evolving pages, each
    // followed by a fill sweep wide enough to stream the 1536-entry
    // metadata cache — the eviction trigger repacking hangs off.
    let sweep = footprint.min(2500);
    for _ in 0..4 {
        for &page in &aged {
            for line in 0..64u64 {
                recorder.observe(t);
                t = device.writeback(t, page * PAGE_BYTES + line * 64).max(t);
            }
        }
        for page in 0..sweep {
            recorder.observe(t);
            t = device.fill(t, page * PAGE_BYTES).max(t);
        }
    }
    // Ratio over the aged region only (the long-lived data Fig. 7 is
    // about).
    let allocated: u64 = aged
        .iter()
        .map(|&p| device.page_allocated_bytes(p).unwrap_or(0) as u64 + 64)
        .sum();
    let ratio = aged.len() as f64 * PAGE_BYTES as f64 / allocated.max(1) as f64;
    let repack_traffic = device.device_stats().repack_extra as f64
        / device.device_stats().baseline_accesses().max(1) as f64;
    let metrics = MetricsReport::from_parts(registry.snapshot(), recorder);
    (ratio, repack_traffic, metrics)
}

/// Runs one benchmark's long-run aging with and without repacking,
/// also returning the with-repacking run's metric bundle (epochs tick
/// in aged device time every `epoch` cycles; 0 disables).
pub fn repacking_impact(benchmark: &str, pages: usize, epoch: u64) -> (Fig7Row, MetricsReport) {
    let (with, overhead, metrics) = aged_run(benchmark, true, pages, epoch);
    let (without, _, _) = aged_run(benchmark, false, pages, 0);
    let row = Fig7Row {
        benchmark: benchmark.to_string(),
        with_repacking: with,
        without_repacking: without,
        relative: without / with.max(1e-9),
        repack_overhead: overhead,
    };
    (row, metrics)
}

/// The full Fig. 7 sweep, one cell per benchmark, with per-cell metric
/// export (the with-repacking device's registry per benchmark). `pages`
/// bounds the aged region per benchmark.
pub fn fig7(pages: usize, opts: &SweepOptions) -> (Vec<Fig7Row>, Vec<CellMetrics>) {
    let cells: Vec<(String, &'static str)> = all_benchmarks()
        .iter()
        .map(|p| (format!("fig7/{}", p.name), p.name))
        .collect();
    let outcomes = run_cells(
        cells,
        |name| repacking_impact(name, pages, opts.epoch),
        opts,
    );
    let metrics = crate::metrics::collect(&outcomes, |(_, report)| report);
    let rows = successes(outcomes)
        .into_iter()
        .map(|(row, _)| row)
        .collect();
    (rows, metrics)
}

/// The Fig. 7 report: every benchmark's ratio with and without
/// repacking and its repack traffic, then [`summary`].
pub fn report(rows: &[Fig7Row]) -> String {
    let columns: [Column<Fig7Row>; 5] = [
        ("benchmark", |r| r.benchmark.clone()),
        ("with-repack", |r| f2(r.with_repacking)),
        ("no-repack", |r| f2(r.without_repacking)),
        ("relative", |r| f2(r.relative)),
        ("repack-traffic", |r| pct(r.repack_overhead)),
    ];
    format!("{}\n{}", render_table(rows, &columns), summary(rows))
}

/// The Fig. 7 headline: the average ratio retained without repacking and
/// the average repack traffic, against the paper's.
pub fn summary(rows: &[Fig7Row]) -> String {
    let n = rows.len().max(1) as f64;
    let relative = rows.iter().map(|r| r.relative).sum::<f64>() / n;
    let traffic = rows.iter().map(|r| r.repack_overhead).sum::<f64>() / n;
    format!(
        "average relative ratio without repacking: {} (paper: 24% squandered);\n\
         repack traffic: {} of accesses (paper: 1.8%)\n",
        f2(relative),
        pct(traffic)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repacking_recovers_squandered_compression() {
        // GemsFDTD has 10% improving pages: without repacking their
        // shrunken data stays in oversized pages.
        let r = repacking_impact("GemsFDTD", 300, 0).0;
        assert!(
            r.with_repacking > r.without_repacking,
            "repacking must recover space: {:.3} vs {:.3}",
            r.with_repacking,
            r.without_repacking
        );
        assert!(r.relative < 1.0);
    }

    #[test]
    fn repack_traffic_is_small() {
        let r = repacking_impact("gcc", 200, 0).0;
        assert!(
            r.repack_overhead < 0.10,
            "repacking must stay cheap: {:.3}",
            r.repack_overhead
        );
    }
}
