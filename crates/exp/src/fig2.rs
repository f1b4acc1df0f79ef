//! Fig. 2: compression ratio of {BPC, BDI} × {LinePack, LCP-packing}.
//!
//! A static study over memory snapshots: for every page of every
//! benchmark we compute per-line compressed sizes and lay the page out
//! under both packing schemes. The paper's headline numbers: BPC with
//! LinePack averages 1.85×; LCP-packing costs 13% with BPC but only 2.3%
//! with BDI (because BPC produces more size-diverse lines).

use crate::sweep::{run_cells, successes, SweepOptions};
use compresso_compression::{Bdi, BinSet, Bpc, Compressor, LINE_SIZE};
use compresso_core::{lcp_plan, linepack_bytes, PageAllocation};
use compresso_telemetry::{
    CellMetrics, Counter, EpochRecorder, LatencyHistogram, MetricsReport, Registry,
};
use compresso_workloads::{
    all_benchmarks, BenchmarkProfile, DataWorld, LINES_PER_PAGE, PAGE_BYTES,
};

/// Ratios for one benchmark.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// BPC compressed, LinePack layout.
    pub bpc_linepack: f64,
    /// BPC compressed, LCP layout.
    pub bpc_lcp: f64,
    /// BDI compressed, LinePack layout.
    pub bdi_linepack: f64,
    /// BDI compressed, LCP layout.
    pub bdi_lcp: f64,
}

/// MPA bytes of a LinePack page of 512 B chunks whose lines compress to
/// `sizes`.
fn linepack_page_bytes(sizes: &[u8], bins: &BinSet) -> u64 {
    PageAllocation::Chunks512.fit(linepack_bytes(sizes, bins)) as u64
}

/// Computes the four ratios for one benchmark, sampling at most
/// `max_pages` pages, with the cell's metric bundle: page / line /
/// zero-line counters, per-codec compressed-line-size histograms, and
/// an epoch snapshot every `epoch` *OSPA bytes scanned* (the static
/// study's simulated clock; 0 disables).
pub fn ratios_for(
    profile: &BenchmarkProfile,
    max_pages: usize,
    epoch: u64,
) -> (Fig2Row, MetricsReport) {
    let world = DataWorld::new(profile);
    let bins = BinSet::aligned4();
    let bpc = Bpc::new();
    let bdi = Bdi::new();

    let registry = Registry::new();
    let mut pages_scanned = Counter::new();
    let mut lines_scanned = Counter::new();
    let mut zero_lines = Counter::new();
    registry.register_counter("fig2.page.total", &pages_scanned);
    registry.register_counter("fig2.line.total", &lines_scanned);
    registry.register_counter("fig2.zero_line.total", &zero_lines);
    let bpc_bytes = LatencyHistogram::line_bytes();
    let bdi_bytes = LatencyHistogram::line_bytes();
    registry.register_histogram("fig2.bpc.line_bytes", &bpc_bytes);
    registry.register_histogram("fig2.bdi.line_bytes", &bdi_bytes);
    let mut recorder = EpochRecorder::new(registry.clone(), epoch);

    let pages = profile.footprint_pages.min(max_pages) as u64;
    let mut totals = [0u64; 4]; // bpc_lp, bpc_lcp, bdi_lp, bdi_lcp
    let mut lines = [[0; LINE_SIZE]; LINES_PER_PAGE as usize];
    for page in 0..pages {
        let mut bpc_sizes = [0u8; LINES_PER_PAGE as usize];
        let mut bdi_sizes = [0u8; LINES_PER_PAGE as usize];
        world.page_lines(page * PAGE_BYTES, &mut lines);
        for (line, data) in lines.iter().enumerate() {
            lines_scanned += 1;
            if compresso_compression::is_zero_line(data) {
                zero_lines += 1;
                continue;
            }
            bpc_sizes[line] = bpc.compressed_size(data) as u8;
            bdi_sizes[line] = bdi.compressed_size(data) as u8;
            bpc_bytes.record(bpc_sizes[line] as u64);
            bdi_bytes.record(bdi_sizes[line] as u64);
        }
        totals[0] += linepack_page_bytes(&bpc_sizes, &bins);
        totals[1] += lcp_plan(&bpc_sizes, &bins).page_bytes() as u64;
        totals[2] += linepack_page_bytes(&bdi_sizes, &bins);
        totals[3] += lcp_plan(&bdi_sizes, &bins).page_bytes() as u64;
        pages_scanned += 1;
        recorder.observe((page + 1) * PAGE_BYTES);
    }
    let ospa = pages * PAGE_BYTES;
    let ratio = |mpa: u64| ospa as f64 / mpa.max(1) as f64;
    let row = Fig2Row {
        benchmark: profile.name.to_string(),
        bpc_linepack: ratio(totals[0]),
        bpc_lcp: ratio(totals[1]),
        bdi_linepack: ratio(totals[2]),
        bdi_lcp: ratio(totals[3]),
    };
    (
        row,
        MetricsReport::from_parts(registry.snapshot(), recorder),
    )
}

/// Runs the full Fig. 2 study, one sweep cell per benchmark, also
/// returning exportable per-cell metric bundles (epoch ticks are OSPA
/// bytes scanned).
pub fn fig2(max_pages: usize, opts: &SweepOptions) -> (Vec<Fig2Row>, Vec<CellMetrics>) {
    let cells: Vec<(String, BenchmarkProfile)> = all_benchmarks()
        .into_iter()
        .map(|p| (format!("fig2/{}", p.name), p))
        .collect();
    let outcomes = run_cells(cells, |p| ratios_for(&p, max_pages, opts.epoch), opts);
    let metrics = crate::metrics::collect(&outcomes, |(_, report)| report);
    let rows = successes(outcomes)
        .into_iter()
        .map(|(row, _)| row)
        .collect();
    (rows, metrics)
}

/// Arithmetic-mean summary row over benchmark ratios (the paper's
/// "Average" bar).
pub fn average(rows: &[Fig2Row]) -> Fig2Row {
    let n = rows.len().max(1) as f64;
    Fig2Row {
        benchmark: "Average".to_string(),
        bpc_linepack: rows.iter().map(|r| r.bpc_linepack).sum::<f64>() / n,
        bpc_lcp: rows.iter().map(|r| r.bpc_lcp).sum::<f64>() / n,
        bdi_linepack: rows.iter().map(|r| r.bdi_linepack).sum::<f64>() / n,
        bdi_lcp: rows.iter().map(|r| r.bdi_lcp).sum::<f64>() / n,
    }
}

/// The §II-A BPC-modification ablation: average ratio with the
/// best-of-both-modes BPC versus transform-only BPC (paper: ~13% more
/// memory saved).
pub fn bpc_modification_gain(profile: &BenchmarkProfile, max_pages: usize) -> (f64, f64) {
    let world = DataWorld::new(profile);
    let bins = BinSet::aligned4();
    let bpc = Bpc::new();
    let pages = profile.footprint_pages.min(max_pages) as u64;
    let (mut modified, mut baseline) = (0u64, 0u64);
    let mut lines = [[0; LINE_SIZE]; LINES_PER_PAGE as usize];
    for page in 0..pages {
        let mut mod_sizes = [0u8; LINES_PER_PAGE as usize];
        let mut base_sizes = [0u8; LINES_PER_PAGE as usize];
        world.page_lines(page * PAGE_BYTES, &mut lines);
        for (line, data) in lines.iter().enumerate() {
            if compresso_compression::is_zero_line(data) {
                continue;
            }
            mod_sizes[line] = bpc.compress(data).size_bytes() as u8;
            base_sizes[line] = bpc.compress_transform_only(data).size_bytes() as u8;
        }
        modified += linepack_page_bytes(&mod_sizes, &bins);
        baseline += linepack_page_bytes(&base_sizes, &bins);
    }
    let ospa = (pages * PAGE_BYTES) as f64;
    (ospa / modified.max(1) as f64, ospa / baseline.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compresso_workloads::benchmark;

    #[test]
    fn zeusmp_is_the_outlier() {
        let r = ratios_for(&benchmark("zeusmp").unwrap(), 400, 0).0;
        assert!(
            r.bpc_linepack > 4.0,
            "zeusmp BPC+LinePack should be high: {:.2}",
            r.bpc_linepack
        );
    }

    #[test]
    fn mcf_is_incompressible() {
        let r = ratios_for(&benchmark("mcf").unwrap(), 400, 0).0;
        assert!(r.bpc_linepack < 1.5, "mcf: {:.2}", r.bpc_linepack);
    }

    #[test]
    fn linepack_never_loses_to_lcp() {
        for name in ["gcc", "omnetpp", "soplex", "Forestfire"] {
            let r = ratios_for(&benchmark(name).unwrap(), 200, 0).0;
            assert!(
                r.bpc_linepack >= r.bpc_lcp * 0.999,
                "{name}: LinePack {:.2} vs LCP {:.2}",
                r.bpc_linepack,
                r.bpc_lcp
            );
        }
    }

    #[test]
    fn lcp_costs_more_under_bpc_than_bdi() {
        // The Fig. 2 asymmetry, over the benchmarks where BPC produces
        // size-diverse lines.
        let rows = ["gcc", "cactusADM", "libquantum", "Graph500", "Pagerank"]
            .iter()
            .map(|n| ratios_for(&benchmark(n).unwrap(), 200, 0).0)
            .collect::<Vec<_>>();
        let avg = average(&rows);
        let bpc_loss = 1.0 - avg.bpc_lcp / avg.bpc_linepack;
        let bdi_loss = 1.0 - avg.bdi_lcp / avg.bdi_linepack;
        assert!(
            bpc_loss > bdi_loss,
            "LCP must hurt BPC ({bpc_loss:.3}) more than BDI ({bdi_loss:.3})"
        );
    }

    #[test]
    fn modified_bpc_never_worse() {
        let (modified, baseline) = bpc_modification_gain(&benchmark("perlbench").unwrap(), 100);
        assert!(
            modified >= baseline * 0.999,
            "{modified:.3} vs {baseline:.3}"
        );
    }
}
