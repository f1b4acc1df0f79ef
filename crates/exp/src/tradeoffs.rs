//! §IV-A1 trade-off studies: number of line-size bins and page sizes
//! versus compression ratio and overflow-induced data movement.

use crate::report::{f2, render_table, Column};
use crate::runner::SystemKind;
use crate::sweep::{run_cells, run_grid, successes, SweepCell, SweepOptions};
use compresso_compression::{BinSet, Bpc, Compressor, LINE_SIZE};
use compresso_core::{linepack_bytes, CompressoConfig, PageAllocation};
use compresso_telemetry::CellMetrics;
use compresso_workloads::{
    all_benchmarks, BenchmarkProfile, DataWorld, LINES_PER_PAGE, PAGE_BYTES,
};

/// Benchmarks whose cycle runs supply the overflow counts.
const OVERFLOW_BENCHMARKS: [&str; 4] = ["gcc", "lbm", "libquantum", "Forestfire"];

/// Result of one trade-off configuration.
#[derive(Debug, Clone)]
pub struct TradeoffRow {
    /// Configuration label.
    pub config: String,
    /// Average compression ratio across the benchmark suite.
    pub avg_ratio: f64,
    /// Total line overflows across the sampled runs.
    pub line_overflows: u64,
    /// Total page overflows.
    pub page_overflows: u64,
}

fn static_ratio_of(
    profile: &BenchmarkProfile,
    bins: &BinSet,
    allocation: PageAllocation,
    max_pages: usize,
) -> f64 {
    let bpc = Bpc::new();
    let world = DataWorld::new(profile);
    let pages = profile.footprint_pages.min(max_pages) as u64;
    let mut mpa = 0u64;
    let mut lines = [[0; LINE_SIZE]; LINES_PER_PAGE as usize];
    for page in 0..pages {
        world.page_lines(page * PAGE_BYTES, &mut lines);
        let sizes = lines.each_ref().map(|data| {
            if compresso_compression::is_zero_line(data) {
                0
            } else {
                bpc.compressed_size(data) as u8
            }
        });
        mpa += allocation.fit(linepack_bytes(&sizes, bins)) as u64;
    }
    pages as f64 * PAGE_BYTES as f64 / mpa.max(1) as f64
}

fn static_ratio(
    bins: &BinSet,
    allocation: PageAllocation,
    max_pages: usize,
    opts: &SweepOptions,
) -> f64 {
    let cells: Vec<(String, BenchmarkProfile)> = all_benchmarks()
        .into_iter()
        .map(|p| (format!("static-ratio/{}", p.name), p))
        .collect();
    let ratios = successes(run_cells(
        cells,
        |p| static_ratio_of(&p, bins, allocation, max_pages),
        opts,
    ));
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

fn overflow_totals(
    label: &str,
    cfg: &CompressoConfig,
    ops: usize,
    opts: &SweepOptions,
    metrics: &mut Vec<CellMetrics>,
) -> (u64, u64) {
    let cells: Vec<SweepCell> = OVERFLOW_BENCHMARKS
        .iter()
        .map(|name| {
            SweepCell::single(
                name,
                SystemKind::custom(format!("{label}/{name}"), cfg.clone()),
                ops,
            )
        })
        .collect();
    let outcomes = run_grid(cells, opts);
    metrics.extend(crate::metrics::runs_to_cells(&outcomes));
    let runs = successes(outcomes);
    (
        runs.iter().map(|r| r.device.line_overflows).sum(),
        runs.iter().map(|r| r.device.page_overflows).sum(),
    )
}

/// Evaluates each `(label, config)`: the suite's average static
/// compression ratio under the config's bins and page allocation, and
/// the overflow totals of its cycle runs, whose metric bundles are
/// appended to `metrics`.
fn tradeoff(
    configs: &[(&str, CompressoConfig)],
    max_pages: usize,
    ops: usize,
    opts: &SweepOptions,
    metrics: &mut Vec<CellMetrics>,
) -> Vec<TradeoffRow> {
    configs
        .iter()
        .map(|(label, cfg)| {
            let avg_ratio = static_ratio(&cfg.bins, cfg.allocation, max_pages, opts);
            let (line_overflows, page_overflows) = overflow_totals(label, cfg, ops, opts, metrics);
            TradeoffRow {
                config: label.to_string(),
                avg_ratio,
                line_overflows,
                page_overflows,
            }
        })
        .collect()
}

/// Both §IV-A1 studies, each titled with the paper's numbers: line-size
/// bins (4 vs 8; ratio up, overflows up), then page sizes (8 incremental
/// vs 4 variable). Returns each study's rows and the metric cells of all
/// their cycle runs.
pub fn tradeoffs(
    max_pages: usize,
    ops: usize,
    opts: &SweepOptions,
) -> (Vec<(&'static str, Vec<TradeoffRow>)>, Vec<CellMetrics>) {
    let with_bins = |bins| CompressoConfig {
        bins,
        ..CompressoConfig::compresso()
    };
    let variable = CompressoConfig {
        allocation: PageAllocation::Variable4,
        ir_expansion: false,
        ..CompressoConfig::compresso()
    };
    let studies = [
        (
            "Line-size bins (paper: 8 bins 1.82x vs 4 bins 1.59x; +17.5% line overflows)",
            [
                ("4-line-bins", with_bins(BinSet::aligned4())),
                ("8-line-bins", with_bins(BinSet::eight())),
            ],
        ),
        (
            "Page sizes (paper: 8 sizes 1.85x vs 4 sizes 1.59x; up to +53% resizing)",
            [
                ("8-page-sizes", CompressoConfig::compresso()),
                ("4-page-sizes", variable),
            ],
        ),
    ];
    let mut metrics = Vec::new();
    let rows = studies
        .into_iter()
        .map(|(title, configs)| {
            (
                title,
                tradeoff(&configs, max_pages, ops, opts, &mut metrics),
            )
        })
        .collect();
    (rows, metrics)
}

/// The §IV-A1 report: one table per study under its title.
pub fn report(studies: &[(&str, Vec<TradeoffRow>)]) -> String {
    let columns: [Column<TradeoffRow>; 4] = [
        ("config", |r| r.config.clone()),
        ("avg-ratio", |r| f2(r.avg_ratio)),
        ("line-overflows", |r| r.line_overflows.to_string()),
        ("page-overflows", |r| r.page_overflows.to_string()),
    ];
    let tables = studies
        .iter()
        .map(|(title, rows)| format!("{title}\n{}\n", render_table(rows, &columns)));
    tables.collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_page_sizes_compress_better() {
        // §IV-A1: 8 page sizes reach 1.85 average vs 1.59 with 4.
        let opts = SweepOptions::serial();
        let eight = static_ratio(&BinSet::aligned4(), PageAllocation::Chunks512, 80, &opts);
        let four = static_ratio(&BinSet::aligned4(), PageAllocation::Variable4, 80, &opts);
        assert!(eight > four, "8 sizes ({eight:.2}) must beat 4 ({four:.2})");
    }

    #[test]
    fn eight_line_bins_compress_no_worse() {
        let opts = SweepOptions::serial();
        let eight = static_ratio(&BinSet::eight(), PageAllocation::Chunks512, 60, &opts);
        let four = static_ratio(&BinSet::aligned4(), PageAllocation::Chunks512, 60, &opts);
        assert!(
            eight >= four * 0.999,
            "8 bins ({eight:.2}) vs 4 ({four:.2})"
        );
    }

    #[test]
    fn static_ratio_is_jobs_invariant() {
        let serial = static_ratio(
            &BinSet::aligned4(),
            PageAllocation::Chunks512,
            30,
            &SweepOptions::serial(),
        );
        let parallel = static_ratio(
            &BinSet::aligned4(),
            PageAllocation::Chunks512,
            30,
            &SweepOptions::with_jobs(4),
        );
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }
}
