//! Fig. 4 and Fig. 6: compression-related data movement and the
//! optimization ablation.

use crate::report::{pct, render_table, Column};
use crate::runner::{RunResult, SystemKind};
use crate::sweep::{run_grid, successes, SweepCell, SweepOptions};
use compresso_core::{CompressoConfig, PageAllocation};
use compresso_telemetry::CellMetrics;
use compresso_workloads::all_benchmarks;

/// Extra-access breakdown for one benchmark under one configuration.
#[derive(Debug, Clone)]
pub struct MovementRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Configuration label.
    pub config: String,
    /// Split-access extra accesses relative to baseline accesses.
    pub split: f64,
    /// Overflow-handling extras (incl. repack traffic).
    pub overflow: f64,
    /// Metadata accesses.
    pub metadata: f64,
    /// Total gross extra accesses (split + overflow + metadata) relative
    /// to baseline accesses — the Fig. 4/6 metric. Zero-line and
    /// prefetch *savings* are a separate (bandwidth) benefit and are not
    /// netted out here, matching the paper.
    pub total: f64,
}

fn row_of(r: &RunResult) -> MovementRow {
    let (split, overflow, metadata) = r.device.extra_breakdown();
    MovementRow {
        benchmark: r.workload.clone(),
        config: r.system.clone(),
        split,
        overflow,
        metadata,
        total: split + overflow + metadata,
    }
}

/// Runs every benchmark under each `(label, config)` and returns the
/// movement rows with the exportable per-cell metric bundles.
fn movement_sweep(
    configs: &[(&str, CompressoConfig)],
    ops: usize,
    opts: &SweepOptions,
) -> (Vec<MovementRow>, Vec<CellMetrics>) {
    let mut cells = Vec::new();
    for profile in all_benchmarks() {
        for (label, cfg) in configs {
            cells.push(SweepCell::single(
                profile.name,
                SystemKind::custom(*label, cfg.clone()),
                ops,
            ));
        }
    }
    let outcomes = run_grid(cells, opts);
    let metrics = crate::metrics::runs_to_cells(&outcomes);
    (successes(outcomes).iter().map(row_of).collect(), metrics)
}

/// Fig. 4: the unoptimized compressed system's extra accesses, for fixed
/// 512 B chunks (left bars) and 4 variable-sized chunks (right bars).
pub fn fig4(ops: usize, opts: &SweepOptions) -> (Vec<MovementRow>, Vec<CellMetrics>) {
    let configs = [
        (
            "fixed512",
            CompressoConfig::unoptimized(PageAllocation::Chunks512),
        ),
        (
            "variable4",
            CompressoConfig::unoptimized(PageAllocation::Variable4),
        ),
    ];
    movement_sweep(&configs, ops, opts)
}

/// Fig. 6: extra accesses as the optimizations land cumulatively
/// (ablation ladder), per benchmark.
pub fn fig6(ops: usize, opts: &SweepOptions) -> (Vec<MovementRow>, Vec<CellMetrics>) {
    let ladder = CompressoConfig::ablation_ladder(PageAllocation::Chunks512);
    movement_sweep(&ladder, ops, opts)
}

/// Average total extra accesses per configuration label.
pub fn averages(rows: &[MovementRow]) -> Vec<(String, f64)> {
    let mut order: Vec<String> = Vec::new();
    for r in rows {
        if !order.contains(&r.config) {
            order.push(r.config.clone());
        }
    }
    order
        .into_iter()
        .map(|config| {
            let values: Vec<f64> = rows
                .iter()
                .filter(|r| r.config == config)
                .map(|r| r.total)
                .collect();
            let avg = values.iter().sum::<f64>() / values.len().max(1) as f64;
            (config, avg)
        })
        .collect()
}

/// The movement table; `config` heads the configuration column.
fn table(rows: &[MovementRow], config: &'static str) -> String {
    let columns: [Column<MovementRow>; 6] = [
        ("benchmark", |r| r.benchmark.clone()),
        (config, |r| r.config.clone()),
        ("split", |r| pct(r.split)),
        ("overflow", |r| pct(r.overflow)),
        ("metadata", |r| pct(r.metadata)),
        ("total-extra", |r| pct(r.total)),
    ];
    render_table(rows, &columns)
}

/// The Fig. 4 report: every benchmark's extra accesses per allocation,
/// then each allocation's average against the paper's.
pub fn fig4_report(rows: &[MovementRow]) -> String {
    let mut out = table(rows, "alloc") + "\n";
    for (config, avg) in averages(rows) {
        out += &format!(
            "average extra accesses [{config}]: {} (paper avg: 63%)\n",
            pct(avg)
        );
    }
    out
}

/// The Fig. 6 report: every benchmark's extra accesses per rung, then
/// [`fig6_summary`].
pub fn fig6_report(rows: &[MovementRow]) -> String {
    format!("{}\n{}", table(rows, "config"), fig6_summary(rows))
}

/// The Fig. 6 headline: each rung's average extra accesses against the
/// paper's ladder.
pub fn fig6_summary(rows: &[MovementRow]) -> String {
    let mut out = String::from("cumulative averages (paper: 63% -> 36% -> 26% -> 19% -> 15%):\n");
    for (config, avg) in averages(rows) {
        out += &format!("  {config:<22} {}\n", pct(avg));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_single;

    fn movement_of(benchmark: &str, label: &str, cfg: CompressoConfig, ops: usize) -> MovementRow {
        let profile = compresso_workloads::benchmark(benchmark).expect("known benchmark");
        let r = run_single(&profile, &SystemKind::custom(label, cfg), ops);
        row_of(&r)
    }

    #[test]
    fn ablation_reduces_average_extra_accesses() {
        // Small run over a handful of benchmarks: the full ladder must
        // end lower than it starts.
        let ladder = CompressoConfig::ablation_ladder(PageAllocation::Chunks512);
        let first = &ladder[0];
        let last = &ladder[ladder.len() - 1];
        let mut base_total = 0.0;
        let mut opt_total = 0.0;
        for name in ["gcc", "libquantum", "soplex"] {
            base_total += movement_of(name, first.0, first.1.clone(), 6_000).total;
            opt_total += movement_of(name, last.0, last.1.clone(), 6_000).total;
        }
        assert!(
            opt_total < base_total,
            "optimizations must reduce movement: {opt_total:.3} vs {base_total:.3}"
        );
    }

    #[test]
    fn alignment_kills_splits() {
        let legacy = movement_of(
            "gcc",
            "legacy",
            CompressoConfig::unoptimized(PageAllocation::Chunks512),
            5_000,
        );
        let mut aligned_cfg = CompressoConfig::unoptimized(PageAllocation::Chunks512);
        aligned_cfg.bins = compresso_compression::BinSet::aligned4();
        let aligned = movement_of("gcc", "aligned", aligned_cfg, 5_000);
        assert!(
            aligned.split < legacy.split * 0.5,
            "aligned bins must slash splits: {:.3} vs {:.3}",
            aligned.split,
            legacy.split
        );
    }

    #[test]
    fn averages_group_by_config() {
        let rows = vec![
            MovementRow {
                benchmark: "a".into(),
                config: "x".into(),
                split: 0.0,
                overflow: 0.0,
                metadata: 0.0,
                total: 0.2,
            },
            MovementRow {
                benchmark: "b".into(),
                config: "x".into(),
                split: 0.0,
                overflow: 0.0,
                metadata: 0.0,
                total: 0.4,
            },
        ];
        let avgs = averages(&rows);
        assert_eq!(avgs.len(), 1);
        assert!((avgs[0].1 - 0.3).abs() < 1e-9);
    }

    #[test]
    fn fig4_parallel_matches_serial_movement() {
        // A two-benchmark slice of the Fig. 4 grid, serial vs parallel.
        let cells = |ops| {
            ["gcc", "soplex"]
                .iter()
                .map(|b| {
                    SweepCell::single(
                        b,
                        SystemKind::custom(
                            "fixed512",
                            CompressoConfig::unoptimized(PageAllocation::Chunks512),
                        ),
                        ops,
                    )
                })
                .collect::<Vec<_>>()
        };
        let serial: Vec<MovementRow> = successes(run_grid(cells(2_000), &SweepOptions::serial()))
            .iter()
            .map(row_of)
            .collect();
        let parallel: Vec<MovementRow> =
            successes(run_grid(cells(2_000), &SweepOptions::with_jobs(2)))
                .iter()
                .map(row_of)
                .collect();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.benchmark, p.benchmark);
            assert_eq!(s.total.to_bits(), p.total.to_bits());
        }
    }
}
