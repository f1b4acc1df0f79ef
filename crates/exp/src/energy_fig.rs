//! Fig. 12: DRAM and core energy relative to the uncompressed system.

use crate::report::{f2, render_table, Column};
use crate::runner::{run_single, RunResult, SystemKind};
use crate::sweep::{run_grid, SweepCell, SweepOptions};
use compresso_energy::{evaluate, EnergyParams};
use compresso_telemetry::CellMetrics;
use compresso_workloads::all_benchmarks;

/// Relative energies for one benchmark.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Benchmark name.
    pub benchmark: String,
    /// DRAM energy of LCP relative to uncompressed.
    pub dram_lcp: f64,
    /// DRAM energy of LCP+Align relative to uncompressed.
    pub dram_align: f64,
    /// DRAM energy of Compresso relative to uncompressed.
    pub dram_compresso: f64,
    /// Core energy of Compresso relative to uncompressed (∝ runtime).
    pub core_compresso: f64,
}

/// Builds a row from the four runs of [`SystemKind::evaluated`], in
/// presentation order.
fn row_from_runs(benchmark: &str, runs: &[&RunResult]) -> Fig12Row {
    let params = EnergyParams::paper_default();
    let mut dram = [0.0f64; 4];
    let mut core = [0.0f64; 4];
    for (i, r) in runs.iter().take(4).enumerate() {
        let e = evaluate(&r.device, &r.dram, r.cycles, &params);
        dram[i] = e.dram_nj;
        core[i] = e.core_nj;
    }
    Fig12Row {
        benchmark: benchmark.to_string(),
        dram_lcp: dram[1] / dram[0].max(1e-9),
        dram_align: dram[2] / dram[0].max(1e-9),
        dram_compresso: dram[3] / dram[0].max(1e-9),
        core_compresso: core[3] / core[0].max(1e-9),
    }
}

/// Evaluates one benchmark (serial, test/bench entry point).
pub fn energy_row(benchmark: &str, ops: usize) -> Fig12Row {
    let profile = compresso_workloads::benchmark(benchmark).expect("known benchmark");
    let runs: Vec<RunResult> = SystemKind::evaluated()
        .iter()
        .map(|system| run_single(&profile, system, ops))
        .collect();
    let refs: Vec<&RunResult> = runs.iter().collect();
    row_from_runs(benchmark, &refs)
}

/// The full Fig. 12 sweep: a (benchmark × 4 systems) grid on the
/// engine, with per-cell metric export (one cell per benchmark × system
/// cycle run).
pub fn fig12(ops: usize, opts: &SweepOptions) -> (Vec<Fig12Row>, Vec<CellMetrics>) {
    let mut cells = Vec::new();
    for profile in all_benchmarks() {
        for system in SystemKind::evaluated() {
            cells.push(SweepCell::single(profile.name, system, ops));
        }
    }
    let outcomes = run_grid(cells, opts);
    let metrics = crate::metrics::runs_to_cells(&outcomes);
    let mut rows = Vec::new();
    for quad in outcomes.chunks(4) {
        let runs: Vec<&RunResult> = quad.iter().filter_map(|o| o.result.as_ref().ok()).collect();
        if runs.len() < 4 {
            eprintln!(
                "[sweep] skipping Fig. 12 row `{}`: {} of 4 system cells failed",
                quad[0].label,
                4 - runs.len()
            );
            continue;
        }
        rows.push(row_from_runs(&runs[0].workload, &runs));
    }
    (rows, metrics)
}

/// Arithmetic averages over the rows (the paper's "Average" bar).
pub fn average(rows: &[Fig12Row]) -> Fig12Row {
    let n = rows.len().max(1) as f64;
    Fig12Row {
        benchmark: "Average".to_string(),
        dram_lcp: rows.iter().map(|r| r.dram_lcp).sum::<f64>() / n,
        dram_align: rows.iter().map(|r| r.dram_align).sum::<f64>() / n,
        dram_compresso: rows.iter().map(|r| r.dram_compresso).sum::<f64>() / n,
        core_compresso: rows.iter().map(|r| r.core_compresso).sum::<f64>() / n,
    }
}

const COLUMNS: [Column<Fig12Row>; 5] = [
    ("benchmark", |r| r.benchmark.clone()),
    ("DRAM:LCP", |r| f2(r.dram_lcp)),
    ("DRAM:Align", |r| f2(r.dram_align)),
    ("DRAM:Compresso", |r| f2(r.dram_compresso)),
    ("core:Compresso", |r| f2(r.core_compresso)),
];

const PAPER: &str =
    "(paper: Compresso -11% DRAM energy vs uncompressed; 60% more savings than LCP)\n";

/// The Fig. 12 report: every benchmark's relative energies and their
/// average, against the paper's.
pub fn report(rows: &[Fig12Row]) -> String {
    let mut all = rows.to_vec();
    all.push(average(rows));
    format!("{}\n{PAPER}", render_table(&all, &COLUMNS))
}

/// The Fig. 12 headline: the average row against the paper's.
pub fn summary(rows: &[Fig12Row]) -> String {
    format!("{}\n{PAPER}", render_table(&[average(rows)], &COLUMNS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rich_benchmark_saves_dram_energy() {
        // Lines served from metadata cost no DRAM event.
        let r = energy_row("zeusmp", 6_000);
        assert!(
            r.dram_compresso < 1.05,
            "zeusmp Compresso DRAM energy should not exceed baseline: {:.2}",
            r.dram_compresso
        );
    }

    #[test]
    fn grid_row_matches_serial_row() {
        // The engine path (grid of 4 system cells) and the serial path
        // must agree bit-for-bit.
        let serial = energy_row("soplex", 2_000);
        let cells: Vec<SweepCell> = SystemKind::evaluated()
            .into_iter()
            .map(|s| SweepCell::single("soplex", s, 2_000))
            .collect();
        let outcomes = run_grid(cells, &SweepOptions::with_jobs(4));
        let runs: Vec<&RunResult> = outcomes
            .iter()
            .map(|o| o.result.as_ref().expect("cell ok"))
            .collect();
        let grid = row_from_runs("soplex", &runs);
        assert_eq!(
            serial.dram_compresso.to_bits(),
            grid.dram_compresso.to_bits()
        );
        assert_eq!(
            serial.core_compresso.to_bits(),
            grid.core_compresso.to_bits()
        );
    }

    #[test]
    fn average_is_elementwise() {
        let rows = vec![
            Fig12Row {
                benchmark: "a".into(),
                dram_lcp: 1.0,
                dram_align: 1.0,
                dram_compresso: 0.8,
                core_compresso: 1.0,
            },
            Fig12Row {
                benchmark: "b".into(),
                dram_lcp: 3.0,
                dram_align: 2.0,
                dram_compresso: 1.2,
                core_compresso: 1.0,
            },
        ];
        let avg = average(&rows);
        assert!((avg.dram_lcp - 2.0).abs() < 1e-9);
        assert!((avg.dram_compresso - 1.0).abs() < 1e-9);
    }
}
