//! Fig. 9: how representative SimPoint and CompressPoint are of a full
//! run's compressibility, for GemsFDTD and astar.
//!
//! Each benchmark's full run is a series of profiling intervals. SimPoint
//! picks the interval closest to the run's basic-block behaviour;
//! CompressPoint (§VI-B) picks the one closest to its compressibility,
//! which is the one a compressed-memory study needs.

use crate::report::f2;
use crate::sweep::{run_cells, successes, SweepOptions};
use compresso_telemetry::{CellMetrics, EpochRecorder, Gauge, MetricsReport, Registry};
use compresso_workloads::{benchmark, compresspoint, full_run, run_average_ratio, simpoint};

/// One benchmark's full run and the intervals the two methods pick.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Compression ratio of every profiling interval, in run order.
    pub ratios: Vec<f64>,
    /// The run's average compression ratio.
    pub run_average: f64,
    /// SimPoint's interval: its index and compression ratio.
    pub simpoint: (usize, f64),
    /// CompressPoint's interval: its index and compression ratio.
    pub compresspoint: (usize, f64),
}

/// One benchmark's run of `intervals` profiling intervals, with its
/// metric bundle: the interval's compression ratio (in thousandths,
/// gauges are integral) sampled once per interval, so an epoch series at
/// `epoch` intervals is the Fig. 9 curve itself, and both picks' indices.
fn fig9_row(name: &str, base_ratio: f64, intervals: usize, epoch: u64) -> (Fig9Row, MetricsReport) {
    let profile = benchmark(name).expect("paper benchmark");
    let run = full_run(&profile, base_ratio, intervals);
    let registry = Registry::new();
    let ratio_milli = Gauge::new();
    registry.register_gauge("fig9.ratio_milli", &ratio_milli);
    let mut recorder = EpochRecorder::new(registry.clone(), epoch);
    for (i, iv) in run.iter().enumerate() {
        recorder.observe(i as u64);
        ratio_milli.set((iv.compression_ratio * 1000.0) as i64);
    }
    let sp = simpoint(&run);
    let cp = compresspoint(&run);
    let simpoint_index = Gauge::new();
    registry.register_gauge("fig9.simpoint.index", &simpoint_index);
    simpoint_index.set(sp.index as i64);
    let compresspoint_index = Gauge::new();
    registry.register_gauge("fig9.compresspoint.index", &compresspoint_index);
    compresspoint_index.set(cp.index as i64);
    let row = Fig9Row {
        benchmark: name.to_string(),
        ratios: run.iter().map(|iv| iv.compression_ratio).collect(),
        run_average: run_average_ratio(&run),
        simpoint: (sp.index, sp.compression_ratio),
        compresspoint: (cp.index, cp.compression_ratio),
    };
    (
        row,
        MetricsReport::from_parts(registry.snapshot(), recorder),
    )
}

/// The Fig. 9 study, one sweep cell per benchmark, each a full run of
/// `intervals` profiling intervals, with per-cell metric export (epoch
/// ticks are intervals).
pub fn fig9(intervals: usize, opts: &SweepOptions) -> (Vec<Fig9Row>, Vec<CellMetrics>) {
    // Each benchmark with the base ratio its full run is anchored at.
    let cells: Vec<(String, (&str, f64))> = [("GemsFDTD", 1.2), ("astar", 1.5)]
        .iter()
        .map(|&(name, base)| (format!("fig9/{name}"), (name, base)))
        .collect();
    let outcomes = run_cells(
        cells,
        |(name, base)| fig9_row(name, base, intervals, opts.epoch),
        opts,
    );
    let metrics = crate::metrics::collect(&outcomes, |(_, report)| report);
    let rows = successes(outcomes)
        .into_iter()
        .map(|(row, _)| row)
        .collect();
    (rows, metrics)
}

/// The Fig. 9 report: every fourth interval's ratio per benchmark, the
/// run average and both picks, against the paper's.
pub fn report(rows: &[Fig9Row]) -> String {
    let mut out = String::new();
    for r in rows {
        out += &format!("{}: ", r.benchmark);
        for ratio in r.ratios.iter().step_by(4) {
            out += &f2(*ratio);
            out.push(' ');
        }
        out += &format!(
            "\n  run-average ratio {:.2}; SimPoint picks interval {} (ratio {:.2}); \
             CompressPoint picks interval {} (ratio {:.2})\n\n",
            r.run_average, r.simpoint.0, r.simpoint.1, r.compresspoint.0, r.compresspoint.1
        );
    }
    out + "(paper: SimPoint and CompressPoint differ by an order of magnitude for GemsFDTD)\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_has_one_row_and_cell_per_benchmark() {
        let (rows, cells) = fig9(16, &SweepOptions::with_jobs(2));
        let names: Vec<&str> = rows.iter().map(|r| r.benchmark.as_str()).collect();
        assert_eq!(names, ["GemsFDTD", "astar"]);
        let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["fig9/GemsFDTD", "fig9/astar"]);
        for r in &rows {
            assert_eq!(r.ratios.len(), 16);
            assert_eq!(r.ratios[r.simpoint.0], r.simpoint.1);
            assert_eq!(r.ratios[r.compresspoint.0], r.compresspoint.1);
            let (lo, hi) = r
                .ratios
                .iter()
                .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            assert!((lo..=hi).contains(&r.run_average), "{r:?}");
        }
        assert_eq!(fig9(16, &SweepOptions::serial()).0, rows);
    }

    #[test]
    fn epoch_series_is_the_interval_curve() {
        let opts = SweepOptions {
            epoch: 1,
            ..SweepOptions::serial()
        };
        let (rows, cells) = fig9(8, &opts);
        // One epoch per interval boundary crossed: the last interval is
        // in the final snapshot only.
        assert_eq!(cells[0].report.epochs.len(), 7);
        let report = report(&rows);
        assert!(report.starts_with("GemsFDTD: "), "{report}");
        assert!(report.contains("CompressPoint picks interval"));
    }
}
