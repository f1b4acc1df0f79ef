//! Metric cells of the figure entry points: one labelled, timed
//! `compresso.metrics.v1` bundle per sweep cell, which
//! [`Cli::write_metrics`](crate::Cli::write_metrics) writes as a
//! document.

use crate::runner::RunResult;
use crate::sweep::CellOutcome;
use compresso_telemetry::{CellMetrics, MetricsReport};

/// One exportable metrics cell from any labelled, timed report.
pub fn cell(label: &str, millis: u128, report: &MetricsReport) -> CellMetrics {
    CellMetrics {
        label: label.to_string(),
        wall_millis: millis.min(u64::MAX as u128) as u64,
        report: report.clone(),
    }
}

/// Extracts metrics cells from successful cycle-run outcomes.
pub fn runs_to_cells(outcomes: &[CellOutcome<RunResult>]) -> Vec<CellMetrics> {
    collect(outcomes, |r| &r.metrics)
}

/// Extracts metrics cells from any successful outcomes via an accessor.
pub fn collect<T>(
    outcomes: &[CellOutcome<T>],
    report: impl Fn(&T) -> &MetricsReport,
) -> Vec<CellMetrics> {
    outcomes
        .iter()
        .filter_map(|o| {
            o.result
                .as_ref()
                .ok()
                .map(|v| cell(&o.label, o.millis, report(v)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CellError;

    #[test]
    fn collect_skips_failed_cells() {
        let outcomes = vec![
            CellOutcome {
                label: "ok".into(),
                result: Ok(MetricsReport::default()),
                millis: 3,
            },
            CellOutcome::<MetricsReport> {
                label: "bad".into(),
                result: Err(CellError::Failed("nope".into())),
                millis: 1,
            },
        ];
        let cells = collect(&outcomes, |r| r);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label, "ok");
        assert_eq!(cells[0].wall_millis, 3);
    }
}
