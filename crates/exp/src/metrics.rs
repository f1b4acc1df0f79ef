//! `--metrics-out <path>` / `--epoch <ticks>` plumbing shared by every
//! figure binary.
//!
//! A binary parses [`MetricsArgs`] once, sets `SweepOptions::epoch` from
//! [`MetricsArgs::epoch_len`] so runs record an epoch time-series, and
//! finishes with [`MetricsArgs::write`], which emits a
//! `compresso.metrics.v1` JSON document.
//! Without `--metrics-out` everything is a no-op and runs pay nothing
//! beyond the always-on counters.

use crate::runner::RunResult;
use crate::sweep::CellOutcome;
use compresso_telemetry::{write_doc, CellMetrics, MetricsDoc, MetricsReport};
use std::path::PathBuf;

/// The metrics-output request of one binary invocation.
#[derive(Debug, Clone, Default)]
pub struct MetricsArgs {
    /// Output path (`--metrics-out`); `None` disables export.
    pub out: Option<PathBuf>,
    /// Requested epoch length in simulated ticks (`--epoch`, default 0 =
    /// final snapshots only).
    pub epoch: u64,
}

impl MetricsArgs {
    /// Parses `--metrics-out <path>` and `--epoch <ticks>`.
    pub fn from_args(args: &[String]) -> Self {
        let out = args
            .iter()
            .position(|a| a == "--metrics-out")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from);
        let epoch = crate::arg_usize(args, "--epoch", 0) as u64;
        Self { out, epoch }
    }

    /// Epoch length sweeps should record at: the requested `--epoch`
    /// when an output file was asked for, otherwise 0 so default runs
    /// skip the time-series entirely.
    pub fn epoch_len(&self) -> u64 {
        if self.out.is_some() {
            self.epoch
        } else {
            0
        }
    }

    /// Writes the document if `--metrics-out` was given; reports the
    /// path (or the error) on stderr, never aborting the run.
    pub fn write(&self, source: &str, epoch_unit: &str, cells: Vec<CellMetrics>) {
        let Some(path) = &self.out else { return };
        let doc = MetricsDoc::new(source, epoch_unit, self.epoch_len(), cells);
        match write_doc(path, &doc) {
            Ok(()) => eprintln!(
                "[metrics] wrote {} ({} cells)",
                path.display(),
                doc.cells.len()
            ),
            Err(e) => eprintln!("[metrics] FAILED to write {}: {e}", path.display()),
        }
    }
}

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

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_gates_epoch_on_output() {
        let m = MetricsArgs::from_args(&argv(&[
            "prog",
            "--metrics-out",
            "m.json",
            "--epoch",
            "500",
        ]));
        assert_eq!(m.out.as_deref(), Some(std::path::Path::new("m.json")));
        assert_eq!(m.epoch_len(), 500);

        // --epoch without --metrics-out records nothing.
        let silent = MetricsArgs::from_args(&argv(&["prog", "--epoch", "500"]));
        assert_eq!(silent.epoch_len(), 0);
        assert!(silent.out.is_none());
    }

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
