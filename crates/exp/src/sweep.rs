//! Parallel sweep engine for the experiment harness.
//!
//! Every paper figure is a (workload × system) grid; this module runs
//! the grid cells concurrently on a scoped-thread worker pool and
//! reassembles the results in deterministic presentation order. Each
//! cell owns its `CombinedWorld` and seeded RNG, so a parallel sweep is
//! bit-identical to a serial one — `tests/sweep_determinism.rs` enforces
//! that as an invariant, and `tests/golden_results.rs` pins the absolute
//! numbers.
//!
//! Concurrency model:
//!
//! - one worker loop claims the next cell from a shared atomic cursor,
//!   so a slow cell never blocks the rest of the grid;
//! - `jobs = 1` runs that loop on the caller's thread; otherwise
//!   `min(jobs, cells)` scoped threads (`std::thread::scope`) run it, so
//!   the engine borrows the work closure and cell inputs without
//!   `'static` bounds;
//! - a panicking cell is contained by `catch_unwind` and reported as a
//!   failed [`CellOutcome`]; the rest of the sweep completes.
//!
//! The worker count comes from `--jobs N` (every figure binary, see
//! [`Cli`](crate::Cli)), the `COMPRESSO_JOBS` environment variable, or the
//! machine's available parallelism, in that order of precedence.

use crate::runner::{run_profiles, RunResult, SystemKind};
use compresso_workloads::{require_benchmark, BenchmarkProfile, UnknownBenchmark};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable controlling the default worker count.
pub const JOBS_ENV: &str = "COMPRESSO_JOBS";

/// How a sweep is executed.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (clamped to at least 1 and at most the cell count).
    pub jobs: usize,
    /// Emit per-cell timing/progress lines on stderr.
    pub progress: bool,
    /// Epoch length for the cells' metrics time-series, in the
    /// figure's simulated ticks (0 = final snapshot only).
    pub epoch: u64,
}

impl SweepOptions {
    /// One worker, no progress output — the library/test default.
    pub fn serial() -> Self {
        Self::with_jobs(1)
    }

    /// A fixed worker count, no progress output, no epoch series.
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs,
            progress: false,
            epoch: 0,
        }
    }

    /// Worker count from `COMPRESSO_JOBS`, else available parallelism.
    pub fn from_env() -> Self {
        let jobs = std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Self::with_jobs(jobs)
    }
}

/// Why a cell produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The cell's work panicked; contained, with the panic message.
    Panicked(String),
    /// The cell's work returned an error.
    Failed(String),
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panicked(msg) => write!(f, "panicked: {msg}"),
            CellError::Failed(msg) => write!(f, "failed: {msg}"),
        }
    }
}

/// The result of one sweep cell, in presentation order.
#[derive(Debug, Clone)]
pub struct CellOutcome<T> {
    /// The cell's display label.
    pub label: String,
    /// The produced value, or why there is none.
    pub result: Result<T, CellError>,
    /// Wall-clock milliseconds the cell took.
    pub millis: u128,
}

impl<T, E: std::fmt::Display> CellOutcome<Result<T, E>> {
    /// Folds a cell-level `Result` into the outcome (`Err` becomes
    /// [`CellError::Failed`]).
    pub fn flatten(self) -> CellOutcome<T> {
        let result = match self.result {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(CellError::Failed(e.to_string())),
            Err(e) => Err(e),
        };
        CellOutcome {
            label: self.label,
            result,
            millis: self.millis,
        }
    }
}

/// Unwraps the successful outcomes, reporting failed cells on stderr.
/// Presentation order is preserved; failed cells are skipped.
pub fn successes<T>(outcomes: Vec<CellOutcome<T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        match outcome.result {
            Ok(v) => out.push(v),
            Err(e) => eprintln!("[sweep] cell `{}` {e}", outcome.label),
        }
    }
    out
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

fn exec_cell<I, T>(label: String, item: I, work: &impl Fn(I) -> T) -> CellOutcome<T> {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| work(item)))
        .map_err(|payload| CellError::Panicked(panic_message(payload.as_ref())));
    CellOutcome {
        label,
        result,
        millis: start.elapsed().as_millis(),
    }
}

fn report_progress<T>(outcome: &CellOutcome<T>, done: usize, total: usize, worker: usize) {
    let status = if outcome.result.is_ok() {
        ""
    } else {
        "  FAILED"
    };
    eprintln!(
        "[sweep {done:>3}/{total}] {label:<32} {millis:>6} ms  (worker {worker}){status}",
        label = outcome.label,
        millis = outcome.millis,
    );
}

/// Runs `(label, item)` cells through `work` on `opts.jobs` workers,
/// returning outcomes in the input (presentation) order regardless of
/// completion order. Panics are contained per cell.
pub fn run_cells<I, T, F>(
    cells: Vec<(String, I)>,
    work: F,
    opts: &SweepOptions,
) -> Vec<CellOutcome<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let total = cells.len();
    let slots: Vec<Mutex<Option<(String, I)>>> = cells
        .into_iter()
        .map(|cell| Mutex::new(Some(cell)))
        .collect();
    let results: Vec<Mutex<Option<CellOutcome<T>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);

    // Whichever worker is idle claims the next cell. `Relaxed` suffices:
    // the atomic add hands out each index once, and the cells and their
    // outcomes pass between threads through their mutexes.
    let worker = |worker: usize| loop {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(index) else { break };
        let (label, item) = slot
            .lock()
            .expect("slot lock")
            .take()
            .expect("each cell claimed once");
        let outcome = exec_cell(label, item, &work);
        if opts.progress {
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            report_progress(&outcome, n, total, worker);
        }
        *results[index].lock().expect("result lock") = Some(outcome);
    };
    let jobs = opts.jobs.max(1).min(total);
    if jobs <= 1 {
        worker(0);
    } else {
        let worker = &worker;
        std::thread::scope(|scope| {
            for w in 0..jobs {
                scope.spawn(move || worker(w));
            }
        });
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panicked holding a result lock")
                .expect("every cell ran")
        })
        .collect()
}

/// The workload half of a sweep cell.
#[derive(Debug, Clone)]
pub enum Workload {
    /// One benchmark on the single-core platform.
    Single(String),
    /// A named 4-benchmark mix on the 4-core platform.
    Mix {
        /// Mix name (e.g. `mix6`).
        name: String,
        /// The four member benchmarks, one per core.
        members: [String; 4],
    },
}

impl Workload {
    /// Display name (benchmark or mix name).
    pub fn name(&self) -> &str {
        match self {
            Workload::Single(name) => name,
            Workload::Mix { name, .. } => name,
        }
    }

    /// The member profiles, one per core.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownBenchmark`] for the first name that is not a
    /// known profile.
    pub fn profiles(&self) -> Result<Vec<BenchmarkProfile>, UnknownBenchmark> {
        match self {
            Workload::Single(name) => Ok(vec![require_benchmark(name)?]),
            Workload::Mix { members, .. } => members.iter().map(|m| require_benchmark(m)).collect(),
        }
    }
}

/// One (workload × system) grid point of a cycle-simulation sweep:
/// benchmark or mix, the [`SystemKind`] to simulate (config overrides
/// ride in [`SystemKind::Custom`]), and the trace length.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// What to run.
    pub workload: Workload,
    /// The memory system to simulate.
    pub system: SystemKind,
    /// Memory operations in the generated trace (per core for mixes).
    pub mem_ops: usize,
}

impl SweepCell {
    /// A single-benchmark cell.
    pub fn single(benchmark: &str, system: SystemKind, mem_ops: usize) -> Self {
        Self {
            workload: Workload::Single(benchmark.to_string()),
            system,
            mem_ops,
        }
    }

    /// A 4-core mix cell.
    pub fn mix(name: &str, members: [&str; 4], system: SystemKind, mem_ops: usize) -> Self {
        Self {
            workload: Workload::Mix {
                name: name.to_string(),
                members: members.map(|m| m.to_string()),
            },
            system,
            mem_ops,
        }
    }

    /// Display label, `workload/system`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.workload.name(), self.system.label())
    }

    /// Runs the cell on a freshly built world and device, recording an
    /// epoch snapshot every `epoch` core cycles (0 = final only).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownBenchmark`] if the benchmark or a mix member is
    /// not a known profile.
    pub fn run(&self, epoch: u64) -> Result<RunResult, UnknownBenchmark> {
        let profiles = self.workload.profiles()?;
        Ok(run_profiles(
            self.workload.name(),
            &profiles,
            &self.system,
            self.mem_ops,
            epoch,
        ))
    }
}

/// Runs a grid of [`SweepCell`]s on the engine, each recording epochs
/// at `opts.epoch`. Unknown-benchmark cells
/// come back as [`CellError::Failed`]; panicking cells as
/// [`CellError::Panicked`]; everything else as bit-identical
/// [`RunResult`]s in presentation order.
pub fn run_grid(cells: Vec<SweepCell>, opts: &SweepOptions) -> Vec<CellOutcome<RunResult>> {
    let labelled: Vec<(String, SweepCell)> =
        cells.into_iter().map(|cell| (cell.label(), cell)).collect();
    run_cells(labelled, |cell| cell.run(opts.epoch), opts)
        .into_iter()
        .map(CellOutcome::flatten)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(jobs: usize) -> SweepOptions {
        SweepOptions::with_jobs(jobs)
    }

    #[test]
    fn empty_cell_list_is_a_noop() {
        let outcomes: Vec<CellOutcome<u32>> =
            run_cells(Vec::<(String, u32)>::new(), |x| x + 1, &quiet(4));
        assert!(outcomes.is_empty());
    }

    #[test]
    fn single_cell_runs_inline() {
        let outcomes = run_cells(vec![("only".to_string(), 41u32)], |x| x + 1, &quiet(4));
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].label, "only");
        assert_eq!(outcomes[0].result, Ok(42));
    }

    #[test]
    fn more_jobs_than_cells_preserves_order() {
        let cells: Vec<(String, usize)> = (0..3).map(|i| (format!("cell{i}"), i)).collect();
        let outcomes = run_cells(cells, |i| i * 10, &quiet(8));
        let values: Vec<usize> = outcomes
            .iter()
            .map(|o| *o.result.as_ref().expect("ok"))
            .collect();
        assert_eq!(values, vec![0, 10, 20]);
        let labels: Vec<&str> = outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, vec!["cell0", "cell1", "cell2"]);
    }

    #[test]
    fn results_reassemble_in_presentation_order_under_contention() {
        let cells: Vec<(String, u64)> = (0..64).map(|i| (format!("c{i}"), i)).collect();
        let outcomes = run_cells(
            cells,
            |i| {
                // Reverse the natural completion order: early cells
                // finish last.
                std::thread::sleep(std::time::Duration::from_micros(500 * (64 - i)));
                i * 2
            },
            &quiet(8),
        );
        let values: Vec<u64> = outcomes
            .iter()
            .map(|o| *o.result.as_ref().expect("ok"))
            .collect();
        assert_eq!(values, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_cell_is_contained_as_failed() {
        let cells: Vec<(String, u32)> = (0..6).map(|i| (format!("cell{i}"), i)).collect();
        let outcomes = run_cells(
            cells,
            |i| {
                if i == 2 {
                    panic!("cell exploded");
                }
                i
            },
            &quiet(3),
        );
        assert_eq!(outcomes.len(), 6, "sweep must complete despite the panic");
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                match &outcome.result {
                    Err(CellError::Panicked(msg)) => {
                        assert!(msg.contains("cell exploded"), "message: {msg}");
                    }
                    other => panic!("expected contained panic, got {other:?}"),
                }
            } else {
                assert_eq!(outcome.result, Ok(i as u32));
            }
        }
    }

    #[test]
    fn panicking_grid_cell_is_isolated() {
        let cells: Vec<(String, SweepCell)> = ["gcc", "mcf", "povray"]
            .iter()
            .map(|b| SweepCell::single(b, SystemKind::Compresso, 500))
            .map(|cell| (cell.label(), cell))
            .collect();
        let outcomes: Vec<CellOutcome<RunResult>> = run_cells(
            cells,
            |cell| {
                if cell.label() == "mcf/Compresso" {
                    panic!("injected sweep fault: cell `{}`", cell.label());
                }
                cell.run(0)
            },
            &quiet(2),
        )
        .into_iter()
        .map(CellOutcome::flatten)
        .collect();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].result.is_ok(), "gcc survives");
        assert!(outcomes[2].result.is_ok(), "povray survives");
        match &outcomes[1].result {
            Err(CellError::Panicked(msg)) => {
                assert!(msg.contains("injected sweep fault"), "message: {msg}")
            }
            other => panic!("expected injected panic, got {other:?}"),
        }
    }

    #[test]
    fn unknown_benchmark_is_a_failed_cell_not_an_abort() {
        let cells = vec![
            SweepCell::single("gcc", SystemKind::Uncompressed, 500),
            SweepCell::single("not-a-benchmark", SystemKind::Uncompressed, 500),
        ];
        let outcomes = run_grid(cells, &quiet(2));
        assert!(outcomes[0].result.is_ok());
        match &outcomes[1].result {
            Err(CellError::Failed(msg)) => assert!(msg.contains("not-a-benchmark")),
            other => panic!("expected failed cell, got {other:?}"),
        }
        assert_eq!(successes(outcomes).len(), 1);
    }

    #[test]
    fn mix_cells_run_on_the_engine() {
        let cell = SweepCell::mix(
            "mix6",
            ["perlbench", "bzip2", "gromacs", "gobmk"],
            SystemKind::Compresso,
            500,
        );
        assert_eq!(cell.label(), "mix6/Compresso");
        let outcomes = run_grid(vec![cell], &quiet(1));
        let r = outcomes[0].result.as_ref().expect("mix runs");
        assert!(r.cycles > 0);
    }
}
