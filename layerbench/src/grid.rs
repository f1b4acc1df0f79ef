//! `grid-cold`: the frozen 6-benchmark × 4-system grid of short cold
//! cells on the sweep engine, one worker per core. This is what a figure
//! user waits for: first-touch page sizing plus sweep scheduling.
//!
//! Passes of the whole grid repeat until the run's time is spent; every
//! cell runs through the benchmark's driver on `run_cells`, which the
//! equivalence check pins to `run_grid` bit for bit. A cell's first [`CELL_WARMUP`] demand
//! ops are its first-touch phase, reported as `warmup_s`. Each worker
//! runs a calibration slice before and after each cell, and each pass's
//! host times are reported at the reference host speed its slices
//! measured (see `calib`).

use crate::calib::{self, Slices};
use crate::driver::{elapsed_ns, Digest, SetupTimes, SimRun, Spec, Sys, SysWindow};
use crate::layers::{layer_metrics, LayerInput};
use crate::peak_rss_mb;
use crate::probe::LineSample;
use crate::report::{median, ratio, Params, Report};
use compresso_exp::{run_cells, run_grid, SweepCell, SweepOptions};
use std::time::Instant;

/// The frozen grid of the `bench` perf gate: benchmarks spanning the
/// compressibility range.
const GRID: [&str; 6] = ["perlbench", "gcc", "soplex", "lbm", "povray", "mcf"];
/// Demand ops per cell (the `bench` default).
const CELL_OPS: usize = 20_000;
/// Demand ops of a cell's first-touch phase.
const CELL_WARMUP: u64 = 5_000;
/// Demand ops per cell of the equivalence check.
const CHECK_OPS: usize = 2_000;

/// The grid's cells in presentation order (benchmark-major), labelled.
fn cells() -> Vec<(String, (&'static str, Sys))> {
    GRID.iter()
        .flat_map(|&name| {
            Sys::ALL
                .into_iter()
                .map(move |sys| (format!("{name}/{}", sys.label()), (name, sys)))
        })
        .collect()
}

/// Host time of one untraced cell.
#[derive(Debug, Clone)]
struct CellTimes {
    setup_ns: u64,
    warmup_ns: u64,
    /// Warm-up plus the rest of the cell's ops.
    run_ns: u64,
    /// Calibration slices on the cell's worker, before and after it.
    slices: Slices,
}

/// One untraced pass: per cell, the digest and host times, or why it
/// failed.
struct Pass {
    /// Host time of the pass, less its calibration slices' share.
    wall_ns: u64,
    cells: Vec<Result<(Digest, CellTimes), String>>,
    /// The slowdown of the host during the pass (see `calib`).
    slowdown: f64,
}

fn untraced_cell(name: &str, sys: Sys, seed: u64) -> (Digest, CellTimes) {
    let mut slices = Slices::default();
    slices.take();
    let (mut run, setup) = SimRun::setup(&Spec::single(name, seed), sys, CELL_OPS, None);
    let start = Instant::now();
    run.advance(CELL_WARMUP);
    let warmup_ns = elapsed_ns(start);
    run.advance(u64::MAX);
    let run_ns = elapsed_ns(start);
    slices.take();
    let times = CellTimes {
        setup_ns: setup.total_ns(),
        warmup_ns,
        run_ns,
        slices,
    };
    (run.finish(), times)
}

fn untraced_pass(seed: u64, opts: &SweepOptions, jobs: usize) -> Pass {
    let start = Instant::now();
    let outcomes = run_cells(cells(), |(name, sys)| untraced_cell(name, sys, seed), opts);
    let wall_ns = elapsed_ns(start);
    let cells: Vec<_> = outcomes
        .into_iter()
        .map(|o| o.result.map_err(|e| e.to_string()))
        .collect();
    let mut slices = Slices::default();
    for (_, times) in cells.iter().flatten() {
        slices.absorb(&times.slices);
    }
    Pass {
        wall_ns: wall_ns.saturating_sub(slices.total_ns() / jobs.max(1) as u64),
        cells,
        slowdown: slices.slowdown(),
    }
}

/// One cell through the traced driver.
struct TracedCell {
    window: SysWindow,
    loop_ns: u64,
    digest: Digest,
    setup: SetupTimes,
    dram: Option<Result<f64, String>>,
    sample: Option<LineSample>,
    snapshot_ns: Option<f64>,
}

fn traced_cell(name: &str, sys: Sys, seed: u64, sample_seed: u64) -> TracedCell {
    let spec = Spec::single(name, seed);
    let (mut run, setup) = SimRun::setup(&spec, sys, CELL_OPS, Some(sample_seed));
    let loop_start = Instant::now();
    let mark = run.mark();
    let mut window = SysWindow::default();
    run.timed_advance(u64::MAX, &mut window);
    run.close(&mark, &mut window);
    let loop_ns = elapsed_ns(loop_start);
    TracedCell {
        window,
        loop_ns,
        dram: run.dram_check(),
        sample: run.sample(),
        snapshot_ns: (sys == Sys::Compresso).then(|| run.snapshot_ns()),
        digest: run.finish(),
        setup,
    }
}

pub fn describe(params: &mut Params, jobs: usize) {
    params.set("benchmarks", GRID.join("+"));
    params.set("jobs", jobs);
    params.set("cell_ops", CELL_OPS);
    params.set("cell_warmup_ops", CELL_WARMUP);
    params.set("check_ops", CHECK_OPS);
}

fn same(reference: &Digest, digest: &Digest, what: &str) -> Result<(), String> {
    let differs = reference.diff(digest);
    if differs.is_empty() {
        Ok(())
    } else {
        Err(format!("{what} in {}", differs.join(", ")))
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, jobs: usize, report: &mut Report) {
    let opts = SweepOptions::with_jobs(jobs);
    let sample_seed = seed ^ 0x5A3D_17E5;

    // The driver against run_grid itself (which takes the paper seeds).
    let sweep = GRID
        .iter()
        .flat_map(|name| Sys::ALL.map(|sys| SweepCell::single(name, sys.kind(), CHECK_OPS)))
        .collect();
    let reference = run_grid(sweep, &opts);
    let driven = run_cells(
        cells(),
        |(name, sys)| {
            let (mut run, _) = SimRun::setup(&Spec::single(name, 0), sys, CHECK_OPS, None);
            run.advance(u64::MAX);
            run.finish()
        },
        &opts,
    );
    for (r, d) in reference.iter().zip(&driven) {
        let outcome = match (&r.result, &d.result) {
            (Ok(r), Ok(d)) => same(&Digest::of(r), d, "driver differs from run_grid"),
            (Err(e), _) => Err(e.to_string()),
            (_, Err(e)) => Err(e.to_string()),
        };
        report.attempt(&format!("equivalence {} vs run_grid", r.label), outcome);
    }

    let labels: Vec<String> = cells().into_iter().map(|(label, _)| label).collect();
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(untraced_pass(seed, &opts, jobs));
        if trace || start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Every pass must simulate exactly what the first one did.
    for (p, pass) in passes.iter().enumerate() {
        for (i, cell) in pass.cells.iter().enumerate() {
            let outcome = match (&passes[0].cells[i], cell) {
                (Ok((first, _)), Ok((d, _))) => same(first, d, "digest differs from pass 0"),
                (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            };
            report.attempt(&format!("{} pass {p}", labels[i]), outcome);
        }
    }
    for (label, cell) in labels.iter().zip(&passes[0].cells) {
        if let Ok((digest, _)) = cell {
            report.note(format!("digest {label}: {}", digest.summary()));
        }
    }

    if !trace {
        end_to_end(&passes, report);
        return;
    }

    let traced = run_cells(
        cells(),
        |(name, sys)| traced_cell(name, sys, seed, sample_seed),
        &opts,
    );
    let mut windows = vec![SysWindow::default(); Sys::ALL.len()];
    let (mut loop_ns, mut traced_ns) = (0, 0);
    let mut sample = LineSample::new(0);
    let (mut dram_ns, mut snapshot_ns, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    for (i, outcome) in traced.into_iter().enumerate() {
        let cell = match outcome.result {
            Ok(cell) => cell,
            Err(e) => {
                report.attempt(&format!("{} traced", labels[i]), Err(e.to_string()));
                continue;
            }
        };
        let outcome = match &passes[0].cells[i] {
            Ok((d, _)) => same(
                d,
                &cell.digest,
                "traced digest differs from the untraced one",
            ),
            Err(e) => Err(e.clone()),
        };
        report.attempt(&format!("{} traced", labels[i]), outcome);
        if let Some(dram) = cell.dram {
            report.attempt(
                &format!("{} DRAM replay", labels[i]),
                dram.clone().map(|_| ()),
            );
            dram_ns.extend(dram.ok());
        }
        if let Some(s) = &cell.sample {
            sample.absorb(s);
        }
        snapshot_ns.extend(cell.snapshot_ns);
        loop_ns += cell.loop_ns;
        traced_ns += cell.setup.total_ns() + cell.loop_ns;
        setups.push(cell.setup);
        windows[i % Sys::ALL.len()].absorb(cell.window);
    }
    let untraced_ns: u64 = passes[0]
        .cells
        .iter()
        .flatten()
        .map(|(_, t)| t.setup_ns + t.run_ns)
        .sum();
    let worlds: Vec<f64> = setups.iter().map(|s| s.world_ns as f64).collect();
    let (trace_ns, trace_ops) = setups.iter().fold((0.0, 0.0), |(ns, ops), s| {
        (ns + s.trace_ns as f64, ops + s.trace_ops as f64)
    });
    let (efficiency, slowest) = sweep_figures(&passes, jobs);
    let input = LayerInput {
        traced: windows,
        loop_ns,
        overhead: ratio(traced_ns as f64, untraced_ns as f64) - 1.0,
        sample,
        seed: sample_seed,
        world_build_ns: median(&worlds),
        trace_gen_ns_per_op: ratio(trace_ns, trace_ops),
        dram_ns_per_request: median(&dram_ns),
        snapshot_ns: median(&snapshot_ns),
        parallel_efficiency: efficiency,
        cell_ms_max: slowest,
    };
    layer_metrics(&input, report);
}

/// The host times of a pass's successful cells.
fn times(pass: &Pass) -> impl Iterator<Item = &CellTimes> + '_ {
    pass.cells.iter().flatten().map(|(_, t)| t)
}

/// Median over passes of Σ cell time ÷ (wall × jobs), and of the slowest
/// cell in ms.
fn sweep_figures(passes: &[Pass], jobs: usize) -> (f64, f64) {
    let cell_ns = |t: &CellTimes| t.setup_ns + t.run_ns;
    let efficiency: Vec<f64> = passes
        .iter()
        .map(|p| {
            let busy: u64 = times(p).map(cell_ns).sum();
            ratio(busy as f64, (p.wall_ns * jobs as u64) as f64)
        })
        .collect();
    let slowest: Vec<f64> = passes
        .iter()
        .map(|p| times(p).map(cell_ns).max().unwrap_or(0) as f64 / 1e6)
        .collect();
    (median(&efficiency), median(&slowest))
}

/// Reports the end-to-end metrics, each pass's host times at the
/// reference host speed of that pass (see `calib`).
fn end_to_end(passes: &[Pass], report: &mut Report) {
    calib::note(report);
    let per_pass = |f: &dyn Fn(&CellTimes) -> u64| -> f64 {
        let sums: Vec<f64> = passes
            .iter()
            .map(|p| times(p).map(f).sum::<u64>() as f64 / 1e9 / p.slowdown)
            .collect();
        median(&sums)
    };
    report.metric("setup_s", per_pass(&|t| t.setup_ns), "s");
    report.metric("warmup_s", per_pass(&|t| t.warmup_ns), "s");
    for sys in Sys::ALL {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| {
                let cells = p.cells.iter().skip(sys.index()).step_by(Sys::ALL.len());
                let (ops, ns) = cells.flatten().fold((0.0, 0.0), |(ops, ns), (_, t)| {
                    (ops + CELL_OPS as f64, ns + t.run_ns as f64)
                });
                ratio(ops * 1e9, ns) * p.slowdown
            })
            .collect();
        report.metric(format!("{}.ops_per_s", sys.key()), median(&rates), "1/s");
    }
    let walls: Vec<f64> = passes
        .iter()
        .map(|p| p.wall_ns as f64 / 1e9 / p.slowdown)
        .collect();
    let wall = median(&walls);
    report.metric("wall_s", wall, "s");
    report.metric(
        "cells_per_s",
        ratio((GRID.len() * Sys::ALL.len()) as f64, wall),
        "1/s",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}
