//! Perf-gate bench harness: runs a fixed sweep and emits
//! `BENCH_compresso.json` (`compresso.bench.v1`).
//!
//! The cell grid is frozen — six benchmarks spanning the
//! compressibility range × the four evaluated systems — so cells/sec is
//! comparable across commits. CI builds the merge-base and the change on
//! the same runner, runs both with identical flags, and passes the
//! base's document as `--baseline`: the run fails when throughput
//! regresses more than 20% (`--max-regress` overrides the threshold;
//! wall-clock noise on shared runners is why the margin is wide). A
//! baseline that ran with other `ops`, `jobs` or cell count is refused.
//!
//! Flags: `--ops N` (memory ops per cell, default 20000), `--jobs N`,
//! `--out <path>` (default `BENCH_compresso.json`), `--baseline <path>`,
//! `--max-regress <percent>` (default 20), `--benchmarks a,b` (restrict
//! the grid to a comma-separated subset of the frozen benchmark set —
//! for smoke runs only; subset throughput is not comparable to the
//! full-grid baseline).

use compresso_exp::{arg_usize, params_banner, run_grid, SweepCell, SweepOptions, SystemKind};
use compresso_telemetry::{
    json, write_bench, BenchCell, BenchDoc, HistogramSnapshot, JsonValue, MetricValue, Snapshot,
};

/// Benchmarks spanning the compressibility range (highly compressible
/// → incompressible), frozen so throughput is comparable across runs.
const BENCH_SET: [&str; 6] = ["perlbench", "gcc", "soplex", "lbm", "povray", "mcf"];

fn merged_histogram(cells: &[(String, Snapshot)], name: &str) -> Option<HistogramSnapshot> {
    let mut merged: Option<HistogramSnapshot> = None;
    for (_, snap) in cells {
        if let Some(h) = snap.histogram(name) {
            match &mut merged {
                Some(m) => m.merge(h),
                None => merged = Some(h.clone()),
            }
        }
    }
    merged
}

/// The baseline's cells/sec, provided it ran with this run's
/// parameters.
fn baseline_rate(path: &str, doc: &BenchDoc) -> Result<f64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let base = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| base.get(key).and_then(JsonValue::as_u64);
    for (key, ours) in [("ops", doc.ops), ("jobs", doc.jobs), ("cells", doc.cells)] {
        match field(key) {
            Some(theirs) if theirs == ours => {}
            Some(theirs) => {
                return Err(format!(
                    "{path} ran with {key} = {theirs}, this run with {ours}: not comparable"
                ))
            }
            None => return Err(format!("{path}: missing `{key}`; not comparable")),
        }
    }
    base.get("cells_per_sec")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{path}: missing cells_per_sec"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ops = arg_usize(&args, "--ops", 20_000);
    let opts = SweepOptions::from_args(&args);
    let arg_str = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = arg_str("--out").unwrap_or_else(|| "BENCH_compresso.json".to_string());
    let baseline = arg_str("--baseline");
    let max_regress = arg_usize(&args, "--max-regress", 20) as f64 / 100.0;
    let bench_set: Vec<&str> = match arg_str("--benchmarks") {
        Some(list) => {
            let requested: Vec<String> = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect();
            for name in &requested {
                if !BENCH_SET.contains(&name.as_str()) {
                    eprintln!(
                        "error: unknown benchmark {name:?} (frozen set: {})",
                        BENCH_SET.join(", ")
                    );
                    std::process::exit(1);
                }
            }
            BENCH_SET
                .into_iter()
                .filter(|b| requested.iter().any(|r| r == b))
                .collect()
        }
        None => BENCH_SET.to_vec(),
    };
    if bench_set.is_empty() {
        eprintln!("error: --benchmarks selected no cells");
        std::process::exit(1);
    }

    println!("{}\n", params_banner());
    println!(
        "bench: {} benchmarks x {} systems, {ops} ops/cell, {} jobs\n",
        bench_set.len(),
        SystemKind::evaluated().len(),
        opts.jobs
    );

    let cells: Vec<SweepCell> = bench_set
        .iter()
        .flat_map(|name| {
            SystemKind::evaluated()
                .into_iter()
                .map(move |system| SweepCell::single(name, system, ops))
        })
        .collect();
    let total_cells = cells.len();
    let start = std::time::Instant::now();
    let outcomes = run_grid(cells, &opts);
    let wall_millis = start.elapsed().as_millis().max(1) as u64;

    let mut per_cell = Vec::new();
    let mut snaps = Vec::new();
    for o in &outcomes {
        per_cell.push(BenchCell {
            label: o.label.clone(),
            millis: o.millis as u64,
        });
        if let Ok(r) = &o.result {
            snaps.push((o.label.clone(), r.metrics.last.clone()));
        }
    }
    if snaps.len() != total_cells {
        eprintln!(
            "error: {} of {total_cells} cells failed",
            total_cells - snaps.len()
        );
        std::process::exit(1);
    }

    // Fleet-wide summaries: end-to-end latency histograms merged across
    // every cell, plus the headline event totals CI plots over time.
    let mut summaries: Vec<(std::sync::Arc<str>, MetricValue)> = Vec::new();
    for name in ["backend.fill.latency", "backend.writeback.latency"] {
        if let Some(h) = merged_histogram(&snaps, name) {
            summaries.push((
                format!("bench.{}", &name["backend.".len()..]).into(),
                MetricValue::Histogram(Box::new(h)),
            ));
        }
    }
    for counter in ["compresso.page_overflow.total", "compresso.repack.total"] {
        let total: u64 = snaps.iter().filter_map(|(_, s)| s.counter(counter)).sum();
        summaries.push((
            format!("bench.{counter}").into(),
            MetricValue::Counter(total),
        ));
    }
    summaries.sort_by(|a, b| a.0.cmp(&b.0));

    let cells_per_sec = total_cells as f64 * 1000.0 / wall_millis as f64;
    let doc = BenchDoc {
        bench: "sweep".to_string(),
        jobs: opts.jobs as u64,
        ops: ops as u64,
        cells: total_cells as u64,
        wall_millis,
        cells_per_sec,
        per_cell,
        summaries: Snapshot { metrics: summaries },
    };
    match write_bench(std::path::Path::new(&out), &doc) {
        Ok(()) => println!(
            "wrote {out}: {total_cells} cells in {wall_millis} ms ({cells_per_sec:.2} cells/sec)"
        ),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(base_path) = baseline {
        let base_rate = match baseline_rate(&base_path, &doc) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let floor = base_rate * (1.0 - max_regress);
        println!(
            "perf gate: {cells_per_sec:.2} cells/sec vs baseline {base_rate:.2} \
             (floor {floor:.2}, max regression {:.0}%)",
            max_regress * 100.0
        );
        if cells_per_sec < floor {
            eprintln!(
                "error: throughput regressed {:.1}% (limit {:.0}%)",
                (1.0 - cells_per_sec / base_rate) * 100.0,
                max_regress * 100.0
            );
            std::process::exit(1);
        }
        if cells_per_sec > base_rate * (1.0 + max_regress) {
            println!(
                "note: throughput improved {:.1}% over the baseline",
                (cells_per_sec / base_rate - 1.0) * 100.0
            );
        }
    }
}
