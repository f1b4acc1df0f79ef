//! Per-layer metrics of a traced run: the per-data-class size-kernel
//! table, the DRAM replay, the telemetry cost probes, and the split of
//! each window's host time across the simulator's crates.

use crate::driver::{Sys, SysWindow};
use crate::probe::{class_index, DramRequest, LineSample, SAMPLE_LINES};
use crate::report::{median, percentile, ratio, Report};
use compresso_compression::{Bdi, Bpc, CPack, Compressor, Fpc, Line};
use compresso_mem_sim::{MainMemory, MemConfig, MemStats};
use compresso_telemetry::{Counter, LatencyHistogram};
use compresso_workloads::{data::materialize, DataClass};
use std::hint::black_box;
use std::time::Instant;

/// Metric-name tokens of the four size kernels, in table order.
const ALGOS: [&str; 4] = ["bpc", "bdi", "fpc", "cpack"];
/// Timed rounds per (class, algorithm); the median round is reported.
const KERNEL_ROUNDS: usize = 9;
/// Passes over the class's lines inside one timed round.
const KERNEL_PASSES: usize = 4;

fn class_key(class: DataClass) -> &'static str {
    match class {
        DataClass::Zero => "zero",
        DataClass::Constant => "constant",
        DataClass::SmallInt => "small_int",
        DataClass::DeltaInt => "delta_int",
        DataClass::Pointer => "pointer",
        DataClass::Float => "float",
        DataClass::Text => "text",
        DataClass::Random => "random",
    }
}

/// One row of the kernel table.
struct KernelRow {
    class: DataClass,
    /// Lines taken from what the run sized; the rest were materialized.
    sampled: usize,
    /// Size-kernel host ns per line, per algorithm.
    ns: [f64; 4],
    /// Mean compressed bytes per line, per algorithm.
    bytes: [f64; 4],
}

/// Checks `codec`'s size kernel against its encoder on `lines`, then
/// times the kernel: `(ns per line, mean bytes)`.
fn measure<C: Compressor>(codec: &C, lines: &[Line]) -> Result<(f64, f64), String> {
    let mut bytes = 0usize;
    for line in lines {
        let size = codec.compressed_size(line);
        let encoded = codec.compress(line).size_bytes();
        if size != encoded {
            return Err(format!(
                "{}: compressed_size {size} != compress().size_bytes() {encoded}",
                codec.name()
            ));
        }
        bytes += size;
    }
    let mut rounds = Vec::with_capacity(KERNEL_ROUNDS);
    for _ in 0..KERNEL_ROUNDS {
        let start = Instant::now();
        for _ in 0..KERNEL_PASSES {
            for line in lines {
                black_box(codec.compressed_size(black_box(line)));
            }
        }
        rounds.push(start.elapsed().as_nanos() as f64 / (KERNEL_PASSES * lines.len()) as f64);
    }
    Ok((median(&rounds), bytes as f64 / lines.len() as f64))
}

/// Builds each class's line set (the run's sample, topped up with
/// `materialize`d lines to [`SAMPLE_LINES`]), checks every algorithm's
/// size kernel against its encoder on it, and times the kernels.
fn kernel_table(sample: &LineSample, seed: u64) -> (Vec<KernelRow>, Vec<String>) {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for class in DataClass::ALL {
        let mut lines = sample.lines(class_index(class)).to_vec();
        let sampled = lines.len();
        lines.extend(
            (0..(SAMPLE_LINES - sampled) as u64).map(|key| materialize(class, seed, key, 0)),
        );
        let results = [
            measure(&Bpc::new(), &lines),
            measure(&Bdi::new(), &lines),
            measure(&Fpc::new(), &lines),
            measure(&CPack::new(), &lines),
        ];
        let mut row = KernelRow {
            class,
            sampled,
            ns: [0.0; 4],
            bytes: [0.0; 4],
        };
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok((ns, bytes)) => {
                    row.ns[i] = ns;
                    row.bytes[i] = bytes;
                }
                Err(e) => mismatches.push(format!("{}: {e}", class_key(class))),
            }
        }
        rows.push(row);
    }
    (rows, mismatches)
}

/// Replays a DRAM request stream into a fresh `MainMemory`: the replay's
/// stats and its host ns per request (median of three replays).
pub fn dram_replay(stream: &[DramRequest]) -> (MemStats, f64) {
    let mut stats = MemStats::default();
    let mut per_request = Vec::new();
    for _ in 0..3 {
        let mut mem = MainMemory::new(MemConfig::ddr4_2666());
        let start = Instant::now();
        for &(now, addr, write) in stream {
            black_box(if write {
                mem.write(now, addr)
            } else {
                mem.read(now, addr)
            });
        }
        per_request.push(ratio(
            start.elapsed().as_nanos() as f64,
            stream.len() as f64,
        ));
        stats = mem.stats();
    }
    (stats, median(&per_request))
}

/// Host ns of one `Counter::add` and one `LatencyHistogram::record`.
fn telemetry_costs() -> (f64, f64) {
    const CALLS: u64 = 200_000;
    let counter = Counter::new();
    let histogram = LatencyHistogram::cycles();
    let mut adds = Vec::new();
    let mut records = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..CALLS {
            black_box(&counter).add(black_box(i & 1));
        }
        adds.push(start.elapsed().as_nanos() as f64 / CALLS as f64);
        let start = Instant::now();
        for i in 0..CALLS {
            black_box(&histogram).record(black_box((i * 37) % 5000));
        }
        records.push(start.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    (median(&adds), median(&records))
}

/// What a traced run hands to [`layer_metrics`].
pub struct LayerInput {
    /// The traced windows, one per system in [`Sys::ALL`] order.
    pub traced: Vec<SysWindow>,
    /// Host time of the traced measurement loop, of which the windows'
    /// `Core::step` chunks are a part.
    pub loop_ns: u64,
    /// Traced host time over untraced host time, minus one.
    pub overhead: f64,
    pub sample: LineSample,
    pub seed: u64,
    /// Untraced set-up: world build per system-run, trace generation per
    /// generated op.
    pub world_build_ns: f64,
    pub trace_gen_ns_per_op: f64,
    /// DRAM replay host ns per request.
    pub dram_ns_per_request: f64,
    /// Host ns of one registry snapshot of the Compresso device.
    pub snapshot_ns: f64,
    /// Sweep-level figures: Σ cell time ÷ (wall × jobs), slowest cell.
    pub parallel_efficiency: f64,
    pub cell_ms_max: f64,
}

/// Pushes every per-layer metric, prints the kernel table, and counts
/// the kernel check as one attempt.
pub fn layer_metrics(input: &LayerInput, report: &mut Report) {
    let (table, mismatches) = kernel_table(&input.sample, input.seed);
    report.attempt(
        "size kernels agree with their encoders",
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches.join("; "))
        },
    );
    report.note(format!(
        "size-kernel table ({SAMPLE_LINES} lines per class; sampled = lines the run sized, the rest materialized)"
    ));
    report.note("| class | sampled | BPC ns/line | BDI ns/line | FPC ns/line | C-Pack ns/line | BPC B | BDI B | FPC B | C-Pack B |");
    report.note("| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: |");
    for row in &table {
        report.note(format!(
            "| {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |",
            class_key(row.class),
            row.sampled,
            row.ns[0],
            row.ns[1],
            row.ns[2],
            row.ns[3],
            row.bytes[0],
            row.bytes[1],
            row.bytes[2],
            row.bytes[3],
        ));
    }
    // The devices size with BPC: replaying each class's kernel time over
    // the lines a window sized estimates the kernel's share of it.
    let kernel_ns = |w: &SysWindow| -> f64 {
        w.traced.as_ref().map_or(0.0, |t| {
            t.source
                .sized
                .iter()
                .zip(&table)
                .map(|(&n, row)| n as f64 * row.ns[0])
                .sum()
        })
    };
    let windows: Vec<(Sys, &SysWindow)> = Sys::ALL.into_iter().zip(&input.traced).collect();
    let traced = |w: &SysWindow| w.traced.clone().unwrap_or_default();

    // workloads
    report.metric("workloads.world_build_ms", input.world_build_ns / 1e6, "ms");
    report.metric(
        "workloads.trace_gen_ns_per_op",
        input.trace_gen_ns_per_op,
        "ns/op",
    );
    let (calls, line_data_ns) = windows.iter().fold((0.0, 0.0), |(c, ns), (_, w)| {
        let t = traced(w);
        (c + t.source.calls as f64, ns + t.source.line_data_ns as f64)
    });
    report.metric(
        "workloads.line_data_ns_per_call",
        ratio(line_data_ns, calls),
        "ns/call",
    );
    for &(sys, w) in &windows {
        if sys.compressed() {
            let per_op = ratio(traced(w).source.calls as f64, w.ops as f64);
            report.metric(
                format!("workloads.{}.line_data_per_op", sys.key()),
                per_op,
                "1/op",
            );
        }
    }

    // cache-sim: Core::step time not spent in the backend.
    for &(sys, w) in &windows {
        let self_ns = w.span_ns() as f64 - traced(w).backend_ns as f64;
        report.metric(
            format!("cache-sim.{}.self_ns_per_op", sys.key()),
            ratio(self_ns, w.ops as f64),
            "ns/op",
        );
    }
    let ops: f64 = windows.iter().map(|(_, w)| w.ops as f64).sum();
    let fills: f64 = windows.iter().map(|(_, w)| w.counts.fills as f64).sum();
    let writebacks: f64 = windows
        .iter()
        .map(|(_, w)| w.counts.writebacks as f64)
        .sum();
    report.metric("cache-sim.l3_misses_per_op", ratio(fills, ops), "1/op");
    report.metric(
        "cache-sim.writebacks_per_op",
        ratio(writebacks, ops),
        "1/op",
    );

    // compresso (device): backend time not spent in the world or the
    // replayed size kernel.
    for &(sys, w) in &windows {
        let t = traced(w);
        let world_ns = (t.source.line_data_ns + t.source.writeback_ns + t.source.probe_ns) as f64;
        let self_ns = t.backend_ns as f64 - world_ns - kernel_ns(w);
        let key = sys.key();
        report.metric(
            format!("compresso.{key}.self_ns_per_op"),
            ratio(self_ns, w.ops as f64),
            "ns/op",
        );
        report.metric(
            format!("compresso.{key}.fill_us_p50"),
            percentile(&t.fill_ns, 50.0) / 1e3,
            "us",
        );
        report.metric(
            format!("compresso.{key}.fill_us_p99"),
            percentile(&t.fill_ns, 99.0) / 1e3,
            "us",
        );
        report.metric(
            format!("compresso.{key}.writeback_us_p50"),
            percentile(&t.writeback_ns, 50.0) / 1e3,
            "us",
        );
        report.metric(
            format!("compresso.{key}.writeback_us_p99"),
            percentile(&t.writeback_ns, 99.0) / 1e3,
            "us",
        );
        let c = &w.counts;
        let per_op = |n: u64| ratio(n as f64, w.ops as f64);
        report.metric(
            format!("compresso.{key}.dram_bursts_per_op"),
            per_op(c.bursts),
            "1/op",
        );
        if sys.compressed() {
            report.metric(
                format!("compresso.{key}.size_calls_per_op"),
                per_op(c.size_calls),
                "1/op",
            );
            report.metric(
                format!("compresso.{key}.kernel_runs_per_op"),
                per_op(c.kernel_runs),
                "1/op",
            );
            report.metric(
                format!("compresso.{key}.memo_hit_ratio"),
                ratio(c.memo_hits as f64, c.size_calls as f64),
                "ratio",
            );
            report.metric(
                format!("compresso.{key}.mcache_hit_ratio"),
                ratio(c.mcache_hits as f64, c.mcache_lookups as f64),
                "ratio",
            );
            report.metric(
                format!("compresso.{key}.line_overflows"),
                c.line_overflows as f64,
                "count",
            );
            report.metric(
                format!("compresso.{key}.ir_placements"),
                c.ir_placements as f64,
                "count",
            );
            report.metric(
                format!("compresso.{key}.overflow_extra"),
                c.overflow_extra as f64,
                "count",
            );
            report.metric(
                format!("compresso.{key}.page_overflows"),
                c.page_overflows as f64,
                "count",
            );
        }
        if sys == Sys::Compresso {
            report.metric(
                format!("compresso.{key}.ir_expansions"),
                c.ir_expansions as f64,
                "count",
            );
            report.metric(
                format!("compresso.{key}.repacks"),
                c.repacks as f64,
                "count",
            );
        }
    }

    // compression (size kernels)
    for (i, algo) in ALGOS.iter().enumerate() {
        for row in &table {
            report.metric(
                format!("compression.{algo}.ns_per_line.{}", class_key(row.class)),
                row.ns[i],
                "ns/line",
            );
        }
    }
    let (kernel, backend) = windows
        .iter()
        .filter(|(sys, _)| sys.compressed())
        .fold((0.0, 0.0), |(k, b), (_, w)| {
            (k + kernel_ns(w), b + traced(w).backend_ns as f64)
        });
    report.metric(
        "compression.bpc.share_of_device",
        ratio(kernel, backend),
        "ratio",
    );

    // mem-sim
    report.metric(
        "mem-sim.ns_per_request",
        input.dram_ns_per_request,
        "ns/req",
    );
    for &(sys, w) in &windows {
        let c = &w.counts;
        report.metric(
            format!("mem-sim.{}.requests_per_op", sys.key()),
            ratio(c.dram_requests as f64, w.ops as f64),
            "1/op",
        );
        report.metric(
            format!("mem-sim.{}.row_hit_ratio", sys.key()),
            ratio(c.row_hits as f64, c.row_lookups as f64),
            "ratio",
        );
    }

    // telemetry
    let (counter_ns, histogram_ns) = telemetry_costs();
    report.metric("telemetry.ns_per_counter_add", counter_ns, "ns");
    report.metric("telemetry.ns_per_histogram_record", histogram_ns, "ns");
    for &(sys, w) in &windows {
        let per_op = ratio(w.counts.histogram_records as f64, w.ops as f64);
        report.metric(
            format!("telemetry.{}.histogram_records_per_op", sys.key()),
            per_op,
            "1/op",
        );
    }
    report.metric("telemetry.snapshot_ms", input.snapshot_ns / 1e6, "ms");

    // exp (sweep engine)
    report.metric(
        "exp.sweep.parallel_efficiency",
        input.parallel_efficiency,
        "ratio",
    );
    report.metric("exp.sweep.cell_ms_max", input.cell_ms_max, "ms");

    // The tracing itself.
    let spans: u64 = input.traced.iter().map(SysWindow::span_ns).sum();
    report.metric("trace.overhead_frac", input.overhead, "ratio");
    report.metric(
        "trace.unaccounted_frac",
        ratio(
            input.loop_ns.saturating_sub(spans) as f64,
            input.loop_ns as f64,
        ),
        "ratio",
    );
}
