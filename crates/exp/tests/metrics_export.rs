//! Observability-layer integration tests: the epoch time-series must be
//! deterministic across sweep parallelism (it is driven by simulated
//! time, never wall clock), and exported documents must survive a full
//! JSON round-trip through the schema validator.

use compresso_exp::sweep::{run_grid, SweepCell, SweepOptions};
use compresso_exp::{fig2, metrics, perf, SystemKind};
use compresso_telemetry::{json, render_doc, validate_metrics_doc, MetricsDoc};

fn epoch_grid() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for bench in ["gcc", "soplex"] {
        for system in [SystemKind::Uncompressed, SystemKind::Compresso] {
            cells.push(SweepCell::single(bench, system, 2_000));
        }
    }
    cells
}

/// `jobs` workers, each cell recording an epoch every `epoch` ticks.
fn epoch_opts(jobs: usize, epoch: u64) -> SweepOptions {
    SweepOptions {
        epoch,
        ..SweepOptions::with_jobs(jobs)
    }
}

#[test]
fn epoch_series_is_bit_identical_across_jobs_1_4_8() {
    let render = |jobs: usize| -> Vec<String> {
        run_grid(epoch_grid(), &epoch_opts(jobs, 500))
            .iter()
            .map(|o| {
                let r = o.result.as_ref().expect("cell must succeed");
                format!(
                    "{}|epoch_len={}|epochs={:?}|last={:?}",
                    o.label, r.metrics.epoch_len, r.metrics.epochs, r.metrics.last
                )
            })
            .collect()
    };
    let serial = render(1);
    assert_eq!(serial, render(4), "jobs=4 must match serial epoch series");
    assert_eq!(serial, render(8), "jobs=8 must match serial epoch series");
    // The series must actually contain epochs (2000 ops run far beyond
    // 500 cycles) — an empty series passing the comparison proves
    // nothing.
    assert!(
        serial.iter().all(|f| f.contains("tick: 500")),
        "every cell records the tick-500 epoch: {serial:?}"
    );
}

#[test]
fn sweep_results_unchanged_by_epoch_recording() {
    // Turning the time-series on must not perturb the simulation: the
    // recorder only reads counters.
    let plain = run_grid(
        vec![SweepCell::single("gcc", SystemKind::Compresso, 2_000)],
        &SweepOptions::serial(),
    );
    let recorded = run_grid(
        vec![SweepCell::single("gcc", SystemKind::Compresso, 2_000)],
        &epoch_opts(1, 250),
    );
    let a = plain[0].result.as_ref().unwrap();
    let b = recorded[0].result.as_ref().unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.device, b.device);
    assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
    assert!(b.metrics.epochs.len() > a.metrics.epochs.len());
}

#[test]
fn metrics_doc_round_trips_through_validator() {
    let outcomes = run_grid(epoch_grid(), &epoch_opts(2, 500));
    let cells = metrics::runs_to_cells(&outcomes);
    assert_eq!(cells.len(), 4, "all cells export metrics");
    let doc = MetricsDoc::new("test", "cycles", 500, cells);
    let text = render_doc(&doc);
    let parsed = json::parse(&text).expect("exported JSON parses");
    assert_eq!(
        validate_metrics_doc(&parsed),
        Vec::<String>::new(),
        "{text}"
    );

    // Spot-check that real metric content survived: the Compresso cells
    // carry the paper-event counters and the DRAM bank histograms.
    let cells = parsed.get("cells").unwrap().as_arr().unwrap();
    let compresso = cells
        .iter()
        .find(|c| {
            c.get("label")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("Compresso")
        })
        .expect("a Compresso cell");
    let m = compresso.get("metrics").unwrap();
    assert!(m.get("compresso.page_overflow.total").is_some());
    assert!(
        m.get("compresso.demand_fill.total")
            .unwrap()
            .get("value")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(
        m.get("backend.fill.latency")
            .unwrap()
            .get("count")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0
    );
    assert!(m.get("dram.bank00.latency").is_some());
    assert!(m.get("cache.l1.hit.total").is_some());
    assert!(!compresso
        .get("epochs")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());
}

#[test]
fn fig2_exports_epoch_series_in_ospa_bytes() {
    // The CI smoke invocation: 60 pages at a 10000-byte epoch must
    // produce a multi-epoch series (60 * 4096 / 10000 = 24 epochs).
    let (rows, cells) = fig2::fig2(60, &epoch_opts(2, 10_000));
    assert_eq!(rows.len(), cells.len());
    let epochs = &cells[0].report.epochs;
    assert_eq!(epochs.len(), 24, "60 pages x 4096 B at epoch 10000");
    assert!(epochs.windows(2).all(|w| w[0].tick < w[1].tick));
}

#[test]
fn perf_row_records_epochs_under_every_system_prefix() {
    // The Fig. 10 / Fig. 11 / Tab. II path: all four cycle runs of a
    // row must record the series, each under its system prefix.
    let profile = compresso_workloads::benchmark("gcc").expect("known benchmark");
    let row = perf::perf_row(&profile, 0.7, 2_000, 100_000, 500);
    assert_eq!(row.metrics.epoch_len, 500);
    assert!(!row.metrics.epochs.is_empty());
    for prefix in ["uncompressed", "lcp", "lcp_align", "compresso"] {
        let name = format!("{prefix}.backend.fill.latency");
        assert!(
            row.metrics.epochs[0].snapshot.histogram(&name).is_some(),
            "first epoch lacks `{name}`"
        );
        assert!(
            row.metrics
                .epochs
                .iter()
                .filter(|e| e.snapshot.histogram(&name).is_some())
                .count()
                > 1,
            "`{prefix}` records a single epoch only"
        );
    }
}
