//! §V-B: ballooning keeps an OS-transparent compressed system alive when
//! incompressible data exhausts the MPA space.
//!
//! The demo promises the OS more memory (OSPA) than the machine's MPA
//! holds, streams incompressible mcf pages into it, and lets the balloon
//! driver reclaim cold OS pages whenever MPA pressure crosses its high
//! watermark. It is one device loop, not a sweep.

use crate::sweep::SweepOptions;
use compresso_cache_sim::Backend;
use compresso_core::{CompressoConfig, CompressoDevice, MemoryDevice};
use compresso_oskit::{BalloonDriver, OsMemory};
use compresso_telemetry::{CellMetrics, EpochRecorder, MetricsReport};
use compresso_workloads::{benchmark, DataWorld, PAGE_BYTES};
use std::time::Instant;

/// The device and balloon state at one balloon tick.
#[derive(Debug, Clone)]
pub struct BalloonSample {
    /// Pages streamed so far.
    pub page: u64,
    /// MPA pressure (used / capacity) after the tick.
    pub pressure: f64,
    /// Compression ratio after the tick.
    pub ratio: f64,
    /// Pages the balloon holds after the tick.
    pub held_pages: u64,
    /// Pages the tick moved into or out of the balloon.
    pub moved: usize,
}

/// One ballooning demo run.
#[derive(Debug, Clone)]
pub struct BalloonRun {
    /// MPA capacity in bytes.
    pub mpa_bytes: u64,
    /// One sample per balloon tick, in stream order.
    pub samples: Vec<BalloonSample>,
    /// MPA pressure at the end of the stream.
    pub final_pressure: f64,
    /// Pages the balloon holds at the end of the stream.
    pub final_held_pages: u64,
}

/// Runs the demo with at most `max_pages` pages promised to the OS,
/// recording an epoch snapshot every `opts.epoch` cycles (0 = final
/// only); `opts.jobs` is unused, as the demo is one loop. Returns the
/// run with its one metric cell, `balloon/mcf`.
pub fn balloon(max_pages: u64, opts: &SweepOptions) -> (BalloonRun, Vec<CellMetrics>) {
    let start = Instant::now();
    let profile = benchmark("mcf").expect("paper benchmark");
    let promised_pages = max_pages.min(profile.footprint_pages as u64);
    // 18 MB of MPA for mcf's whole 9,000-page (36 MB) footprint, scaled
    // with the pages promised: the incompressible half streamed in
    // overfills it without ballooning.
    let mut cfg = CompressoConfig::compresso();
    cfg.mpa_capacity = (18 << 20) * promised_pages / 9_000;
    let mpa_bytes = cfg.mpa_capacity;
    let mut device = CompressoDevice::new(cfg, DataWorld::new(&profile));
    let mut os = OsMemory::new(promised_pages);
    // The whole promised space is allocated to the process; the
    // already-streamed half has gone cold behind the write front — that
    // is what the OS pages out when the balloon inflates.
    let all = os
        .allocate(promised_pages as usize)
        .expect("whole address space");
    os.mark_cold(&all[..promised_pages as usize / 2]);
    let mut balloon = BalloonDriver::new(0.60, 0.85, 256);
    let registry = device.metrics().clone();
    balloon.register_metrics(&registry, "balloon");
    let mut recorder = EpochRecorder::new(registry.clone(), opts.epoch);

    let mut samples = Vec::new();
    let mut t = 0u64;
    for page in 0..promised_pages / 2 {
        for line in 0..64u64 {
            recorder.observe(t);
            t = device.fill(t, page * PAGE_BYTES + line * 64).max(t);
        }
        if page % 256 == 0 {
            let moved = balloon.tick(&mut os, &mut device);
            samples.push(BalloonSample {
                page,
                pressure: device.mpa_pressure(),
                ratio: device.compression_ratio(),
                held_pages: balloon.stats().held_pages,
                moved,
            });
        }
    }
    let run = BalloonRun {
        mpa_bytes,
        samples,
        final_pressure: device.mpa_pressure(),
        final_held_pages: balloon.stats().held_pages,
    };
    let report = MetricsReport::from_parts(registry.snapshot(), recorder);
    let cell = crate::metrics::cell("balloon/mcf", start.elapsed().as_millis(), &report);
    (run, vec![cell])
}

/// The §V-B report: pressure, compression ratio and balloon size at every
/// tick, then the final state.
pub fn report(run: &BalloonRun) -> String {
    let mut out = format!(
        "S V-B ballooning demo: streaming incompressible mcf pages into an {}MB MPA\n\n",
        run.mpa_bytes >> 20
    );
    for s in &run.samples {
        out += &format!(
            "page {:>5}: pressure {:>5.1}%  ratio {:>4.2}x  balloon held {:>5} (+{})\n",
            s.page,
            s.pressure * 100.0,
            s.ratio,
            s.held_pages,
            s.moved
        );
    }
    out + &format!(
        "\nfinal pressure {:.1}%, balloon holds {} pages — no OS modification required\n",
        run.final_pressure * 100.0,
        run.final_held_pages
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_balloons_below_full_pressure() {
        let (run, cells) = balloon(6_000, &SweepOptions::serial());
        assert_eq!(run.mpa_bytes, 12 << 20);
        // 3,000 pages streamed, one tick every 256.
        assert_eq!(run.samples.len(), 12);
        assert!(
            run.samples.iter().any(|s| s.moved > 0),
            "the balloon must engage: {run:?}"
        );
        assert!(run.final_held_pages > 0);
        assert!(run.final_pressure < 1.0, "{}", run.final_pressure);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label, "balloon/mcf");
        assert!(cells[0].report.epochs.is_empty());
        assert!(report(&run).starts_with(
            "S V-B ballooning demo: streaming incompressible mcf pages into an 12MB MPA"
        ));
    }
}
