//! Recovery determinism across the parallel sweep engine: the same
//! crash/recover cell at `jobs = 1`, `jobs = 4`, and `jobs = 8` must
//! produce bit-identical recovered state — journal bytes, rebuilt page
//! images, ownership map, recovery report, and the compression ratio
//! down to the f64 bit pattern. Cold-boot recovery is part of the
//! device's deterministic contract, so the order in which workers
//! claim cells may not perturb it.

use compresso_cache_sim::Backend;
use compresso_core::{CompressoConfig, CompressoDevice, FaultConfig, FaultPlan, MemoryDevice};
use compresso_exp::sweep::{run_cells, SweepOptions};
use compresso_workloads::{benchmark, DataWorld, PAGE_BYTES};

/// One recovery cell: drive a journaled device into a seed-derived
/// crash, cold-boot recover, drive more traffic, and fingerprint
/// everything that could drift.
fn recovery_fingerprint(seed: u64) -> String {
    let durable = || {
        let world = DataWorld::new(&benchmark("soplex").expect("paper benchmark"));
        let mut device = CompressoDevice::new(CompressoConfig::compresso(), world);
        device.enable_journaling(100_000);
        device
    };
    let crash_at = 50 + (seed.wrapping_mul(131)) % 200;
    let mut device = durable();
    let cfg = FaultConfig {
        rot_per_mille: 60,
        ..FaultConfig::aggressive()
    };
    device.inject_faults(FaultPlan::new(seed, cfg).with_crash_at(crash_at));
    let mut t = 0;
    for i in 0..2_000u64 {
        let addr = ((i * 7) % 40) * PAGE_BYTES + ((i * 13) % 64) * 64;
        t = if i % 3 == 0 {
            device.writeback(t, addr).max(t)
        } else {
            device.fill(t, addr).max(t)
        };
    }
    assert!(device.is_crashed(), "seed {seed}: crash must fire");
    let torn = device.journal_bytes().expect("journaling on").to_vec();

    let (mut recovered, report) = durable().recover(&torn);
    for i in 0..500u64 {
        let addr = ((i * 11) % 40) * PAGE_BYTES + ((i * 17) % 64) * 64;
        t = recovered.fill(t, addr).max(t);
    }
    format!(
        "seed={seed}|torn={torn:?}|report={report:?}|pages={pages:?}|owners={owners:?}|\
         journal_len={jlen}|ratio_bits={ratio:#x}|stats={stats:?}",
        pages = recovered.pages_snapshot(),
        owners = recovered.owners_snapshot(),
        jlen = recovered.journal_bytes().expect("journaling on").len(),
        ratio = recovered.compression_ratio().to_bits(),
        stats = recovered.device_stats(),
    )
}

fn cells() -> Vec<(String, u64)> {
    (1u64..=6).map(|s| (format!("recover/{s}"), s)).collect()
}

#[test]
fn recovery_is_bit_identical_across_jobs_1_4_8() {
    let run = |jobs: usize| -> Vec<String> {
        run_cells(
            cells(),
            recovery_fingerprint,
            &SweepOptions::with_jobs(jobs),
        )
        .into_iter()
        .map(|c| c.result.expect("recovery cell must succeed"))
        .collect()
    };
    let serial = run(1);
    let four = run(4);
    let eight = run(8);
    assert_eq!(serial, four, "jobs=4 must be bit-identical to serial");
    assert_eq!(serial, eight, "jobs=8 must be bit-identical to serial");
}
