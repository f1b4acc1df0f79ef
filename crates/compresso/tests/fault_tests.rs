//! Chaos suite: seeded fault schedules replayed against every device
//! configuration. The devices must never panic, must keep their stats
//! self-consistent, and must reproduce identical stats for an identical
//! seed (the whole point of a deterministic [`FaultPlan`]).

use compresso_cache_sim::Backend;
use compresso_compression::{is_zero_line, Bpc, Compressor};
use compresso_core::device::LineSizes;
use compresso_core::{
    linepack_bytes, CompressoConfig, CompressoDevice, DeviceStats, FaultConfig, FaultPlan,
    FaultStats, LcpDevice, MemoryDevice, PageAllocation,
};
use compresso_mem_sim::MemStats;
use compresso_workloads::{benchmark, DataWorld, Evolution, LineSource, PAGE_BYTES};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn world(name: &str) -> DataWorld {
    DataWorld::new(&benchmark(name).expect("paper benchmark"))
}

/// Full Compresso over `world`, journaling with a scrub pass every 100k
/// cycles.
fn journaled(world: impl LineSource + 'static) -> CompressoDevice {
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), world);
    d.enable_journaling(100_000);
    d
}

/// A demand stream with enough writes to trigger overflows, underflows,
/// repacks and re-plans alongside the injected faults. Returns each
/// access's completion time.
fn drive_chaos<B: Backend>(device: &mut B, pages: u64, rounds: u64) -> Vec<u64> {
    let mut t = 0;
    let mut done = Vec::new();
    for round in 0..rounds {
        for page in 0..pages {
            for line in 0..64u64 {
                let addr = page * PAGE_BYTES + line * 64;
                done.push(device.fill(t, addr));
                t = t.max(done[done.len() - 1]);
                if (line + round) % 3 == 0 {
                    done.push(device.writeback(t, addr));
                    t = t.max(done[done.len() - 1]);
                }
            }
        }
    }
    done
}

/// The four Compresso configurations the chaos schedule replays against.
fn compresso_configs() -> Vec<(&'static str, CompressoConfig)> {
    let mut variable = CompressoConfig::compresso();
    variable.allocation = PageAllocation::Variable4;
    vec![
        ("compresso", CompressoConfig::compresso()),
        ("compresso-variable4", variable),
        (
            "unoptimized-chunks",
            CompressoConfig::unoptimized(PageAllocation::Chunks512),
        ),
        (
            "unoptimized-variable4",
            CompressoConfig::unoptimized(PageAllocation::Variable4),
        ),
    ]
}

fn run_compresso(cfg: CompressoConfig, seed: u64, bench: &str) -> (DeviceStats, FaultStats) {
    let mut d = CompressoDevice::new(cfg, world(bench));
    d.inject_faults(FaultPlan::aggressive(seed));
    drive_chaos(&mut d, 48, 3);
    (d.device_stats(), *d.fault_stats().expect("plan attached"))
}

fn run_lcp(align: bool, seed: u64, bench: &str) -> (DeviceStats, FaultStats) {
    let mut d = if align {
        LcpDevice::lcp_align(world(bench))
    } else {
        LcpDevice::lcp(world(bench))
    };
    d.inject_faults(FaultPlan::aggressive(seed));
    drive_chaos(&mut d, 48, 3);
    (d.device_stats(), *d.fault_stats().expect("plan attached"))
}

/// Every injected fault the plan drew must be acknowledged by the device,
/// and the degradation counters must stay within what was injected.
fn assert_consistent(label: &str, dev: &DeviceStats, faults: &FaultStats) {
    let drawn = faults.bit_flips
        + faults.decode_failures
        + faults.alloc_refusals
        + faults.eviction_storms
        + faults.rot_flips
        + faults.crashes;
    assert_eq!(
        dev.corruption_undetected, 0,
        "{label}: the entry CRC must catch every injected metadata fault"
    );
    assert_eq!(
        dev.injected_faults, drawn,
        "{label}: device must account for every drawn fault (device {}, plan {drawn})",
        dev.injected_faults
    );
    assert!(
        dev.corruption_fallbacks <= faults.bit_flips + faults.decode_failures + faults.rot_flips,
        "{label}: fallbacks cannot exceed metadata faults"
    );
    assert_eq!(
        dev.eviction_storms, faults.eviction_storms,
        "{label}: storm counters agree"
    );
    assert!(
        dev.alloc_retries + dev.alloc_failures <= faults.alloc_refusals,
        "{label}: retries+failures cannot exceed refusals"
    );
    if dev.corruption_fallbacks > 0 {
        assert!(
            dev.fault_extra > 0 || dev.corruption_fallbacks <= dev.injected_faults,
            "{label}: fallbacks either move data or are metadata-only"
        );
    }
    assert!(
        dev.total_accesses() >= dev.data_accesses + dev.fault_extra,
        "{label}: totals include fault traffic"
    );
}

#[test]
fn compresso_survives_aggressive_faults_in_every_configuration() {
    for (label, cfg) in compresso_configs() {
        let (dev, faults) = run_compresso(cfg, 0xC0FFEE, "soplex");
        assert!(
            faults.distinct_kinds() >= 4,
            "{label}: want >=4 distinct fault kinds, got {} ({faults:?})",
            faults.distinct_kinds()
        );
        assert!(
            dev.corruption_fallbacks > 0,
            "{label}: corruption must surface ({dev:?})"
        );
        assert!(dev.eviction_storms > 0, "{label}: storms must surface");
        assert_consistent(label, &dev, &faults);
    }
}

#[test]
fn lcp_survives_aggressive_faults() {
    for (label, align) in [("lcp", false), ("lcp+align", true)] {
        let (dev, faults) = run_lcp(align, 0xBEEF, "soplex");
        assert!(
            faults.distinct_kinds() >= 4,
            "{label}: want >=4 distinct fault kinds, got {} ({faults:?})",
            faults.distinct_kinds()
        );
        assert!(
            dev.corruption_fallbacks > 0,
            "{label}: corruption must surface"
        );
        assert_consistent(label, &dev, &faults);
    }
}

#[test]
fn same_seed_reproduces_identical_stats() {
    for (label, cfg) in compresso_configs() {
        let a = run_compresso(cfg.clone(), 42, "gcc");
        let b = run_compresso(cfg, 42, "gcc");
        assert_eq!(a, b, "{label}: same seed must reproduce identical stats");
    }
    let a = run_lcp(true, 42, "gcc");
    let b = run_lcp(true, 42, "gcc");
    assert_eq!(a, b, "lcp+align: same seed must reproduce identical stats");
}

#[test]
fn different_seeds_change_the_schedule() {
    let (_, a) = run_compresso(CompressoConfig::compresso(), 1, "gcc");
    let (_, b) = run_compresso(CompressoConfig::compresso(), 2, "gcc");
    assert_ne!(a, b, "distinct seeds should draw distinct schedules");
}

/// What an idle-plan run must reproduce: device and DRAM counters, and
/// every access's completion time.
fn observe<D: MemoryDevice>(device: &mut D) -> (DeviceStats, MemStats, Vec<u64>) {
    let done = drive_chaos(device, 24, 2);
    (device.device_stats(), device.dram_stats(), done)
}

#[test]
fn an_idle_plan_is_invisible() {
    // An attached plan whose rates are all zero still draws at every
    // hook, but nothing fires: the device must behave exactly as with
    // no plan at all.
    let idle = || FaultPlan::new(0x1D1E, FaultConfig::default());
    let mut configs = compresso_configs();
    configs[0].0 = "compresso-journaled";
    for (label, cfg) in configs {
        let build = || {
            let mut d = CompressoDevice::new(cfg.clone(), world("soplex"));
            if label == "compresso-journaled" {
                d.enable_journaling(100_000);
            }
            d
        };
        let mut bare = build();
        let mut planned = build();
        planned.inject_faults(idle());
        assert_eq!(observe(&mut bare), observe(&mut planned), "{label}");
        assert_eq!(bare.fault_stats(), None, "{label}");
        assert_eq!(planned.fault_stats(), Some(&FaultStats::default()));
    }
    for build in [LcpDevice::lcp, LcpDevice::lcp_align] {
        let mut bare = build(world("soplex"));
        let mut planned = build(world("soplex"));
        planned.inject_faults(idle());
        let label = bare.device_name();
        assert_eq!(observe(&mut bare), observe(&mut planned), "{label}");
        assert_eq!(planned.fault_stats(), Some(&FaultStats::default()));
    }
}

#[test]
fn faulted_device_still_compresses() {
    // Degradation is graceful: fallbacks cost ratio, not correctness.
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), world("zeusmp"));
    d.inject_faults(FaultPlan::aggressive(7));
    drive_chaos(&mut d, 64, 2);
    let ratio = d.compression_ratio();
    assert!(
        ratio > 1.0,
        "zeusmp keeps compressing under faults, got {ratio:.2}"
    );
    assert!(d.device_stats().corruption_fallbacks > 0);
}

#[test]
fn journaled_chaos_crashes_and_recovers() {
    // The full stack at once: aggressive faults, durable-metadata rot,
    // and an armed mid-run crash on a journaled device — then a cold
    // boot from the torn journal and more chaos on the recovered device.
    let mut d = journaled(world("soplex"));
    d.inject_faults(FaultPlan::aggressive(0xD15EA5E).with_crash_at(400));
    drive_chaos(&mut d, 48, 3);
    assert!(d.is_crashed(), "the armed crash must fire mid-schedule");
    let dev = d.device_stats();
    let faults = *d.fault_stats().expect("plan attached");
    assert_eq!(faults.crashes, 1);
    assert_consistent("journaled-chaos", &dev, &faults);

    let (mut recovered, report) =
        journaled(world("soplex")).recover(d.journal_bytes().expect("journaling on"));
    assert!(
        report.is_clean(),
        "journaled-chaos: recovery violations {:?}",
        report.violations
    );
    assert!(report.torn, "the armed crash tears the final record");
    assert!(report.pages_rebuilt > 0);

    drive_chaos(&mut recovered, 48, 1);
    assert!(!recovered.is_crashed());
    assert!(recovered.compression_ratio() >= 1.0);
    assert_eq!(recovered.device_stats().corruption_undetected, 0);
}

/// A fresh kernel sizing of every line of `page` in `world` (0 for an
/// all-zero line): the oracle for the devices' stored sizes.
fn fresh_sizes(world: &dyn LineSource, page: u64) -> LineSizes {
    let bpc = Bpc::new();
    std::array::from_fn(|line| {
        let data = world.line_data(page * PAGE_BYTES + line as u64 * 64);
        if is_zero_line(&data) {
            0
        } else {
            bpc.compressed_size(&data) as u8
        }
    })
}

/// Compresso's tracked bin-byte sum of every page with stored sizes
/// equals a recount of those sizes.
fn assert_binned_recount(label: &str, d: &CompressoDevice) {
    let bins = &d.config().bins;
    let stored = d.stored_sizes();
    let recount: BTreeMap<u64, u32> = stored
        .iter()
        .map(|(&page, sizes)| (page, linepack_bytes(sizes, bins)))
        .collect();
    assert_eq!(
        d.stored_binned_bytes(),
        recount,
        "{label}: tracked free space"
    );
}

/// Every touched page has stored sizes, and they equal a fresh sizing
/// of the world's current bytes.
fn assert_sizes_fresh(
    label: &str,
    world: &dyn LineSource,
    stored: &BTreeMap<u64, LineSizes>,
    touched_bytes: u64,
) {
    assert_eq!(
        stored.len() as u64 * PAGE_BYTES,
        touched_bytes,
        "{label}: every touched page stores its line sizes"
    );
    for (&page, sizes) in stored {
        assert_eq!(
            *sizes,
            fresh_sizes(world, page),
            "{label}: page {page} stored sizes are stale"
        );
    }
}

/// A write regime that drives repacking: GemsFDTD's improving pages are
/// written until they compress better (underflows), then a sweep over
/// the footprint thrashes the metadata cache so evictions repack them.
/// Every address stays inside the footprint.
fn drive_regime<B: Backend>(device: &mut B) {
    let mut t = 0;
    for addr in regime_writebacks() {
        t = device.writeback(t, addr).max(t);
    }
    drive_reads(device, t);
}

/// The regime's writebacks: four rounds over every line of 24 GemsFDTD
/// pages whose data improves.
fn regime_writebacks() -> Vec<u64> {
    let w = world("GemsFDTD");
    let footprint = w.page_count() as u64;
    let improving: Vec<u64> = (0..footprint)
        .filter(|&p| w.evolution_of(p * PAGE_BYTES) == Evolution::Improving)
        .take(24)
        .collect();
    let round = improving
        .iter()
        .flat_map(|&page| (0..64u64).map(move |line| page * PAGE_BYTES + line * 64));
    round.cycle().take(4 * 24 * 64).collect()
}

/// Reads of 1800 GemsFDTD pages from `t`: enough to evict metadata.
fn drive_reads<B: Backend>(device: &mut B, mut t: u64) {
    let footprint = world("GemsFDTD").page_count() as u64;
    for page in 0..1800u64 {
        t = device.fill(t, (page % footprint) * PAGE_BYTES).max(t);
    }
}

#[test]
fn stored_line_sizes_match_a_fresh_sizing() {
    // Chaos: faults rewrite metadata, degrade pages and refuse
    // allocations, but never change line bytes, so stored sizes stay
    // exact.
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), world("soplex"));
    d.inject_faults(FaultPlan::aggressive(0x5EED_0FD0));
    drive_chaos(&mut d, 48, 3);
    assert_sizes_fresh(
        "compresso-chaos",
        d.world(),
        &d.stored_sizes(),
        d.touched_ospa_bytes(),
    );
    assert_binned_recount("compresso-chaos", &d);
    for align in [false, true] {
        let mut l = if align {
            LcpDevice::lcp_align(world("soplex"))
        } else {
            LcpDevice::lcp(world("soplex"))
        };
        l.inject_faults(FaultPlan::aggressive(0x5EED_0FD0));
        drive_chaos(&mut l, 48, 3);
        assert_sizes_fresh(
            l.device_name(),
            l.world(),
            &l.stored_sizes(),
            l.touched_ospa_bytes(),
        );
    }

    // The repack regime, fault-free.
    let gems = || world("GemsFDTD");
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), gems());
    drive_regime(&mut d);
    assert!(d.device_stats().repacks > 0, "the regime must repack");
    assert_sizes_fresh(
        "compresso-regime",
        d.world(),
        &d.stored_sizes(),
        d.touched_ospa_bytes(),
    );
    assert_binned_recount("compresso-regime", &d);
    for mut l in [LcpDevice::lcp(gems()), LcpDevice::lcp_align(gems())] {
        drive_regime(&mut l);
        assert_sizes_fresh(
            l.device_name(),
            l.world(),
            &l.stored_sizes(),
            l.touched_ospa_bytes(),
        );
    }

    // A recovered device stores nothing until it needs a page, then
    // sizes it from the world's current bytes.
    let mut d = journaled(world("soplex"));
    drive_chaos(&mut d, 48, 2);
    let journal = d.journal_bytes().expect("journaling on").to_vec();
    let mut written = world("soplex");
    for round in 0..2u64 {
        for page in 0..48u64 {
            for line in (0..64u64).filter(|line| (line + round) % 3 == 0) {
                written.on_writeback(page * PAGE_BYTES + line * 64);
            }
        }
    }
    let (mut r, report) = journaled(written).recover(&journal);
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(r.stored_sizes().is_empty());
    drive_chaos(&mut r, 48, 1);
    let stored = r.stored_sizes();
    assert!(!stored.is_empty(), "writebacks size their pages");
    for (&page, sizes) in &stored {
        assert_eq!(
            *sizes,
            fresh_sizes(r.world(), page),
            "recovered page {page}"
        );
    }
    assert_binned_recount("compresso-recovered", &r);

    // Reads alone on a recovered device: metadata-cache evictions run the
    // repack check, which sizes recovered pages and sets their tracked
    // sums.
    let mut d = journaled(gems());
    drive_regime(&mut d);
    let journal = d.journal_bytes().expect("journaling on").to_vec();
    let mut written = gems();
    for addr in regime_writebacks() {
        written.on_writeback(addr);
    }
    let (mut r, report) = journaled(written).recover(&journal);
    assert!(report.is_clean(), "{:?}", report.violations);
    let recovered: Vec<u64> = r.pages_snapshot().into_keys().collect();
    drive_reads(&mut r, 0);
    let stored = r.stored_sizes();
    assert!(
        recovered.iter().any(|page| stored.contains_key(page)),
        "evictions size recovered pages"
    );
    assert_binned_recount("compresso-recovered-reads", &r);
}

#[test]
fn durable_rot_is_detected_with_stored_sizes() {
    // Stored sizes live outside the packed entry and its CRC: a
    // durable-rot bit flip or metadata fault must still surface through
    // the CRC on the next access.
    let mut d = journaled(world("soplex"));
    d.inject_faults(FaultPlan::aggressive(0x5EED_0FD0));
    drive_chaos(&mut d, 48, 3);
    let dev = d.device_stats();
    let faults = *d.fault_stats().expect("plan attached");
    assert!(
        faults.rot_flips > 0,
        "schedule must exercise durable rot ({faults:?})"
    );
    assert!(
        dev.corruption_detected > 0,
        "rot must surface as detected corruption ({dev:?})"
    );
    assert_eq!(
        dev.corruption_undetected, 0,
        "stored sizes must never mask a metadata fault"
    );
    assert_consistent("stored-sizes-durable-rot", &dev, &faults);
}

#[test]
fn kernel_runs_once_per_line_per_content_version() {
    // On a fixed schedule the kernel runs exactly 64 times per
    // first-touched page and once per writeback; everything else
    // (repacks, recompressions, re-plans) reads stored sizes.
    let gems = || world("GemsFDTD");
    let mut c = CompressoDevice::new(CompressoConfig::compresso(), gems());
    drive_regime(&mut c);
    let mut l = LcpDevice::lcp(gems());
    drive_regime(&mut l);
    let mut a = LcpDevice::lcp_align(gems());
    drive_regime(&mut a);
    for device in [&c as &dyn MemoryDevice, &l, &a] {
        let s = device.device_stats();
        let pages = device.touched_ospa_bytes() / PAGE_BYTES;
        let label = device.device_name();
        assert_eq!(
            s.size_memo_misses,
            64 * pages + s.demand_writebacks,
            "{label}: kernel runs"
        );
        assert_eq!(
            s.size_calls,
            s.size_memo_hits + s.size_memo_misses,
            "{label}"
        );
        assert_eq!(s.size_memo_hits % 64, 0, "{label}: whole pages served");
    }
    let s = c.device_stats();
    assert!(s.repacks > 0 && s.size_memo_hits >= 64 * s.repacks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seed, any configuration: no panics, consistent stats.
    #[test]
    fn chaos_schedules_never_panic(seed in 0u64..1_000_000, cfg_idx in 0usize..4, align_bit in 0u8..2) {
        let lcp_align = align_bit == 1;
        let (label, cfg) = compresso_configs().swap_remove(cfg_idx);
        let mut d = CompressoDevice::new(cfg, world("mcf"));
        d.inject_faults(FaultPlan::aggressive(seed));
        drive_chaos(&mut d, 24, 2);
        let dev = d.device_stats();
        let faults = *d.fault_stats().expect("plan attached");
        assert_consistent(label, &dev, &faults);

        let mut l = if lcp_align { LcpDevice::lcp_align(world("mcf")) } else { LcpDevice::lcp(world("mcf")) };
        l.inject_faults(FaultPlan::aggressive(seed));
        drive_chaos(&mut l, 24, 2);
        let dev = l.device_stats();
        let faults = *l.fault_stats().expect("plan attached");
        assert_consistent("lcp", &dev, &faults);
    }
}
