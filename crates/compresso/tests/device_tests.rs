//! End-to-end tests of the compressed-memory devices against real
//! synthetic workloads.

use compresso_cache_sim::Backend;
use compresso_core::{
    CompressoConfig, CompressoDevice, LcpDevice, MemoryDevice, PageAllocation, UncompressedDevice,
};
use compresso_workloads::{benchmark, DataWorld, Evolution, PAGE_BYTES};

fn world(name: &str) -> DataWorld {
    DataWorld::new(&benchmark(name).expect("paper benchmark"))
}

/// Drives a simple demand stream through a device: reads then writes over
/// the first `pages` pages.
fn drive<B: Backend>(device: &mut B, pages: u64, writes: bool) -> u64 {
    let mut t = 0;
    for page in 0..pages {
        for line in 0..64u64 {
            let addr = page * PAGE_BYTES + line * 64;
            t = device.fill(t, addr).max(t);
            if writes && line % 4 == 0 {
                t = device.writeback(t, addr).max(t);
            }
        }
    }
    t
}

#[test]
fn compresso_compresses_zeusmp_well() {
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), world("zeusmp"));
    drive(&mut d, 200, false);
    let ratio = d.compression_ratio();
    assert!(ratio > 3.0, "zeusmp should compress >3x, got {ratio:.2}");
}

#[test]
fn compresso_barely_compresses_mcf() {
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), world("mcf"));
    drive(&mut d, 200, false);
    let ratio = d.compression_ratio();
    assert!(ratio < 1.6, "mcf is nearly incompressible, got {ratio:.2}");
    assert!(
        ratio >= 0.95,
        "ratio cannot collapse below ~1, got {ratio:.2}"
    );
}

#[test]
fn zero_fills_served_from_metadata() {
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), world("zeusmp"));
    drive(&mut d, 100, false);
    let s = d.device_stats();
    assert!(s.zero_fills > 0, "zeusmp must have zero-line fills");
    // Zero fills cost no DRAM data access.
    assert!(s.data_accesses < s.demand_fills);
}

#[test]
fn compresso_ratio_beats_lcp_on_heterogeneous_data() {
    // Fig. 2: LinePack (Compresso) vs LCP-packing with BPC.
    let mut comp = CompressoDevice::new(CompressoConfig::compresso(), world("gcc"));
    let mut lcp = LcpDevice::lcp(world("gcc"));
    drive(&mut comp, 300, false);
    drive(&mut lcp, 300, false);
    assert!(
        comp.compression_ratio() > lcp.compression_ratio(),
        "LinePack ({:.2}) must beat LCP packing ({:.2}) on gcc",
        comp.compression_ratio(),
        lcp.compression_ratio()
    );
}

#[test]
fn streaming_overwrites_cause_overflows_and_ir_placements() {
    let profile = benchmark("gcc").unwrap();
    let w = DataWorld::new(&profile);
    // Find a degrading page: stream incompressible data over it.
    let page = (0..profile.footprint_pages as u64)
        .find(|&p| w.evolution_of(p * PAGE_BYTES) == Evolution::Degrading)
        .expect("gcc has degrading pages");
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), w);
    let mut t = 0;
    for line in 0..64u64 {
        let addr = page * PAGE_BYTES + line * 64;
        t = d.fill(t, addr).max(t);
    }
    for line in 0..64u64 {
        let addr = page * PAGE_BYTES + line * 64;
        t = d.writeback(t, addr).max(t);
    }
    let s = d.device_stats();
    assert!(s.line_overflows > 0, "degrading writes must overflow");
    assert!(
        s.ir_placements + s.ir_expansions + s.predictor_inflations > 0,
        "overflows should be absorbed by the IR machinery: {s:?}"
    );
}

#[test]
fn streaming_incompressible_writebacks_trigger_predictor_inflation() {
    // §IV-B2: once page overflows are common (global counter) and a
    // page's metadata-cache entry has seen repeated line overflows (its
    // local counter), the page is stored uncompressed outright.
    let (_, config) = CompressoConfig::ablation_ladder(PageAllocation::Chunks512)
        .into_iter()
        .find(|(rung, _)| *rung == "+prediction")
        .expect("the ladder has a prediction rung");
    let profile = benchmark("gcc").unwrap();
    let w = DataWorld::new(&profile);
    let pages: Vec<u64> = (0..profile.footprint_pages as u64)
        .filter(|&p| w.evolution_of(p * PAGE_BYTES) == Evolution::Degrading)
        .take(16)
        .collect();
    assert_eq!(pages.len(), 16, "gcc has degrading pages");
    let mut d = CompressoDevice::new(config, w);
    let mut t = 0;
    for &page in &pages {
        for line in 0..64u64 {
            t = d.fill(t, page * PAGE_BYTES + line * 64).max(t);
        }
    }
    for _round in 0..4 {
        for &page in &pages {
            for line in 0..64u64 {
                t = d.writeback(t, page * PAGE_BYTES + line * 64).max(t);
            }
        }
    }
    let s = d.device_stats();
    assert!(s.page_overflows > 0, "degrading pages must overflow: {s:?}");
    assert!(
        s.predictor_inflations > 0,
        "the predictor must inflate streaming pages: {s:?}"
    );
}

#[test]
fn unoptimized_config_moves_more_data_than_compresso() {
    // The Fig. 6 headline: full Compresso drastically reduces extra
    // accesses vs the unoptimized legacy-bin configuration.
    let mut base = CompressoDevice::new(
        CompressoConfig::unoptimized(PageAllocation::Chunks512),
        world("gcc"),
    );
    let mut opt = CompressoDevice::new(CompressoConfig::compresso(), world("gcc"));
    // A write-heavy stream over degrading pages.
    for dev in [&mut base, &mut opt] {
        let mut t = 0;
        for round in 0..3u64 {
            for page in 0..150u64 {
                for line in 0..64u64 {
                    let addr = page * PAGE_BYTES + line * 64;
                    t = dev.fill(t, addr).max(t);
                    if (line + round) % 2 == 0 {
                        t = dev.writeback(t, addr).max(t);
                    }
                }
            }
        }
    }
    let extra_base = base.device_stats().relative_extra_accesses();
    let extra_opt = opt.device_stats().relative_extra_accesses();
    assert!(
        extra_opt < extra_base,
        "optimizations must reduce extra accesses: {extra_opt:.3} vs {extra_base:.3}"
    );
    // Split accesses in particular must collapse with aligned bins.
    let (split_base, _, _) = base.device_stats().extra_breakdown();
    let (split_opt, _, _) = opt.device_stats().extra_breakdown();
    assert!(
        split_opt < split_base,
        "aligned bins must cut splits: {split_opt:.3} vs {split_base:.3}"
    );
}

#[test]
fn repacking_recovers_compression_after_underflows() {
    // Fig. 7: writes that improve compressibility squander space unless
    // pages are repacked.
    let profile = benchmark("GemsFDTD").unwrap();
    let w = DataWorld::new(&profile);
    let improving: Vec<u64> = (0..profile.footprint_pages as u64)
        .filter(|&p| w.evolution_of(p * PAGE_BYTES) == Evolution::Improving)
        .take(40)
        .collect();
    assert!(!improving.is_empty());

    let run = |repacking: bool| -> (f64, u64) {
        let mut cfg = CompressoConfig::compresso();
        cfg.repacking = repacking;
        let mut d = CompressoDevice::new(cfg, DataWorld::new(&profile));
        let mut t = 0;
        // Write improving pages repeatedly so their data becomes highly
        // compressible (version >= 3).
        for _ in 0..4 {
            for &page in &improving {
                for line in 0..64u64 {
                    let addr = page * PAGE_BYTES + line * 64;
                    t = d.writeback(t, addr).max(t);
                }
            }
        }
        // Thrash the metadata cache to force evictions (the repack
        // trigger).
        for page in 10_000..12_000u64 {
            t = d
                .fill(t, (page % profile.footprint_pages as u64) * PAGE_BYTES)
                .max(t);
        }
        (d.compression_ratio(), d.device_stats().repacks)
    };

    let (ratio_with, repacks_with) = run(true);
    let (ratio_without, repacks_without) = run(false);
    assert_eq!(repacks_without, 0);
    assert!(repacks_with > 0, "evictions must trigger repacks");
    assert!(
        ratio_with > ratio_without,
        "repacking must recover compression: {ratio_with:.2} vs {ratio_without:.2}"
    );
}

#[test]
fn lcp_page_overflows_incur_page_fault_latency() {
    let profile = benchmark("lbm").unwrap();
    let w = DataWorld::new(&profile);
    // A degrading page that starts compressible (small-int data): its
    // small LCP target leaves little exception slack, so incompressible
    // writes burst it.
    let page = (0..profile.footprint_pages as u64)
        .find(|&p| {
            let mostly_small = (0..64u64)
                .filter(|&l| {
                    w.class_of(p * PAGE_BYTES + l * 64) == compresso_workloads::DataClass::SmallInt
                })
                .count()
                >= 40;
            w.evolution_of(p * PAGE_BYTES) == Evolution::Degrading && mostly_small
        })
        .expect("lbm has compressible degrading pages");
    let mut d = LcpDevice::lcp(w);
    let mut t = 0;
    // Stream incompressible data until the exception region bursts.
    for round in 0..3u64 {
        for line in 0..64u64 {
            let addr = page * PAGE_BYTES + line * 64;
            t = d.writeback(t + round, addr).max(t);
        }
    }
    let s = d.device_stats();
    assert!(
        s.page_overflows > 0,
        "LCP must see page overflows here: {s:?}"
    );
}

#[test]
fn devices_are_deterministic() {
    let run = || {
        let mut d = CompressoDevice::new(CompressoConfig::compresso(), world("astar"));
        let t = drive(&mut d, 150, true);
        (t, d.device_stats(), d.compression_ratio().to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn uncompressed_device_is_the_null_model() {
    let mut d = UncompressedDevice::new();
    let t = drive(&mut d, 50, true);
    assert!(t > 0);
    let s = d.device_stats();
    assert_eq!(s.total_accesses(), s.baseline_accesses());
    assert_eq!(d.compression_ratio(), 1.0);
}

#[test]
fn ballooning_invalidation_releases_space() {
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), world("mcf"));
    drive(&mut d, 100, false);
    let before = d.mpa_used_bytes();
    for page in 0..50u64 {
        d.invalidate_page(page);
    }
    let after = d.mpa_used_bytes();
    assert!(
        after < before,
        "invalidation must free MPA space: {before} -> {after}"
    );
}

#[test]
fn variable4_allocation_works_end_to_end() {
    let mut cfg = CompressoConfig::compresso();
    cfg.allocation = PageAllocation::Variable4;
    cfg.ir_expansion = false; // only valid with 512B chunks
    let mut d = CompressoDevice::new(cfg, world("gcc"));
    drive(&mut d, 100, true);
    assert!(d.compression_ratio() > 1.0);
}

#[test]
fn metadata_hostile_workload_misses_in_mcache() {
    // Forestfire's footprint (56 MB) dwarfs the 6 MB metadata-cache
    // coverage; a uniform page sweep must miss heavily.
    let mut d = CompressoDevice::new(CompressoConfig::compresso(), world("Forestfire"));
    let mut t = 0;
    for page in 0..8000u64 {
        t = d.fill(t, page * PAGE_BYTES).max(t);
    }
    let s = d.device_stats();
    assert!(
        s.mcache_hit_rate() < 0.5,
        "uniform sweep must thrash the metadata cache, hit rate {:.2}",
        s.mcache_hit_rate()
    );
}
