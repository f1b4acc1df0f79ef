//! Fast assertions of the paper's headline claims, each tied to a section
//! of the paper. These are the "shape" checks: who wins, in which
//! direction, with roughly which mechanism — run at reduced scale so the
//! suite stays quick.

use compresso_compression::{BinSet, Bpc, Compressor};
use compresso_core::metadata_codec::try_encode;
use compresso_core::{
    decode_metadata, lcp_plan, linepack_offset_unit, CompressoConfig, LineLocation, PageAllocation,
    PageMeta, LINES_PER_PAGE, OS_PAGE_FAULT_CYCLES,
};
use compresso_exp::{fig2, geomean, run_single, SweepOptions, SystemKind};
use compresso_workloads::{all_benchmarks, benchmark, compresspoint, full_run, simpoint};

/// §II-A: BPC achieves a high average compression ratio on the suite
/// (paper: 1.85x; we accept > 1.5x at sampled scale).
#[test]
fn claim_bpc_average_ratio() {
    let (rows, _) = fig2::fig2(60, &SweepOptions::with_jobs(2));
    let avg = fig2::average(&rows);
    assert!(
        avg.bpc_linepack > 1.5,
        "BPC+LinePack average must be substantial: {:.2}",
        avg.bpc_linepack
    );
}

/// §II-C / Fig. 2: LCP-packing costs more compression with BPC than with
/// BDI, because BPC produces size-diverse lines.
#[test]
fn claim_lcp_loss_asymmetry() {
    let (rows, _) = fig2::fig2(60, &SweepOptions::with_jobs(2));
    let avg = fig2::average(&rows);
    let bpc_loss = 1.0 - avg.bpc_lcp / avg.bpc_linepack;
    let bdi_loss = 1.0 - avg.bdi_lcp / avg.bdi_linepack;
    assert!(
        bpc_loss > bdi_loss,
        "BPC loss {bpc_loss:.3} vs BDI loss {bdi_loss:.3}"
    );
}

/// §IV-B1: the alignment-friendly bins {0,8,32,64} lose almost nothing in
/// compression versus the legacy {0,22,44,64} bins (paper: 0.25%), while
/// eliminating split accesses under grouped packing.
#[test]
fn claim_aligned_bins_cost_little_compression() {
    let bpc = Bpc::new();
    let aligned = BinSet::aligned4();
    let legacy = BinSet::legacy4();
    let (mut aligned_bytes, mut legacy_bytes) = (0u64, 0u64);
    for profile in all_benchmarks().iter().take(8) {
        let world = compresso_workloads::DataWorld::new(profile);
        for line in 0..2048u64 {
            let data = world.line_data(line * 64);
            if compresso_compression::is_zero_line(&data) {
                continue;
            }
            let size = bpc.compressed_size(&data);
            aligned_bytes += aligned.quantize(size).bytes as u64;
            legacy_bytes += legacy.quantize(size).bytes as u64;
        }
    }
    let loss = aligned_bytes as f64 / legacy_bytes as f64 - 1.0;
    assert!(
        loss < 0.10,
        "aligned bins must cost little compression: {:.1}% worse",
        loss * 100.0
    );
}

/// §IV-B1: with grouped packing, aligned bins produce zero split packed
/// lines; legacy bins still split.
#[test]
fn claim_alignment_eliminates_splits() {
    let mut meta = PageMeta {
        valid: true,
        page_bytes: 4096,
        ..PageMeta::invalid()
    };
    for (i, b) in meta.line_bins.iter_mut().enumerate() {
        *b = ((i * 13) % 4) as u8;
    }
    let count_splits = |bins: &BinSet| -> usize {
        (0..LINES_PER_PAGE)
            .filter(|&line| match meta.locate(line, bins) {
                LineLocation::Packed { offset, size } => {
                    compresso_compression::bins::is_split_access(offset as usize, size as usize)
                }
                _ => false,
            })
            .count()
    };
    assert_eq!(count_splits(&BinSet::aligned4()), 0);
    assert!(count_splits(&BinSet::legacy4()) > 0);
}

/// §IV-A1: more page sizes compress better (8 sizes vs 4).
#[test]
fn claim_more_page_sizes_compress_better() {
    let sizes_8 = PageAllocation::Chunks512;
    let sizes_4 = PageAllocation::Variable4;
    // A page needing 1.3KB: 8 sizes fit 1.5KB, 4 sizes burn 2KB.
    assert!(sizes_8.fit(1300) < sizes_4.fit(1300));
    assert_eq!(sizes_8.page_sizes().len(), 8);
    assert_eq!(sizes_4.page_sizes().len(), 4);
}

/// §V: Compresso is OS-transparent — the device exposes the ballooning
/// hooks (pressure + page invalidation) rather than requiring OS
/// awareness; the OS-aware LCP instead charges a page fault on overflow.
#[test]
fn claim_os_transparency_mechanisms() {
    let profile = benchmark("gcc").unwrap();
    let world = compresso_workloads::DataWorld::new(&profile);
    let device = compresso_core::CompressoDevice::new(CompressoConfig::compresso(), world);
    assert!(
        device.mpa_pressure() >= 0.0,
        "pressure hook exists and is sane"
    );
    const {
        assert!(
            OS_PAGE_FAULT_CYCLES >= 1000,
            "the OS-aware baseline pays a trap cost"
        )
    };
}

/// §VI-B / Fig. 9: CompressPoint represents compressibility better than
/// SimPoint on phase-heavy benchmarks.
#[test]
fn claim_compresspoint_beats_simpoint_on_gems() {
    let profile = benchmark("GemsFDTD").unwrap();
    let run = full_run(&profile, 1.2, 64);
    let avg: f64 = run.iter().map(|i| i.compression_ratio).sum::<f64>() / run.len() as f64;
    let sp_err = (simpoint(&run).compression_ratio - avg).abs();
    let cp_err = (compresspoint(&run).compression_ratio - avg).abs();
    assert!(cp_err < sp_err);
}

/// §VII-E: the offset-calculation unit is small and fits in two memory
/// cycles (one extra cycle after overlap).
#[test]
fn claim_offset_circuit_is_cheap() {
    let est = linepack_offset_unit();
    assert!(est.nand_gates <= 1700);
    assert!(est.gate_delays <= 45);
}

/// Fig. 10a: Compresso's cycle-based performance stays near the
/// uncompressed baseline while LCP falls behind, over a compressible
/// sample.
#[test]
fn claim_compresso_cycle_perf_beats_lcp() {
    let mut lcp_rels = Vec::new();
    let mut comp_rels = Vec::new();
    for name in ["gcc", "soplex", "libquantum", "povray"] {
        let p = benchmark(name).unwrap();
        let base = run_single(&p, &SystemKind::Uncompressed, 4_000).cycles as f64;
        lcp_rels.push(base / run_single(&p, &SystemKind::Lcp, 4_000).cycles as f64);
        comp_rels.push(base / run_single(&p, &SystemKind::Compresso, 4_000).cycles as f64);
    }
    let lcp = geomean(&lcp_rels);
    let comp = geomean(&comp_rels);
    assert!(
        comp > lcp,
        "Compresso ({comp:.3}) must beat LCP ({lcp:.3}) on cycles"
    );
}

/// §III: the metadata overhead is 1.6% of capacity (64 B per 4 KB page).
#[test]
fn claim_metadata_overhead() {
    let overhead: f64 = 64.0 / 4096.0;
    assert!((overhead - 0.0156).abs() < 0.001);
    // And the fullest 4-bin entry fits its 64 B budget, CRC included:
    // the codec packs it and unpacks it unchanged.
    let bins = BinSet::aligned4();
    let full = PageMeta {
        valid: true,
        page_bytes: 4096,
        chunks: (0..8).map(|i| (1 << 24) - 1 - i).collect(),
        line_bins: [3; LINES_PER_PAGE],
        inflated: (0..17).collect(),
        ..PageMeta::invalid()
    };
    let packed = try_encode(&full, &bins).expect("a 4-bin entry fits 64 B");
    assert_eq!(decode_metadata(&packed, &bins), Ok(full.clone()));
    // Eight bins need 3-bit line codes, which the entry has no room for
    // (§IV-A1).
    let mut wide = full;
    wide.line_bins[0] = 7;
    assert!(try_encode(&wide, &BinSet::eight()).is_err());
}

/// §II-C: an LCP page with uniform line sizes needs no exceptions; mixed
/// sizes force exceptions or a larger target.
#[test]
fn claim_lcp_exception_mechanics() {
    let uniform = lcp_plan(&[8; 64], &BinSet::aligned4());
    assert!(uniform.exceptions.is_empty());
    let mut mixed = [8u8; 64];
    mixed[0] = 64;
    let plan = lcp_plan(&mixed, &BinSet::aligned4());
    assert!(plan.exceptions.contains(&0) || plan.target == 64);
}
