//! Crash-consistency suite (DESIGN.md §10): the write-ahead journal,
//! torn-write crash injection, cold-boot recovery, and the background
//! scrubber, all diffed against the [`ShadowModel`] reference replay.
//!
//! The central invariant: **recovery depends only on the journal
//! bytes**. That lets the crash-at-every-record sweep drive the 1k-op
//! schedule once, then simulate a crash after record `k` by truncating
//! the full-run journal at each record boundary — O(records) recoveries
//! instead of O(records × ops) re-driven schedules. A sampled set of
//! *real* armed crashes (`FaultPlan::with_crash_at`) proves the
//! device-side torn append is byte-equivalent to that truncation model.

use compresso_cache_sim::Backend;
use compresso_core::journal::{frame_boundaries, parse};
use compresso_core::{
    encode_metadata, CompressoConfig, CompressoDevice, FaultConfig, FaultPlan, Journal,
    JournalRecord, LcpDevice, LcpImage, LcpPlan, MemoryDevice, PageAllocation, PageImage, PageMeta,
    RecoveryReport, ShadowModel,
};
use compresso_workloads::{benchmark, BenchmarkProfile, DataWorld, PAGE_BYTES};
use std::collections::BTreeMap;

const SCHEDULE_OPS: u64 = 1_000;
const SCHEDULE_PAGES: u64 = 24;

fn profile(name: &str) -> BenchmarkProfile {
    benchmark(name).expect("paper benchmark")
}

/// The deterministic 1k-op schedule: mixed fills and writebacks over a
/// small hot set, with periodic page invalidations (ballooning).
fn drive_schedule<B: Backend>(device: &mut B, invalidate: impl Fn(&mut B, u64), ops: u64) {
    let mut t = 0u64;
    for i in 0..ops {
        let page = (i * 7) % SCHEDULE_PAGES;
        let line = (i * 13) % 64;
        let addr = page * PAGE_BYTES + line * 64;
        t = if i % 3 == 0 {
            device.writeback(t, addr).max(t)
        } else {
            device.fill(t, addr).max(t)
        };
        if i % 97 == 96 {
            invalidate(device, page);
        }
    }
}

/// Full Compresso over `bench`'s world, journaling with a scrub pass
/// every 100k cycles.
fn durable_device(bench: &str) -> CompressoDevice {
    let world = DataWorld::new(&profile(bench));
    let mut device = CompressoDevice::new(CompressoConfig::compresso(), world);
    device.enable_journaling(100_000);
    device
}

/// Committed Packed images of a shadow model, in `pages_snapshot` form.
fn shadow_pages(shadow: &ShadowModel) -> BTreeMap<u64, [u8; 64]> {
    shadow
        .pages()
        .iter()
        .map(|(&p, img)| match img {
            PageImage::Packed(b) => (p, *b),
            PageImage::Lcp(_) => panic!("Compresso journal cannot hold LCP records"),
        })
        .collect()
}

#[test]
fn journaled_run_matches_shadow_model() {
    let mut device = durable_device("gcc");
    drive_schedule(&mut device, |d, p| d.invalidate_page(p), SCHEDULE_OPS);
    assert!(!device.is_crashed());

    let bytes = device.journal_bytes().expect("journaling on").to_vec();
    let (records, report) = parse(&bytes);
    assert!(!report.torn, "no crash was armed");
    assert_eq!(records.len() as u64, device.journal_records());

    let (shadow, rolled_back) = ShadowModel::replay(&records);
    assert_eq!(rolled_back, 0, "every mutation committed");
    assert!(shadow.violations().is_empty(), "{:?}", shadow.violations());
    assert_eq!(
        device.pages_snapshot(),
        shadow_pages(&shadow),
        "live metadata must equal the journal-committed view"
    );
    assert_eq!(
        device.owners_snapshot(),
        shadow.owners().clone(),
        "block ownership must equal the journal-committed view"
    );
}

/// The tentpole acceptance test: crash after *every* journal record of a
/// 1k-op schedule; recovery from each truncated journal must equal the
/// shadow model's replay of the same prefix, with zero violations.
#[test]
fn crash_at_every_record_recovers_to_shadow_state() {
    let mut device = durable_device("gcc");
    drive_schedule(&mut device, |d, p| d.invalidate_page(p), SCHEDULE_OPS);
    let full = device.journal_bytes().expect("journaling on").to_vec();
    let boundaries = frame_boundaries(&full);
    assert!(
        boundaries.len() > 100,
        "a 1k-op schedule journals plenty of records, got {}",
        boundaries.len() - 1
    );

    // Every whole-record prefix, plus a mid-record (torn) cut after it.
    let mut cuts: Vec<usize> = boundaries.clone();
    cuts.extend(boundaries.iter().map(|&b| (b + 7).min(full.len())));
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        let prefix = &full[..cut];
        let (records, _) = parse(prefix);
        let (shadow, _) = ShadowModel::replay(&records);
        let (recovered, report) = durable_device("gcc").recover(prefix);
        assert!(
            report.is_clean(),
            "cut at {cut}: recovery violations {:?}",
            report.violations
        );
        assert_eq!(report.pages_rebuilt, shadow.pages().len(), "cut at {cut}");
        assert_eq!(
            recovered.pages_snapshot(),
            shadow_pages(&shadow),
            "cut at {cut}: recovered metadata must equal the shadow replay"
        );
        assert_eq!(
            recovered.owners_snapshot(),
            shadow.owners().clone(),
            "cut at {cut}: recovered ownership must equal the shadow replay"
        );
        // The checkpoint journal the recovery wrote must itself replay
        // back to the same state (recovery is idempotent).
        let (ck_records, ck_report) = parse(recovered.journal_bytes().expect("journaling on"));
        assert!(!ck_report.torn, "cut at {cut}");
        let (ck_shadow, ck_rolled_back) = ShadowModel::replay(&ck_records);
        assert_eq!(ck_rolled_back, 0, "cut at {cut}");
        assert!(ck_shadow.violations().is_empty(), "cut at {cut}");
        assert_eq!(
            shadow_pages(&ck_shadow),
            shadow_pages(&shadow),
            "cut at {cut}"
        );
        assert_eq!(ck_shadow.owners(), shadow.owners(), "cut at {cut}");
    }
}

/// Real armed crashes (`with_crash_at`) must be byte-equivalent to the
/// truncation model: the frozen device's journal is the full-run journal
/// truncated at the crash record, plus an unparseable torn tail.
#[test]
fn armed_crash_equals_journal_truncation() {
    let mut reference = durable_device("mcf");
    drive_schedule(&mut reference, |d, p| d.invalidate_page(p), SCHEDULE_OPS);
    let full = reference.journal_bytes().expect("journaling on").to_vec();
    let boundaries = frame_boundaries(&full);
    let records = boundaries.len() - 1;
    assert!(records > 20);

    // Sample ~10 crash points across the whole journal.
    let step = (records / 10).max(1);
    for n in (0..records).step_by(step) {
        let mut device = durable_device("mcf");
        device.inject_faults(FaultPlan::new(1, FaultConfig::default()).with_crash_at(n as u64));
        drive_schedule(&mut device, |d, p| d.invalidate_page(p), SCHEDULE_OPS);
        assert!(device.is_crashed(), "crash at record {n} must fire");
        assert_eq!(device.fault_stats().expect("plan attached").crashes, 1);

        let torn = device.journal_bytes().expect("journaling on");
        let cut = boundaries[n];
        assert_eq!(
            &torn[..cut],
            &full[..cut],
            "crash at {n}: intact prefix must match the unfaulted run"
        );
        assert!(torn.len() > cut, "crash at {n}: a torn tail must exist");
        let (parsed, report) = parse(torn);
        assert_eq!(parsed.len(), n, "crash at {n}: only whole records parse");
        assert!(report.torn);

        // Recovery from the torn journal equals recovery from the
        // truncated reference journal.
        let (from_torn, report_torn) = durable_device("mcf").recover(torn);
        assert!(report_torn.is_clean(), "{:?}", report_torn.violations);
        assert!(report_torn.torn);
        let (from_cut, _) = durable_device("mcf").recover(&full[..cut]);
        assert_eq!(from_torn.pages_snapshot(), from_cut.pages_snapshot());
        assert_eq!(from_torn.owners_snapshot(), from_cut.owners_snapshot());

        // A frozen device refuses further work instead of corrupting
        // state: the journal must not grow.
        let before = device.journal_bytes().expect("journaling on").len();
        let t = device.fill(1 << 20, 0);
        device.writeback(t, 64);
        assert_eq!(device.journal_bytes().expect("journaling on").len(), before);
    }
}

/// Recovered devices keep working: drive more traffic after recovery and
/// verify the journal-committed view still tracks the live metadata.
#[test]
fn recovered_device_resumes_service() {
    let mut device = durable_device("zeusmp");
    device.inject_faults(FaultPlan::new(3, FaultConfig::default()).with_crash_at(20));
    drive_schedule(&mut device, |d, p| d.invalidate_page(p), SCHEDULE_OPS);
    assert!(device.is_crashed());

    let (mut recovered, report) =
        durable_device("zeusmp").recover(device.journal_bytes().expect("journaling on"));
    assert!(report.is_clean(), "{:?}", report.violations);
    assert!(report.prewarmed > 0, "journal tail prewarms the mcache");
    assert!(
        recovered
            .metrics()
            .snapshot()
            .counter("recovery.replayed.total")
            > Some(0)
    );

    drive_schedule(&mut recovered, |d, p| d.invalidate_page(p), SCHEDULE_OPS);
    assert!(!recovered.is_crashed());
    let (records, report) = parse(recovered.journal_bytes().expect("journaling on"));
    assert!(!report.torn);
    let (shadow, _) = ShadowModel::replay(&records);
    assert!(shadow.violations().is_empty(), "{:?}", shadow.violations());
    assert_eq!(recovered.pages_snapshot(), shadow_pages(&shadow));
    assert_eq!(recovered.owners_snapshot(), shadow.owners().clone());
    assert!(recovered.compression_ratio() >= 1.0);
}

/// The background scrubber: inject silent rot into the durable metadata
/// image and verify the CRC walk detects every decayed entry and repairs
/// it from the journal's last committed copy.
#[test]
fn scrubber_detects_and_repairs_rot() {
    let world = DataWorld::new(&profile("soplex"));
    let mut device = CompressoDevice::new(CompressoConfig::compresso(), world);
    device.enable_journaling(2_000);
    let rot_only = FaultConfig {
        rot_per_mille: 400,
        ..FaultConfig::default()
    };
    device.inject_faults(FaultPlan::new(11, rot_only));
    drive_schedule(&mut device, |d, p| d.invalidate_page(p), 4 * SCHEDULE_OPS);
    assert!(!device.is_crashed(), "rot never crashes the device");

    let rotted = device.fault_stats().expect("plan attached").rot_flips;
    assert!(rotted > 0, "the rot schedule must fire");
    let snap = device.metrics().snapshot();
    let passes = snap.counter("scrub.pass.total").unwrap_or(0);
    let failures = snap.counter("scrub.crc_failure.total").unwrap_or(0);
    let repairs = snap.counter("scrub.repair.total").unwrap_or(0);
    assert!(passes > 0, "simulated time must drive scrub passes");
    assert!(failures > 0, "rotted entries must fail their CRC");
    assert_eq!(
        failures, repairs,
        "every CRC failure is repaired from the page's last commit"
    );

    let stats = device.device_stats();
    assert!(stats.corruption_detected >= failures);
    assert_eq!(
        stats.corruption_undetected, 0,
        "the entry CRC leaves no silent corruption"
    );

    // After repair the journal-committed view still matches the device.
    let (records, report) = parse(device.journal_bytes().expect("journaling on"));
    assert!(!report.torn);
    let (shadow, _) = ShadowModel::replay(&records);
    assert!(shadow.violations().is_empty(), "{:?}", shadow.violations());
    assert_eq!(device.pages_snapshot(), shadow_pages(&shadow));
}

/// LCP journaling: crash the OS-aware baseline mid-schedule and recover;
/// the recovered checkpoint must replay to the crash-time shadow state.
#[test]
fn lcp_crash_recovery_round_trips() {
    let mut device = LcpDevice::lcp_align(DataWorld::new(&profile("gcc")));
    device.enable_journaling();
    device.inject_faults(FaultPlan::new(5, FaultConfig::default()).with_crash_at(120));
    drive_schedule(&mut device, |_, _| (), SCHEDULE_OPS);
    assert!(device.is_crashed());

    let torn = device.journal_bytes().expect("journaling on");
    let (records, parse_report) = parse(torn);
    assert!(parse_report.torn);
    assert_eq!(records.len(), 120);
    let (shadow, _) = ShadowModel::replay(&records);

    let (mut recovered, report) =
        LcpDevice::lcp_align(DataWorld::new(&profile("gcc"))).recover(torn);
    assert!(report.is_clean(), "{:?}", report.violations);
    assert_eq!(report.pages_rebuilt, shadow.pages().len());
    assert_eq!(recovered.owners_snapshot(), shadow.owners().clone());

    // The checkpoint journal replays to exactly the crash-time state.
    let (ck_records, ck_report) = parse(recovered.journal_bytes().expect("journaling on"));
    assert!(!ck_report.torn);
    let (ck_shadow, rolled_back) = ShadowModel::replay(&ck_records);
    assert_eq!(rolled_back, 0);
    assert!(
        ck_shadow.violations().is_empty(),
        "{:?}",
        ck_shadow.violations()
    );
    assert_eq!(ck_shadow.pages(), shadow.pages());
    assert_eq!(ck_shadow.owners(), shadow.owners());

    // And the recovered baseline keeps serving traffic.
    drive_schedule(&mut recovered, |_, _| (), SCHEDULE_OPS);
    assert!(!recovered.is_crashed());
    assert!(recovered.compression_ratio() >= 1.0);
}

/// Journaling is an opt-in layer: the default configuration must not
/// journal, and a journaled fault-free run must produce the same device
/// stats as an unjournaled one (the journal is pure bookkeeping).
#[test]
fn journaling_is_transparent_to_the_demand_stream() {
    let mut plain = CompressoDevice::new(
        CompressoConfig::compresso(),
        DataWorld::new(&profile("gcc")),
    );
    drive_schedule(&mut plain, |d, p| d.invalidate_page(p), SCHEDULE_OPS);
    assert!(plain.journal_bytes().is_none(), "durability defaults off");

    let mut journaled = durable_device("gcc");
    drive_schedule(&mut journaled, |d, p| d.invalidate_page(p), SCHEDULE_OPS);
    assert_eq!(
        format!("{:?}", plain.device_stats()),
        format!("{:?}", journaled.device_stats()),
        "journaling must not perturb the modeled access stream"
    );
    assert_eq!(plain.compression_ratio(), journaled.compression_ratio());
}

/// A recovered page's layout comes from its entry while recovery
/// rebuilds the allocator from the journal's ownership records: an
/// entry that does not imply exactly the blocks the journal grants must
/// be reported, not silently trusted. One rule covers Chunks512,
/// Variable4 (one contiguous block) and the LCP baselines.
#[test]
fn entry_must_own_exactly_the_journal_blocks() {
    let world = || DataWorld::new(&profile("gcc"));
    let journal = |records: &[JournalRecord]| {
        let mut journal = Journal::new();
        for rec in records {
            journal.append(rec);
        }
        journal.bytes().to_vec()
    };
    let grant = |addr: u64, bytes: u32| JournalRecord::ChunkAlloc {
        page: 3,
        addr,
        bytes,
    };
    // Page 3 of a Compresso device under `allocation`: the journal
    // grants `granted`; the entry claims `chunks`.
    let compresso = |allocation, granted: &[(u64, u32)], chunks: Vec<u32>| {
        let cfg = CompressoConfig {
            allocation,
            ..CompressoConfig::compresso()
        };
        let meta = PageMeta {
            valid: true,
            zero: false,
            compressed: true,
            page_bytes: chunks.len() as u32 * 512,
            chunks,
            line_bins: [1; 64],
            inflated: Vec::new(),
        };
        let mut records: Vec<_> = granted.iter().map(|&(a, b)| grant(a, b)).collect();
        records.push(JournalRecord::EntryUpdate {
            page: 3,
            packed: encode_metadata(&meta, &cfg.bins),
        });
        CompressoDevice::new(cfg, world())
            .recover(&journal(&records))
            .1
    };
    // Page 3 of an LCP+Align device: the journal grants the 1 KB block
    // at 0x8000; the plan claims `page_bytes` at `base`.
    let lcp = |base: u64, page_bytes: u32| {
        let image = LcpImage {
            plan: LcpPlan {
                target: 8,
                exceptions: Vec::new(),
                needed_bytes: 512,
            },
            page_bytes,
            base,
            zero_bitmap: 0,
        };
        let records = [
            grant(0x8000, 1024),
            JournalRecord::LcpEntryUpdate { page: 3, image },
        ];
        LcpDevice::lcp_align(world()).recover(&journal(&records)).1
    };
    let chunks512 = PageAllocation::Chunks512;
    let variable4 = PageAllocation::Variable4;
    let v4_block = [(8 * 512, 1024)];
    let rows: [(&str, RecoveryReport, bool); 10] = [
        (
            "Chunks512, granted chunks",
            compresso(chunks512, &[(8 * 512, 512), (12 * 512, 512)], vec![12, 8]),
            true,
        ),
        (
            "Chunks512, a chunk never granted",
            compresso(chunks512, &[(8 * 512, 512), (12 * 512, 512)], vec![8, 9]),
            false,
        ),
        (
            "Variable4, the granted block",
            compresso(variable4, &v4_block, vec![8, 9]),
            true,
        ),
        (
            "Variable4, shifted base",
            compresso(variable4, &v4_block, vec![10, 11]),
            false,
        ),
        (
            "Variable4, scattered chunks",
            compresso(variable4, &v4_block, vec![8, 12]),
            false,
        ),
        ("LCP, the granted block", lcp(0x8000, 1024), true),
        ("LCP, base disagrees", lcp(0x9000, 1024), false),
        ("LCP, page_bytes disagrees", lcp(0x8000, 2048), false),
        ("LCP, smaller page_bytes", lcp(0x8000, 512), false),
        ("LCP, no storage claimed", lcp(0, 0), false),
    ];
    for (name, report, matches) in rows {
        let named = report
            .violations
            .iter()
            .any(|v| v.contains("page 3") && v.contains("but the journal grants"));
        if matches {
            assert!(report.is_clean(), "{name}: {:?}", report.violations);
        } else {
            assert!(named, "{name}: {:?}", report.violations);
        }
    }
}

/// The packed entry holds 2-bit line codes, so a journaled device with
/// eight bins would fail to encode its entries and skip every commit.
#[test]
#[should_panic(expected = "2-bit line codes")]
fn journaled_eight_bin_device_is_refused() {
    let cfg = CompressoConfig {
        bins: compresso_compression::BinSet::eight(),
        ..CompressoConfig::compresso()
    };
    CompressoDevice::new(cfg, DataWorld::new(&profile("gcc"))).enable_journaling(100_000);
}

/// Recovery rebuilds a device from the journal alone, so a device that
/// has already served traffic is refused.
#[test]
#[should_panic(expected = "recover a freshly built device")]
fn recovering_a_used_device_is_refused() {
    let mut device = durable_device("gcc");
    drive_schedule(&mut device, |d, p| d.invalidate_page(p), 10);
    let journal = device.journal_bytes().expect("journaling on").to_vec();
    let _ = device.recover(&journal);
}
