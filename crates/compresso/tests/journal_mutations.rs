//! Structure-aware journal mutations: take a real journal, mutate it
//! record by record (drop, duplicate, swap neighbours, point a record at
//! another page, move a `RepackCommit`, change a delta's byte count or
//! address), re-frame
//! the result through [`Journal::append`], and feed it to every reader.
//!
//! Byte-level fuzzing mostly breaks a frame's CRC, so `parse` stops at
//! the first record; re-framing keeps every mutated record valid on the
//! wire and so reaches the replay and recovery logic behind the parser.
//! The properties:
//!
//! * `parse` returns every re-framed record, and no torn tail;
//! * `ShadowModel::replay`, `CompressoDevice::recover` (Chunks512 and
//!   Variable4) and `LcpDevice::recover` never panic;
//! * broken ownership shows up as violations: every replay violation is
//!   in the recovery report, a page whose entry implies other blocks than
//!   the journal grants is named, and a clean recovery equals the replay;
//! * every recovered device keeps running: it adopted only consistent
//!   pages, so driving it afterwards never frees storage its allocator
//!   does not hold.

use compresso_cache_sim::Backend;
use compresso_core::{
    decode_metadata, encode_metadata, parse_journal, CompressoConfig, CompressoDevice, FaultPlan,
    Journal, JournalRecord, LcpDevice, MemoryDevice, PageAllocation, PageImage, PageMeta,
    RecoveryReport, ShadowModel,
};
use compresso_workloads::{benchmark, DataWorld, PAGE_BYTES};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

const PAGES: u64 = 24;

fn world() -> DataWorld {
    DataWorld::new(&benchmark("gcc").expect("paper benchmark"))
}

/// Mixed fills and writebacks over `PAGES` pages, with a ballooning
/// invalidation every 97 ops.
fn drive<B: Backend>(device: &mut B, invalidate: impl Fn(&mut B, u64), ops: u64) {
    let mut t = 0u64;
    for i in 0..ops {
        let page = (i * 7) % PAGES;
        let addr = page * PAGE_BYTES + ((i * 13) % 64) * 64;
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

/// A fresh journaling Compresso device with `allocation`.
fn compresso(allocation: PageAllocation) -> CompressoDevice {
    let cfg = CompressoConfig {
        allocation,
        ..CompressoConfig::compresso()
    };
    let mut device = CompressoDevice::new(cfg, world());
    device.enable_journaling(100_000);
    device
}

/// The records of two real, untorn journals: a Compresso Chunks512 run
/// and an LCP+Align run, both under aggressive fault injection (so the
/// Compresso journal holds repack brackets and page frees).
fn base_journals() -> &'static [Vec<JournalRecord>; 2] {
    static JOURNALS: OnceLock<[Vec<JournalRecord>; 2]> = OnceLock::new();
    JOURNALS.get_or_init(|| {
        let mut compresso = compresso(PageAllocation::Chunks512);
        compresso.inject_faults(FaultPlan::aggressive(7));
        drive(&mut compresso, |d, p| d.invalidate_page(p), 1_200);
        let mut lcp = LcpDevice::lcp_align(world());
        lcp.enable_journaling();
        lcp.inject_faults(FaultPlan::aggressive(8));
        drive(&mut lcp, |_, _| (), 1_200);
        [
            compresso.journal_bytes().expect("journaling on"),
            lcp.journal_bytes().expect("journaling on"),
        ]
        .map(|bytes| parse_journal(bytes).0)
    })
}

#[derive(Debug, Clone, Copy)]
enum Mutation {
    Drop,
    Duplicate,
    SwapNeighbours,
    Retarget,
    MoveRepackCommit,
    ChangeDelta,
}

fn arb_mutation() -> impl Strategy<Value = (Mutation, usize, u64)> {
    (
        prop::sample::select(vec![
            Mutation::Drop,
            Mutation::Duplicate,
            Mutation::SwapNeighbours,
            Mutation::Retarget,
            Mutation::MoveRepackCommit,
            Mutation::ChangeDelta,
        ]),
        any::<usize>(),
        any::<u64>(),
    )
}

fn page_mut(rec: &mut JournalRecord) -> &mut u64 {
    match rec {
        JournalRecord::EntryUpdate { page, .. }
        | JournalRecord::ChunkAlloc { page, .. }
        | JournalRecord::ChunkFree { page, .. }
        | JournalRecord::PageFree { page }
        | JournalRecord::RepackBegin { page }
        | JournalRecord::RepackCommit { page }
        | JournalRecord::LcpEntryUpdate { page, .. } => page,
    }
}

/// Applies one mutation at record `at` (modulo the length); `aux` picks
/// the new page, the moved `RepackCommit` or the delta's new field.
fn mutate(records: &mut Vec<JournalRecord>, (mutation, at, aux): (Mutation, usize, u64)) {
    if records.is_empty() {
        return;
    }
    let at = at % records.len();
    match mutation {
        Mutation::Drop => {
            records.remove(at);
        }
        Mutation::Duplicate => records.insert(at, records[at].clone()),
        Mutation::SwapNeighbours => {
            if at + 1 < records.len() {
                records.swap(at, at + 1);
            }
        }
        // A page of the journal, or one just past it.
        Mutation::Retarget => *page_mut(&mut records[at]) = aux % (PAGES + 2),
        Mutation::MoveRepackCommit => {
            let commits: Vec<usize> = (0..records.len())
                .filter(|&i| matches!(records[i], JournalRecord::RepackCommit { .. }))
                .collect();
            if !commits.is_empty() {
                let rec = records.remove(commits[aux as usize % commits.len()]);
                records.insert(at.min(records.len()), rec);
            }
        }
        Mutation::ChangeDelta => {
            let delta = (at..records.len()).chain(0..at).find(|&i| {
                matches!(
                    records[i],
                    JournalRecord::ChunkAlloc { .. } | JournalRecord::ChunkFree { .. }
                )
            });
            if let Some(
                JournalRecord::ChunkAlloc { addr, bytes, .. }
                | JournalRecord::ChunkFree { addr, bytes, .. },
            ) = delta.map(|i| &mut records[i])
            {
                // A neighbouring block size or address, or any value.
                match aux % 6 {
                    0 => *bytes /= 2,
                    1 => *bytes = bytes.wrapping_mul(2),
                    2 => *bytes = bytes.wrapping_add(1),
                    3 => *bytes = (aux >> 3) as u32,
                    4 => *addr = addr.wrapping_add(512),
                    _ => *addr = aux >> 3,
                }
            }
        }
    }
}

fn reframe(records: &[JournalRecord]) -> Vec<u8> {
    let mut journal = Journal::new();
    for rec in records {
        journal.append(rec);
    }
    journal.bytes().to_vec()
}

/// The violations of `report` that name `page`.
fn names_page(report: &RecoveryReport, page: u64) -> bool {
    let needle = format!("page {page}:");
    report.violations.iter().any(|v| v.contains(&needle))
}

/// Ops driven through each recovered device.
const DRIVE_OPS: u64 = 600;

/// Checks a Compresso recovery of `bytes` against the replay `shadow`,
/// then drives the recovered device.
fn check_compresso(allocation: PageAllocation, shadow: &ShadowModel, bytes: &[u8]) {
    let (mut device, report) = compresso(allocation).recover(bytes);
    let bins = device.config().bins.clone();
    assert!(report.violations.starts_with(shadow.violations()));
    if allocation == PageAllocation::Chunks512 {
        for (&page, image) in shadow.pages() {
            let PageImage::Packed(packed) = image else {
                assert!(names_page(&report, page), "LCP image of page {page}");
                continue;
            };
            let Ok(meta) = decode_metadata(packed, &bins) else {
                assert!(names_page(&report, page), "undecodable page {page}");
                continue;
            };
            let mut implied: Vec<(u64, u32)> =
                meta.chunks.iter().map(|&c| (c as u64 * 512, 512)).collect();
            implied.sort_unstable();
            if implied != shadow.blocks_of(page) {
                assert!(names_page(&report, page), "ownership of page {page}");
            }
        }
    }
    if report.is_clean() {
        let packed: BTreeMap<u64, [u8; 64]> = shadow
            .pages()
            .iter()
            .filter_map(|(&p, img)| match img {
                PageImage::Packed(b) => Some((p, *b)),
                PageImage::Lcp(_) => None,
            })
            .collect();
        assert_eq!(device.pages_snapshot(), packed);
        assert_eq!(&device.owners_snapshot(), shadow.owners());
    }
    drive(&mut device, |d, p| d.invalidate_page(p), DRIVE_OPS);
}

/// Checks an LCP recovery of `bytes` against the replay `shadow`, then
/// drives the recovered device.
fn check_lcp(shadow: &ShadowModel, bytes: &[u8]) {
    let (mut device, report) = LcpDevice::lcp(world()).recover(bytes);
    assert!(report.violations.starts_with(shadow.violations()));
    for (&page, image) in shadow.pages() {
        let PageImage::Lcp(image) = image else {
            assert!(names_page(&report, page), "Compresso entry of page {page}");
            continue;
        };
        if image.blocks() != shadow.blocks_of(page) {
            assert!(names_page(&report, page), "ownership of page {page}");
        }
    }
    if report.is_clean() {
        // The checkpoint journal holds the recovered device's state.
        let checkpoint = parse_journal(device.journal_bytes().expect("journaling on")).0;
        let (checkpoint, _) = ShadowModel::replay(&checkpoint);
        assert_eq!(checkpoint.pages(), shadow.pages());
        assert_eq!(checkpoint.owners(), shadow.owners());
    }
    drive(&mut device, |_, _| (), DRIVE_OPS);
}

#[test]
fn base_journals_cover_every_mutation_target() {
    let [compresso, lcp] = base_journals();
    let has = |records: &[JournalRecord], f: fn(&JournalRecord) -> bool| records.iter().any(f);
    assert!(has(compresso, |r| matches!(
        r,
        JournalRecord::RepackCommit { .. }
    )));
    assert!(has(compresso, |r| matches!(
        r,
        JournalRecord::PageFree { .. }
    )));
    assert!(has(compresso, |r| matches!(
        r,
        JournalRecord::ChunkFree { .. }
    )));
    assert!(has(lcp, |r| matches!(r, JournalRecord::ChunkFree { .. })));
    // Unmutated, both recover clean.
    for records in [compresso, lcp] {
        let (shadow, rolled_back) = ShadowModel::replay(records);
        assert_eq!(rolled_back, 0);
        assert!(shadow.violations().is_empty(), "{:?}", shadow.violations());
    }
}

/// A duplicated grant double-owns its block; a free whose size differs
/// from the grant is named; a dropped grant leaves an entry claiming a
/// block the journal never granted.
#[test]
fn known_ownership_breaks_are_violations() {
    let records = &base_journals()[0];
    let first_alloc = records
        .iter()
        .position(|r| matches!(r, JournalRecord::ChunkAlloc { .. }))
        .expect("a grant");
    let first_free = records
        .iter()
        .position(|r| matches!(r, JournalRecord::ChunkFree { .. }))
        .expect("a free");
    // The grant of a block some page still owns at the end.
    let (shadow, _) = ShadowModel::replay(records);
    let (&owned, &(owner, _)) = shadow.owners().iter().next().expect("an owned block");
    let live_grant = records
        .iter()
        .rposition(|r| {
            matches!(r, JournalRecord::ChunkAlloc { page, addr, .. } if *page == owner && *addr == owned)
        })
        .expect("the block's grant");
    for (name, mutation) in [
        ("duplicate", (Mutation::Duplicate, first_alloc, 0)),
        ("resize free", (Mutation::ChangeDelta, first_free, 2)),
        ("move free", (Mutation::ChangeDelta, first_free, 4)),
        ("drop grant", (Mutation::Drop, live_grant, 0)),
    ] {
        let mut mutated = records.clone();
        mutate(&mut mutated, mutation);
        let bytes = reframe(&mutated);
        let (_, report) = compresso(PageAllocation::Chunks512).recover(&bytes);
        assert!(!report.is_clean(), "{name}: recovery reported no violation");
    }
}

/// A grant past the allocator's capacity cannot be rebuilt: recovery
/// reports the page instead of panicking, on every device family.
#[test]
fn blocks_outside_the_mpa_are_violations() {
    let far = JournalRecord::ChunkAlloc {
        page: 3,
        addr: u64::MAX - 511,
        bytes: 512,
    };
    let mut records = base_journals()[0].clone();
    records.push(JournalRecord::PageFree { page: 3 });
    records.push(far.clone());
    let entry = records
        .iter()
        .find(|r| matches!(r, JournalRecord::EntryUpdate { .. }))
        .expect("an entry");
    let mut entry = entry.clone();
    *page_mut(&mut entry) = 3;
    records.push(entry);
    let bytes = reframe(&records);
    for allocation in [PageAllocation::Chunks512, PageAllocation::Variable4] {
        let (_, report) = compresso(allocation).recover(&bytes);
        assert!(
            report.violations.iter().any(|v| v.contains("outside")),
            "{allocation:?}: {:?}",
            report.violations
        );
    }
    let mut records = base_journals()[1].clone();
    let image = records
        .iter()
        .find_map(|r| match r {
            JournalRecord::LcpEntryUpdate { image, .. } => Some(image.clone()),
            _ => None,
        })
        .expect("an LCP entry");
    records.push(far);
    records.push(JournalRecord::LcpEntryUpdate { page: 3, image });
    let (_, report) = LcpDevice::lcp(world()).recover(&reframe(&records));
    assert!(
        report.violations.iter().any(|v| v.contains("outside")),
        "{:?}",
        report.violations
    );
}

/// A page whose allocation is no page size of the device's allocator
/// could never be freed: recovery reports it and does not adopt it, so a
/// later release or re-plan of that page frees nothing it never held. A
/// Variable4 Compresso device reads a 2560 B page (a Chunks512 size);
/// LCP+Align reads a 2560 B plan.
#[test]
fn pages_of_no_allocator_size_are_violations() {
    const PAGE: u64 = PAGES + 6;
    let base: u64 = 1 << 20;
    let named = |report: &RecoveryReport| {
        report
            .violations
            .iter()
            .any(|v| v.starts_with(&format!("page {PAGE}:")) && v.contains("page size"))
    };
    let grant = JournalRecord::ChunkAlloc {
        page: PAGE,
        addr: base,
        bytes: 2560,
    };

    let device = compresso(PageAllocation::Variable4);
    let meta = PageMeta {
        valid: true,
        zero: false,
        compressed: true,
        page_bytes: 2560,
        chunks: (0..5).map(|i| (base / 512) as u32 + i).collect(),
        line_bins: [1; 64],
        inflated: Vec::new(),
    };
    let packed = encode_metadata(&meta, &device.config().bins);
    let entry = JournalRecord::EntryUpdate { page: PAGE, packed };
    let bytes = reframe(&[grant.clone(), entry]);
    let (mut device, report) = device.recover(&bytes);
    assert!(named(&report), "{:?}", report.violations);
    device.invalidate_page(PAGE);

    let mut image = base_journals()[1]
        .iter()
        .find_map(|r| match r {
            JournalRecord::LcpEntryUpdate { image, .. } if image.page_bytes > 0 => {
                Some(image.clone())
            }
            _ => None,
        })
        .expect("an LCP entry with storage");
    (image.base, image.page_bytes) = (base, 2560);
    let entry = JournalRecord::LcpEntryUpdate { page: PAGE, image };
    let (mut device, report) = LcpDevice::lcp_align(world()).recover(&reframe(&[grant, entry]));
    assert!(named(&report), "{:?}", report.violations);
    // Rewrite the page until it overflows: each re-plan frees the old
    // block.
    let mut t = 0;
    for _ in 0..20 {
        for line in 0..64 {
            let addr = PAGE * PAGE_BYTES + line * 64;
            t = device.writeback(t, addr).max(t);
            t = device.fill(t, addr).max(t);
        }
    }
    assert!(device.device_stats().page_overflows > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_journals_are_read_totally(
        lcp_base in any::<bool>(),
        mutations in prop::collection::vec(arb_mutation(), 1..=6),
    ) {
        let mut records = base_journals()[lcp_base as usize].clone();
        for m in mutations {
            mutate(&mut records, m);
        }
        let bytes = reframe(&records);
        let (parsed, report) = parse_journal(&bytes);
        prop_assert_eq!(&parsed, &records);
        prop_assert!(!report.torn);
        let (shadow, _) = ShadowModel::replay(&parsed);
        check_compresso(PageAllocation::Chunks512, &shadow, &bytes);
        check_compresso(PageAllocation::Variable4, &shadow, &bytes);
        check_lcp(&shadow, &bytes);
    }
}
