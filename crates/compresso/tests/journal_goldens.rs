//! Versioned journal goldens: torn journals written by earlier builds,
//! kept as binary files under `tests/golden/journals/`, must still
//! recover to the state pinned in `tests/golden/journals/recovered.txt`.
//!
//! Each journal comes from a fixed fault schedule (aggressive injection
//! plus an armed crash) on one device family: Compresso Chunks512,
//! Compresso Variable4 and LCP+Align. Recovery must keep reading these
//! files, not only the journal the current build writes. The text
//! golden pins the `RecoveryReport`, every recovered page and block
//! owner, and the device stats after a short fault-free run on the
//! recovered device.
//!
//! A journal file is written only when it is missing, so re-blessing
//! never rewrites an old journal; a new journal version gets a new file.
//! To regenerate the text golden after an *intentional* behaviour
//! change (and write any missing journal):
//!
//! ```text
//! COMPRESSO_BLESS=1 cargo test -p compresso-core --test journal_goldens
//! ```

use compresso_cache_sim::Backend;
use compresso_core::{
    parse_journal, CompressoConfig, CompressoDevice, FaultPlan, JournalRecord, LcpDevice,
    MemoryDevice, PageAllocation, PageImage, RecoveryReport, ShadowModel,
};
use compresso_workloads::{benchmark, DataWorld, PAGE_BYTES};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Pages the schedule writes to.
const PAGES: u64 = 40;
/// Demand operations of the post-recovery run.
const RESUME_OPS: u64 = 1_500;

fn world(bench: &str) -> DataWorld {
    DataWorld::new(&benchmark(bench).expect("paper benchmark"))
}

fn golden_dir() -> String {
    format!("{}/tests/golden/journals", env!("CARGO_MANIFEST_DIR"))
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

/// One versioned journal: its file, the device family that wrote it and
/// the crash schedule.
struct Case {
    file: &'static str,
    bench: &'static str,
    seed: u64,
    crash_at: u64,
    family: Family,
}

#[derive(Clone, Copy)]
enum Family {
    Compresso(PageAllocation),
    LcpAlign,
}

/// A fresh journaling Compresso device with `allocation` over `bench`'s
/// world.
fn compresso(allocation: PageAllocation, bench: &str) -> CompressoDevice {
    let cfg = CompressoConfig {
        allocation,
        ..CompressoConfig::compresso()
    };
    let mut d = CompressoDevice::new(cfg, world(bench));
    d.enable_journaling(100_000);
    d
}

const CASES: [Case; 3] = [
    Case {
        file: "v1_compresso_chunks512.bin",
        bench: "gcc",
        seed: 0x10A,
        crash_at: 260,
        family: Family::Compresso(PageAllocation::Chunks512),
    },
    Case {
        file: "v1_compresso_variable4.bin",
        bench: "soplex",
        seed: 0x20B,
        crash_at: 240,
        family: Family::Compresso(PageAllocation::Variable4),
    },
    Case {
        file: "v1_lcp_align.bin",
        bench: "zeusmp",
        seed: 0x30C,
        crash_at: 220,
        family: Family::LcpAlign,
    },
];

/// Runs `case`'s schedule into its armed crash and returns the torn
/// journal.
fn write_torn_journal(case: &Case) -> Vec<u8> {
    let plan = FaultPlan::aggressive(case.seed).with_crash_at(case.crash_at);
    match case.family {
        Family::Compresso(allocation) => {
            let mut d = compresso(allocation, case.bench);
            d.inject_faults(plan);
            drive(&mut d, |d, p| d.invalidate_page(p), 20_000);
            assert!(d.is_crashed(), "{}: the armed crash must fire", case.file);
            d.journal_bytes().expect("journaling on").to_vec()
        }
        Family::LcpAlign => {
            let mut d = LcpDevice::lcp_align(world(case.bench));
            d.enable_journaling();
            d.inject_faults(plan);
            drive(&mut d, |_, _| (), 20_000);
            assert!(d.is_crashed(), "{}: the armed crash must fire", case.file);
            d.journal_bytes().expect("journaling on").to_vec()
        }
    }
}

/// How many records of each kind the journal holds.
fn record_kinds(bytes: &[u8]) -> String {
    let (records, report) = parse_journal(bytes);
    let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for rec in &records {
        let kind = match rec {
            JournalRecord::EntryUpdate { .. } => "EntryUpdate",
            JournalRecord::ChunkAlloc { .. } => "ChunkAlloc",
            JournalRecord::ChunkFree { .. } => "ChunkFree",
            JournalRecord::PageFree { .. } => "PageFree",
            JournalRecord::RepackBegin { .. } => "RepackBegin",
            JournalRecord::RepackCommit { .. } => "RepackCommit",
            JournalRecord::LcpEntryUpdate { .. } => "LcpEntryUpdate",
        };
        *kinds.entry(kind).or_default() += 1;
    }
    format!(
        "{} B, {} records {kinds:?}, torn tail {} B",
        bytes.len(),
        records.len(),
        report.discarded_bytes
    )
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn write_owners(out: &mut String, owners: &BTreeMap<u64, (u64, u32)>) {
    writeln!(out, "  owners: {} blocks", owners.len()).unwrap();
    for (addr, (page, bytes)) in owners {
        writeln!(out, "    {addr:#x}: page {page}, {bytes} B").unwrap();
    }
}

fn write_report(out: &mut String, report: &RecoveryReport) {
    writeln!(out, "  recovery: {report:?}").unwrap();
}

/// Recovers `bytes` as `case`'s device family and describes the result.
fn recovered(case: &Case, bytes: &[u8]) -> String {
    let mut out = String::new();
    writeln!(out, "{}", case.file).unwrap();
    writeln!(out, "  journal: {}", record_kinds(bytes)).unwrap();
    match case.family {
        Family::Compresso(allocation) => {
            let (mut d, report) = compresso(allocation, case.bench).recover(bytes);
            write_report(&mut out, &report);
            let pages = d.pages_snapshot();
            writeln!(out, "  pages: {} entries", pages.len()).unwrap();
            for (page, packed) in &pages {
                writeln!(out, "    {page}: {}", hex(packed)).unwrap();
            }
            write_owners(&mut out, &d.owners_snapshot());
            drive(&mut d, |d, p| d.invalidate_page(p), RESUME_OPS);
            writeln!(out, "  resumed: {:?}", d.device_stats()).unwrap();
        }
        Family::LcpAlign => {
            let (mut d, report) = LcpDevice::lcp_align(world(case.bench)).recover(bytes);
            write_report(&mut out, &report);
            // The recovered layouts and ownership, as the checkpoint
            // journal (the recovered device's committed state) holds them.
            let checkpoint = parse_journal(d.journal_bytes().expect("journaling on")).0;
            let (checkpoint, _) = ShadowModel::replay(&checkpoint);
            writeln!(out, "  pages: {} entries", checkpoint.pages().len()).unwrap();
            for (page, image) in checkpoint.pages() {
                let PageImage::Lcp(image) = image else {
                    panic!("page {page}: an LCP checkpoint holds only LCP images");
                };
                writeln!(out, "    {page}: {image:?}").unwrap();
            }
            write_owners(&mut out, checkpoint.owners());
            drive(&mut d, |_, _| (), RESUME_OPS);
            writeln!(out, "  resumed: {:?}", d.device_stats()).unwrap();
        }
    }
    out
}

#[test]
fn old_torn_journals_recover_to_the_pinned_state() {
    let bless = std::env::var("COMPRESSO_BLESS").is_ok();
    let mut out = String::new();
    for case in &CASES {
        let path = format!("{}/{}", golden_dir(), case.file);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) if bless => {
                let bytes = write_torn_journal(case);
                std::fs::create_dir_all(golden_dir()).expect("create golden dir");
                std::fs::write(&path, &bytes).expect("write journal file");
                eprintln!("wrote {path}");
                bytes
            }
            Err(e) => panic!("{path}: {e}"),
        };
        out.push_str(&recovered(case, &bytes));
    }

    let path = format!("{}/recovered.txt", golden_dir());
    if bless {
        std::fs::write(&path, &out).expect("write golden file");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(
        golden, out,
        "\nrecovery of a checked-in journal changed. If this behaviour change \
         is intentional, regenerate with `COMPRESSO_BLESS=1 cargo test -p \
         compresso-core --test journal_goldens` and commit the new golden \
         file; never rewrite an old journal."
    );
}
