//! Write-ahead metadata journal, replay shadow model, and recovery
//! reporting (DESIGN.md §10).
//!
//! Compresso's correctness hinges on the per-page 64 B metadata entry: a
//! torn update misaddresses every line of the page. The journal gives the
//! device a crash-consistent update protocol:
//!
//! * every metadata mutation is logged **before** it is considered
//!   durable — allocation/free deltas first, then the full packed entry
//!   as the commit point;
//! * repacking (which moves a page between allocations) is bracketed by
//!   [`JournalRecord::RepackBegin`] / [`JournalRecord::RepackCommit`] so
//!   a crash mid-repack rolls the whole transaction back;
//! * the journal device is modeled as protected storage (ECC / battery
//!   backed): its bytes survive the crash, and the entry image of each
//!   page's last commit is the scrubber's repair source for rotted
//!   durable-image entries.
//!
//! ## Wire format
//!
//! Each record is framed as
//!
//! ```text
//! magic 0xC1 | kind u8 | seq u64 LE | page u64 LE | payload_len u16 LE
//!            | payload … | crc32 LE over all preceding record bytes
//! ```
//!
//! A torn write (crash mid-append) leaves a record without a valid
//! trailer; [`parse`] discards everything from the first malformed
//! record onward, so recovery only ever sees fully-written records.
//!
//! ## Replay semantics
//!
//! [`ShadowModel`] is the reference state machine: allocation deltas are
//! *pending* until a commit point for their page arrives
//! ([`JournalRecord::EntryUpdate`] / [`JournalRecord::LcpEntryUpdate`] /
//! [`JournalRecord::PageFree`]); inside an open repack bracket the
//! commit is deferred to [`JournalRecord::RepackCommit`]. Deltas with no
//! commit point (crash between alloc and entry update) are rolled back.
//! The model also verifies ownership invariants — no block double-owned,
//! no free of an unowned block — and records violations instead of
//! panicking, so the soak harness can diff a recovered device against
//! it.

use crate::faultkit::FaultPlan;
use crate::metadata_codec::{crc32, PACKED_BYTES};
use compresso_telemetry::counters;
use std::collections::{BTreeMap, HashMap};

/// Record framing magic byte.
const MAGIC: u8 = 0xC1;
/// Fixed header size: magic + kind + seq + page + payload_len.
const HEADER_BYTES: usize = 1 + 1 + 8 + 8 + 2;
/// Trailer: CRC-32 over header + payload.
const TRAILER_BYTES: usize = 4;

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// Commit point: the page's packed 64 B entry after the mutation.
    /// Commits any pending allocation deltas for the page.
    EntryUpdate {
        page: u64,
        packed: [u8; PACKED_BYTES],
    },
    /// Pending delta: the page took ownership of the MPA block
    /// `[addr, addr + bytes)`.
    ChunkAlloc { page: u64, addr: u64, bytes: u32 },
    /// Pending delta: the page released `[addr, addr + bytes)`.
    ChunkFree { page: u64, addr: u64, bytes: u32 },
    /// Commit point: the page was invalidated (ballooning); all its
    /// storage is released and its entry dropped.
    PageFree { page: u64 },
    /// Opens a repack transaction for the page: subsequent deltas and
    /// the entry update are held until [`JournalRecord::RepackCommit`].
    RepackBegin { page: u64 },
    /// Closes a repack transaction, committing the held records.
    RepackCommit { page: u64 },
    /// Commit point for the OS-aware LCP baseline: the page's layout
    /// plan after the mutation.
    LcpEntryUpdate { page: u64, image: LcpImage },
}

/// Serialized layout state of one LCP page (the journal's view of
/// `LcpDevice`'s per-page metadata).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LcpImage {
    pub target: u32,
    pub needed_bytes: u32,
    pub page_bytes: u32,
    pub base: u64,
    pub all_zero: bool,
    /// Bit `i` set ⇔ line `i` is all-zero.
    pub zero_bitmap: u64,
    pub exceptions: Vec<u8>,
}

impl JournalRecord {
    fn kind(&self) -> u8 {
        match self {
            JournalRecord::EntryUpdate { .. } => 1,
            JournalRecord::ChunkAlloc { .. } => 2,
            JournalRecord::ChunkFree { .. } => 3,
            JournalRecord::PageFree { .. } => 4,
            JournalRecord::RepackBegin { .. } => 5,
            JournalRecord::RepackCommit { .. } => 6,
            JournalRecord::LcpEntryUpdate { .. } => 7,
        }
    }

    /// The OSPA page this record concerns.
    pub fn page(&self) -> u64 {
        match *self {
            JournalRecord::EntryUpdate { page, .. }
            | JournalRecord::ChunkAlloc { page, .. }
            | JournalRecord::ChunkFree { page, .. }
            | JournalRecord::PageFree { page }
            | JournalRecord::RepackBegin { page }
            | JournalRecord::RepackCommit { page }
            | JournalRecord::LcpEntryUpdate { page, .. } => page,
        }
    }

    fn payload(&self) -> Vec<u8> {
        match self {
            JournalRecord::EntryUpdate { packed, .. } => packed.to_vec(),
            JournalRecord::ChunkAlloc { addr, bytes, .. }
            | JournalRecord::ChunkFree { addr, bytes, .. } => {
                let mut p = Vec::with_capacity(12);
                p.extend_from_slice(&addr.to_le_bytes());
                p.extend_from_slice(&bytes.to_le_bytes());
                p
            }
            JournalRecord::PageFree { .. }
            | JournalRecord::RepackBegin { .. }
            | JournalRecord::RepackCommit { .. } => Vec::new(),
            JournalRecord::LcpEntryUpdate { image, .. } => {
                let mut p = Vec::with_capacity(30 + image.exceptions.len());
                p.extend_from_slice(&image.target.to_le_bytes());
                p.extend_from_slice(&image.needed_bytes.to_le_bytes());
                p.extend_from_slice(&image.page_bytes.to_le_bytes());
                p.extend_from_slice(&image.base.to_le_bytes());
                p.push(image.all_zero as u8);
                p.extend_from_slice(&image.zero_bitmap.to_le_bytes());
                p.push(image.exceptions.len() as u8);
                p.extend_from_slice(&image.exceptions);
                p
            }
        }
    }

    fn decode_payload(kind: u8, page: u64, payload: &[u8]) -> Option<JournalRecord> {
        match kind {
            1 => {
                let packed: [u8; PACKED_BYTES] = payload.try_into().ok()?;
                Some(JournalRecord::EntryUpdate { page, packed })
            }
            2 | 3 => {
                if payload.len() != 12 {
                    return None;
                }
                let addr = u64::from_le_bytes(payload[..8].try_into().ok()?);
                let bytes = u32::from_le_bytes(payload[8..].try_into().ok()?);
                Some(if kind == 2 {
                    JournalRecord::ChunkAlloc { page, addr, bytes }
                } else {
                    JournalRecord::ChunkFree { page, addr, bytes }
                })
            }
            4 => payload
                .is_empty()
                .then_some(JournalRecord::PageFree { page }),
            5 => payload
                .is_empty()
                .then_some(JournalRecord::RepackBegin { page }),
            6 => payload
                .is_empty()
                .then_some(JournalRecord::RepackCommit { page }),
            7 => {
                if payload.len() < 30 {
                    return None;
                }
                let target = u32::from_le_bytes(payload[0..4].try_into().ok()?);
                let needed_bytes = u32::from_le_bytes(payload[4..8].try_into().ok()?);
                let page_bytes = u32::from_le_bytes(payload[8..12].try_into().ok()?);
                let base = u64::from_le_bytes(payload[12..20].try_into().ok()?);
                let all_zero = payload[20] != 0;
                let zero_bitmap = u64::from_le_bytes(payload[21..29].try_into().ok()?);
                let n = payload[29] as usize;
                if payload.len() != 30 + n {
                    return None;
                }
                Some(JournalRecord::LcpEntryUpdate {
                    page,
                    image: LcpImage {
                        target,
                        needed_bytes,
                        page_bytes,
                        base,
                        all_zero,
                        zero_bitmap,
                        exceptions: payload[30..].to_vec(),
                    },
                })
            }
            _ => None,
        }
    }
}

/// Encodes one record (header + payload + CRC trailer).
fn encode_record(seq: u64, rec: &JournalRecord) -> Vec<u8> {
    let payload = rec.payload();
    debug_assert!(payload.len() <= u16::MAX as usize);
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    out.push(MAGIC);
    out.push(rec.kind());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&rec.page().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Outcome of parsing a journal byte stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParseReport {
    /// Fully valid records recovered.
    pub records: usize,
    /// Bytes discarded after the last valid record (torn tail).
    pub discarded_bytes: usize,
    /// Whether the stream ended in a torn / corrupt record.
    pub torn: bool,
}

/// Parses a journal byte stream, stopping at the first malformed record
/// (a crash tears only the tail, so everything before it is intact).
pub fn parse(bytes: &[u8]) -> (Vec<JournalRecord>, ParseReport) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expected_seq = 0u64;
    while pos < bytes.len() {
        let Some(rec_len) = frame_len(&bytes[pos..]) else {
            break;
        };
        let frame = &bytes[pos..pos + rec_len];
        let stored = u32::from_le_bytes(frame[rec_len - 4..].try_into().expect("4 bytes"));
        if crc32(&frame[..rec_len - 4]) != stored {
            break;
        }
        let seq = u64::from_le_bytes(frame[2..10].try_into().expect("8 bytes"));
        if seq != expected_seq {
            break;
        }
        let page = u64::from_le_bytes(frame[10..18].try_into().expect("8 bytes"));
        let payload = &frame[HEADER_BYTES..rec_len - TRAILER_BYTES];
        let Some(rec) = JournalRecord::decode_payload(frame[1], page, payload) else {
            break;
        };
        records.push(rec);
        expected_seq += 1;
        pos += rec_len;
    }
    let report = ParseReport {
        records: records.len(),
        discarded_bytes: bytes.len() - pos,
        torn: pos != bytes.len(),
    };
    (records, report)
}

/// Byte offsets of record boundaries in a journal stream: `result[k]`
/// is where record `k` starts; the final element is the end of the last
/// whole frame. Crash tests use this to truncate a journal at every
/// possible record boundary.
pub fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0];
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(rec_len) = frame_len(&bytes[pos..]) else {
            break;
        };
        pos += rec_len;
        offsets.push(pos);
    }
    offsets
}

/// Total frame length of the record starting at `bytes[0]`, if the
/// header is complete and the frame fits.
fn frame_len(bytes: &[u8]) -> Option<usize> {
    if bytes.len() < HEADER_BYTES || bytes[0] != MAGIC {
        return None;
    }
    let payload_len = u16::from_le_bytes(bytes[18..20].try_into().expect("2 bytes")) as usize;
    let total = HEADER_BYTES + payload_len + TRAILER_BYTES;
    (bytes.len() >= total).then_some(total)
}

/// What happened to a journal append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The record was written in full.
    Written,
    /// An armed crash fired: the record was written torn (header plus a
    /// partial payload, no checksum) and the journal is now frozen.
    Crashed,
    /// The journal is frozen (post-crash); the append was dropped.
    Frozen,
}

/// The write-ahead journal: an append-only byte log.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    bytes: Vec<u8>,
    seq: u64,
    frozen: bool,
}

impl Journal {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `rec`, consulting `faults` for an armed mid-append crash.
    pub fn append(&mut self, rec: &JournalRecord, faults: &mut Option<FaultPlan>) -> AppendOutcome {
        if self.frozen {
            return AppendOutcome::Frozen;
        }
        let frame = encode_record(self.seq, rec);
        if let Some(f) = faults.as_mut() {
            if f.crash_on_append(self.seq) {
                // Torn write: the header and part of the payload reach
                // the journal device, the checksum never does.
                let torn = HEADER_BYTES + (frame.len() - HEADER_BYTES - TRAILER_BYTES) / 2;
                self.bytes.extend_from_slice(&frame[..torn]);
                self.frozen = true;
                return AppendOutcome::Crashed;
            }
        }
        self.bytes.extend_from_slice(&frame);
        self.seq += 1;
        AppendOutcome::Written
    }

    /// The raw journal bytes (what survives a crash).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Records fully appended so far.
    pub fn records(&self) -> u64 {
        self.seq
    }

    /// Whether a crash froze this journal.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }
}

/// One page's committed layout in the shadow model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageImage {
    /// Compresso: the packed 64 B entry.
    Packed([u8; PACKED_BYTES]),
    /// LCP baseline: the serialized plan.
    Lcp(LcpImage),
}

#[derive(Debug, Clone)]
enum PendingDelta {
    Alloc { addr: u64, bytes: u32 },
    Free { addr: u64, bytes: u32 },
}

/// The reference replay state machine (see module docs): committed page
/// images plus block ownership, with pending deltas and repack brackets.
#[derive(Debug, Clone, Default)]
pub struct ShadowModel {
    /// Committed page images, by OSPA page number.
    pages: BTreeMap<u64, PageImage>,
    /// Block ownership: MPA address → (owning page, block bytes).
    owners: BTreeMap<u64, (u64, u32)>,
    /// Deltas awaiting their page's commit point.
    pending: HashMap<u64, Vec<PendingDelta>>,
    /// Pages inside an open repack bracket, with the entry image held
    /// back until commit.
    repack_open: HashMap<u64, Option<PageImage>>,
    /// Invariant violations observed during replay.
    violations: Vec<String>,
    replayed: usize,
}

impl ShadowModel {
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays a full record stream, then rolls back whatever never
    /// committed. Returns the number of records rolled back.
    pub fn replay(records: &[JournalRecord]) -> (Self, usize) {
        let mut model = Self::new();
        for rec in records {
            model.apply(rec);
        }
        let rolled_back = model.finish();
        (model, rolled_back)
    }

    /// Applies one record.
    pub fn apply(&mut self, rec: &JournalRecord) {
        self.replayed += 1;
        match rec {
            JournalRecord::ChunkAlloc { page, addr, bytes } => {
                self.pending
                    .entry(*page)
                    .or_default()
                    .push(PendingDelta::Alloc {
                        addr: *addr,
                        bytes: *bytes,
                    });
            }
            JournalRecord::ChunkFree { page, addr, bytes } => {
                self.pending
                    .entry(*page)
                    .or_default()
                    .push(PendingDelta::Free {
                        addr: *addr,
                        bytes: *bytes,
                    });
            }
            JournalRecord::EntryUpdate { page, packed } => {
                self.commit_image(*page, PageImage::Packed(*packed));
            }
            JournalRecord::LcpEntryUpdate { page, image } => {
                self.commit_image(*page, PageImage::Lcp(image.clone()));
            }
            JournalRecord::PageFree { page } => {
                // Frees committed implicitly: drop the page's pending
                // deltas and every block it still owns.
                self.pending.remove(page);
                self.repack_open.remove(page);
                self.owners.retain(|_, (owner, _)| owner != page);
                if self.pages.remove(page).is_none() {
                    self.violations
                        .push(format!("page {page}: freed but never committed"));
                }
            }
            JournalRecord::RepackBegin { page } => {
                if self.repack_open.insert(*page, None).is_some() {
                    self.violations
                        .push(format!("page {page}: nested repack bracket"));
                }
            }
            JournalRecord::RepackCommit { page } => match self.repack_open.remove(page) {
                None => self
                    .violations
                    .push(format!("page {page}: repack commit without begin")),
                Some(held) => {
                    self.apply_pending(*page);
                    if let Some(image) = held {
                        self.pages.insert(*page, image);
                    } else {
                        self.violations
                            .push(format!("page {page}: repack committed no entry"));
                    }
                }
            },
        }
    }

    fn commit_image(&mut self, page: u64, image: PageImage) {
        if let Some(held) = self.repack_open.get_mut(&page) {
            // Inside a repack bracket the entry is part of the
            // transaction: hold it until RepackCommit.
            *held = Some(image);
            return;
        }
        self.apply_pending(page);
        self.pages.insert(page, image);
    }

    fn apply_pending(&mut self, page: u64) {
        for delta in self.pending.remove(&page).unwrap_or_default() {
            match delta {
                PendingDelta::Alloc { addr, bytes } => {
                    if let Some((owner, _)) = self.owners.get(&addr) {
                        self.violations.push(format!(
                            "block {addr:#x}: double-owned by pages {owner} and {page}"
                        ));
                    }
                    self.owners.insert(addr, (page, bytes));
                }
                PendingDelta::Free { addr, bytes } => match self.owners.get(&addr) {
                    Some(&(owner, owned_bytes)) if owner == page => {
                        if owned_bytes != bytes {
                            self.violations.push(format!(
                                "block {addr:#x}: freed as {bytes} B but owned as {owned_bytes} B"
                            ));
                        }
                        self.owners.remove(&addr);
                    }
                    Some(&(owner, _)) => self.violations.push(format!(
                        "block {addr:#x}: page {page} freed a block owned by page {owner}"
                    )),
                    None => self
                        .violations
                        .push(format!("block {addr:#x}: freed but unowned")),
                },
            }
        }
    }

    /// Rolls back open repack brackets and uncommitted deltas; returns
    /// how many records were discarded this way.
    pub fn finish(&mut self) -> usize {
        let mut rolled_back = 0;
        for (_, held) in self.repack_open.drain() {
            rolled_back += 1 + held.is_some() as usize;
        }
        for (_, deltas) in self.pending.drain() {
            rolled_back += deltas.len();
        }
        rolled_back
    }

    /// Committed page images, ordered by page number.
    pub fn pages(&self) -> &BTreeMap<u64, PageImage> {
        &self.pages
    }

    /// Block ownership: address → (page, bytes), ordered by address.
    pub fn owners(&self) -> &BTreeMap<u64, (u64, u32)> {
        &self.owners
    }

    /// Invariant violations observed so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Records applied so far.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Blocks owned by `page`, ascending by address.
    pub fn blocks_of(&self, page: u64) -> Vec<(u64, u32)> {
        self.owners
            .iter()
            .filter(|(_, (owner, _))| *owner == page)
            .map(|(addr, (_, bytes))| (*addr, *bytes))
            .collect()
    }
}

/// What cold-boot recovery found and did (see
/// `CompressoDevice::recover` / `LcpDevice::recover`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records replayed.
    pub replayed: usize,
    /// Bytes discarded from the torn journal tail.
    pub discarded_bytes: usize,
    /// Whether the journal ended in a torn record.
    pub torn: bool,
    /// Records rolled back (uncommitted deltas, open repack brackets).
    pub rolled_back: usize,
    /// Invariant violations found during replay and verification.
    pub violations: Vec<String>,
    /// Pages rebuilt into the device.
    pub pages_rebuilt: usize,
    /// Metadata-cache entries prewarmed from journal-tail recency.
    pub prewarmed: usize,
}

impl RecoveryReport {
    /// A recovery is clean when replay and verification found no
    /// invariant violations (a torn tail alone is *not* a violation —
    /// that is exactly the case the journal exists for).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

counters! {
    /// Plain-data copy of the [`DurabilityEvents`] counters.
    pub struct DurabilityStats;
    /// Durability counters: journal, scrubber and recovery activity,
    /// registered under the bare `journal.*` / `scrub.*` / `recovery.*`
    /// names (an empty prefix; DESIGN.md §10).
    pub struct DurabilityEvents {
        /// Journal records fully appended.
        journal_appends => "journal.append.total",
        /// Commit points journaled, recovery checkpoints included.
        journal_commits => "journal.commit.total",
        /// Appends torn by an armed crash.
        journal_torn => "journal.torn.total",
        /// Background scrub passes run.
        scrub_passes => "scrub.pass.total",
        /// Durable entries CRC-verified by the scrubber.
        scrub_pages_scanned => "scrub.page_scanned.total",
        /// Durable entries whose CRC failed.
        scrub_crc_failures => "scrub.crc_failure.total",
        /// Rotted entries repaired from the last commit's image.
        scrub_repairs => "scrub.repair.total",
        /// Rotted entries with no commit to repair from (degraded).
        scrub_fallbacks => "scrub.fallback.total",
        /// Journal records replayed by recovery.
        recovery_replayed => "recovery.replayed.total",
        /// Records recovery rolled back.
        recovery_rolled_back => "recovery.rolled_back.total",
        /// Invariant violations recovery found.
        recovery_violations => "recovery.violation.total",
        /// Metadata-cache entries recovery prewarmed.
        recovery_prewarmed => "recovery.prewarmed.total",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultkit::{FaultConfig, FaultPlan};

    fn entry(page: u64, fill: u8) -> JournalRecord {
        JournalRecord::EntryUpdate {
            page,
            packed: [fill; PACKED_BYTES],
        }
    }

    #[test]
    fn records_round_trip_through_the_wire_format() {
        let records = vec![
            JournalRecord::ChunkAlloc {
                page: 3,
                addr: 0x200,
                bytes: 512,
            },
            entry(3, 0xAB),
            JournalRecord::RepackBegin { page: 3 },
            JournalRecord::ChunkFree {
                page: 3,
                addr: 0x200,
                bytes: 512,
            },
            entry(3, 0xCD),
            JournalRecord::RepackCommit { page: 3 },
            JournalRecord::LcpEntryUpdate {
                page: 9,
                image: LcpImage {
                    target: 32,
                    needed_bytes: 2200,
                    page_bytes: 4096,
                    base: 0x8000,
                    all_zero: false,
                    zero_bitmap: 0b1010,
                    exceptions: vec![1, 7, 63],
                },
            },
            JournalRecord::PageFree { page: 3 },
        ];
        let mut journal = Journal::new();
        for r in &records {
            assert_eq!(journal.append(r, &mut None), AppendOutcome::Written);
        }
        let (parsed, report) = parse(journal.bytes());
        assert_eq!(parsed, records);
        assert!(!report.torn);
        assert_eq!(report.discarded_bytes, 0);
    }

    #[test]
    fn torn_append_freezes_the_journal() {
        let mut faults = Some(FaultPlan::new(0, FaultConfig::default()).with_crash_at(1));
        let mut journal = Journal::new();
        assert_eq!(
            journal.append(&entry(1, 1), &mut faults),
            AppendOutcome::Written
        );
        assert_eq!(
            journal.append(&entry(2, 2), &mut faults),
            AppendOutcome::Crashed
        );
        assert!(journal.is_frozen());
        assert_eq!(
            journal.append(&entry(3, 3), &mut faults),
            AppendOutcome::Frozen
        );
        let (parsed, report) = parse(journal.bytes());
        assert_eq!(parsed, vec![entry(1, 1)]);
        assert!(report.torn);
        assert!(report.discarded_bytes > 0, "torn tail must exist");
    }

    #[test]
    fn parse_stops_on_corrupt_record() {
        let mut journal = Journal::new();
        journal.append(&entry(1, 1), &mut None);
        journal.append(&entry(2, 2), &mut None);
        let mut bytes = journal.bytes().to_vec();
        let second_start = bytes.len() / 2;
        bytes[second_start + 3] ^= 0x40; // corrupt inside the 2nd record
        let (parsed, report) = parse(&bytes);
        assert_eq!(parsed.len(), 1);
        assert!(report.torn);
    }

    #[test]
    fn deltas_commit_only_at_entry_update() {
        let alloc = JournalRecord::ChunkAlloc {
            page: 5,
            addr: 0x1000,
            bytes: 512,
        };
        // Delta without a commit point: rolled back, no ownership.
        let (model, rolled_back) = ShadowModel::replay(std::slice::from_ref(&alloc));
        assert_eq!(rolled_back, 1);
        assert!(model.owners().is_empty());
        assert!(model.pages().is_empty());
        assert!(model.violations().is_empty());
        // Delta + commit point: owned.
        let (model, rolled_back) = ShadowModel::replay(&[alloc, entry(5, 0x11)]);
        assert_eq!(rolled_back, 0);
        assert_eq!(model.owners().get(&0x1000), Some(&(5, 512)));
        assert_eq!(model.blocks_of(5), vec![(0x1000, 512)]);
    }

    #[test]
    fn open_repack_bracket_rolls_back() {
        let records = vec![
            JournalRecord::ChunkAlloc {
                page: 7,
                addr: 0,
                bytes: 512,
            },
            entry(7, 1),
            JournalRecord::RepackBegin { page: 7 },
            JournalRecord::ChunkFree {
                page: 7,
                addr: 0,
                bytes: 512,
            },
            JournalRecord::ChunkAlloc {
                page: 7,
                addr: 0x4000,
                bytes: 512,
            },
            entry(7, 2),
            // Crash before RepackCommit: the page must keep its
            // pre-repack layout.
        ];
        let (model, rolled_back) = ShadowModel::replay(&records);
        assert!(rolled_back >= 2, "bracket + held entry roll back");
        assert_eq!(model.pages().get(&7), Some(&PageImage::Packed([1; 64])));
        assert_eq!(model.owners().get(&0), Some(&(7, 512)));
        assert_eq!(model.owners().get(&0x4000), None);
        assert!(model.violations().is_empty());
    }

    #[test]
    fn committed_repack_moves_ownership() {
        let records = vec![
            JournalRecord::ChunkAlloc {
                page: 7,
                addr: 0,
                bytes: 512,
            },
            entry(7, 1),
            JournalRecord::RepackBegin { page: 7 },
            JournalRecord::ChunkFree {
                page: 7,
                addr: 0,
                bytes: 512,
            },
            JournalRecord::ChunkAlloc {
                page: 7,
                addr: 0x4000,
                bytes: 512,
            },
            entry(7, 2),
            JournalRecord::RepackCommit { page: 7 },
        ];
        let (model, rolled_back) = ShadowModel::replay(&records);
        assert_eq!(rolled_back, 0);
        assert_eq!(model.pages().get(&7), Some(&PageImage::Packed([2; 64])));
        assert_eq!(model.owners().get(&0), None);
        assert_eq!(model.owners().get(&0x4000), Some(&(7, 512)));
        assert!(model.violations().is_empty());
    }

    #[test]
    fn shadow_detects_double_ownership_and_bad_frees() {
        let records = vec![
            JournalRecord::ChunkAlloc {
                page: 1,
                addr: 0,
                bytes: 512,
            },
            entry(1, 1),
            JournalRecord::ChunkAlloc {
                page: 2,
                addr: 0,
                bytes: 512,
            },
            entry(2, 2),
            JournalRecord::ChunkFree {
                page: 1,
                addr: 0x9000,
                bytes: 512,
            },
            entry(1, 3),
        ];
        let (model, _) = ShadowModel::replay(&records);
        assert_eq!(model.violations().len(), 2, "{:?}", model.violations());
        assert!(model.violations()[0].contains("double-owned"));
        assert!(model.violations()[1].contains("unowned"));
    }

    #[test]
    fn page_free_releases_everything() {
        let records = vec![
            JournalRecord::ChunkAlloc {
                page: 4,
                addr: 0x200,
                bytes: 512,
            },
            JournalRecord::ChunkAlloc {
                page: 4,
                addr: 0x400,
                bytes: 512,
            },
            entry(4, 1),
            JournalRecord::PageFree { page: 4 },
        ];
        let (model, rolled_back) = ShadowModel::replay(&records);
        assert_eq!(rolled_back, 0);
        assert!(model.pages().is_empty());
        assert!(model.owners().is_empty());
        assert!(model.violations().is_empty());
    }

    #[test]
    fn durability_counters_register() {
        let mut ev = DurabilityEvents::default();
        ev.journal_appends += 2;
        ev.scrub_repairs += 1;
        let reg = compresso_telemetry::Registry::new();
        ev.register_metrics(&reg, "");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("journal.append.total"), Some(2));
        assert_eq!(snap.counter("scrub.repair.total"), Some(1));
        assert_eq!(snap.counter("recovery.violation.total"), Some(0));
    }
}
