//! The durability owner (DESIGN.md §10): the journal, each page's last
//! commit, Compresso's durable 64 B metadata image with its rot and
//! scrubber, the one crash flag and the durability counters. Devices
//! make one call per state change, a no-op without journaling:
//! [`Controller::admit`], [`Controller::commit`] (building the
//! [`Layout`] only when journaling), [`Controller::commit_repack`] and
//! [`Controller::commit_free`]. Rot and scrubbing touch only
//! [`PageImage::Packed`] entries, the only thing the durable metadata
//! region holds. [`recover`] serves both device families.

use crate::config::PageAllocation;
use crate::controller::{Controller, MetadataHooks};
use crate::journal::{
    self, DurabilityEvents, Journal, JournalRecord, PageImage, RecoveryReport, ShadowModel,
};
use crate::metadata_codec::{self, CRC_OFFSET, PACKED_BYTES};
use std::collections::{BTreeMap, HashMap};

/// Durable entries the background scrubber CRC-verifies per pass.
const SCRUB_PAGES_PER_PASS: usize = 64;

/// An MPA block as `(addr, bytes)`.
pub(crate) type Block = (u64, u32);
/// MPA blocks.
pub(crate) type Blocks = Vec<Block>;

/// A page's committed layout as a device reports it: its image (the
/// commit record's body) and the MPA blocks that image implies.
pub(crate) type Layout = (PageImage, Blocks);

/// Recovery's ownership rule: a committed entry must imply exactly the
/// blocks the journal granted its page. `implied` comes from the entry
/// (in any order), `granted` from the replayed journal (ascending by
/// address, as [`ShadowModel::blocks_of`] returns them). Returns the
/// violation, naming the page, if they differ.
pub(crate) fn check_ownership(page: u64, mut implied: Blocks, granted: &[Block]) -> Option<String> {
    implied.sort_unstable();
    (implied != granted).then(|| {
        format!("page {page}: entry implies blocks {implied:?} but the journal grants {granted:?}")
    })
}

/// Recovery's size rule: a page holds no storage or one of the device
/// allocator's page sizes, which is all the allocator can free. Returns
/// the violation, naming the page, if not.
pub(crate) fn check_page_size(page: u64, bytes: u32, sizes: PageAllocation) -> Option<String> {
    (bytes != 0 && !sizes.page_sizes().contains(&bytes))
        .then(|| format!("page {page}: {bytes} B is not a {sizes:?} page size"))
}

/// What the journal last committed for a page: the MPA blocks it owns
/// (the base of the next delta) and its commit record (the scrubber's
/// repair source).
struct Committed {
    blocks: Blocks,
    entry: JournalRecord,
}

/// The durability owner (see the [module documentation](self)).
#[derive(Default)]
pub(crate) struct Durability {
    journal: Journal,
    committed: HashMap<u64, Committed>,
    /// Durable metadata-region image of the packed entries (what a cold
    /// boot would read before replaying the journal); rot lands here.
    durable: BTreeMap<u64, [u8; PACKED_BYTES]>,
    /// Simulated cycles between scrub passes (0: never).
    scrub_interval: u64,
    next_scrub_at: u64,
    scrub_cursor: u64,
    /// Set when an armed crash tore an append: the device stops
    /// mutating state (recovery trusts the journal only).
    crashed: bool,
    pub events: DurabilityEvents,
}

impl Durability {
    /// An empty journal, scrubbing every `scrub_interval` cycles (0:
    /// never).
    pub fn new(scrub_interval: u64) -> Self {
        let next_scrub_at = scrub_interval;
        Self {
            scrub_interval,
            next_scrub_at,
            ..Self::default()
        }
    }
}

impl Controller {
    /// Turns on write-ahead journaling of every layout mutation, with a
    /// background scrub pass every `scrub_interval` cycles (0: never).
    /// A no-op if journaling is already on.
    pub fn enable_journaling(&mut self, scrub_interval: u64) {
        if self.durability.is_none() {
            let owner = Durability::new(scrub_interval);
            owner.events.register_metrics(&self.registry, "");
            self.durability = Some(owner);
        }
    }

    /// The raw journal bytes (what survives a crash), if journaling.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.durability.as_ref().map(|d| d.journal.bytes())
    }

    /// Records fully appended to the journal so far.
    pub fn journal_records(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.journal.records())
    }

    /// Whether an armed crash froze the device.
    pub fn is_crashed(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.crashed)
    }

    /// Journal-committed block ownership, `addr → (page, bytes)`.
    pub fn owners(&self) -> BTreeMap<u64, (u64, u32)> {
        let mut owners = BTreeMap::new();
        for (&page, committed) in self.durability.iter().flat_map(|d| &d.committed) {
            for &(addr, bytes) in &committed.blocks {
                owners.insert(addr, (page, bytes));
            }
        }
        owners
    }

    /// The per-access step: `false` once an armed crash froze the device
    /// (the access must be refused); otherwise runs a scrub pass when
    /// one is due. Inlined, so an unjournaled access pays one `Option`
    /// check.
    #[inline]
    pub fn admit(&mut self, now: u64) -> bool {
        let Some(d) = &self.durability else {
            return true;
        };
        if d.crashed {
            return false;
        }
        if d.scrub_interval != 0 && now >= d.next_scrub_at {
            self.scrub(now);
        }
        true
    }

    /// Journals `page`'s new committed layout, built by `layout` only
    /// when journaling (`None`: nothing to commit).
    #[inline]
    pub fn commit(&mut self, page: u64, layout: impl FnOnce() -> Option<Layout>) {
        if self.durability.as_ref().is_some_and(|d| !d.crashed) {
            if let Some(layout) = layout() {
                self.commit_layout(page, layout);
            }
        }
    }

    /// Journals `ChunkFree` / `ChunkAlloc` deltas from `page`'s last
    /// committed ownership to `blocks`, then the image's record as the
    /// commit point. A landed packed entry is also written to the
    /// durable image, where injected rot may land.
    fn commit_layout(&mut self, page: u64, (image, blocks): Layout) {
        let d = self.durability.as_mut().expect("journaling");
        let old = d.committed.get(&page).map_or(&[][..], |c| &c.blocks);
        let mut recs: Vec<JournalRecord> = old
            .iter()
            .filter(|b| !blocks.contains(b))
            .map(|&(addr, bytes)| JournalRecord::ChunkFree { page, addr, bytes })
            .collect();
        recs.extend(
            blocks
                .iter()
                .filter(|b| !old.contains(b))
                .map(|&(addr, bytes)| JournalRecord::ChunkAlloc { page, addr, bytes }),
        );
        recs.push(image.into_record(page));
        self.append_all(&recs);
        let Some(d) = self.durability.as_mut().filter(|d| !d.crashed) else {
            return;
        };
        d.events.journal_commits += 1;
        let entry = recs.pop().expect("the commit record");
        if let JournalRecord::EntryUpdate { mut packed, .. } = entry {
            // Injected media rot may decay the just-written durable
            // entry. The journal (protected storage) keeps the good copy.
            self.faults.rot(&mut self.stats, &mut packed);
            d.durable.insert(page, packed);
        }
        d.committed.insert(page, Committed { blocks, entry });
    }

    /// Journals a completed repack of `page` as one transaction: the
    /// commit sits inside a `RepackBegin`/`RepackCommit` bracket, so a
    /// crash anywhere inside rolls the whole move back.
    pub fn commit_repack(&mut self, page: u64, layout: impl FnOnce() -> Option<Layout>) {
        self.append_all(&[JournalRecord::RepackBegin { page }]);
        self.commit(page, layout);
        self.append_all(&[JournalRecord::RepackCommit { page }]);
    }

    /// Journals the invalidation of `page` (a commit point releasing all
    /// its storage) and drops it from the durable image. Returns `false`
    /// if the device is frozen and must not free the page.
    pub fn commit_free(&mut self, page: u64) -> bool {
        let Some(d) = self.durability.as_mut() else {
            return true;
        };
        if d.crashed {
            return false;
        }
        d.durable.remove(&page);
        if d.committed.remove(&page).is_some() {
            self.append_all(&[JournalRecord::PageFree { page }]);
            if let Some(d) = self.durability.as_mut().filter(|d| !d.crashed) {
                d.events.journal_commits += 1;
            }
        }
        true
    }

    /// Appends records in order unless unjournaled or frozen, stopping
    /// (and freezing the device) if an armed crash tears one of them.
    fn append_all(&mut self, recs: &[JournalRecord]) {
        let Some(d) = self.durability.as_mut().filter(|d| !d.crashed) else {
            return;
        };
        for rec in recs {
            if self.faults.tears(&mut self.stats, d.journal.records()) {
                d.journal.append_torn(rec);
                d.events.journal_torn += 1;
                d.crashed = true;
                return;
            }
            d.journal.append(rec);
            d.events.journal_appends += 1;
        }
    }

    /// Background scrubber (simulated time): CRC-verify the next
    /// [`SCRUB_PAGES_PER_PASS`] durable entries and repair rotted ones
    /// from the entry of the page's last journal commit.
    fn scrub(&mut self, now: u64) {
        let d = self.durability.as_mut().expect("journaling");
        d.next_scrub_at = now + d.scrub_interval;
        d.events.scrub_passes += 1;
        let pages: Vec<u64> = d
            .durable
            .range(d.scrub_cursor..)
            .chain(d.durable.range(..d.scrub_cursor))
            .map(|(&p, _)| p)
            .take(SCRUB_PAGES_PER_PASS)
            .collect();
        for page in pages {
            d.events.scrub_pages_scanned += 1;
            d.scrub_cursor = page + 1;
            let img = d.durable[&page];
            let stored = u32::from_le_bytes(img[CRC_OFFSET..].try_into().expect("4 bytes"));
            if metadata_codec::crc32(&img[..CRC_OFFSET]) == stored {
                continue;
            }
            d.events.scrub_crc_failures += 1;
            self.stats.corruption_detected += 1;
            // A page enters the durable image with its committed entry
            // (`commit`) and leaves with it (`commit_free`), so every
            // rotted entry has a repair source.
            let Some(&JournalRecord::EntryUpdate { packed, .. }) =
                d.committed.get(&page).map(|c| &c.entry)
            else {
                unreachable!("a durable page has a committed entry image");
            };
            d.durable.insert(page, packed);
            d.events.scrub_repairs += 1;
        }
    }
}

/// The device half of [`recover`].
pub(crate) trait Recover: MetadataHooks {
    /// Rebuilds `page` from its committed `image`, which the journal
    /// grants `blocks`, pushing any layout or ownership violation.
    /// Returns `false` (the page is skipped, its blocks left free) if the
    /// image cannot be adopted: another family's record, an undecodable
    /// entry, or any violation.
    fn adopt(
        &mut self,
        page: u64,
        image: &PageImage,
        blocks: &[Block],
        violations: &mut Vec<String>,
    ) -> bool;

    /// Rebuilds the allocator from the blocks granted each adopted page,
    /// in page order, and registers the device's metrics afresh.
    fn rebuild_allocator(&mut self, granted: &[Blocks]);

    /// Prewarms the metadata cache from `journaled`, the page of every
    /// replayed record in journal order. Returns the entries warmed.
    fn prewarm(&mut self, _journaled: &[u64]) -> usize {
        0
    }
}

/// Cold-boot recovery of a fresh, journaling `device`, whose allocator
/// manages `capacity` bytes of MPA, from the surviving journal bytes
/// alone: parse (torn tail discarded), replay through the
/// [`ShadowModel`] semantics (uncommitted deltas and open repack
/// transactions rolled back), adopt each committed page and rebuild the
/// allocator, prewarm. Each adopted page is committed afresh, so the
/// device's new journal is a compacted checkpoint of the replayed state.
pub(crate) fn recover<D: Recover>(
    mut device: D,
    capacity: u64,
    journal_bytes: &[u8],
) -> (D, RecoveryReport) {
    let (records, parsed) = journal::parse(journal_bytes);
    let (shadow, rolled_back) = ShadowModel::replay(&records);
    let mut report = RecoveryReport {
        replayed: records.len(),
        discarded_bytes: parsed.discarded_bytes,
        torn: parsed.torn,
        rolled_back,
        violations: shadow.violations().to_vec(),
        ..Default::default()
    };
    let mut granted = Vec::new();
    for (&page, image) in shadow.pages() {
        let blocks = shadow.blocks_of(page);
        // The allocator cannot hold a block past its capacity: such a
        // page is reported and not adopted.
        let outside = blocks
            .iter()
            .find(|&&(addr, bytes)| addr.saturating_add(bytes.into()) > capacity);
        if let Some((addr, bytes)) = outside {
            report.violations.push(format!(
                "page {page}: block {addr:#x} of {bytes} B lies outside the {capacity} B MPA"
            ));
        } else if device.adopt(page, image, &blocks, &mut report.violations) {
            let layout = (image.clone(), blocks.clone());
            device.controller().commit(page, || Some(layout));
            granted.push(blocks);
        }
    }
    device.rebuild_allocator(&granted);
    report.pages_rebuilt = granted.len();
    let journaled: Vec<u64> = records.iter().map(JournalRecord::page).collect();
    report.prewarmed = device.prewarm(&journaled);
    let events = &mut device
        .controller()
        .durability
        .as_mut()
        .expect("journaling")
        .events;
    events.recovery_replayed += report.replayed as u64;
    events.recovery_rolled_back += report.rolled_back as u64;
    events.recovery_violations += report.violations.len() as u64;
    events.recovery_prewarmed += report.prewarmed as u64;
    (device, report)
}
