//! The Compresso device: OS-transparent compressed main memory with all
//! five data-movement optimizations (§III–§V).

use crate::alloc::{BuddyAllocator, ChunkAllocator};
use crate::config::{CompressoConfig, PageAllocation};
use crate::device::{LineSizer, LineSizes, MemoryDevice};
use crate::error::CompressoError;
use crate::faultkit::{FaultPlan, FaultStats, MetadataFault};
use crate::journal::{
    self, AppendOutcome, DurabilityEvents, Journal, JournalRecord, PageImage, RecoveryReport,
    ShadowModel,
};
use crate::mcache::MetadataCache;
use crate::metadata::{LineLocation, PageMeta, CHUNK_BYTES, LINES_PER_PAGE, PAGE_BYTES};
use crate::metadata_codec::{self, CRC_OFFSET, PACKED_BYTES};
use crate::predictor::OverflowPredictor;
use crate::stats::{DeviceEvents, DeviceStats};
use compresso_cache_sim::Backend;
use compresso_compression::{Bdi, BinSet, Bpc, CompressedLineRef, Compressor, Fpc, Line, Scratch};
use compresso_mem_sim::{MainMemory, MemConfig, MemStats};
use compresso_telemetry::Registry;
use compresso_workloads::{AddrMap, LineSource};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// MPA region where metadata entries live (outside the chunk space).
const METADATA_BASE: u64 = 1 << 40;
/// Free-prefetch buffer depth (compressed 64 B bursts kept by the
/// controller; a fill whose bytes are already buffered needs no DRAM).
const PREFETCH_BUFFER: usize = 16;
/// Bounded backoff: a refused chunk/block allocation is retried this many
/// times before the page degrades (see DESIGN.md, fault model).
const MAX_ALLOC_RETRIES: u32 = 3;

/// The line compressor a device uses.
#[derive(Debug, Clone, Copy)]
pub enum Codec {
    /// Modified Bit-Plane Compression (Compresso's default).
    Bpc(Bpc),
    /// Base-Delta-Immediate (for the Fig. 2 comparison).
    Bdi(Bdi),
    /// Frequent Pattern Compression.
    Fpc(Fpc),
}

impl Codec {
    /// The default modified-BPC codec.
    pub fn bpc() -> Self {
        Codec::Bpc(Bpc::new())
    }

    /// A BDI codec.
    pub fn bdi() -> Self {
        Codec::Bdi(Bdi::new())
    }

    /// Compressed size in bytes of `line` — the allocation-free size
    /// kernel, never the full encoder.
    pub fn compressed_size(&self, line: &Line) -> usize {
        match self {
            Codec::Bpc(c) => c.compressed_size(line),
            Codec::Bdi(c) => c.compressed_size(line),
            Codec::Fpc(c) => c.compressed_size(line),
        }
    }

    /// Fully encodes `line` into `scratch` (zero-allocation once warm).
    pub fn compress_into<'s>(
        &self,
        line: &Line,
        scratch: &'s mut Scratch,
    ) -> CompressedLineRef<'s> {
        match self {
            Codec::Bpc(c) => c.compress_into(line, scratch),
            Codec::Bdi(c) => c.compress_into(line, scratch),
            Codec::Fpc(c) => c.compress_into(line, scratch),
        }
    }
}

enum Allocator {
    Chunks(ChunkAllocator),
    Buddy(BuddyAllocator),
}

/// One touched OSPA page: its metadata entry plus the stored sizes of
/// its lines (see [`crate::device`]). The sizes are not part of the
/// packed entry: a fault or fallback that rewrites `meta` leaves them
/// alone, since the line bytes did not change.
struct Page {
    meta: PageMeta,
    /// `None` on a recovered page until it is first needed.
    sizes: Option<LineSizes>,
    /// The bin bytes of `sizes`, summed: the data bytes the page would
    /// hold once repacked (Fig. 3's tracked free space). Kept with
    /// `sizes` and meaningful only while they are stored. It is 0
    /// exactly when every line is zero, since only bin 0 is empty.
    binned: u32,
}

/// The bin bytes of lines of compressed `sizes`, summed.
fn binned_bytes(bins: &BinSet, sizes: &[u8]) -> u32 {
    sizes
        .iter()
        .map(|&size| bins.quantize(size as usize).bytes as u32)
        .sum()
}

/// Compresso: compressed main memory implemented entirely in the memory
/// controller (see crate docs).
pub struct CompressoDevice {
    cfg: CompressoConfig,
    sizer: LineSizer,
    world: Box<dyn LineSource>,
    mem: MainMemory,
    mcache: MetadataCache,
    pages: AddrMap<Page>,
    alloc: Allocator,
    /// Buddy base address per page (Variable4 only).
    buddy_base: AddrMap<u64>,
    predictor: OverflowPredictor,
    prefetch: VecDeque<(u64, u32)>,
    stats: DeviceEvents,
    registry: Registry,
    faults: Option<FaultPlan>,
    // -------- crash-consistency layer (DESIGN.md §10) --------
    /// Write-ahead journal; `Some` iff `cfg.durability.journaling`.
    journal: Option<Journal>,
    /// Durable metadata-region image (what a cold boot would read
    /// before replaying the journal); rot lands here.
    durable: BTreeMap<u64, [u8; PACKED_BYTES]>,
    /// Last journal-committed ownership per page, for delta records.
    committed: HashMap<u64, Vec<(u64, u32)>>,
    /// Set when an armed crash fired: the journal is frozen and the
    /// device stops mutating state (recovery trusts the journal only).
    crashed: bool,
    dur_events: DurabilityEvents,
    next_scrub_at: u64,
    scrub_cursor: u64,
}

/// One chunk allocation with bounded retry against an injected refusal.
/// A genuine [`OutOfMpaSpace`](CompressoError::OutOfMpaSpace) fails
/// immediately (retrying cannot clear real exhaustion — ballooning can).
pub(crate) fn alloc_chunk_with_retry(
    alloc: &mut ChunkAllocator,
    faults: &mut Option<FaultPlan>,
    stats: &mut DeviceEvents,
) -> Result<u32, CompressoError> {
    for attempt in 0..=MAX_ALLOC_RETRIES {
        if let Some(f) = faults.as_mut() {
            if f.alloc_refused() {
                stats.injected_faults += 1;
                if attempt == MAX_ALLOC_RETRIES {
                    stats.alloc_failures += 1;
                    return Err(CompressoError::OutOfMpaSpace);
                }
                stats.alloc_retries += 1;
                continue;
            }
        }
        return alloc.alloc().map_err(|e| {
            stats.alloc_failures += 1;
            e.into()
        });
    }
    unreachable!("loop returns on the last attempt")
}

/// As [`alloc_chunk_with_retry`] for a variable-size buddy block.
pub(crate) fn alloc_buddy_with_retry(
    alloc: &mut BuddyAllocator,
    bytes: u32,
    faults: &mut Option<FaultPlan>,
    stats: &mut DeviceEvents,
) -> Result<u64, CompressoError> {
    for attempt in 0..=MAX_ALLOC_RETRIES {
        if let Some(f) = faults.as_mut() {
            if f.alloc_refused() {
                stats.injected_faults += 1;
                if attempt == MAX_ALLOC_RETRIES {
                    stats.alloc_failures += 1;
                    return Err(CompressoError::OutOfMpaSpace);
                }
                stats.alloc_retries += 1;
                continue;
            }
        }
        return alloc.alloc(bytes).inspect_err(|&e| {
            if e == CompressoError::OutOfMpaSpace {
                stats.alloc_failures += 1;
            }
        });
    }
    unreachable!("loop returns on the last attempt")
}

impl std::fmt::Debug for CompressoDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressoDevice")
            .field("pages", &self.pages.len())
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl CompressoDevice {
    /// Creates a Compresso device over `world` with `config`.
    pub fn new(config: CompressoConfig, world: impl LineSource + 'static) -> Self {
        Self::with_codec(config, world, Codec::bpc())
    }

    /// As [`CompressoDevice::new`] with an explicit codec.
    pub fn with_codec(
        config: CompressoConfig,
        world: impl LineSource + 'static,
        codec: Codec,
    ) -> Self {
        Self::new_boxed(config, Box::new(world), codec)
    }

    fn new_boxed(config: CompressoConfig, world: Box<dyn LineSource>, codec: Codec) -> Self {
        let alloc = match config.allocation {
            PageAllocation::Chunks512 => {
                Allocator::Chunks(ChunkAllocator::new(config.mpa_capacity))
            }
            PageAllocation::Variable4 => Allocator::Buddy(BuddyAllocator::new(config.mpa_capacity)),
        };
        let journal = config.durability.journaling.then(Journal::new);
        let next_scrub_at = config.durability.scrub_interval;
        let device = Self {
            mcache: MetadataCache::paper_default(config.mcache_half_entries),
            mem: MainMemory::new(MemConfig::ddr4_2666()),
            cfg: config,
            sizer: LineSizer::new(codec),
            world,
            pages: AddrMap::default(),
            alloc,
            buddy_base: AddrMap::default(),
            predictor: OverflowPredictor::new(),
            prefetch: VecDeque::new(),
            stats: DeviceEvents::new(),
            registry: Registry::new(),
            faults: None,
            journal,
            durable: BTreeMap::new(),
            committed: HashMap::new(),
            crashed: false,
            dur_events: DurabilityEvents::new(),
            next_scrub_at,
            scrub_cursor: 0,
        };
        device.register_all_metrics();
        device
    }

    /// Registers every subsystem's metrics into this device's registry
    /// under the DESIGN.md §9 prefixes.
    fn register_all_metrics(&self) {
        self.stats.register_metrics(&self.registry, "compresso");
        self.mem.register_metrics(&self.registry, "dram");
        self.mcache.register_metrics(&self.registry, "mcache");
        self.predictor.register_metrics(&self.registry, "predictor");
        match &self.alloc {
            Allocator::Chunks(a) => a.register_metrics(&self.registry, "alloc"),
            Allocator::Buddy(a) => a.register_metrics(&self.registry, "alloc"),
        }
        if self.journal.is_some() {
            self.dur_events.register_metrics(&self.registry);
        }
    }

    /// Attaches a deterministic fault-injection plan. The default is
    /// `None`, which costs nothing on the hot path; with a plan attached
    /// the device degrades per the DESIGN.md fault policy instead of
    /// panicking.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Injection counters of the attached fault plan, if any.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Records a balloon-driver inflate retry against this device's
    /// stats (the oskit `MpaController::on_balloon_retry` hook).
    pub fn note_balloon_retry(&mut self) {
        self.stats.balloon_retries += 1;
    }

    /// The configuration in use.
    pub fn config(&self) -> &CompressoConfig {
        &self.cfg
    }

    /// The data world (e.g. to inspect versions in tests).
    pub fn world(&self) -> &dyn LineSource {
        self.world.as_ref()
    }

    /// MPA bytes currently allocated to one OSPA page (excluding its
    /// 64 B metadata entry); `None` if untouched.
    pub fn page_allocated_bytes(&self, page: u64) -> Option<u32> {
        self.pages.get(&page).map(|p| p.meta.page_bytes)
    }

    /// Fraction of MPA capacity in use — the ballooning trigger (§V-B).
    pub fn mpa_pressure(&self) -> f64 {
        self.mpa_used_bytes() as f64 / self.cfg.mpa_capacity as f64
    }

    /// Invalidates an OSPA page, releasing its MPA storage. This is the
    /// hardware half of ballooning: the Compresso driver hands freed page
    /// numbers to the controller, which drops them from metadata.
    pub fn invalidate_page(&mut self, page: u64) {
        if self.crashed {
            return;
        }
        if let Some(Page { meta, .. }) = self.pages.remove(&page) {
            self.release_chunks(page, &meta);
            self.commit_page_free(page);
        }
    }

    // ------------------------------------------------------------------
    // Crash-consistency layer: journal commits, durable image, scrubber
    // (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// The MPA blocks `page` currently owns: one `(addr, bytes)` pair
    /// per 512 B chunk (Chunks512) or one per buddy block (Variable4).
    fn blocks_for(&self, page: u64, meta: &PageMeta) -> Vec<(u64, u32)> {
        match self.cfg.allocation {
            PageAllocation::Chunks512 => meta
                .chunks
                .iter()
                .map(|&c| (ChunkAllocator::chunk_addr(c), CHUNK_BYTES))
                .collect(),
            PageAllocation::Variable4 => match self.buddy_base.get(&page) {
                Some(&base) if meta.page_bytes > 0 => vec![(base, meta.page_bytes)],
                _ => Vec::new(),
            },
        }
    }

    /// Appends records in order, stopping (and freezing the device) if
    /// an armed crash tears one of them.
    fn append_all(&mut self, recs: &[JournalRecord]) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        for rec in recs {
            match j.append(rec, &mut self.faults) {
                AppendOutcome::Written => self.dur_events.journal_appends += 1,
                AppendOutcome::Crashed => {
                    self.dur_events.journal_torn += 1;
                    self.stats.injected_faults += 1;
                    self.crashed = true;
                    return;
                }
                AppendOutcome::Frozen => return,
            }
        }
    }

    /// Journals the page's new committed state: ownership deltas against
    /// the last committed view, then the packed entry as the commit
    /// point; finally writes the durable metadata image (where injected
    /// rot may land).
    fn commit_meta(&mut self, page: u64) {
        if self.journal.is_none() || self.crashed {
            return;
        }
        let Some(Page { meta, .. }) = self.pages.get(&page) else {
            return;
        };
        let Ok(packed) = metadata_codec::try_encode(meta, &self.cfg.bins) else {
            return;
        };
        let new_blocks = self.blocks_for(page, meta);
        let old_blocks = self.committed.get(&page).cloned().unwrap_or_default();
        let mut recs = Vec::new();
        for &(addr, bytes) in old_blocks.iter().filter(|b| !new_blocks.contains(b)) {
            recs.push(JournalRecord::ChunkFree { page, addr, bytes });
        }
        for &(addr, bytes) in new_blocks.iter().filter(|b| !old_blocks.contains(b)) {
            recs.push(JournalRecord::ChunkAlloc { page, addr, bytes });
        }
        recs.push(JournalRecord::EntryUpdate { page, packed });
        self.append_all(&recs);
        if self.crashed {
            return;
        }
        self.dur_events.journal_commits += 1;
        self.durable.insert(page, packed);
        self.apply_rot(page);
        self.committed.insert(page, new_blocks);
    }

    /// Journals a page invalidation (commit point releasing all its
    /// storage) and drops it from the durable image.
    fn commit_page_free(&mut self, page: u64) {
        if self.journal.is_none() || self.crashed {
            return;
        }
        let was_committed = self.committed.remove(&page).is_some();
        self.durable.remove(&page);
        if was_committed {
            self.append_all(&[JournalRecord::PageFree { page }]);
            if !self.crashed {
                self.dur_events.journal_commits += 1;
            }
        }
    }

    /// Journals a completed repack as one transaction: the deltas and
    /// entry update sit inside a `RepackBegin`/`RepackCommit` bracket,
    /// so a crash anywhere inside rolls the whole move back.
    fn commit_repack(&mut self, page: u64) {
        if self.journal.is_none() || self.crashed {
            return;
        }
        self.append_all(&[JournalRecord::RepackBegin { page }]);
        if self.crashed {
            return;
        }
        self.commit_meta(page);
        if self.crashed {
            return;
        }
        self.append_all(&[JournalRecord::RepackCommit { page }]);
    }

    /// Injected media rot: one bit of the just-written durable entry
    /// decays. The journal (protected storage) keeps the good copy.
    fn apply_rot(&mut self, page: u64) {
        if let Some(bit) = self.faults.as_mut().and_then(|f| f.durable_rot()) {
            if let Some(img) = self.durable.get_mut(&page) {
                img[bit / 8] ^= 1 << (bit % 8);
                self.stats.injected_faults += 1;
            }
        }
    }

    /// Background scrubber (simulated time): every `scrub_interval`
    /// cycles, CRC-verify the next `scrub_pages_per_pass` durable
    /// entries; repair rotted ones from the journal's last committed
    /// image, falling back to the uncompressed-degradation path when no
    /// repair source exists.
    fn maybe_scrub(&mut self, now: u64) {
        let d = self.cfg.durability;
        if self.journal.is_none() || d.scrub_interval == 0 || self.crashed {
            return;
        }
        if now < self.next_scrub_at {
            return;
        }
        self.next_scrub_at = now + d.scrub_interval;
        self.dur_events.scrub_passes += 1;
        let pages: Vec<u64> = self
            .durable
            .range(self.scrub_cursor..)
            .map(|(&p, _)| p)
            .chain(self.durable.range(..self.scrub_cursor).map(|(&p, _)| p))
            .take(d.scrub_pages_per_pass)
            .collect();
        for page in pages {
            self.dur_events.scrub_pages_scanned += 1;
            self.scrub_cursor = page + 1;
            let img = self.durable[&page];
            let stored = u32::from_le_bytes(img[CRC_OFFSET..].try_into().expect("4 bytes"));
            if metadata_codec::crc32(&img[..CRC_OFFSET]) == stored {
                continue;
            }
            self.dur_events.scrub_crc_failures += 1;
            self.stats.corruption_detected += 1;
            let repair = self
                .journal
                .as_ref()
                .and_then(|j| j.last_entry_image(page))
                .copied();
            match repair {
                Some(good) => {
                    self.durable.insert(page, good);
                    self.dur_events.scrub_repairs += 1;
                }
                None => {
                    // No committed image to repair from: degrade the
                    // page via the PR 1 uncompressed-fallback path and
                    // re-commit a fresh entry.
                    self.dur_events.scrub_fallbacks += 1;
                    self.corruption_fallback(now, page);
                    self.commit_meta(page);
                }
            }
        }
    }

    /// Raw bytes of the write-ahead journal (what survives a crash), if
    /// journaling is enabled.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.journal.as_ref().map(|j| j.bytes())
    }

    /// Records fully appended to the journal so far.
    pub fn journal_records(&self) -> u64 {
        self.journal.as_ref().map_or(0, |j| j.records())
    }

    /// Whether an armed crash fired (the device is frozen; recover from
    /// [`Self::journal_bytes`]).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Packed images of every live page, ordered by page number — the
    /// comparison format for shadow-model and determinism tests.
    pub fn pages_snapshot(&self) -> BTreeMap<u64, [u8; PACKED_BYTES]> {
        self.pages
            .iter()
            .filter_map(|(&p, page)| {
                Some((
                    p,
                    metadata_codec::try_encode(&page.meta, &self.cfg.bins).ok()?,
                ))
            })
            .collect()
    }

    /// The stored line sizes of every page that has them, ordered by
    /// page number (see [`crate::device`]).
    pub fn stored_sizes(&self) -> BTreeMap<u64, LineSizes> {
        self.pages
            .iter()
            .filter_map(|(&p, page)| Some((p, page.sizes?)))
            .collect()
    }

    /// The tracked sum of bin bytes of every page with stored sizes,
    /// ordered by page number: the data bytes each page would hold once
    /// repacked, kept up to date at every re-size.
    pub fn stored_binned_bytes(&self) -> BTreeMap<u64, u32> {
        self.pages
            .iter()
            .filter(|(_, page)| page.sizes.is_some())
            .map(|(&p, page)| (p, page.binned))
            .collect()
    }

    /// Journal-committed block ownership, `addr → (page, bytes)`,
    /// ordered by address.
    pub fn owners_snapshot(&self) -> BTreeMap<u64, (u64, u32)> {
        let mut owners = BTreeMap::new();
        for (&page, blocks) in &self.committed {
            for &(addr, bytes) in blocks {
                owners.insert(addr, (page, bytes));
            }
        }
        owners
    }

    /// Cold-boot recovery: rebuild a device from the surviving journal
    /// bytes alone. Replays the journal through the [`ShadowModel`]
    /// semantics (torn tail discarded, uncommitted deltas and open
    /// repack transactions rolled back), rebuilds the page table,
    /// allocator free lists and the durable image, verifies layout
    /// invariants, prewarms the metadata cache by journal-tail recency,
    /// and writes a compacted checkpoint journal.
    pub fn recover(
        config: CompressoConfig,
        world: Box<dyn LineSource>,
        journal_bytes: &[u8],
    ) -> (Self, RecoveryReport) {
        let (records, parse_report) = journal::parse(journal_bytes);
        let (shadow, rolled_back) = ShadowModel::replay(&records);
        let mut report = RecoveryReport {
            replayed: shadow.replayed(),
            discarded_bytes: parse_report.discarded_bytes,
            torn: parse_report.torn,
            rolled_back,
            violations: shadow.violations().to_vec(),
            ..Default::default()
        };
        let mut cfg = config;
        cfg.durability.journaling = true;
        let mut device = Self::new_boxed(cfg, world, Codec::bpc());

        // Rebuild pages and ownership from the committed shadow state.
        let mut owned_chunks: Vec<u32> = Vec::new();
        let mut owned_blocks: Vec<(u64, u32)> = Vec::new();
        for (&page, image) in shadow.pages() {
            let PageImage::Packed(packed) = image else {
                report
                    .violations
                    .push(format!("page {page}: non-Compresso record in journal"));
                continue;
            };
            let meta = match metadata_codec::decode(packed, &device.cfg.bins) {
                Ok(m) => m,
                Err(e) => {
                    report
                        .violations
                        .push(format!("page {page}: committed entry undecodable: {e}"));
                    continue;
                }
            };
            let blocks = shadow.blocks_of(page);
            device.verify_rebuilt_page(page, &meta, &blocks, &mut report.violations);
            match device.cfg.allocation {
                PageAllocation::Chunks512 => {
                    owned_chunks.extend(blocks.iter().map(|&(addr, _)| (addr / 512) as u32));
                }
                PageAllocation::Variable4 => {
                    if let Some(&(base, bytes)) = blocks.first() {
                        owned_blocks.push((base, bytes));
                        device.buddy_base.insert(page, base);
                    }
                }
            }
            device.durable.insert(page, *packed);
            device.committed.insert(page, blocks);
            device.pages.insert(
                page,
                Page {
                    meta,
                    sizes: None,
                    binned: 0,
                },
            );
        }
        match &mut device.alloc {
            Allocator::Chunks(_) => {
                device.alloc = Allocator::Chunks(ChunkAllocator::rebuild(
                    device.cfg.mpa_capacity,
                    &owned_chunks,
                ));
            }
            Allocator::Buddy(_) => {
                device.alloc = Allocator::Buddy(BuddyAllocator::rebuild(
                    device.cfg.mpa_capacity,
                    &owned_blocks,
                ));
            }
        }
        // The rebuilt allocator replaced the one whose gauges were
        // registered at construction: re-register into a fresh registry.
        device.registry = Registry::new();
        device.register_all_metrics();
        report.pages_rebuilt = device.pages.len();

        // Prewarm the metadata cache: most recently journaled pages are
        // the likeliest next accesses. Replay oldest-first so the most
        // recent ends up most-recently-used.
        let mut recent: Vec<u64> = Vec::new();
        for rec in records.iter().rev() {
            let p = rec.page();
            if device.pages.contains_key(&p) && !recent.contains(&p) {
                recent.push(p);
                if recent.len() >= 128 {
                    break;
                }
            }
        }
        for &p in recent.iter().rev() {
            let uncompressed = !device.pages[&p].meta.compressed;
            let _ = device.mcache.access(p, uncompressed, false);
        }
        report.prewarmed = recent.len();

        // Checkpoint: write a fresh compacted journal equivalent to the
        // recovered state, so the next crash replays from here.
        let pages: Vec<u64> = device.durable.keys().copied().collect();
        for page in pages {
            let packed = device.durable[&page];
            let mut recs: Vec<JournalRecord> = device.committed[&page]
                .iter()
                .map(|&(addr, bytes)| JournalRecord::ChunkAlloc { page, addr, bytes })
                .collect();
            recs.push(JournalRecord::EntryUpdate { page, packed });
            device.append_all(&recs);
            device.dur_events.journal_commits += 1;
        }

        device.dur_events.recovery_replayed += report.replayed as u64;
        device.dur_events.recovery_rolled_back += report.rolled_back as u64;
        device.dur_events.recovery_violations += report.violations.len() as u64;
        device.dur_events.recovery_prewarmed += report.prewarmed as u64;
        (device, report)
    }

    /// Layout invariants a rebuilt page must satisfy (violations are
    /// reported, not panicked on).
    fn verify_rebuilt_page(
        &self,
        page: u64,
        meta: &PageMeta,
        blocks: &[(u64, u32)],
        violations: &mut Vec<String>,
    ) {
        let owned: u32 = blocks.iter().map(|&(_, b)| b).sum();
        if owned != meta.page_bytes {
            violations.push(format!(
                "page {page}: entry claims {} B but journal grants {owned} B",
                meta.page_bytes
            ));
        }
        match self.cfg.allocation {
            PageAllocation::Chunks512 => {
                let mut journal_chunks: Vec<u32> = blocks
                    .iter()
                    .map(|&(addr, _)| (addr / 512) as u32)
                    .collect();
                journal_chunks.sort_unstable();
                let mut meta_chunks = meta.chunks.clone();
                meta_chunks.sort_unstable();
                if journal_chunks != meta_chunks {
                    violations.push(format!(
                        "page {page}: entry chunks {meta_chunks:?} disagree with journal \
                         ownership {journal_chunks:?}"
                    ));
                }
            }
            PageAllocation::Variable4 => {
                if blocks.len() > 1 {
                    violations.push(format!(
                        "page {page}: {} blocks owned under variable allocation",
                        blocks.len()
                    ));
                }
            }
        }
        if meta.compressed && meta.used_bytes(&self.cfg.bins) > meta.page_bytes {
            violations.push(format!(
                "page {page}: lines occupy {} B of a {} B allocation",
                meta.used_bytes(&self.cfg.bins),
                meta.page_bytes
            ));
        }
        if meta.zero && !meta.chunks.is_empty() {
            violations.push(format!("page {page}: zero page owns storage"));
        }
    }

    // ------------------------------------------------------------------
    // Size and layout helpers
    // ------------------------------------------------------------------

    fn bins_of(&self, sizes: LineSizes) -> [u8; LINES_PER_PAGE] {
        sizes.map(|size| self.cfg.bins.quantize(size as usize).index)
    }

    /// The bins of `page`'s lines, from its stored sizes. A page sized
    /// now (recovered) gets its bin-byte sum too.
    fn stored_bins(&mut self, page: u64) -> [u8; LINES_PER_PAGE] {
        let entry = self.pages.get_mut(&page).expect("page exists");
        let fresh = entry.sizes.is_none();
        let sizes = self
            .sizer
            .stored(&mut entry.sizes, self.world.as_ref(), page, &self.stats);
        if fresh {
            entry.binned = binned_bytes(&self.cfg.bins, &sizes);
        }
        self.bins_of(sizes)
    }

    fn metadata_addr(page: u64) -> u64 {
        METADATA_BASE + page * 64
    }

    /// Allocates backing storage of `bytes` for `page`, returning chunk
    /// frame numbers covering the logical page in order. On failure no
    /// storage is held (partial chunk grants are rolled back).
    fn allocate_page(&mut self, page: u64, bytes: u32) -> Result<Vec<u32>, CompressoError> {
        if bytes == 0 {
            return Ok(Vec::new());
        }
        match &mut self.alloc {
            Allocator::Chunks(a) => {
                let mut chunks = Vec::new();
                for _ in 0..bytes.div_ceil(CHUNK_BYTES) {
                    match alloc_chunk_with_retry(a, &mut self.faults, &mut self.stats) {
                        Ok(c) => chunks.push(c),
                        Err(e) => {
                            for c in chunks {
                                a.free(c);
                            }
                            return Err(e);
                        }
                    }
                }
                Ok(chunks)
            }
            Allocator::Buddy(a) => {
                let base = alloc_buddy_with_retry(a, bytes, &mut self.faults, &mut self.stats)?;
                self.buddy_base.insert(page, base);
                Ok((0..bytes.div_ceil(CHUNK_BYTES))
                    .map(|i| (base / 512) as u32 + i)
                    .collect())
            }
        }
    }

    fn release_chunks(&mut self, page: u64, meta: &PageMeta) {
        match &mut self.alloc {
            Allocator::Chunks(a) => {
                for &c in &meta.chunks {
                    a.free(c);
                }
            }
            Allocator::Buddy(a) => {
                if let Some(base) = self.buddy_base.remove(&page) {
                    a.free(base, meta.page_bytes);
                }
            }
        }
    }

    /// Grows (or shrinks) a page's allocation to `new_bytes`, preserving
    /// the chunk prefix where possible (Chunks512) or reallocating
    /// (Variable4). Returns the new chunk list. On failure the page's
    /// existing allocation is left untouched, so every caller can keep
    /// the old layout as its degraded fallback.
    fn resize_page(
        &mut self,
        page: u64,
        meta: &PageMeta,
        new_bytes: u32,
    ) -> Result<Vec<u32>, CompressoError> {
        match &mut self.alloc {
            Allocator::Chunks(a) => {
                let mut chunks = meta.chunks.clone();
                let want = new_bytes.div_ceil(CHUNK_BYTES) as usize;
                while chunks.len() < want {
                    match alloc_chunk_with_retry(a, &mut self.faults, &mut self.stats) {
                        Ok(c) => chunks.push(c),
                        Err(e) => {
                            while chunks.len() > meta.chunks.len() {
                                a.free(chunks.pop().expect("nonempty"));
                            }
                            return Err(e);
                        }
                    }
                }
                while chunks.len() > want {
                    a.free(chunks.pop().expect("nonempty"));
                }
                Ok(chunks)
            }
            Allocator::Buddy(a) => {
                // Allocate the new block before freeing the old one, so a
                // refused allocation leaves the page's layout intact.
                let new_base = if new_bytes == 0 {
                    None
                } else {
                    Some(alloc_buddy_with_retry(
                        a,
                        new_bytes,
                        &mut self.faults,
                        &mut self.stats,
                    )?)
                };
                if let Some(old) = self.buddy_base.remove(&page) {
                    a.free(old, meta.page_bytes.max(512));
                }
                match new_base {
                    None => Ok(Vec::new()),
                    Some(base) => {
                        self.buddy_base.insert(page, base);
                        Ok((0..new_bytes.div_ceil(CHUNK_BYTES))
                            .map(|i| (base / 512) as u32 + i)
                            .collect())
                    }
                }
            }
        }
    }

    /// First touch of a page: compute all line bins and allocate storage.
    /// Initialization is not charged to the measured access stream (the
    /// uncompressed baseline faults pages in outside the window too).
    fn ensure_page(&mut self, page: u64) {
        if self.pages.contains_key(&page) {
            return;
        }
        let sizes = self.sizer.size_page(self.world.as_ref(), page, &self.stats);
        let bins = self.bins_of(sizes);
        let data_bytes = binned_bytes(&self.cfg.bins, &sizes);
        let meta = if data_bytes == 0 {
            PageMeta::zero_page()
        } else {
            // A page whose lines are all 64 B bins carries no compression:
            // store it raw, which also makes its metadata eligible for the
            // half-entry optimization (§IV-B5).
            let compressed = data_bytes < PAGE_BYTES;
            let page_bytes = self.cfg.allocation.fit(data_bytes.max(1));
            match self.allocate_page(page, page_bytes) {
                Ok(chunks) => PageMeta {
                    valid: true,
                    zero: false,
                    compressed,
                    page_bytes,
                    chunks,
                    line_bins: bins,
                    inflated: Vec::new(),
                },
                // Degraded: hold the page as all-zero; the first
                // writeback with real data retries the allocation.
                Err(_) => PageMeta::zero_page(),
            }
        };
        self.pages.insert(
            page,
            Page {
                meta,
                sizes: Some(sizes),
                binned: data_bytes,
            },
        );
        self.commit_meta(page);
    }

    /// MPA address of the 64 B burst holding logical byte `offset` of a
    /// page backed by `chunks`.
    fn burst(chunks: &[u32], offset: u32) -> u64 {
        let logical = offset / 64 * 64;
        let chunk = chunks[(logical / CHUNK_BYTES) as usize];
        ChunkAllocator::chunk_addr(chunk) + (logical % CHUNK_BYTES) as u64
    }

    /// MPA burst addresses covering `size` bytes at logical `offset` of a
    /// page backed by `chunks`.
    fn bursts(chunks: &[u32], offset: u32, size: u32) -> impl ExactSizeIterator<Item = u64> + '_ {
        let first = offset / 64;
        let end = if size == 0 {
            first
        } else {
            (offset + size - 1) / 64 + 1
        };
        (first..end).map(move |unit| Self::burst(chunks, unit * 64))
    }

    // ------------------------------------------------------------------
    // Metadata path
    // ------------------------------------------------------------------

    /// Performs the metadata access for `page`, returning the cycle at
    /// which translation is available.
    fn metadata_access(&mut self, now: u64, page: u64, dirty: bool) -> u64 {
        let uncompressed = self
            .pages
            .get(&page)
            .map(|p| !p.meta.compressed)
            .unwrap_or(false);
        let access = self.mcache.access(page, uncompressed, dirty);
        let mut t = now;
        if access.hit {
            self.stats.mcache_hits += 1;
            t += self.cfg.mcache_hit_latency;
        } else {
            self.stats.mcache_misses += 1;
            // Miss: fetch the entry from the metadata region in DRAM.
            let r = self.mem.read(now, Self::metadata_addr(page));
            self.stats.metadata_accesses += 1;
            t = r.complete_at;
            // The entry just crossed the DRAM bus: this is where an
            // injected corruption lands.
            t = self.maybe_corrupt_metadata(t, page);
        }
        for (victim, victim_dirty) in access.evicted {
            if victim_dirty {
                self.mem.write(t, Self::metadata_addr(victim));
                self.stats.metadata_accesses += 1;
            }
            self.predictor.on_mcache_eviction(victim);
            if self.cfg.repacking {
                self.maybe_repack(t, victim);
            }
        }
        // Forced eviction storm: flush extra LRU entries through the
        // normal eviction pipeline (dirty writeback + repack trigger).
        if let Some(n) = self.faults.as_mut().and_then(|f| f.eviction_storm()) {
            self.stats.injected_faults += 1;
            self.stats.eviction_storms += 1;
            for (victim, victim_dirty) in self.mcache.evict_up_to(n) {
                if victim_dirty {
                    self.mem.write(t, Self::metadata_addr(victim));
                    self.stats.metadata_accesses += 1;
                }
                self.predictor.on_mcache_eviction(victim);
                if self.cfg.repacking {
                    self.maybe_repack(t, victim);
                }
            }
        }
        t
    }

    /// Fault hook on a metadata-cache miss: the 64 B entry fetched from
    /// DRAM may be corrupted. A bit flip is applied to the page's packed
    /// encoding; with the entry CRC in place **every** flip is detected
    /// (decode error, or a decoded entry that differs from the
    /// controller's committed view) and the page takes the uncompressed
    /// fallback. A flip that decoded back bit-identical would be an
    /// *undetected* corruption — counted separately, and asserted zero
    /// by the fault tests now that the CRC covers padding and spare bits
    /// (DESIGN.md §10).
    fn maybe_corrupt_metadata(&mut self, now: u64, page: u64) -> u64 {
        let Some(fault) = self.faults.as_mut().and_then(|f| f.metadata_fetch_fault()) else {
            return now;
        };
        self.stats.injected_faults += 1;
        match fault {
            MetadataFault::DecodeFailure => {
                self.stats.corruption_detected += 1;
                self.corruption_fallback(now, page)
            }
            MetadataFault::BitFlip { bit } => {
                let Some(Page { meta, .. }) = self.pages.get(&page) else {
                    return now;
                };
                let original = meta.clone();
                let Ok(mut packed) = metadata_codec::try_encode(meta, &self.cfg.bins) else {
                    return now;
                };
                packed[(bit / 8) % metadata_codec::PACKED_BYTES] ^= 1 << (bit % 8);
                match metadata_codec::decode(&packed, &self.cfg.bins) {
                    Err(_) => {
                        self.stats.corruption_detected += 1;
                        self.corruption_fallback(now, page)
                    }
                    Ok(flipped) if flipped != original => {
                        self.stats.corruption_detected += 1;
                        self.corruption_fallback(now, page)
                    }
                    Ok(_) => {
                        // Silently accepted: the flip decoded back
                        // bit-identical. Impossible once the CRC covers
                        // the whole entry.
                        self.stats.corruption_undetected += 1;
                        now
                    }
                }
            }
        }
    }

    /// Degrades `page` after detected metadata corruption: re-read the
    /// live data and rewrite the page uncompressed (a zero page only
    /// rebuilds its entry). The extra traffic is charged to
    /// [`DeviceStats::fault_extra`].
    fn corruption_fallback(&mut self, now: u64, page: u64) -> u64 {
        let Some(meta) = self.pages.get(&page).map(|p| p.meta.clone()) else {
            return now;
        };
        if !meta.valid {
            return now;
        }
        self.stats.corruption_fallbacks += 1;
        if meta.zero {
            self.pages.get_mut(&page).expect("cloned above").meta = PageMeta::zero_page();
            self.commit_meta(page);
            return now;
        }
        if !meta.compressed && meta.page_bytes == PAGE_BYTES {
            // Already stored raw: rebuilding the entry is metadata-only.
            return now;
        }
        let old_used = meta.used_bytes(&self.cfg.bins);
        match self.resize_page(page, &meta, PAGE_BYTES) {
            Ok(chunks) => {
                let moves = old_used.div_ceil(64) + LINES_PER_PAGE as u32;
                let mut t = now;
                for i in 0..moves {
                    let addr = page * PAGE_BYTES as u64 + (i as u64 % LINES_PER_PAGE as u64) * 64;
                    let r = if i % 2 == 0 {
                        self.mem.read(t, addr)
                    } else {
                        self.mem.write(t, addr)
                    };
                    t = t.max(r.complete_at);
                }
                self.stats.fault_extra += moves as u64;
                let m = &mut self.pages.get_mut(&page).expect("cloned above").meta;
                m.compressed = false;
                m.zero = false;
                m.inflated.clear();
                m.chunks = chunks;
                m.page_bytes = PAGE_BYTES;
                self.commit_meta(page);
                t
            }
            Err(_) => {
                // No room even for the raw frame: drop to the zero state
                // and release the held storage; the next writeback with
                // real data reallocates.
                self.release_chunks(page, &meta);
                self.pages.get_mut(&page).expect("cloned above").meta = PageMeta::zero_page();
                self.commit_meta(page);
                now
            }
        }
    }

    // ------------------------------------------------------------------
    // Repacking (§IV-B4)
    // ------------------------------------------------------------------

    /// Metadata-cache eviction trigger: repack `page` if doing so frees at
    /// least one 512 B chunk.
    fn maybe_repack(&mut self, now: u64, page: u64) {
        let Some(Page { meta, sizes, .. }) = self.pages.get(&page) else {
            return;
        };
        if !meta.valid || meta.zero {
            return;
        }
        let old_bytes = meta.page_bytes;
        if sizes.is_none() {
            // Recovered: size the page, which sets its tracked sum.
            self.stored_bins(page);
        }
        // The tracked free space decides without reading the line sizes
        // or summing the metadata's bins.
        let new_data = self.pages[&page].binned;
        let new_bytes = self.cfg.allocation.fit(new_data);
        if new_bytes + CHUNK_BYTES > old_bytes {
            return; // would not free a chunk: not worth the movement
        }
        // Current line bins from the stored sizes (harvesting underflows,
        // inflated lines, and predictor-inflated pages).
        let bins = self.stored_bins(page);
        let all_zero = new_data == 0;
        // Resize first: a refused allocation must leave the page (and the
        // stats) untouched — the repack simply does not happen.
        let old_meta = self.pages.get(&page).expect("checked above").meta.clone();
        let old_used = old_meta.used_bytes(&self.cfg.bins);
        let Ok(chunks) = self.resize_page(page, &old_meta, new_bytes) else {
            return;
        };
        // Movement: read the live data, write it repacked.
        let moves = old_used.div_ceil(64) + new_data.div_ceil(64);
        for i in 0..moves {
            // Model the repack traffic as sequential bursts over the page.
            let addr = page * PAGE_BYTES as u64 + (i as u64 % LINES_PER_PAGE as u64) * 64;
            if i % 2 == 0 {
                self.mem.read(now, addr);
            } else {
                self.mem.write(now, addr);
            }
        }
        self.stats.repack_extra += moves as u64;
        self.stats.repacks += 1;
        self.predictor.page_calm();

        let meta = &mut self.pages.get_mut(&page).expect("checked above").meta;
        meta.line_bins = bins;
        meta.inflated.clear();
        meta.zero = all_zero;
        meta.compressed = new_data < PAGE_BYTES;
        meta.chunks = chunks;
        meta.page_bytes = new_bytes;
        // Journal the move as one transaction: a crash anywhere inside
        // the bracket rolls the whole repack back to the old layout.
        self.commit_repack(page);
    }

    // ------------------------------------------------------------------
    // Overflow handling (§IV-B2, §IV-B3)
    // ------------------------------------------------------------------

    /// Full-page recompression after an overflow that the inflation room
    /// could not absorb (Fig. 5c, Option 1). Returns the cycle the page is
    /// consistent again.
    fn recompress_page(&mut self, now: u64, page: u64) -> u64 {
        let meta = self.pages.get(&page).expect("page exists").meta.clone();
        let bins = self.stored_bins(page);
        let new_data: u32 = bins
            .iter()
            .map(|&b| self.cfg.bins.bin(b).bytes as u32)
            .sum();
        let new_bytes = self.cfg.allocation.fit(new_data.max(1));
        if new_bytes > meta.page_bytes {
            self.stats.page_overflows += 1;
            self.predictor.page_overflow();
        }
        // Resize before charging movement or touching metadata: a refused
        // allocation keeps the old (stale but consistent) layout.
        let Ok(chunks) = self.resize_page(page, &meta, new_bytes) else {
            return now;
        };
        let old_used = meta.used_bytes(&self.cfg.bins);
        let moves = old_used.div_ceil(64) + new_data.div_ceil(64);
        let mut t = now;
        for i in 0..moves {
            let addr = page * PAGE_BYTES as u64 + (i as u64 % LINES_PER_PAGE as u64) * 64;
            let r = if i % 2 == 0 {
                self.mem.read(t, addr)
            } else {
                self.mem.write(t, addr)
            };
            t = t.max(r.complete_at);
        }
        self.stats.overflow_extra += moves as u64;

        let compressed = new_data < PAGE_BYTES;
        let meta = &mut self.pages.get_mut(&page).expect("page exists").meta;
        meta.line_bins = bins;
        meta.inflated.clear();
        meta.compressed = compressed;
        meta.zero = false;
        meta.chunks = chunks;
        meta.page_bytes = new_bytes;
        self.commit_meta(page);
        t
    }

    /// Speculatively stores the whole page uncompressed (predictor hit).
    /// Returns `false` (page untouched) if the allocation was refused —
    /// the caller falls back to ordinary overflow handling.
    fn inflate_page(&mut self, now: u64, page: u64) -> bool {
        let meta = self.pages.get(&page).expect("page exists").meta.clone();
        let Ok(chunks) = self.resize_page(page, &meta, PAGE_BYTES) else {
            return false;
        };
        let old_used = meta.used_bytes(&self.cfg.bins);
        let moves = old_used.div_ceil(64) + LINES_PER_PAGE as u32;
        for i in 0..moves {
            let addr = page * PAGE_BYTES as u64 + (i as u64 % LINES_PER_PAGE as u64) * 64;
            if i % 2 == 0 {
                self.mem.read(now, addr);
            } else {
                self.mem.write(now, addr);
            }
        }
        self.stats.overflow_extra += moves as u64;
        self.stats.predictor_inflations += 1;

        let meta = &mut self.pages.get_mut(&page).expect("page exists").meta;
        meta.compressed = false;
        meta.zero = false;
        meta.inflated.clear();
        meta.chunks = chunks;
        meta.page_bytes = PAGE_BYTES;
        self.commit_meta(page);
        true
    }
}

impl Backend for CompressoDevice {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        if self.crashed {
            return now; // frozen: recover from the journal
        }
        self.maybe_scrub(now);
        self.stats.demand_fills += 1;
        let page = line_addr / PAGE_BYTES as u64;
        let line = ((line_addr % PAGE_BYTES as u64) / 64) as usize;
        self.ensure_page(page);

        let t = self.metadata_access(now, page, false);
        let meta = &self.pages.get(&page).expect("ensured").meta;
        let location = meta.locate(line, &self.cfg.bins);
        match location {
            LineLocation::Zero => {
                // Served from metadata alone: no DRAM access at all.
                self.stats.zero_fills += 1;
                t
            }
            LineLocation::Packed { offset, size } => {
                let bursts = Self::bursts(&meta.chunks, offset, size);
                // Free prefetch: a previously fetched compressed burst may
                // already hold this line.
                if bursts.len() == 1 && size < 64 {
                    let unit = offset / 64;
                    if self.prefetch.contains(&(page, unit)) {
                        self.stats.prefetch_hits += 1;
                        return t + self.cfg.offset_calc_latency + self.cfg.codec_latency;
                    }
                }
                let mut done = t + self.cfg.offset_calc_latency;
                let issue = done;
                for (i, addr) in bursts.enumerate() {
                    let r = self.mem.read(issue, addr);
                    done = done.max(r.complete_at);
                    if i == 0 {
                        self.stats.data_accesses += 1;
                    } else {
                        self.stats.split_access_extra += 1;
                    }
                }
                if size < 64 {
                    // Remember the fetched logical 64 B units: neighbouring
                    // compressed lines in them are free prefetches.
                    let first_unit = offset / 64;
                    let last_unit = (offset + size - 1) / 64;
                    for unit in first_unit..=last_unit {
                        if self.prefetch.len() >= PREFETCH_BUFFER {
                            self.prefetch.pop_front();
                        }
                        self.prefetch.push_back((page, unit));
                    }
                }
                if size < 64 {
                    // 64 B bins are stored raw: no decompression latency.
                    done += self.cfg.codec_latency;
                }
                done
            }
            LineLocation::Inflated { offset } => {
                let mut done = t + self.cfg.offset_calc_latency;
                for (i, addr) in Self::bursts(&meta.chunks, offset, 64).enumerate() {
                    let r = self.mem.read(done, addr);
                    done = done.max(r.complete_at);
                    if i == 0 {
                        self.stats.data_accesses += 1;
                    } else {
                        self.stats.split_access_extra += 1;
                    }
                }
                done
            }
        }
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        if self.crashed {
            return now; // frozen: recover from the journal
        }
        self.maybe_scrub(now);
        self.stats.demand_writebacks += 1;
        let page = line_addr / PAGE_BYTES as u64;
        let line = ((line_addr % PAGE_BYTES as u64) / 64) as usize;
        self.ensure_page(page);

        let t = self.metadata_access(now, page, true);
        self.mcache.mark_dirty(page);
        // Stores invalidate any buffered bursts of this page.
        self.prefetch.retain(|&(p, _)| p != page);

        // The store stream changes the data.
        self.world.on_writeback(line_addr);
        let entry = self.pages.get_mut(&page).expect("ensured");
        let old_size = entry.sizes.map(|sizes| sizes[line]);
        let new_size = self.sizer.resize_line(
            &mut entry.sizes,
            self.world.as_ref(),
            line_addr,
            &self.stats,
        );
        let bins = &self.cfg.bins;
        entry.binned = match old_size {
            Some(old) => {
                entry.binned + binned_bytes(bins, &[new_size]) - binned_bytes(bins, &[old])
            }
            // A recovered page was sized whole just now.
            None => binned_bytes(bins, entry.sizes.as_ref().expect("sized")),
        };
        let new_bin = self.cfg.bins.quantize(new_size as usize);

        let meta = &self.pages.get(&page).expect("ensured").meta;
        // Zero-line writeback to a zero (or any) page slot of bin 0: pure
        // metadata update.
        if new_bin.bytes == 0 && matches!(meta.locate(line, &self.cfg.bins), LineLocation::Zero) {
            self.stats.zero_writebacks += 1;
            return t;
        }

        if meta.zero {
            // First real data lands in an all-zero page: allocate the
            // smallest page and place the line.
            let page_bytes = self.cfg.allocation.fit(new_bin.bytes.max(1) as u32);
            let Ok(chunks) = self.allocate_page(page, page_bytes) else {
                // Degraded: absorb the write in metadata and stay a zero
                // page; the next writeback retries the allocation.
                self.stats.zero_writebacks += 1;
                return t;
            };
            let meta = &mut self.pages.get_mut(&page).expect("ensured").meta;
            meta.zero = false;
            meta.page_bytes = page_bytes;
            meta.chunks = chunks;
            meta.line_bins = [0; LINES_PER_PAGE];
            meta.line_bins[line] = new_bin.index;
            let meta = &self.pages.get(&page).expect("ensured").meta;
            if let LineLocation::Packed { offset, size } = meta.locate(line, &self.cfg.bins) {
                for addr in Self::bursts(&meta.chunks, offset, size) {
                    self.mem.write(t, addr);
                }
                self.stats.data_accesses += 1;
            }
            self.commit_meta(page);
            return t;
        }

        if !meta.compressed {
            // Raw page: identity placement, one burst.
            let r = self
                .mem
                .write(t, Self::burst(&meta.chunks, line as u32 * 64));
            self.stats.data_accesses += 1;
            return r.complete_at.max(t);
        }

        if meta.is_inflated(line) {
            // Already in the inflation room: overwrite its 64 B slot.
            if let LineLocation::Inflated { offset } = meta.locate(line, &self.cfg.bins) {
                self.mem.write(t, Self::burst(&meta.chunks, offset));
                self.stats.data_accesses += 1;
            }
            return t;
        }

        let old_bin = meta.bin_of(line, &self.cfg.bins);
        use std::cmp::Ordering;
        match new_bin.index.cmp(&old_bin.index) {
            Ordering::Equal | Ordering::Less => {
                if new_bin.index < old_bin.index {
                    // Underflow: data shrank; the slot keeps its size and
                    // the potential free space is harvested by repacking.
                    self.stats.line_underflows += 1;
                    self.predictor.line_underflow(page);
                }
                if new_bin.bytes == 0 {
                    // The line became all zeros: a pure metadata update
                    // (the stale slot is reclaimed at repack time).
                    self.stats.zero_writebacks += 1;
                    return t;
                }
                if old_bin.bytes > 0 {
                    if let LineLocation::Packed { offset, .. } = meta.locate(line, &self.cfg.bins) {
                        let bursts =
                            Self::bursts(&meta.chunks, offset, new_bin.bytes.max(1) as u32);
                        for (i, addr) in bursts.enumerate() {
                            self.mem.write(t, addr);
                            if i == 0 {
                                self.stats.data_accesses += 1;
                            } else {
                                self.stats.split_access_extra += 1;
                            }
                        }
                    }
                } else {
                    // Old slot was the zero bin: the line needs a slot now
                    // — treat as an overflow into the inflation room.
                    return self.handle_overflow(t, page, line, new_bin.index);
                }
                t
            }
            Ordering::Greater => self.handle_overflow(t, page, line, new_bin.index),
        }
    }
}

impl CompressoDevice {
    fn handle_overflow(&mut self, now: u64, page: u64, line: usize, _new_bin: u8) -> u64 {
        self.stats.line_overflows += 1;
        self.predictor.line_overflow(page);

        // Page-overflow prediction: store the whole page uncompressed.
        // A refused inflation falls through to the ordinary handling.
        if self.cfg.prediction
            && self.predictor.should_inflate(page)
            && self.inflate_page(now, page)
        {
            let meta = &self.pages.get(&page).expect("page exists").meta;
            self.mem
                .write(now, Self::burst(&meta.chunks, line as u32 * 64));
            self.stats.data_accesses += 1;
            return now;
        }

        let meta = &self.pages.get(&page).expect("page exists").meta;
        // Inflation room: free space and a free pointer → 1 write.
        if meta.inflated.len() < self.cfg.max_inflated && meta.free_bytes(&self.cfg.bins) >= 64 {
            let meta = &mut self.pages.get_mut(&page).expect("page exists").meta;
            meta.inflated.push(line as u8);
            let meta = &self.pages.get(&page).expect("page exists").meta;
            if let LineLocation::Inflated { offset } = meta.locate(line, &self.cfg.bins) {
                self.mem.write(now, Self::burst(&meta.chunks, offset));
                self.stats.data_accesses += 1;
                self.stats.ir_placements += 1;
            }
            self.commit_meta(page);
            return now;
        }

        // Dynamic inflation-room expansion: allocate one more chunk. A
        // refused chunk falls through to recompression, which has its own
        // degraded path.
        if self.cfg.ir_expansion
            && self.cfg.allocation == PageAllocation::Chunks512
            && meta.chunks.len() < 8
            && meta.inflated.len() < self.cfg.max_inflated
        {
            let old = meta.clone();
            let new_bytes = old.page_bytes + CHUNK_BYTES;
            if let Ok(chunks) = self.resize_page(page, &old, new_bytes) {
                let meta = &mut self.pages.get_mut(&page).expect("page exists").meta;
                meta.chunks = chunks;
                meta.page_bytes = new_bytes;
                meta.inflated.push(line as u8);
                self.stats.ir_expansions += 1;
                let meta = &self.pages.get(&page).expect("page exists").meta;
                if let LineLocation::Inflated { offset } = meta.locate(line, &self.cfg.bins) {
                    self.mem.write(now, Self::burst(&meta.chunks, offset));
                    self.stats.data_accesses += 1;
                }
                self.commit_meta(page);
                return now;
            }
        }

        // Worst case: recompress the page (Fig. 5c, Option 1).
        let t = self.recompress_page(now, page);
        let meta = &self.pages.get(&page).expect("page exists").meta;
        if let LineLocation::Packed { offset, size } = meta.locate(line, &self.cfg.bins) {
            for (i, addr) in Self::bursts(&meta.chunks, offset, size).enumerate() {
                self.mem.write(t, addr);
                if i == 0 {
                    self.stats.data_accesses += 1;
                } else {
                    self.stats.split_access_extra += 1;
                }
            }
        }
        t
    }
}

impl MemoryDevice for CompressoDevice {
    fn device_name(&self) -> &'static str {
        "Compresso"
    }

    fn device_stats(&self) -> DeviceStats {
        self.stats.snapshot()
    }

    fn dram_stats(&self) -> MemStats {
        self.mem.stats()
    }

    fn metrics(&self) -> &Registry {
        &self.registry
    }

    fn compression_ratio(&self) -> f64 {
        let used = self.mpa_used_bytes();
        if used == 0 {
            return 1.0;
        }
        self.touched_ospa_bytes() as f64 / used as f64
    }

    fn mpa_used_bytes(&self) -> u64 {
        let data = match &self.alloc {
            Allocator::Chunks(a) => a.used_bytes(),
            Allocator::Buddy(a) => a.used_bytes(),
        };
        data + self.pages.len() as u64 * 64 // metadata entries
    }

    fn touched_ospa_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_BYTES as u64
    }
}
