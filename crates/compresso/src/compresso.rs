//! The Compresso device: OS-transparent compressed main memory with all
//! five data-movement optimizations (§III–§V).

use crate::alloc::{BuddyAllocator, ChunkAllocator};
use crate::config::{CompressoConfig, PageAllocation};
use crate::controller::{
    self, check_ownership, metadata_lookup, Committed, Controller, MetadataHooks, CODEC_LATENCY,
    OFFSET_CALC_LATENCY,
};
use crate::device::{LineSizes, MemoryDevice};
use crate::error::CompressoError;
use crate::faultkit::{FaultPlan, FaultStats, MetadataFault};
use crate::journal::{JournalRecord, PageImage, RecoveryReport};
use crate::metadata::{LineLocation, PageMeta, CHUNK_BYTES, LINES_PER_PAGE, PAGE_BYTES};
use crate::metadata_codec::{self, CRC_OFFSET, MAX_INFLATED, PACKED_BYTES};
use crate::predictor::OverflowPredictor;
use crate::stats::DeviceStats;
use compresso_cache_sim::Backend;
use compresso_compression::BinSet;
use compresso_mem_sim::MemStats;
use compresso_telemetry::Registry;
use compresso_workloads::{AddrMap, LineSource};
use std::collections::BTreeMap;

/// Durable entries the background scrubber CRC-verifies per pass.
const SCRUB_PAGES_PER_PASS: usize = 64;

enum Allocator {
    Chunks(ChunkAllocator),
    Buddy(BuddyAllocator),
}

impl Allocator {
    fn used_bytes(&self) -> u64 {
        match self {
            Allocator::Chunks(a) => a.used_bytes(),
            Allocator::Buddy(a) => a.used_bytes(),
        }
    }
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

/// MPA addresses of the 64 B bursts covering `size` bytes at logical
/// `offset` of a page backed by `chunks`.
fn bursts(chunks: &[u32], offset: u32, size: u32) -> impl ExactSizeIterator<Item = u64> + '_ {
    controller::units(offset, size).map(move |unit| {
        let logical = unit * 64;
        let chunk = chunks[(logical / CHUNK_BYTES) as usize];
        ChunkAllocator::chunk_addr(chunk) + (logical % CHUNK_BYTES) as u64
    })
}

/// Chunk frame numbers of a contiguous block at MPA `base` holding
/// `bytes` (a Variable4 page's allocation).
fn block_chunks(base: u64, bytes: u32) -> Vec<u32> {
    (0..bytes.div_ceil(CHUNK_BYTES))
        .map(|i| (base / CHUNK_BYTES as u64) as u32 + i)
        .collect()
}

/// Compresso: compressed main memory implemented entirely in the memory
/// controller (see crate docs).
pub struct CompressoDevice {
    cfg: CompressoConfig,
    ctl: Controller,
    pages: AddrMap<Page>,
    alloc: Allocator,
    predictor: OverflowPredictor,
    // -------- crash-consistency layer (DESIGN.md §10) --------
    /// Durable metadata-region image (what a cold boot would read
    /// before replaying the journal); rot lands here.
    durable: BTreeMap<u64, [u8; PACKED_BYTES]>,
    next_scrub_at: u64,
    scrub_cursor: u64,
}

impl std::fmt::Debug for CompressoDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressoDevice")
            .field("pages", &self.pages.len())
            .field("stats", &self.ctl.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl MetadataHooks for CompressoDevice {
    fn controller(&mut self) -> &mut Controller {
        &mut self.ctl
    }

    fn on_fetch(&mut self, t: u64, page: u64) -> u64 {
        self.maybe_corrupt_metadata(t, page)
    }

    /// Every eviction feeds the predictor and is the repacking trigger
    /// (§IV-B4).
    fn on_evict(&mut self, t: u64, victim: u64) {
        self.predictor.on_mcache_eviction(victim);
        if self.cfg.repacking {
            self.maybe_repack(t, victim);
        }
    }
}

impl CompressoDevice {
    /// Creates a Compresso device over `world` with `config`.
    pub fn new(config: CompressoConfig, world: impl LineSource + 'static) -> Self {
        Self::new_boxed(config, Box::new(world))
    }

    fn new_boxed(config: CompressoConfig, world: Box<dyn LineSource>) -> Self {
        let alloc = match config.allocation {
            PageAllocation::Chunks512 => {
                Allocator::Chunks(ChunkAllocator::new(config.mpa_capacity))
            }
            PageAllocation::Variable4 => Allocator::Buddy(BuddyAllocator::new(config.mpa_capacity)),
        };
        let device = Self {
            ctl: Controller::new(
                world,
                config.mcache_half_entries,
                config.durability.journaling,
            ),
            next_scrub_at: config.durability.scrub_interval,
            cfg: config,
            pages: AddrMap::default(),
            alloc,
            predictor: OverflowPredictor::new(),
            durable: BTreeMap::new(),
            scrub_cursor: 0,
        };
        device.register_all_metrics();
        device
    }

    /// Registers every subsystem's metrics into this device's registry
    /// under the DESIGN.md §9 prefixes.
    fn register_all_metrics(&self) {
        let registry = &self.ctl.registry;
        self.ctl.register_metrics("compresso");
        self.predictor.register_metrics(registry, "predictor");
        match &self.alloc {
            Allocator::Chunks(a) => a.register_metrics(registry, "alloc"),
            Allocator::Buddy(a) => a.register_metrics(registry, "alloc"),
        }
    }

    /// Attaches a deterministic fault-injection plan. The default is
    /// `None`, which costs nothing on the hot path; with a plan attached
    /// the device degrades per the DESIGN.md fault policy instead of
    /// panicking.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.ctl.faults = Some(plan);
    }

    /// Injection counters of the attached fault plan, if any.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.ctl.faults.as_ref().map(|f| f.stats())
    }

    /// Records a balloon-driver inflate retry against this device's
    /// stats (the oskit `MpaController::on_balloon_retry` hook).
    pub fn note_balloon_retry(&mut self) {
        self.ctl.stats.balloon_retries += 1;
    }

    /// The configuration in use.
    pub fn config(&self) -> &CompressoConfig {
        &self.cfg
    }

    /// The data world (e.g. to inspect versions in tests).
    pub fn world(&self) -> &dyn LineSource {
        self.ctl.world.as_ref()
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
        if self.ctl.crashed {
            return;
        }
        if let Some(Page { meta, .. }) = self.pages.remove(&page) {
            self.release_chunks(&meta);
            self.commit_page_free(page);
        }
    }

    // ------------------------------------------------------------------
    // Crash-consistency layer: journal commits, durable image, scrubber
    // (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// The MPA blocks a page with entry `meta` owns: one `(addr, bytes)`
    /// pair per 512 B chunk (Chunks512) or per run of adjacent chunks
    /// (Variable4, whose live pages are one contiguous block).
    fn blocks_of(&self, meta: &PageMeta) -> Vec<(u64, u32)> {
        let runs = self.cfg.allocation == PageAllocation::Variable4;
        let mut blocks: Vec<(u64, u32)> = Vec::new();
        for addr in meta.chunks.iter().map(|&c| ChunkAllocator::chunk_addr(c)) {
            match blocks.last_mut() {
                Some((base, bytes)) if runs && *base + *bytes as u64 == addr => {
                    *bytes += CHUNK_BYTES
                }
                _ => blocks.push((addr, CHUNK_BYTES)),
            }
        }
        blocks
    }

    /// Journals the page's new committed state (ownership deltas, then
    /// the packed entry as the commit point); then writes the durable
    /// metadata image, where injected rot may land.
    fn commit_meta(&mut self, page: u64) {
        if !self.ctl.journaling() {
            return;
        }
        let Some(Page { meta, .. }) = self.pages.get(&page) else {
            return;
        };
        let Ok(packed) = metadata_codec::try_encode(meta, &self.cfg.bins) else {
            return;
        };
        let blocks = self.blocks_of(meta);
        if self
            .ctl
            .commit(page, blocks, JournalRecord::EntryUpdate { page, packed })
        {
            self.durable.insert(page, packed);
            self.apply_rot(page);
        }
    }

    /// Journals a page invalidation (commit point releasing all its
    /// storage) and drops it from the durable image.
    fn commit_page_free(&mut self, page: u64) {
        if !self.ctl.journaling() {
            return;
        }
        let was_committed = self.ctl.committed.remove(&page).is_some();
        self.durable.remove(&page);
        if was_committed {
            self.ctl.append_all(&[JournalRecord::PageFree { page }]);
            if !self.ctl.crashed {
                self.ctl.dur_events.journal_commits += 1;
            }
        }
    }

    /// Journals a completed repack as one transaction: the deltas and
    /// entry update sit inside a `RepackBegin`/`RepackCommit` bracket,
    /// so a crash anywhere inside rolls the whole move back.
    fn commit_repack(&mut self, page: u64) {
        if !self.ctl.journaling() {
            return;
        }
        self.ctl.append_all(&[JournalRecord::RepackBegin { page }]);
        self.commit_meta(page);
        if self.ctl.crashed {
            return;
        }
        self.ctl.append_all(&[JournalRecord::RepackCommit { page }]);
    }

    /// Injected media rot: one bit of the just-written durable entry
    /// decays. The journal (protected storage) keeps the good copy.
    fn apply_rot(&mut self, page: u64) {
        if let Some(bit) = self.ctl.faults.as_mut().and_then(|f| f.durable_rot()) {
            if let Some(img) = self.durable.get_mut(&page) {
                img[bit / 8] ^= 1 << (bit % 8);
                self.ctl.stats.injected_faults += 1;
            }
        }
    }

    /// Background scrubber (simulated time): every `scrub_interval`
    /// cycles, CRC-verify the next [`SCRUB_PAGES_PER_PASS`] durable
    /// entries; repair rotted ones from the image of the page's last
    /// journal commit, falling back to the uncompressed-degradation path
    /// when no repair source exists.
    fn maybe_scrub(&mut self, now: u64) {
        let interval = self.cfg.durability.scrub_interval;
        if !self.ctl.journaling() || interval == 0 || now < self.next_scrub_at {
            return;
        }
        self.next_scrub_at = now + interval;
        self.ctl.dur_events.scrub_passes += 1;
        let pages: Vec<u64> = self
            .durable
            .range(self.scrub_cursor..)
            .map(|(&p, _)| p)
            .chain(self.durable.range(..self.scrub_cursor).map(|(&p, _)| p))
            .take(SCRUB_PAGES_PER_PASS)
            .collect();
        for page in pages {
            self.ctl.dur_events.scrub_pages_scanned += 1;
            self.scrub_cursor = page + 1;
            let img = self.durable[&page];
            let stored = u32::from_le_bytes(img[CRC_OFFSET..].try_into().expect("4 bytes"));
            if metadata_codec::crc32(&img[..CRC_OFFSET]) == stored {
                continue;
            }
            self.ctl.dur_events.scrub_crc_failures += 1;
            self.ctl.stats.corruption_detected += 1;
            match self.ctl.committed.get(&page).map(|c| &c.entry) {
                Some(&JournalRecord::EntryUpdate { packed: good, .. }) => {
                    self.durable.insert(page, good);
                    self.ctl.dur_events.scrub_repairs += 1;
                }
                _ => {
                    // No committed image to repair from: degrade the
                    // page via the PR 1 uncompressed-fallback path and
                    // re-commit a fresh entry.
                    self.ctl.dur_events.scrub_fallbacks += 1;
                    self.corruption_fallback(now, page);
                    self.commit_meta(page);
                }
            }
        }
    }

    /// Raw bytes of the write-ahead journal (what survives a crash), if
    /// journaling is enabled.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.ctl.journal.as_ref().map(|j| j.bytes())
    }

    /// Records fully appended to the journal so far.
    pub fn journal_records(&self) -> u64 {
        self.ctl.journal.as_ref().map_or(0, |j| j.records())
    }

    /// Whether an armed crash fired (the device is frozen; recover from
    /// [`Self::journal_bytes`]).
    pub fn is_crashed(&self) -> bool {
        self.ctl.crashed
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
        for (&page, committed) in &self.ctl.committed {
            for &(addr, bytes) in &committed.blocks {
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
    ///
    /// [`ShadowModel`]: crate::journal::ShadowModel
    pub fn recover(
        config: CompressoConfig,
        world: Box<dyn LineSource>,
        journal_bytes: &[u8],
    ) -> (Self, RecoveryReport) {
        let (records, shadow, mut report) = Controller::replay(journal_bytes);
        let mut cfg = config;
        cfg.durability.journaling = true;
        let mut device = Self::new_boxed(cfg, world);

        // Rebuild pages and ownership from the committed shadow state.
        // The allocator is rebuilt from the journal's ownership; a page's
        // layout comes from its entry, checked against that ownership.
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
                PageAllocation::Variable4 => owned_blocks.extend(blocks.first()),
            }
            device.durable.insert(page, *packed);
            let entry = JournalRecord::EntryUpdate {
                page,
                packed: *packed,
            };
            device
                .ctl
                .committed
                .insert(page, Committed { blocks, entry });
            device.pages.insert(
                page,
                Page {
                    meta,
                    sizes: None,
                    binned: 0,
                },
            );
        }
        let capacity = device.cfg.mpa_capacity;
        device.alloc = match device.cfg.allocation {
            PageAllocation::Chunks512 => {
                Allocator::Chunks(ChunkAllocator::rebuild(capacity, &owned_chunks))
            }
            PageAllocation::Variable4 => {
                Allocator::Buddy(BuddyAllocator::rebuild(capacity, &owned_blocks))
            }
        };
        // The rebuilt allocator replaced the one whose gauges were
        // registered at construction: re-register into a fresh registry.
        device.ctl.registry = Registry::new();
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
            let _ = device.ctl.mcache.access(p, uncompressed, false);
        }
        report.prewarmed = recent.len();

        device.ctl.checkpoint(&report);
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
        violations.extend(check_ownership(page, self.blocks_of(meta), blocks));
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
        let sizes = self.ctl.stored_sizes(&mut entry.sizes, page);
        if fresh {
            entry.binned = binned_bytes(&self.cfg.bins, &sizes);
        }
        self.bins_of(sizes)
    }

    /// Allocates backing storage of `bytes` for a page that holds none,
    /// returning chunk frame numbers covering the logical page in order.
    /// On failure no storage is held (partial chunk grants are released
    /// in grant order).
    fn allocate_page(&mut self, bytes: u32) -> Result<Vec<u32>, CompressoError> {
        let Allocator::Chunks(a) = &mut self.alloc else {
            return self.resize_page(&PageMeta::zero_page(), bytes);
        };
        let mut chunks = Vec::new();
        for _ in 0..bytes.div_ceil(CHUNK_BYTES) {
            match self.ctl.alloc_with_retry(|| Ok(a.alloc()?)) {
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

    fn release_chunks(&mut self, meta: &PageMeta) {
        match &mut self.alloc {
            Allocator::Chunks(a) => {
                for &c in &meta.chunks {
                    a.free(c);
                }
            }
            Allocator::Buddy(a) => {
                if let Some(&first) = meta.chunks.first() {
                    a.free(ChunkAllocator::chunk_addr(first), meta.page_bytes);
                }
            }
        }
    }

    /// Grows (or shrinks) the allocation of a page with entry `meta` to
    /// `new_bytes`, preserving the chunk prefix where possible
    /// (Chunks512) or reallocating its block (Variable4). Returns the new
    /// chunk list. On failure the page's existing allocation is left
    /// untouched (partial chunk grants are rolled back), so every caller
    /// can keep the old layout as its degraded fallback.
    fn resize_page(&mut self, meta: &PageMeta, new_bytes: u32) -> Result<Vec<u32>, CompressoError> {
        let ctl = &mut self.ctl;
        match &mut self.alloc {
            Allocator::Chunks(a) => {
                let mut chunks = meta.chunks.clone();
                let want = new_bytes.div_ceil(CHUNK_BYTES) as usize;
                while chunks.len() < want {
                    match ctl.alloc_with_retry(|| Ok(a.alloc()?)) {
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
                let new_base = match new_bytes {
                    0 => None,
                    _ => Some(ctl.alloc_with_retry(|| a.alloc(new_bytes))?),
                };
                if let Some(&first) = meta.chunks.first() {
                    a.free(ChunkAllocator::chunk_addr(first), meta.page_bytes.max(512));
                }
                Ok(new_base.map_or_else(Vec::new, |base| block_chunks(base, new_bytes)))
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
        let sizes = self.ctl.size_page(page);
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
            match self.allocate_page(page_bytes) {
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

    // ------------------------------------------------------------------
    // Metadata path
    // ------------------------------------------------------------------

    /// Performs the metadata access for `page`, returning the cycle at
    /// which translation is available.
    fn metadata_access(&mut self, now: u64, page: u64, dirty: bool) -> u64 {
        let uncompressed = self.pages.get(&page).is_some_and(|p| !p.meta.compressed);
        metadata_lookup(self, now, page, uncompressed, dirty).0
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
        let Some(fault) = self
            .ctl
            .faults
            .as_mut()
            .and_then(|f| f.metadata_fetch_fault())
        else {
            return now;
        };
        self.ctl.stats.injected_faults += 1;
        match fault {
            MetadataFault::DecodeFailure => {
                self.ctl.stats.corruption_detected += 1;
                self.corruption_fallback(now, page)
            }
            MetadataFault::BitFlip { bit } => {
                let Some(Page { meta, .. }) = self.pages.get(&page) else {
                    return now;
                };
                let Ok(mut packed) = metadata_codec::try_encode(meta, &self.cfg.bins) else {
                    return now;
                };
                packed[(bit / 8) % metadata_codec::PACKED_BYTES] ^= 1 << (bit % 8);
                match metadata_codec::decode(&packed, &self.cfg.bins) {
                    Ok(flipped) if flipped == *meta => {
                        // Silently accepted: the flip decoded back
                        // bit-identical. Impossible once the CRC covers
                        // the whole entry.
                        self.ctl.stats.corruption_undetected += 1;
                        now
                    }
                    _ => {
                        self.ctl.stats.corruption_detected += 1;
                        self.corruption_fallback(now, page)
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
        self.ctl.stats.corruption_fallbacks += 1;
        if meta.zero {
            self.pages.get_mut(&page).expect("cloned above").meta = PageMeta::zero_page();
            self.commit_meta(page);
            return now;
        }
        if !meta.compressed && meta.page_bytes == PAGE_BYTES {
            // Already stored raw: rebuilding the entry is metadata-only.
            return now;
        }
        match self.resize_page(&meta, PAGE_BYTES) {
            Ok(chunks) => {
                let moves = meta.used_bytes(&self.cfg.bins).div_ceil(64) + LINES_PER_PAGE as u32;
                let t = self.ctl.move_page(now, page, moves, true);
                self.ctl.stats.fault_extra += moves as u64;
                self.store_raw(page, chunks);
                t
            }
            Err(_) => {
                // No room even for the raw frame: drop to the zero state
                // and release the held storage; the next writeback with
                // real data reallocates.
                self.release_chunks(&meta);
                self.pages.get_mut(&page).expect("cloned above").meta = PageMeta::zero_page();
                self.commit_meta(page);
                now
            }
        }
    }

    /// Records `page` as stored uncompressed in the 4 KB allocation
    /// `chunks`, and commits the entry.
    fn store_raw(&mut self, page: u64, chunks: Vec<u32>) {
        let meta = &mut self.pages.get_mut(&page).expect("page exists").meta;
        meta.compressed = false;
        meta.zero = false;
        meta.inflated.clear();
        meta.chunks = chunks;
        meta.page_bytes = PAGE_BYTES;
        self.commit_meta(page);
    }

    /// Records `page` repacked from its stored line `bins` into the
    /// `new_bytes` allocation `chunks` holding `new_data` data bytes.
    fn store_packed(
        &mut self,
        page: u64,
        bins: [u8; LINES_PER_PAGE],
        new_data: u32,
        chunks: Vec<u32>,
        new_bytes: u32,
    ) {
        let meta = &mut self.pages.get_mut(&page).expect("page exists").meta;
        meta.line_bins = bins;
        meta.inflated.clear();
        meta.zero = new_data == 0;
        meta.compressed = new_data < PAGE_BYTES;
        meta.chunks = chunks;
        meta.page_bytes = new_bytes;
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
        // Resize first: a refused allocation must leave the page (and the
        // stats) untouched — the repack simply does not happen.
        let old_meta = self.pages[&page].meta.clone();
        let Ok(chunks) = self.resize_page(&old_meta, new_bytes) else {
            return;
        };
        // Movement: read the live data, write it repacked.
        let moves = old_meta.used_bytes(&self.cfg.bins).div_ceil(64) + new_data.div_ceil(64);
        self.ctl.move_page(now, page, moves, false);
        self.ctl.stats.repack_extra += moves as u64;
        self.ctl.stats.repacks += 1;
        self.predictor.page_calm();
        self.store_packed(page, bins, new_data, chunks, new_bytes);
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
        let meta = self.pages[&page].meta.clone();
        let bins = self.stored_bins(page);
        let new_data: u32 = bins
            .iter()
            .map(|&b| self.cfg.bins.bin(b).bytes as u32)
            .sum();
        let new_bytes = self.cfg.allocation.fit(new_data.max(1));
        if new_bytes > meta.page_bytes {
            self.ctl.stats.page_overflows += 1;
            self.predictor.page_overflow();
        }
        // Resize before charging movement or touching metadata: a refused
        // allocation keeps the old (stale but consistent) layout.
        let Ok(chunks) = self.resize_page(&meta, new_bytes) else {
            return now;
        };
        let moves = meta.used_bytes(&self.cfg.bins).div_ceil(64) + new_data.div_ceil(64);
        let t = self.ctl.move_page(now, page, moves, true);
        self.ctl.stats.overflow_extra += moves as u64;
        // Never a zero page: the overflowing line holds data.
        self.store_packed(page, bins, new_data.max(1), chunks, new_bytes);
        self.commit_meta(page);
        t
    }

    /// Speculatively stores the whole page uncompressed (predictor hit).
    /// Returns `false` (page untouched) if the allocation was refused —
    /// the caller falls back to ordinary overflow handling.
    fn inflate_page(&mut self, now: u64, page: u64) -> bool {
        let meta = self.pages[&page].meta.clone();
        let Ok(chunks) = self.resize_page(&meta, PAGE_BYTES) else {
            return false;
        };
        let moves = meta.used_bytes(&self.cfg.bins).div_ceil(64) + LINES_PER_PAGE as u32;
        self.ctl.move_page(now, page, moves, false);
        self.ctl.stats.overflow_extra += moves as u64;
        self.ctl.stats.predictor_inflations += 1;
        self.store_raw(page, chunks);
        true
    }

    /// Writes `line` into a fresh inflation-room slot of `page` (§IV-B3).
    fn write_inflated(&mut self, now: u64, page: u64, line: usize) -> bool {
        let meta = &mut self.pages.get_mut(&page).expect("page exists").meta;
        meta.inflated.push(line as u8);
        let LineLocation::Inflated { offset } = meta.locate(line, &self.cfg.bins) else {
            return false;
        };
        self.ctl.write_bursts(now, bursts(&meta.chunks, offset, 64));
        true
    }

    fn handle_overflow(&mut self, now: u64, page: u64, line: usize) -> u64 {
        self.ctl.stats.line_overflows += 1;
        self.predictor.line_overflow(page);

        // Page-overflow prediction: store the whole page uncompressed.
        // A refused inflation falls through to the ordinary handling.
        if self.cfg.prediction
            && self.predictor.should_inflate(page)
            && self.inflate_page(now, page)
        {
            let meta = &self.pages[&page].meta;
            self.ctl
                .write_bursts(now, bursts(&meta.chunks, line as u32 * 64, 64));
            return now;
        }

        let meta = &self.pages[&page].meta;
        // Inflation room: free space and a free pointer → 1 write.
        if meta.inflated.len() < MAX_INFLATED && meta.free_bytes(&self.cfg.bins) >= 64 {
            if self.write_inflated(now, page, line) {
                self.ctl.stats.ir_placements += 1;
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
            && meta.inflated.len() < MAX_INFLATED
        {
            let old = meta.clone();
            let new_bytes = old.page_bytes + CHUNK_BYTES;
            if let Ok(chunks) = self.resize_page(&old, new_bytes) {
                let meta = &mut self.pages.get_mut(&page).expect("page exists").meta;
                meta.chunks = chunks;
                meta.page_bytes = new_bytes;
                self.ctl.stats.ir_expansions += 1;
                self.write_inflated(now, page, line);
                self.commit_meta(page);
                return now;
            }
        }

        // Worst case: recompress the page (Fig. 5c, Option 1).
        let t = self.recompress_page(now, page);
        let meta = &self.pages[&page].meta;
        if let LineLocation::Packed { offset, size } = meta.locate(line, &self.cfg.bins) {
            self.ctl.write_bursts(t, bursts(&meta.chunks, offset, size));
        }
        t
    }
}

impl Backend for CompressoDevice {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        if self.ctl.crashed {
            return now; // frozen: recover from the journal
        }
        self.maybe_scrub(now);
        self.ctl.stats.demand_fills += 1;
        let page = line_addr / PAGE_BYTES as u64;
        let line = ((line_addr % PAGE_BYTES as u64) / 64) as usize;
        self.ensure_page(page);

        let t = self.metadata_access(now, page, false);
        let meta = &self.pages[&page].meta;
        match meta.locate(line, &self.cfg.bins) {
            LineLocation::Zero => {
                // Served from metadata alone: no DRAM access at all.
                self.ctl.stats.zero_fills += 1;
                t
            }
            LineLocation::Packed { offset, size } => {
                let bursts = bursts(&meta.chunks, offset, size);
                // Free prefetch: a previously fetched compressed burst may
                // already hold this line (single-burst lines only).
                if bursts.len() == 1 && self.ctl.prefetch_hit(page, offset, size) {
                    return t + OFFSET_CALC_LATENCY + CODEC_LATENCY;
                }
                // A line straddling two bursts reads both in parallel.
                let mut done = self.ctl.read_bursts(t + OFFSET_CALC_LATENCY, bursts, false);
                if size < 64 {
                    self.ctl.prefetch_record(page, offset, size);
                    // 64 B bins are stored raw: no decompression latency.
                    done += CODEC_LATENCY;
                }
                done
            }
            LineLocation::Inflated { offset } => self.ctl.read_bursts(
                t + OFFSET_CALC_LATENCY,
                bursts(&meta.chunks, offset, 64),
                true,
            ),
        }
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        if self.ctl.crashed {
            return now; // frozen: recover from the journal
        }
        self.maybe_scrub(now);
        self.ctl.stats.demand_writebacks += 1;
        let page = line_addr / PAGE_BYTES as u64;
        let line = ((line_addr % PAGE_BYTES as u64) / 64) as usize;
        self.ensure_page(page);

        let t = self.metadata_access(now, page, true);
        // Stores invalidate any buffered bursts of this page.
        self.ctl.prefetch_invalidate(page);

        // The store stream changes the data.
        self.ctl.world.on_writeback(line_addr);
        let entry = self.pages.get_mut(&page).expect("ensured");
        let old_size = entry.sizes.map(|sizes| sizes[line]);
        let new_size = self.ctl.resize_line(&mut entry.sizes, line_addr);
        let bins = &self.cfg.bins;
        entry.binned = match old_size {
            Some(old) => {
                entry.binned + binned_bytes(bins, &[new_size]) - binned_bytes(bins, &[old])
            }
            // A recovered page was sized whole just now.
            None => binned_bytes(bins, entry.sizes.as_ref().expect("sized")),
        };
        let new_bin = self.cfg.bins.quantize(new_size as usize);

        let meta = &self.pages[&page].meta;
        // Zero-line writeback to a zero (or any) page slot of bin 0: pure
        // metadata update.
        if new_bin.bytes == 0 && matches!(meta.locate(line, &self.cfg.bins), LineLocation::Zero) {
            self.ctl.stats.zero_writebacks += 1;
            return t;
        }

        if meta.zero {
            // First real data lands in an all-zero page: allocate the
            // smallest page and place the line.
            let page_bytes = self.cfg.allocation.fit(new_bin.bytes.max(1) as u32);
            let Ok(chunks) = self.allocate_page(page_bytes) else {
                // Degraded: absorb the write in metadata and stay a zero
                // page; the next writeback retries the allocation.
                self.ctl.stats.zero_writebacks += 1;
                return t;
            };
            let meta = &mut self.pages.get_mut(&page).expect("ensured").meta;
            meta.zero = false;
            meta.page_bytes = page_bytes;
            meta.chunks = chunks;
            meta.line_bins = [0; LINES_PER_PAGE];
            meta.line_bins[line] = new_bin.index;
            if let LineLocation::Packed { offset, size } = meta.locate(line, &self.cfg.bins) {
                self.ctl.write_bursts(t, bursts(&meta.chunks, offset, size));
            }
            self.commit_meta(page);
            return t;
        }

        if !meta.compressed {
            // Raw page: identity placement, one burst.
            return self
                .ctl
                .write_bursts(t, bursts(&meta.chunks, line as u32 * 64, 64));
        }

        if meta.is_inflated(line) {
            // Already in the inflation room: overwrite its 64 B slot.
            if let LineLocation::Inflated { offset } = meta.locate(line, &self.cfg.bins) {
                self.ctl.write_bursts(t, bursts(&meta.chunks, offset, 64));
            }
            return t;
        }

        let old_bin = meta.bin_of(line, &self.cfg.bins);
        if new_bin.index > old_bin.index {
            // Overflow (a line leaving the zero bin included: it needs a
            // slot now).
            return self.handle_overflow(t, page, line);
        }
        if new_bin.index < old_bin.index {
            // Underflow: data shrank; the slot keeps its size and the
            // potential free space is harvested by repacking.
            self.ctl.stats.line_underflows += 1;
            self.predictor.line_underflow(page);
        }
        if new_bin.bytes == 0 {
            // The line became all zeros: a pure metadata update (the
            // stale slot is reclaimed at repack time).
            self.ctl.stats.zero_writebacks += 1;
        } else if let LineLocation::Packed { offset, .. } = meta.locate(line, &self.cfg.bins) {
            let size = new_bin.bytes.max(1) as u32;
            self.ctl.write_bursts(t, bursts(&meta.chunks, offset, size));
        }
        t
    }
}

impl MemoryDevice for CompressoDevice {
    fn device_name(&self) -> &'static str {
        "Compresso"
    }

    fn device_stats(&self) -> DeviceStats {
        self.ctl.stats.snapshot()
    }

    fn dram_stats(&self) -> MemStats {
        self.ctl.mem.stats()
    }

    fn metrics(&self) -> &Registry {
        &self.ctl.registry
    }

    fn compression_ratio(&self) -> f64 {
        controller::compression_ratio(self.alloc.used_bytes(), self.pages.len())
    }

    fn mpa_used_bytes(&self) -> u64 {
        controller::mpa_used_bytes(self.alloc.used_bytes(), self.pages.len())
    }

    fn touched_ospa_bytes(&self) -> u64 {
        controller::touched_ospa_bytes(self.pages.len())
    }
}
