//! The Compresso device: OS-transparent compressed main memory with all
//! five data-movement optimizations (§III–§V).

use crate::alloc::{chunk_addr, PageAllocator};
use crate::config::{CompressoConfig, PageAllocation};
use crate::controller::{
    self, metadata_lookup, Controller, MetadataHooks, CODEC_LATENCY, OFFSET_CALC_LATENCY,
};
use crate::device::{LineSizes, MemoryDevice};
use crate::durability::{self, check_ownership, Layout, Recover};
use crate::faultkit::{FaultPlan, FaultStats, MetadataFault};
use crate::journal::{PageImage, RecoveryReport};
use crate::metadata::{
    linepack_bytes, LineLocation, PageMeta, CHUNK_BYTES, LINES_PER_PAGE, PAGE_BYTES,
};
use crate::metadata_codec::{self, LINE_CODE_BITS, MAX_INFLATED, PACKED_BYTES};
use crate::predictor::OverflowPredictor;
use crate::stats::DeviceStats;
use compresso_cache_sim::Backend;
use compresso_compression::BinSet;
use compresso_mem_sim::MemStats;
use compresso_telemetry::Registry;
use compresso_workloads::{AddrMap, LineSource};
use std::collections::BTreeMap;

/// One touched OSPA page: its metadata entry plus the stored sizes of
/// its lines (see [`crate::device`]). The sizes are not part of the
/// packed entry: a fault or fallback that rewrites `meta` leaves them
/// alone, since the line bytes did not change.
struct Page {
    meta: PageMeta,
    /// `None` on a recovered page until it is first needed.
    sizes: Option<LineSizes>,
    /// [`linepack_bytes`] of `sizes`: the data bytes the page would hold
    /// once repacked (Fig. 3's tracked free space). Kept with `sizes` and
    /// meaningful only while they are stored.
    binned: u32,
}

/// MPA addresses of the 64 B bursts covering `size` bytes at logical
/// `offset` of a page backed by `chunks`.
fn bursts(chunks: &[u32], offset: u32, size: u32) -> impl ExactSizeIterator<Item = u64> + '_ {
    controller::units(offset, size).map(move |unit| {
        let logical = unit * 64;
        let chunk = chunks[(logical / CHUNK_BYTES) as usize];
        chunk_addr(chunk) + (logical % CHUNK_BYTES) as u64
    })
}

/// The bin of each line of `sizes` and their [`linepack_bytes`],
/// quantizing each line once.
fn quantize_page(sizes: &LineSizes, bins: &BinSet) -> ([u8; LINES_PER_PAGE], u32) {
    let mut codes = [0; LINES_PER_PAGE];
    let mut bytes = 0;
    for (code, &size) in codes.iter_mut().zip(sizes) {
        let bin = bins.quantize(size as usize);
        *code = bin.index;
        bytes += bin.bytes as u32;
    }
    (codes, bytes)
}

/// The committed layout of a page with entry `meta`: its packed entry
/// and the blocks `alloc` says it holds (`None` if the entry cannot be
/// packed).
fn layout(meta: &PageMeta, cfg: &CompressoConfig, alloc: &PageAllocator) -> Option<Layout> {
    let packed = metadata_codec::try_encode(meta, &cfg.bins).ok()?;
    Some((PageImage::Packed(packed), alloc.blocks(&meta.chunks)))
}

/// Compresso: compressed main memory implemented entirely in the memory
/// controller (see crate docs).
pub struct CompressoDevice {
    cfg: CompressoConfig,
    ctl: Controller,
    pages: AddrMap<Page>,
    predictor: OverflowPredictor,
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

    /// A bit flip lands in the page's packed encoding. With the entry CRC
    /// in place **every** flip is detected (a decode error, or an entry
    /// that differs from the controller's committed view) and the page
    /// takes the uncompressed fallback, as a decode failure does. A flip
    /// that decoded back bit-identical would be an *undetected*
    /// corruption, counted apart and asserted zero by the fault tests
    /// (DESIGN.md §10).
    fn on_corrupt(&mut self, now: u64, page: u64, fault: MetadataFault) -> u64 {
        if let MetadataFault::BitFlip { bit } = fault {
            let Some(Page { meta, .. }) = self.pages.get(&page) else {
                return now;
            };
            let Ok(mut packed) = metadata_codec::try_encode(meta, &self.cfg.bins) else {
                return now;
            };
            packed[(bit / 8) % PACKED_BYTES] ^= 1 << (bit % 8);
            if matches!(metadata_codec::decode(&packed, &self.cfg.bins), Ok(m) if m == *meta) {
                self.ctl.stats.corruption_undetected += 1;
                return now;
            }
        }
        self.ctl.stats.corruption_detected += 1;
        self.corruption_fallback(now, page)
    }

    /// Every eviction is the repacking trigger (§IV-B4).
    fn on_evict(&mut self, t: u64, victim: u64) {
        if self.cfg.repacking {
            self.maybe_repack(t, victim);
        }
    }
}

impl CompressoDevice {
    /// Creates a Compresso device over `world` with `config`, not
    /// journaling (the paper's controller).
    pub fn new(config: CompressoConfig, world: impl LineSource + 'static) -> Self {
        let ctl = Controller::new(
            Box::new(world),
            "compresso",
            config.mcache_half_entries,
            config.allocation,
            config.mpa_capacity,
        );
        let predictor = OverflowPredictor::new();
        predictor.register_metrics(&ctl.registry, "predictor");
        Self {
            ctl,
            cfg: config,
            pages: AddrMap::default(),
            predictor,
        }
    }

    /// Turns on the crash-consistency layer (DESIGN.md §10): write-ahead
    /// journaling of every metadata mutation, the durable metadata image,
    /// and a background scrub pass every `scrub_interval` cycles (0:
    /// never). Call it on a fresh device; a no-op if journaling is
    /// already on.
    ///
    /// # Panics
    ///
    /// Panics if the configured bins need line codes wider than the
    /// packed entry's 2-bit field: such entries cannot be journaled.
    pub fn enable_journaling(&mut self, scrub_interval: u64) {
        let bins = &self.cfg.bins;
        assert!(
            bins.code_bits() <= LINE_CODE_BITS,
            "a journaled device packs 64 B entries with {LINE_CODE_BITS}-bit line codes; \
             bin set {} needs {}-bit codes",
            bins.name(),
            bins.code_bits(),
        );
        self.ctl.enable_journaling(scrub_interval);
    }

    /// Attaches a deterministic fault-injection plan. The default is
    /// `None`, which costs nothing on the hot path; with a plan attached
    /// the device degrades per the DESIGN.md fault policy instead of
    /// panicking.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.ctl.faults.attach(plan);
    }

    /// Injection counters of the attached fault plan, if any.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.ctl.faults.stats()
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
        if !self.ctl.commit_free(page) {
            return;
        }
        if let Some(Page { meta, .. }) = self.pages.remove(&page) {
            self.ctl.alloc.release(&meta.chunks, meta.page_bytes);
        }
    }

    /// Reports `page`'s new layout to the durability owner.
    fn commit_meta(&mut self, page: u64) {
        self.ctl
            .commit(page, |a| layout(&self.pages.get(&page)?.meta, &self.cfg, a));
    }

    /// Raw bytes of the write-ahead journal (what survives a crash), if
    /// journaling is enabled.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.ctl.journal_bytes()
    }

    /// Records fully appended to the journal so far.
    pub fn journal_records(&self) -> u64 {
        self.ctl.journal_records()
    }

    /// Whether an armed crash fired (the device is frozen; recover from
    /// [`Self::journal_bytes`]).
    pub fn is_crashed(&self) -> bool {
        self.ctl.is_crashed()
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
        self.ctl.owners()
    }

    /// Cold-boot recovery of this fresh device from the surviving
    /// journal bytes alone, journaling on (without scrubbing unless
    /// [`Self::enable_journaling`] asked for it). Replays the journal
    /// through the [`ShadowModel`] semantics (torn tail discarded,
    /// uncommitted deltas and open repack transactions rolled back),
    /// rebuilds the page table and the allocator free lists, verifies
    /// layout invariants, prewarms the metadata cache by journal-tail
    /// recency, and writes a compacted checkpoint journal.
    ///
    /// # Panics
    ///
    /// Panics if the device has touched a page (recovery rebuilds a
    /// device from the journal alone), or, as
    /// [`Self::enable_journaling`], if its bins cannot be journaled.
    ///
    /// [`ShadowModel`]: crate::journal::ShadowModel
    pub fn recover(mut self, journal_bytes: &[u8]) -> (Self, RecoveryReport) {
        assert!(self.pages.is_empty(), "recover a freshly built device");
        self.enable_journaling(0);
        durability::recover(self, journal_bytes)
    }

    // ------------------------------------------------------------------
    // Size and layout helpers
    // ------------------------------------------------------------------

    /// The bins of `page`'s lines, from its stored sizes. A page sized
    /// now (recovered) gets its bin-byte sum too.
    fn stored_bins(&mut self, page: u64) -> [u8; LINES_PER_PAGE] {
        let entry = self.pages.get_mut(&page).expect("page exists");
        let fresh = entry.sizes.is_none();
        let sizes = self.ctl.stored_sizes(&mut entry.sizes, page);
        let (bins, bytes) = quantize_page(&sizes, &self.cfg.bins);
        if fresh {
            entry.binned = bytes;
        }
        bins
    }

    /// First touch of a page: compute all line bins and allocate storage.
    /// Initialization is not charged to the measured access stream (the
    /// uncompressed baseline faults pages in outside the window too).
    fn ensure_page(&mut self, page: u64) {
        if self.pages.contains_key(&page) {
            return;
        }
        let sizes = self.ctl.size_page(page);
        let (bins, data_bytes) = quantize_page(&sizes, &self.cfg.bins);
        let meta = if data_bytes == 0 {
            PageMeta::zero_page()
        } else {
            // A page whose lines are all 64 B bins carries no compression:
            // store it raw, which also makes its metadata eligible for the
            // half-entry optimization (§IV-B5).
            let compressed = data_bytes < PAGE_BYTES;
            let page_bytes = self.cfg.allocation.fit(data_bytes);
            match self.ctl.realloc(&[], 0, page_bytes) {
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
        match self.ctl.realloc(&meta.chunks, meta.page_bytes, PAGE_BYTES) {
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
                self.ctl.alloc.release(&meta.chunks, meta.page_bytes);
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
        let old = &self.pages[&page].meta;
        let Ok(chunks) = self.ctl.realloc(&old.chunks, old.page_bytes, new_bytes) else {
            return;
        };
        // Movement: read the live data, write it repacked.
        let moves = old.used_bytes(&self.cfg.bins).div_ceil(64) + new_data.div_ceil(64);
        self.ctl.move_page(now, page, moves, false);
        self.ctl.stats.repack_extra += moves as u64;
        self.ctl.stats.repacks += 1;
        self.predictor.page_calm();
        self.store_packed(page, bins, new_data, chunks, new_bytes);
        // Journal the move as one transaction: a crash anywhere inside
        // the bracket rolls the whole repack back to the old layout.
        self.ctl
            .commit_repack(page, |a| layout(&self.pages.get(&page)?.meta, &self.cfg, a));
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
        let new_data = self.pages[&page].binned;
        let new_bytes = self.cfg.allocation.fit(new_data.max(1));
        if new_bytes > meta.page_bytes {
            self.ctl.stats.page_overflows += 1;
            self.predictor.page_overflow();
        }
        // Resize before charging movement or touching metadata: a refused
        // allocation keeps the old (stale but consistent) layout.
        let Ok(chunks) = self.ctl.realloc(&meta.chunks, meta.page_bytes, new_bytes) else {
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
        let Ok(chunks) = self.ctl.realloc(&meta.chunks, meta.page_bytes, PAGE_BYTES) else {
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
        let local = self.ctl.mcache.local_counter(page).map(|c| {
            c.up();
            *c
        });

        // Page-overflow prediction: store the whole page uncompressed.
        // A refused inflation falls through to the ordinary handling.
        if self.cfg.prediction
            && local.is_some_and(|c| self.predictor.should_inflate(c))
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
            let new_bytes = meta.page_bytes + CHUNK_BYTES;
            if let Ok(chunks) = self.ctl.realloc(&meta.chunks, meta.page_bytes, new_bytes) {
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

impl Recover for CompressoDevice {
    fn adopt(
        &mut self,
        page: u64,
        image: &PageImage,
        blocks: &[(u64, u32)],
        violations: &mut Vec<String>,
    ) -> bool {
        let PageImage::Packed(packed) = image else {
            violations.push(format!("page {page}: non-Compresso record in journal"));
            return false;
        };
        let meta = match metadata_codec::decode(packed, &self.cfg.bins) {
            Ok(meta) => meta,
            Err(e) => {
                violations.push(format!("page {page}: committed entry undecodable: {e}"));
                return false;
            }
        };
        let before = violations.len();
        let alloc = &self.ctl.alloc;
        violations.extend(check_ownership(page, alloc.blocks(&meta.chunks), blocks));
        let (used, allocated) = (meta.used_bytes(&self.cfg.bins), meta.page_bytes);
        violations.extend(alloc.check_page_size(page, allocated));
        if meta.compressed && used > allocated {
            violations.push(format!(
                "page {page}: lines occupy {used} B of a {allocated} B allocation"
            ));
        }
        if meta.zero && !meta.chunks.is_empty() {
            violations.push(format!("page {page}: zero page owns storage"));
        }
        if violations.len() > before {
            return false;
        }
        self.pages.insert(
            page,
            Page {
                meta,
                sizes: None,
                binned: 0,
            },
        );
        true
    }

    /// The most recently journaled pages are the likeliest next
    /// accesses. Warms oldest-first so the most recent ends up
    /// most-recently-used.
    fn prewarm(&mut self, journaled: &[u64]) -> usize {
        let mut recent: Vec<u64> = Vec::new();
        for &p in journaled.iter().rev() {
            if self.pages.contains_key(&p) && !recent.contains(&p) {
                recent.push(p);
                if recent.len() >= 128 {
                    break;
                }
            }
        }
        for &p in recent.iter().rev() {
            let uncompressed = !self.pages[&p].meta.compressed;
            let _ = self.ctl.mcache.access(p, uncompressed, false);
        }
        recent.len()
    }
}

impl Backend for CompressoDevice {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        if !self.ctl.admit(now) {
            return now; // frozen: recover from the journal
        }
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
        if !self.ctl.admit(now) {
            return now; // frozen: recover from the journal
        }
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
                entry.binned + linepack_bytes(&[new_size], bins) - linepack_bytes(&[old], bins)
            }
            // A recovered page was sized whole just now.
            None => linepack_bytes(entry.sizes.as_ref().expect("sized"), bins),
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
            let Ok(chunks) = self.ctl.realloc(&[], 0, page_bytes) else {
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
            if let Some(c) = self.ctl.mcache.local_counter(page) {
                c.down();
            }
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

    fn mpa_used_bytes(&self) -> u64 {
        self.ctl.mpa_used_bytes(self.pages.len())
    }

    fn touched_ospa_bytes(&self) -> u64 {
        controller::touched_ospa_bytes(self.pages.len())
    }
}
