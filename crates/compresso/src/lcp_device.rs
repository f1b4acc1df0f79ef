//! The competitive LCP baseline device (§VI-F) and its LCP+Align variant.
//!
//! This is the paper's "most competitive baseline based on prior work":
//! OS-aware LCP enhanced with Compresso's modified BPC, an inflation-
//! room-like exception region, and the same-size metadata cache. Being
//! OS-aware, a page overflow raises a page fault to the OS; being LCP, a
//! speculative data access can be issued in parallel with a metadata miss
//! (wrong speculation on exception lines costs an extra access).

use crate::alloc::BuddyAllocator;
use crate::compresso::{alloc_buddy_with_retry, Codec};
use crate::device::{LineSizer, LineSizes, MemoryDevice};
use crate::faultkit::{FaultPlan, FaultStats};
use crate::journal::{
    self, AppendOutcome, DurabilityEvents, Journal, JournalRecord, LcpImage, PageImage,
    RecoveryReport, ShadowModel,
};
use crate::lcp::{plan, LcpPlan};
use crate::mcache::MetadataCache;
use crate::metadata::{LINES_PER_PAGE, PAGE_BYTES};
use crate::stats::{DeviceEvents, DeviceStats};
use compresso_cache_sim::Backend;
use compresso_compression::BinSet;
use compresso_mem_sim::{MainMemory, MemConfig, MemStats};
use compresso_telemetry::Registry;
use compresso_workloads::{AddrMap, LineSource};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Cycles charged for an OS page fault on a page overflow (an OS-aware
/// system must trap to remap the page; ~1.7 µs at 3 GHz).
pub const OS_PAGE_FAULT_CYCLES: u64 = 5000;

const METADATA_BASE: u64 = 1 << 41;
const PREFETCH_BUFFER: usize = 16;

#[derive(Debug, Clone)]
struct LcpMeta {
    plan: LcpPlan,
    page_bytes: u32,
    base: u64,
    zero_lines: [bool; LINES_PER_PAGE],
    all_zero: bool,
    /// Stored line sizes (see [`crate::device`]): not part of the
    /// journaled image; `None` on a recovered page until first needed.
    sizes: Option<LineSizes>,
}

/// The LCP / LCP+Align baseline device.
pub struct LcpDevice {
    name: &'static str,
    bins: BinSet,
    sizer: LineSizer,
    world: Box<dyn LineSource>,
    mem: MainMemory,
    mcache: MetadataCache,
    alloc: BuddyAllocator,
    pages: AddrMap<LcpMeta>,
    prefetch: VecDeque<(u64, u32)>,
    stats: DeviceEvents,
    registry: Registry,
    codec_latency: u64,
    mcache_hit_latency: u64,
    faults: Option<FaultPlan>,
    // -------- crash-consistency layer (DESIGN.md §10) --------
    /// Write-ahead journal; `None` until [`LcpDevice::enable_journaling`].
    /// Unlike Compresso there is no durable-image scrubber: the OS keeps
    /// the authoritative layout, so the journal alone suffices for
    /// recovery.
    journal: Option<Journal>,
    /// Last journal-committed frame per page, for delta records.
    committed: HashMap<u64, Vec<(u64, u32)>>,
    /// Set when an armed crash fired (journal frozen, device inert).
    crashed: bool,
    dur_events: DurabilityEvents,
}

impl std::fmt::Debug for LcpDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LcpDevice")
            .field("name", &self.name)
            .field("pages", &self.pages.len())
            .finish_non_exhaustive()
    }
}

impl LcpDevice {
    /// The plain LCP baseline: compression-optimal legacy bins
    /// `{0,22,44,64}`.
    pub fn lcp(world: impl LineSource + 'static) -> Self {
        Self::build("LCP", BinSet::legacy4(), world)
    }

    /// LCP with Compresso's alignment-friendly line sizes (the
    /// "LCP+Align" system of Fig. 10/11).
    pub fn lcp_align(world: impl LineSource + 'static) -> Self {
        Self::build("LCP+Align", BinSet::aligned4(), world)
    }

    fn build(name: &'static str, bins: BinSet, world: impl LineSource + 'static) -> Self {
        Self::build_boxed(name, bins, Box::new(world))
    }

    fn build_boxed(name: &'static str, bins: BinSet, world: Box<dyn LineSource>) -> Self {
        let device = Self {
            name,
            bins,
            sizer: LineSizer::new(Codec::bpc()),
            world,
            mem: MainMemory::new(MemConfig::ddr4_2666()),
            mcache: MetadataCache::paper_default(false),
            alloc: BuddyAllocator::new(8 << 30),
            pages: AddrMap::default(),
            prefetch: VecDeque::new(),
            stats: DeviceEvents::new(),
            registry: Registry::new(),
            codec_latency: 12,
            mcache_hit_latency: 2,
            faults: None,
            journal: None,
            committed: HashMap::new(),
            crashed: false,
            dur_events: DurabilityEvents::new(),
        };
        device.register_all_metrics();
        device
    }

    fn register_all_metrics(&self) {
        self.stats.register_metrics(&self.registry, "lcp");
        self.mem.register_metrics(&self.registry, "dram");
        self.mcache.register_metrics(&self.registry, "mcache");
        self.alloc.register_metrics(&self.registry, "alloc");
        if self.journal.is_some() {
            self.dur_events.register_metrics(&self.registry);
        }
    }

    /// Turns on write-ahead journaling of every layout mutation
    /// (DESIGN.md §10). Off by default: the figure runs model the
    /// paper's baseline, which has no durability layer.
    pub fn enable_journaling(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Journal::new());
            self.dur_events.register_metrics(&self.registry);
        }
    }

    /// Attaches a deterministic fault-injection plan (`None` by default;
    /// see [`crate::FaultPlan`]). Corrupted metadata is re-planned
    /// through the OS page-fault path instead of panicking.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Injection counters of the attached fault plan, if any.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// The data world (e.g. to inspect versions in tests).
    pub fn world(&self) -> &dyn LineSource {
        self.world.as_ref()
    }

    /// The stored line sizes of every page that has them, ordered by
    /// page number (see [`crate::device`]).
    pub fn stored_sizes(&self) -> BTreeMap<u64, LineSizes> {
        self.pages
            .iter()
            .filter_map(|(&p, meta)| Some((p, meta.sizes?)))
            .collect()
    }

    fn page_fit(bytes: u32) -> u32 {
        if bytes == 0 {
            return 0;
        }
        for s in [512u32, 1024, 2048, 4096] {
            if bytes <= s {
                return s;
            }
        }
        4096
    }

    fn ensure_page(&mut self, page: u64) {
        if self.pages.contains_key(&page) {
            return;
        }
        let sizes = self.sizer.size_page(self.world.as_ref(), page, &self.stats);
        let zero_lines = sizes.map(|size| size == 0);
        let plan = plan(&sizes.map(usize::from), &self.bins);
        let all_zero = plan.target == 0;
        let page_bytes = Self::page_fit(plan.needed_bytes);
        let base = if page_bytes == 0 {
            0
        } else {
            match alloc_buddy_with_retry(
                &mut self.alloc,
                page_bytes,
                &mut self.faults,
                &mut self.stats,
            ) {
                Ok(b) => b,
                Err(_) => {
                    // Degraded: hold the page as an unmapped all-zero
                    // plan; the first writeback with real data re-plans
                    // it through the OS page-fault path.
                    let zero_plan = plan_for_zero_page(&self.bins);
                    self.pages.insert(
                        page,
                        LcpMeta {
                            plan: zero_plan,
                            page_bytes: 0,
                            base: 0,
                            zero_lines: [true; LINES_PER_PAGE],
                            all_zero: true,
                            sizes: Some(sizes),
                        },
                    );
                    self.commit_lcp(page);
                    return;
                }
            }
        };
        self.pages.insert(
            page,
            LcpMeta {
                plan,
                page_bytes,
                base,
                zero_lines,
                all_zero,
                sizes: Some(sizes),
            },
        );
        self.commit_lcp(page);
    }

    fn metadata_addr(page: u64) -> u64 {
        METADATA_BASE + page * 64
    }

    /// Bursts for `size` bytes at logical `offset` of a page based at
    /// `base` (contiguous variable-sized allocation).
    fn bursts(base: u64, offset: u32, size: u32) -> Vec<u64> {
        if size == 0 {
            return Vec::new();
        }
        let first = offset / 64;
        let last = (offset + size - 1) / 64;
        (first..=last).map(|unit| base + unit as u64 * 64).collect()
    }

    /// Re-plans a page whose exception region overflowed. OS-aware: this
    /// is a page fault.
    fn page_overflow(&mut self, now: u64, page: u64) -> u64 {
        self.stats.page_overflows += 1;
        self.replan_page(now, page, false)
    }

    /// The OS re-plan itself: recompute the LCP layout from current line
    /// sizes and move the page to a fresh allocation. A refused
    /// allocation keeps the old plan (degraded), charging only the trap.
    /// `fault` routes the movement traffic to
    /// [`DeviceStats::fault_extra`] (corruption recovery) instead of
    /// `overflow_extra`.
    fn replan_page(&mut self, now: u64, page: u64, fault: bool) -> u64 {
        let meta = self.pages.get_mut(&page).expect("page exists");
        let sizes = self
            .sizer
            .stored(&mut meta.sizes, self.world.as_ref(), page, &self.stats);
        let new_plan = plan(&sizes.map(usize::from), &self.bins);
        let new_bytes = Self::page_fit(new_plan.needed_bytes);
        // Allocate the new frame before freeing the old one, so a refused
        // allocation leaves the page's layout intact.
        let new_base = if new_bytes == 0 {
            0
        } else {
            match alloc_buddy_with_retry(
                &mut self.alloc,
                new_bytes,
                &mut self.faults,
                &mut self.stats,
            ) {
                Ok(b) => b,
                Err(_) => return now + OS_PAGE_FAULT_CYCLES,
            }
        };
        let meta = self.pages.get(&page).expect("page exists");
        let moves = meta.plan.needed_bytes.div_ceil(64) + new_plan.needed_bytes.div_ceil(64);
        let mut t = now;
        for i in 0..moves {
            let addr = page * PAGE_BYTES as u64 + (i as u64 % 64) * 64;
            let r = if i % 2 == 0 {
                self.mem.read(t, addr)
            } else {
                self.mem.write(t, addr)
            };
            t = t.max(r.complete_at);
        }
        if fault {
            self.stats.fault_extra += moves as u64;
        } else {
            self.stats.overflow_extra += moves as u64;
        }
        let old_bytes = meta.page_bytes;
        let old_base = meta.base;
        if old_bytes > 0 {
            self.alloc.free(old_base, old_bytes);
        }
        let meta = self.pages.get_mut(&page).expect("page exists");
        meta.plan = new_plan;
        meta.page_bytes = new_bytes;
        meta.base = new_base;
        meta.all_zero = new_bytes == 0;
        meta.zero_lines = sizes.map(|size| size == 0);
        self.commit_lcp(page);
        // The OS trap dominates the latency of an OS-aware overflow.
        t + OS_PAGE_FAULT_CYCLES
    }

    /// Fault hook on a metadata-cache miss: the OS keeps the
    /// authoritative layout, so any injected corruption of the fetched
    /// entry is detected and recovered by re-planning the page through
    /// the page-fault path.
    fn maybe_corrupt_metadata(&mut self, now: u64, page: u64) -> u64 {
        if self
            .faults
            .as_mut()
            .and_then(|f| f.metadata_fetch_fault())
            .is_none()
        {
            return now;
        }
        self.stats.injected_faults += 1;
        self.stats.corruption_detected += 1;
        self.stats.corruption_fallbacks += 1;
        self.replan_page(now, page, true)
    }

    /// Fault hook: a forced eviction storm flushes extra LRU metadata
    /// entries (dirty ones cost a DRAM write, as on a normal eviction).
    fn drain_eviction_storm(&mut self, t: u64) {
        if let Some(n) = self.faults.as_mut().and_then(|f| f.eviction_storm()) {
            self.stats.injected_faults += 1;
            self.stats.eviction_storms += 1;
            for (victim, dirty) in self.mcache.evict_up_to(n) {
                if dirty {
                    self.mem.write(t, Self::metadata_addr(victim));
                    self.stats.metadata_accesses += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Crash-consistency layer (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Appends records in order, freezing the device if an armed crash
    /// tears one of them.
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

    /// Journals the page's new committed layout: the frame delta against
    /// the last committed view, then the serialized plan as the commit
    /// point.
    fn commit_lcp(&mut self, page: u64) {
        if self.journal.is_none() || self.crashed {
            return;
        }
        let Some(meta) = self.pages.get(&page) else {
            return;
        };
        let image = lcp_image_of(meta);
        let new_blocks: Vec<(u64, u32)> = if meta.page_bytes > 0 {
            vec![(meta.base, meta.page_bytes)]
        } else {
            Vec::new()
        };
        let old_blocks = self.committed.get(&page).cloned().unwrap_or_default();
        let mut recs = Vec::new();
        for &(addr, bytes) in old_blocks.iter().filter(|b| !new_blocks.contains(b)) {
            recs.push(JournalRecord::ChunkFree { page, addr, bytes });
        }
        for &(addr, bytes) in new_blocks.iter().filter(|b| !old_blocks.contains(b)) {
            recs.push(JournalRecord::ChunkAlloc { page, addr, bytes });
        }
        recs.push(JournalRecord::LcpEntryUpdate { page, image });
        self.append_all(&recs);
        if self.crashed {
            return;
        }
        self.dur_events.journal_commits += 1;
        self.committed.insert(page, new_blocks);
    }

    /// Raw bytes of the write-ahead journal, if journaling is enabled.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.journal.as_ref().map(|j| j.bytes())
    }

    /// Whether an armed crash fired (the device is frozen; recover from
    /// [`Self::journal_bytes`]).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Cold-boot recovery of the plain-LCP baseline from its journal.
    pub fn recover_lcp(world: Box<dyn LineSource>, journal_bytes: &[u8]) -> (Self, RecoveryReport) {
        Self::recover_build("LCP", BinSet::legacy4(), world, journal_bytes)
    }

    /// Cold-boot recovery of the LCP+Align baseline from its journal.
    pub fn recover_lcp_align(
        world: Box<dyn LineSource>,
        journal_bytes: &[u8],
    ) -> (Self, RecoveryReport) {
        Self::recover_build("LCP+Align", BinSet::aligned4(), world, journal_bytes)
    }

    /// As `CompressoDevice::recover`: replay the surviving journal
    /// through the shadow semantics, rebuild pages and the buddy
    /// allocator, verify layout invariants, write a compacted
    /// checkpoint. No scrubber: the OS keeps the authoritative layout,
    /// so the journal is the single durable source.
    fn recover_build(
        name: &'static str,
        bins: BinSet,
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
        let mut device = Self::build_boxed(name, bins, world);
        device.journal = Some(Journal::new());

        let mut owned_blocks: Vec<(u64, u32)> = Vec::new();
        for (&page, image) in shadow.pages() {
            let PageImage::Lcp(img) = image else {
                report
                    .violations
                    .push(format!("page {page}: non-LCP record in journal"));
                continue;
            };
            let blocks = shadow.blocks_of(page);
            let owned: u32 = blocks.iter().map(|&(_, b)| b).sum();
            if owned != img.page_bytes {
                report.violations.push(format!(
                    "page {page}: plan claims {} B but journal grants {owned} B",
                    img.page_bytes
                ));
            }
            if blocks.len() > 1 {
                report.violations.push(format!(
                    "page {page}: {} blocks owned under LCP allocation",
                    blocks.len()
                ));
            }
            if let Some(&(addr, _)) = blocks.first() {
                if addr != img.base {
                    report.violations.push(format!(
                        "page {page}: plan base {:#x} but journal grants {addr:#x}",
                        img.base
                    ));
                }
            }
            let mut zero_lines = [false; LINES_PER_PAGE];
            for (line, z) in zero_lines.iter_mut().enumerate() {
                *z = img.zero_bitmap >> line & 1 != 0;
            }
            device.pages.insert(
                page,
                LcpMeta {
                    plan: LcpPlan {
                        target: img.target,
                        exceptions: img.exceptions.clone(),
                        needed_bytes: img.needed_bytes,
                    },
                    page_bytes: img.page_bytes,
                    base: img.base,
                    zero_lines,
                    all_zero: img.all_zero,
                    sizes: None,
                },
            );
            device.committed.insert(page, blocks.clone());
            owned_blocks.extend(blocks);
        }
        device.alloc = BuddyAllocator::rebuild(8 << 30, &owned_blocks);
        device.registry = Registry::new();
        device.register_all_metrics();
        report.pages_rebuilt = device.pages.len();

        // Checkpoint: compacted journal equivalent to the recovered state.
        let mut pages: Vec<u64> = device.pages.keys().copied().collect();
        pages.sort_unstable();
        for page in pages {
            let meta = &device.pages[&page];
            let image = lcp_image_of(meta);
            let mut recs: Vec<JournalRecord> = device.committed[&page]
                .iter()
                .map(|&(addr, bytes)| JournalRecord::ChunkAlloc { page, addr, bytes })
                .collect();
            recs.push(JournalRecord::LcpEntryUpdate { page, image });
            device.append_all(&recs);
            device.dur_events.journal_commits += 1;
        }

        device.dur_events.recovery_replayed += report.replayed as u64;
        device.dur_events.recovery_rolled_back += report.rolled_back as u64;
        device.dur_events.recovery_violations += report.violations.len() as u64;
        (device, report)
    }
}

/// Serializes one page's layout for the journal.
fn lcp_image_of(meta: &LcpMeta) -> LcpImage {
    let mut zero_bitmap = 0u64;
    for (line, &z) in meta.zero_lines.iter().enumerate() {
        zero_bitmap |= (z as u64) << line;
    }
    LcpImage {
        target: meta.plan.target,
        needed_bytes: meta.plan.needed_bytes,
        page_bytes: meta.page_bytes,
        base: meta.base,
        all_zero: meta.all_zero,
        zero_bitmap,
        exceptions: meta.plan.exceptions.clone(),
    }
}

/// The plan of a page holding no data (all lines zero).
fn plan_for_zero_page(bins: &BinSet) -> LcpPlan {
    plan(&[0usize; LINES_PER_PAGE], bins)
}

impl Backend for LcpDevice {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        if self.crashed {
            return now; // frozen: recover from the journal
        }
        self.stats.demand_fills += 1;
        let page = line_addr / PAGE_BYTES as u64;
        let line = ((line_addr % PAGE_BYTES as u64) / 64) as usize;
        self.ensure_page(page);

        // Metadata access, possibly with a parallel speculative data read.
        let access = self.mcache.access(page, false, false);
        let mut t_meta = now;
        let mut miss = false;
        if access.hit {
            self.stats.mcache_hits += 1;
            t_meta += self.mcache_hit_latency;
        } else {
            self.stats.mcache_misses += 1;
            let r = self.mem.read(now, Self::metadata_addr(page));
            self.stats.metadata_accesses += 1;
            t_meta = r.complete_at;
            // The entry just crossed the DRAM bus: injected corruption
            // lands here (and may re-plan the page before we read it).
            t_meta = self.maybe_corrupt_metadata(t_meta, page);
            miss = true;
        }
        for (victim, dirty) in access.evicted {
            if dirty {
                self.mem.write(t_meta, Self::metadata_addr(victim));
                self.stats.metadata_accesses += 1;
            }
        }
        self.drain_eviction_storm(t_meta);

        let meta = self.pages.get(&page).expect("ensured");
        let is_exception = meta.plan.exceptions.contains(&(line as u8));
        let zero = meta.all_zero || meta.zero_lines[line];
        let target = meta.plan.target;
        let base = meta.base;
        let location = meta.plan.offset_of(line);
        let speculated = miss && !zero && target > 0;

        if zero {
            self.stats.zero_fills += 1;
            return t_meta;
        }
        let Some((offset, size)) = location else {
            self.stats.zero_fills += 1;
            return t_meta;
        };

        // Speculative access: issued at `now` assuming the non-exception
        // slot; correct unless the line is an exception.
        let mut done = t_meta;
        if speculated {
            let spec_bursts = Self::bursts(base, line as u32 * target, target);
            let mut spec_done = now;
            for (i, &addr) in spec_bursts.iter().enumerate() {
                let r = self.mem.read(now, addr);
                spec_done = spec_done.max(r.complete_at);
                if i == 0 {
                    self.stats.data_accesses += 1;
                } else {
                    self.stats.split_access_extra += 1;
                }
            }
            if !is_exception {
                // Speculation correct: data and metadata overlap.
                done = done.max(spec_done);
                if size < 64 {
                    done += self.codec_latency;
                }
                return done;
            }
            // Wasted speculation: the real (exception) access follows.
            self.stats.overflow_extra += spec_bursts.len() as u64;
        }

        if bursts_hit_prefetch(&self.prefetch, page, offset, size) {
            self.stats.prefetch_hits += 1;
            return done + if size < 64 { self.codec_latency } else { 0 };
        }
        for (i, &addr) in Self::bursts(base, offset, size).iter().enumerate() {
            let r = self.mem.read(done, addr);
            done = done.max(r.complete_at);
            if i == 0 {
                self.stats.data_accesses += 1;
            } else {
                self.stats.split_access_extra += 1;
            }
        }
        if size < 64 {
            let first = offset / 64;
            let last = (offset + size - 1) / 64;
            for unit in first..=last {
                if self.prefetch.len() >= PREFETCH_BUFFER {
                    self.prefetch.pop_front();
                }
                self.prefetch.push_back((page, unit));
            }
            done += self.codec_latency;
        }
        done
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        if self.crashed {
            return now; // frozen: recover from the journal
        }
        self.stats.demand_writebacks += 1;
        let page = line_addr / PAGE_BYTES as u64;
        let line = ((line_addr % PAGE_BYTES as u64) / 64) as usize;
        self.ensure_page(page);
        self.prefetch.retain(|&(p, _)| p != page);

        let access = self.mcache.access(page, false, true);
        let mut t = now;
        if access.hit {
            self.stats.mcache_hits += 1;
            t += self.mcache_hit_latency;
        } else {
            self.stats.mcache_misses += 1;
            let r = self.mem.read(now, Self::metadata_addr(page));
            self.stats.metadata_accesses += 1;
            t = r.complete_at;
            t = self.maybe_corrupt_metadata(t, page);
        }
        for (victim, dirty) in access.evicted {
            if dirty {
                self.mem.write(t, Self::metadata_addr(victim));
                self.stats.metadata_accesses += 1;
            }
        }
        self.drain_eviction_storm(t);

        self.world.on_writeback(line_addr);
        let meta = self.pages.get_mut(&page).expect("ensured");
        let new_size =
            self.sizer
                .resize_line(&mut meta.sizes, self.world.as_ref(), line_addr, &self.stats);

        if new_size == 0 {
            meta.zero_lines[line] = true;
            self.stats.zero_writebacks += 1;
            self.commit_lcp(page);
            return t;
        }
        meta.zero_lines[line] = false;

        if meta.all_zero {
            // First data into an all-zero page: plan it as a page of one
            // line (OS-aware: this too traps, but the common path in the
            // paper's model charges it as an overflow re-plan).
            return self.page_overflow(t, page);
        }

        let target = meta.plan.target;
        let is_exception = meta.plan.exceptions.contains(&(line as u8));
        if is_exception || new_size as u32 <= target {
            let (offset, size) = meta.plan.offset_of(line).expect("nonzero target");
            let base = meta.base;
            let write_size = if is_exception {
                64
            } else {
                size.min(new_size as u32).max(1)
            };
            for (i, &addr) in Self::bursts(base, offset, write_size).iter().enumerate() {
                self.mem.write(t, addr);
                if i == 0 {
                    self.stats.data_accesses += 1;
                } else {
                    self.stats.split_access_extra += 1;
                }
            }
            if (new_size as u32) < target && !is_exception {
                self.stats.line_underflows += 1;
            }
            self.commit_lcp(page);
            return t;
        }

        // Overflow: try a fresh exception slot.
        self.stats.line_overflows += 1;
        let capacity = (meta.page_bytes.saturating_sub(meta.plan.data_region())) / 64;
        if (meta.plan.exceptions.len() as u32) < capacity {
            meta.plan.exceptions.push(line as u8);
            let (offset, _) = meta.plan.offset_of(line).expect("nonzero target");
            let base = meta.base;
            for &addr in &Self::bursts(base, offset, 64) {
                self.mem.write(t, addr);
            }
            self.stats.data_accesses += 1;
            self.stats.ir_placements += 1;
            self.commit_lcp(page);
            return t;
        }
        // Exception region full: OS-visible page overflow.
        let done = self.page_overflow(t, page);
        let meta = self.pages.get(&page).expect("page exists");
        if let Some((offset, size)) = meta.plan.offset_of(line) {
            let base = meta.base;
            for (i, &addr) in Self::bursts(base, offset, size).iter().enumerate() {
                self.mem.write(done, addr);
                if i == 0 {
                    self.stats.data_accesses += 1;
                } else {
                    self.stats.split_access_extra += 1;
                }
            }
        }
        done
    }
}

fn bursts_hit_prefetch(buffer: &VecDeque<(u64, u32)>, page: u64, offset: u32, size: u32) -> bool {
    if size == 0 || size >= 64 {
        return false;
    }
    let first = offset / 64;
    let last = (offset + size - 1) / 64;
    (first..=last).all(|u| buffer.contains(&(page, u)))
}

impl MemoryDevice for LcpDevice {
    fn device_name(&self) -> &'static str {
        self.name
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
        self.alloc.used_bytes() + self.pages.len() as u64 * 64
    }

    fn touched_ospa_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_BYTES as u64
    }
}
