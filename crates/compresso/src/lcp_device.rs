//! The competitive LCP baseline device (§VI-F) and its LCP+Align variant.
//!
//! This is the paper's "most competitive baseline based on prior work":
//! OS-aware LCP enhanced with Compresso's modified BPC, an inflation-
//! room-like exception region, and the same-size metadata cache. Being
//! OS-aware, a page overflow raises a page fault to the OS; being LCP, a
//! speculative data access can be issued in parallel with a metadata miss
//! (wrong speculation on exception lines costs an extra access).

use crate::alloc::BuddyAllocator;
use crate::config::PageAllocation;
use crate::controller::{self, metadata_lookup, Controller, MetadataHooks, CODEC_LATENCY};
use crate::device::{LineSizes, MemoryDevice};
use crate::durability::{self, check_ownership, check_page_size, Blocks, Recover};
use crate::error::CompressoError;
use crate::faultkit::{FaultPlan, FaultStats, MetadataFault};
use crate::journal::{PageImage, RecoveryReport};
use crate::lcp::LcpImage;
use crate::metadata::{LINES_PER_PAGE, PAGE_BYTES};
use crate::stats::DeviceStats;
use compresso_cache_sim::Backend;
use compresso_compression::BinSet;
use compresso_mem_sim::MemStats;
use compresso_telemetry::Registry;
use compresso_workloads::{AddrMap, LineSource};
use std::collections::BTreeMap;

/// Cycles charged for an OS page fault on a page overflow (an OS-aware
/// system must trap to remap the page; ~1.7 µs at 3 GHz).
pub const OS_PAGE_FAULT_CYCLES: u64 = 5000;

/// MPA capacity of the LCP devices' buddy allocator.
const MPA_CAPACITY: u64 = 8 << 30;

/// One touched LCP page: its layout, as journaled, plus the stored
/// sizes of its lines (see [`crate::device`]).
#[derive(Debug, Clone)]
struct LcpPage {
    layout: LcpImage,
    /// Not part of the journaled layout; `None` on a recovered page
    /// until first needed.
    sizes: Option<LineSizes>,
}

/// MPA addresses of the 64 B bursts covering `size` bytes at logical
/// `offset` of a page stored contiguously at `base`.
fn bursts(base: u64, offset: u32, size: u32) -> impl ExactSizeIterator<Item = u64> {
    controller::units(offset, size).map(move |unit| base + unit as u64 * 64)
}

/// The LCP / LCP+Align baseline device.
pub struct LcpDevice {
    name: &'static str,
    bins: BinSet,
    ctl: Controller,
    alloc: BuddyAllocator,
    pages: AddrMap<LcpPage>,
}

impl std::fmt::Debug for LcpDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LcpDevice")
            .field("name", &self.name)
            .field("pages", &self.pages.len())
            .finish_non_exhaustive()
    }
}

impl MetadataHooks for LcpDevice {
    fn controller(&mut self) -> &mut Controller {
        &mut self.ctl
    }

    /// The OS keeps the authoritative layout, so any injected corruption
    /// of the fetched entry is detected and recovered by re-planning the
    /// page through the page-fault path.
    fn on_corrupt(&mut self, t: u64, page: u64, _fault: MetadataFault) -> u64 {
        self.ctl.stats.corruption_detected += 1;
        self.ctl.stats.corruption_fallbacks += 1;
        self.replan_page(t, page, true)
    }
}

impl LcpDevice {
    /// The plain LCP baseline: compression-optimal legacy bins
    /// `{0,22,44,64}`.
    pub fn lcp(world: impl LineSource + 'static) -> Self {
        Self::build("LCP", BinSet::legacy4(), Box::new(world))
    }

    /// LCP with Compresso's alignment-friendly line sizes (the
    /// "LCP+Align" system of Fig. 10/11).
    pub fn lcp_align(world: impl LineSource + 'static) -> Self {
        Self::build("LCP+Align", BinSet::aligned4(), Box::new(world))
    }

    fn build(name: &'static str, bins: BinSet, world: Box<dyn LineSource>) -> Self {
        let device = Self {
            name,
            bins,
            // No half-entry optimization.
            ctl: Controller::new(world, false),
            alloc: BuddyAllocator::new(MPA_CAPACITY),
            pages: AddrMap::default(),
        };
        device.register_all_metrics();
        device
    }

    fn register_all_metrics(&self) {
        self.ctl.register_metrics("lcp");
        self.alloc.register_metrics(&self.ctl.registry, "alloc");
    }

    /// Turns on write-ahead journaling of every layout mutation
    /// (DESIGN.md §10). Off by default: the figure runs model the
    /// paper's baseline, which has no durability layer. Unlike Compresso
    /// there is no metadata-region repair: the OS keeps the authoritative
    /// layout, so the journal alone suffices for recovery.
    pub fn enable_journaling(&mut self) {
        self.ctl.enable_journaling(0);
    }

    /// Attaches a deterministic fault-injection plan (`None` by default;
    /// see [`crate::FaultPlan`]). Corrupted metadata is re-planned
    /// through the OS page-fault path instead of panicking.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.ctl.faults.attach(plan);
    }

    /// Injection counters of the attached fault plan, if any.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.ctl.faults.stats()
    }

    /// The data world (e.g. to inspect versions in tests).
    pub fn world(&self) -> &dyn LineSource {
        self.ctl.world.as_ref()
    }

    /// The stored line sizes of every page that has them, ordered by
    /// page number (see [`crate::device`]).
    pub fn stored_sizes(&self) -> BTreeMap<u64, LineSizes> {
        self.pages
            .iter()
            .filter_map(|(&p, entry)| Some((p, entry.sizes?)))
            .collect()
    }

    /// A block of `bytes` (0: none) from the buddy allocator, at base 0
    /// when empty.
    fn alloc_block(&mut self, bytes: u32) -> Result<u64, CompressoError> {
        if bytes == 0 {
            return Ok(0);
        }
        let Controller { faults, stats, .. } = &mut self.ctl;
        faults.alloc_with_retry(stats, || self.alloc.alloc(bytes))
    }

    fn ensure_page(&mut self, page: u64) {
        if self.pages.contains_key(&page) {
            return;
        }
        let sizes = self.ctl.size_page(page);
        let mut layout = LcpImage::new(&sizes, &self.bins);
        match self.alloc_block(layout.page_bytes) {
            Ok(base) => layout.base = base,
            // Degraded: hold the page as an unmapped all-zero plan; the
            // first writeback with real data re-plans it through the OS
            // page-fault path.
            Err(_) => layout = LcpImage::new(&[0; LINES_PER_PAGE], &self.bins),
        }
        let sizes = Some(sizes);
        self.pages.insert(page, LcpPage { layout, sizes });
        self.commit_lcp(page);
    }

    /// Re-plans a page whose exception region overflowed. OS-aware: this
    /// is a page fault.
    fn page_overflow(&mut self, now: u64, page: u64) -> u64 {
        self.ctl.stats.page_overflows += 1;
        self.replan_page(now, page, false)
    }

    /// The OS re-plan itself: recompute the LCP layout from current line
    /// sizes and move the page to a fresh allocation. A refused
    /// allocation keeps the old plan (degraded), charging only the trap.
    /// `fault` routes the movement traffic to
    /// [`DeviceStats::fault_extra`] (corruption recovery) instead of
    /// `overflow_extra`.
    fn replan_page(&mut self, now: u64, page: u64, fault: bool) -> u64 {
        let entry = self.pages.get_mut(&page).expect("page exists");
        let sizes = self.ctl.stored_sizes(&mut entry.sizes, page);
        let mut new = LcpImage::new(&sizes, &self.bins);
        // Allocate the new frame before freeing the old one, so a refused
        // allocation leaves the page's layout intact.
        let Ok(base) = self.alloc_block(new.page_bytes) else {
            return now + OS_PAGE_FAULT_CYCLES;
        };
        new.base = base;
        let old = &self.pages[&page].layout;
        let moves = old.plan.needed_bytes.div_ceil(64) + new.plan.needed_bytes.div_ceil(64);
        let t = self.ctl.move_page(now, page, moves, true);
        if fault {
            self.ctl.stats.fault_extra += moves as u64;
        } else {
            self.ctl.stats.overflow_extra += moves as u64;
        }
        if old.page_bytes > 0 {
            self.alloc.free(old.base, old.page_bytes);
        }
        self.pages.get_mut(&page).expect("page exists").layout = new;
        self.commit_lcp(page);
        // The OS trap dominates the latency of an OS-aware overflow.
        t + OS_PAGE_FAULT_CYCLES
    }

    /// Reports `page`'s new layout to the durability owner.
    fn commit_lcp(&mut self, page: u64) {
        self.ctl.commit(page, || {
            let layout = &self.pages.get(&page)?.layout;
            Some((PageImage::Lcp(layout.clone()), layout.blocks()))
        });
    }

    /// Raw bytes of the write-ahead journal, if journaling is enabled.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.ctl.journal_bytes()
    }

    /// Whether an armed crash fired (the device is frozen; recover from
    /// [`Self::journal_bytes`]).
    pub fn is_crashed(&self) -> bool {
        self.ctl.is_crashed()
    }

    /// Cold-boot recovery of this fresh device from its journal bytes,
    /// journaling on. As [`CompressoDevice::recover`], without a
    /// metadata-cache prewarm: the OS keeps the authoritative layout, so
    /// the journal alone is its recovery source.
    ///
    /// # Panics
    ///
    /// Panics if the device has touched a page.
    ///
    /// [`CompressoDevice::recover`]: crate::CompressoDevice::recover
    pub fn recover(mut self, journal_bytes: &[u8]) -> (Self, RecoveryReport) {
        assert!(self.pages.is_empty(), "recover a freshly built device");
        self.enable_journaling();
        durability::recover(self, MPA_CAPACITY, journal_bytes)
    }
}

impl Recover for LcpDevice {
    fn adopt(
        &mut self,
        page: u64,
        image: &PageImage,
        blocks: &[(u64, u32)],
        violations: &mut Vec<String>,
    ) -> bool {
        let PageImage::Lcp(layout) = image else {
            violations.push(format!("page {page}: non-LCP record in journal"));
            return false;
        };
        let before = violations.len();
        violations.extend(check_ownership(page, layout.blocks(), blocks));
        let allocation = PageAllocation::Variable4;
        violations.extend(check_page_size(page, layout.page_bytes, allocation));
        if violations.len() > before {
            return false;
        }
        let adopted = LcpPage {
            layout: layout.clone(),
            sizes: None,
        };
        self.pages.insert(page, adopted);
        true
    }

    fn rebuild_allocator(&mut self, granted: &[Blocks]) {
        self.alloc = BuddyAllocator::rebuild(MPA_CAPACITY, &granted.concat());
        self.ctl.registry = Registry::new();
        self.register_all_metrics();
    }
}

impl Backend for LcpDevice {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        if !self.ctl.admit(now) {
            return now; // frozen: recover from the journal
        }
        self.ctl.stats.demand_fills += 1;
        let page = line_addr / PAGE_BYTES as u64;
        let line = ((line_addr % PAGE_BYTES as u64) / 64) as usize;
        self.ensure_page(page);

        // Metadata access, possibly with a parallel speculative data read.
        let (t_meta, miss) = metadata_lookup(self, now, page, false, false);

        let meta = &self.pages[&page].layout;
        let target = meta.plan.target;
        let base = meta.base;
        if meta.all_zero() || meta.is_zero_line(line) {
            self.ctl.stats.zero_fills += 1;
            return t_meta;
        }
        let Some((offset, size)) = meta.plan.offset_of(line) else {
            self.ctl.stats.zero_fills += 1;
            return t_meta;
        };

        // Speculative access: issued at `now` assuming the non-exception
        // slot; correct unless the line is an exception.
        if miss && target > 0 {
            let spec = bursts(base, line as u32 * target, target);
            let wasted = spec.len() as u64;
            let spec_done = self.ctl.read_bursts(now, spec, false);
            if !meta.plan.exceptions.contains(&(line as u8)) {
                // Speculation correct: data and metadata overlap.
                let done = t_meta.max(spec_done);
                return if size < 64 {
                    done + CODEC_LATENCY
                } else {
                    done
                };
            }
            // Wasted speculation: the real (exception) access follows.
            self.ctl.stats.overflow_extra += wasted;
        }

        if self.ctl.prefetch_hit(page, offset, size) {
            return t_meta + if size < 64 { CODEC_LATENCY } else { 0 };
        }
        // A line straddling two bursts reads them one after the other.
        let done = self
            .ctl
            .read_bursts(t_meta, bursts(base, offset, size), true);
        if size < 64 {
            self.ctl.prefetch_record(page, offset, size);
            return done + CODEC_LATENCY;
        }
        done
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        if !self.ctl.admit(now) {
            return now; // frozen: recover from the journal
        }
        self.ctl.stats.demand_writebacks += 1;
        let page = line_addr / PAGE_BYTES as u64;
        let line = ((line_addr % PAGE_BYTES as u64) / 64) as usize;
        self.ensure_page(page);
        self.ctl.prefetch_invalidate(page);

        let (t, _) = metadata_lookup(self, now, page, false, true);

        self.ctl.world.on_writeback(line_addr);
        let entry = self.pages.get_mut(&page).expect("ensured");
        let new_size = self.ctl.resize_line(&mut entry.sizes, line_addr) as u32;
        let meta = &mut entry.layout;

        meta.set_zero_line(line, new_size == 0);
        if new_size == 0 {
            self.ctl.stats.zero_writebacks += 1;
            self.commit_lcp(page);
            return t;
        }

        if meta.all_zero() {
            // First data into an all-zero page: plan it as a page of one
            // line (OS-aware: this too traps, but the common path in the
            // paper's model charges it as an overflow re-plan).
            return self.page_overflow(t, page);
        }

        let target = meta.plan.target;
        let is_exception = meta.plan.exceptions.contains(&(line as u8));
        if is_exception || new_size <= target {
            let (offset, size) = meta.plan.offset_of(line).expect("nonzero target");
            let write_size = if is_exception {
                64
            } else {
                size.min(new_size).max(1)
            };
            self.ctl
                .write_bursts(t, bursts(meta.base, offset, write_size));
            if new_size < target && !is_exception {
                self.ctl.stats.line_underflows += 1;
            }
            self.commit_lcp(page);
            return t;
        }

        // Overflow: try a fresh exception slot.
        self.ctl.stats.line_overflows += 1;
        let capacity = (meta.page_bytes.saturating_sub(meta.plan.data_region())) / 64;
        if (meta.plan.exceptions.len() as u32) < capacity {
            meta.plan.exceptions.push(line as u8);
            let (offset, _) = meta.plan.offset_of(line).expect("nonzero target");
            self.ctl.write_bursts(t, bursts(meta.base, offset, 64));
            self.ctl.stats.ir_placements += 1;
            self.commit_lcp(page);
            return t;
        }
        // Exception region full: OS-visible page overflow.
        let done = self.page_overflow(t, page);
        let meta = &self.pages[&page].layout;
        if let Some((offset, size)) = meta.plan.offset_of(line) {
            self.ctl.write_bursts(done, bursts(meta.base, offset, size));
        }
        done
    }
}

impl MemoryDevice for LcpDevice {
    fn device_name(&self) -> &'static str {
        self.name
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
        controller::mpa_used_bytes(self.alloc.used_bytes(), self.pages.len())
    }

    fn touched_ospa_bytes(&self) -> u64 {
        controller::touched_ospa_bytes(self.pages.len())
    }
}
