//! The memory-controller steps Compresso and the LCP baselines share.
//!
//! The paper's LCP baseline (§VI-F) is built on Compresso's own
//! controller parts: the same BPC, the same-size metadata cache, the same
//! DRAM channel. [`Controller`] holds that common state (data world,
//! DRAM, metadata cache, event counters and metrics registry,
//! free-prefetch buffer, the fault owner and the optional durability
//! owner) and makes each shared decision once:
//!
//! * line sizing ([`Controller::size_page`],
//!   [`Controller::stored_sizes`], [`Controller::resize_line`]): the
//!   modified-BPC size kernel and the stored per-page sizes it fills
//!   (see [`crate::device`]);
//! * the metadata lookup ([`metadata_lookup`]): hit latency, the miss
//!   read at [`METADATA_BASE`]` + page * 64` and dirty-victim writeback;
//! * burst issue and accounting ([`Controller::read_bursts`],
//!   [`Controller::write_bursts`]): a line's first burst is its demand
//!   access, later ones are split-access extras;
//! * the 16-entry free-prefetch buffer: record, lookup, invalidate;
//! * page-move traffic ([`Controller::move_page`]);
//! * the [`MemoryDevice`](crate::MemoryDevice) capacity accounting.
//!
//! Two test harnesses the paper does not have live apart, each behind one
//! owner: fault injection in [`crate::faultkit`] (every draw from the
//! plan, and its count), and the opt-in crash-consistency layer in
//! [`crate::durability`], reached through one call per state change.
//!
//! What differs stays in the devices: Compresso's LinePack layout,
//! predictor, inflation room, repacking and corruption fallback; LCP's
//! plan and exception layout, speculative reads and OS-trap re-plan. So
//! do two timing differences, kept as they are: a line straddling two
//! bursts is read in parallel by Compresso and serially by LCP, and
//! Compresso's prefetch buffer serves only single-burst lines while LCP's
//! serves any compressed line whose bursts are all buffered.

use crate::device::LineSizes;
use crate::durability::Durability;
use crate::faultkit::{Faults, MetadataFault};
use crate::mcache::MetadataCache;
use crate::metadata::{LINES_PER_PAGE, PAGE_BYTES};
use crate::stats::DeviceEvents;
use compresso_compression::{Bpc, Compressor, Line, LINE_SIZE};
use compresso_mem_sim::{MainMemory, MemConfig};
use compresso_telemetry::Registry;
use compresso_workloads::LineSource;
use std::collections::VecDeque;
use std::ops::Range;

/// MPA region where metadata entries live (outside the chunk space).
pub const METADATA_BASE: u64 = 1 << 40;
/// Latency of the modified-BPC compression/decompression unit in core
/// cycles (Tab. III: 8 cycles DDR4 buffering + 2 cycles for 17 bit-planes
/// + 2 cycles concatenation).
pub const CODEC_LATENCY: u64 = 12;
/// Metadata-cache hit latency in cycles.
pub const MCACHE_HIT_LATENCY: u64 = 2;
/// Extra cycle for the LinePack offset-calculation circuit (§VII-E).
pub const OFFSET_CALC_LATENCY: u64 = 1;
/// Free-prefetch buffer depth (compressed 64 B bursts kept by the
/// controller; a fill whose bytes are already buffered needs no DRAM).
const PREFETCH_BUFFER: usize = 16;

/// The logical 64 B units covering `size` bytes at logical `offset` of a
/// page (empty for `size == 0`).
pub(crate) fn units(offset: u32, size: u32) -> Range<u32> {
    let first = offset / 64;
    if size == 0 {
        first..first
    } else {
        first..(offset + size - 1) / 64 + 1
    }
}

/// MPA bytes in use by a device with `data` bytes allocated to `pages`
/// touched pages: the data plus one 64 B metadata entry per page.
pub(crate) fn mpa_used_bytes(data: u64, pages: usize) -> u64 {
    data + pages as u64 * 64
}

/// OSPA bytes of `pages` touched pages.
pub(crate) fn touched_ospa_bytes(pages: usize) -> u64 {
    pages as u64 * PAGE_BYTES as u64
}

/// A line's compressed size in bytes under modified BPC, 0 for an
/// all-zero line. BPC's zero mode, its 2-bit header alone, is the only
/// 1-byte encoding (any other spends at least 12 bits), so the kernel's
/// own zero check tells the zero lines apart.
fn stored_size(data: &Line) -> u8 {
    match Bpc::new().compressed_size(data) {
        1 => 0,
        size => size as u8,
    }
}

/// The controller state both compressed devices keep (see the
/// [module documentation](self)).
pub(crate) struct Controller {
    pub world: Box<dyn LineSource>,
    pub mem: MainMemory,
    pub mcache: MetadataCache,
    pub stats: DeviceEvents,
    pub registry: Registry,
    pub faults: Faults,
    prefetch: VecDeque<(u64, u32)>,
    /// The crash-consistency layer; `Some` iff journaling is on.
    pub durability: Option<Durability>,
}

impl Controller {
    /// A controller over `world`, on the paper's DDR4-2666 channel and
    /// 96 KB metadata cache, not journaling.
    pub fn new(world: Box<dyn LineSource>, half_entries: bool) -> Self {
        Self {
            world,
            mem: MainMemory::new(MemConfig::ddr4_2666()),
            mcache: MetadataCache::new(96 * 1024, half_entries),
            stats: DeviceEvents::default(),
            registry: Registry::new(),
            faults: Faults::default(),
            prefetch: VecDeque::new(),
            durability: None,
        }
    }

    /// Registers the shared subsystems' metrics: device events under
    /// `prefix`, then `dram.*`, `mcache.*` and, when journaling, the
    /// durability counters (DESIGN.md §9).
    pub fn register_metrics(&self, prefix: &str) {
        self.stats.register_metrics(&self.registry, prefix);
        self.mem.register_metrics(&self.registry, "dram");
        self.mcache.register_metrics(&self.registry, "mcache");
        if let Some(d) = &self.durability {
            d.events.register_metrics(&self.registry, "");
        }
    }

    // ------------------------------------------------------------------
    // Line sizing (see `crate::device`)
    // ------------------------------------------------------------------

    /// Runs the size kernel, modified BPC (Tab. III), on the current
    /// bytes of the line at `line_addr`. Counted as one kernel run.
    fn size_line(&self, line_addr: u64) -> u8 {
        self.stats.size_calls.add(1);
        self.stats.size_memo_misses.add(1);
        stored_size(&self.world.line_data(line_addr))
    }

    /// Runs the size kernel on every line of `page`, synthesizing the
    /// page's bytes in one pass. Counted as 64 kernel runs.
    pub fn size_page(&self, page: u64) -> LineSizes {
        self.stats.size_calls.add(LINES_PER_PAGE as u64);
        self.stats.size_memo_misses.add(LINES_PER_PAGE as u64);
        let mut lines = [[0; LINE_SIZE]; LINES_PER_PAGE];
        self.world.page_lines(page * PAGE_BYTES as u64, &mut lines);
        let mut sizes = [0; LINES_PER_PAGE];
        for (size, data) in sizes.iter_mut().zip(&lines) {
            *size = stored_size(data);
        }
        sizes
    }

    /// The sizes of `page`'s lines, served from `stored`; a page without
    /// stored sizes (recovered, not yet needed) is sized now.
    pub fn stored_sizes(&self, stored: &mut Option<LineSizes>, page: u64) -> LineSizes {
        if let Some(sizes) = stored {
            self.stats.size_calls.add(LINES_PER_PAGE as u64);
            self.stats.size_memo_hits.add(LINES_PER_PAGE as u64);
            return *sizes;
        }
        *stored.insert(self.size_page(page))
    }

    /// Re-sizes the line at `line_addr` after its writeback, updating
    /// its page's `stored` sizes, and returns its new size.
    pub fn resize_line(&self, stored: &mut Option<LineSizes>, line_addr: u64) -> u8 {
        let page = line_addr / PAGE_BYTES as u64;
        let line = ((line_addr % PAGE_BYTES as u64) / 64) as usize;
        match stored {
            Some(sizes) => {
                sizes[line] = self.size_line(line_addr);
                sizes[line]
            }
            None => stored.insert(self.size_page(page))[line],
        }
    }

    // ------------------------------------------------------------------
    // DRAM bursts and page moves
    // ------------------------------------------------------------------

    fn count_burst(&mut self, index: usize) {
        if index == 0 {
            self.stats.data_accesses += 1;
        } else {
            self.stats.split_access_extra += 1;
        }
    }

    /// Reads one line's bursts `addrs`, all issued at `issue` or, when
    /// `serial`, each after the previous completes. Returns when the last
    /// completes (at least `issue`).
    pub fn read_bursts(
        &mut self,
        issue: u64,
        addrs: impl Iterator<Item = u64>,
        serial: bool,
    ) -> u64 {
        let mut done = issue;
        for (i, addr) in addrs.enumerate() {
            let r = self.mem.read(if serial { done } else { issue }, addr);
            done = done.max(r.complete_at);
            self.count_burst(i);
        }
        done
    }

    /// Writes one line's bursts `addrs`, all issued at `t`. Returns when
    /// the last completes (at least `t`).
    pub fn write_bursts(&mut self, t: u64, addrs: impl Iterator<Item = u64>) -> u64 {
        let mut done = t;
        for (i, addr) in addrs.enumerate() {
            done = done.max(self.mem.write(t, addr).complete_at);
            self.count_burst(i);
        }
        done
    }

    /// Moves a page's data: `moves` bursts alternating read and write over
    /// `page`'s lines, all issued at `now` or, when `serial`, each after
    /// the previous completes. Returns when the last completes. The
    /// caller charges `moves` to the traffic class it belongs to.
    pub fn move_page(&mut self, now: u64, page: u64, moves: u32, serial: bool) -> u64 {
        let mut t = now;
        for i in 0..moves {
            let addr = page * PAGE_BYTES as u64 + (i as u64 % LINES_PER_PAGE as u64) * 64;
            let issue = if serial { t } else { now };
            let r = if i % 2 == 0 {
                self.mem.read(issue, addr)
            } else {
                self.mem.write(issue, addr)
            };
            t = t.max(r.complete_at);
        }
        t
    }

    // ------------------------------------------------------------------
    // Free-prefetch buffer
    // ------------------------------------------------------------------

    /// Whether every burst of the compressed line of `size` bytes at
    /// `offset` of `page` is already buffered (counted as a prefetch
    /// hit). Uncompressed (64 B) and zero lines never are.
    pub fn prefetch_hit(&mut self, page: u64, offset: u32, size: u32) -> bool {
        if size == 0 || size >= 64 {
            return false;
        }
        let hit = units(offset, size).all(|unit| self.prefetch.contains(&(page, unit)));
        if hit {
            self.stats.prefetch_hits += 1;
        }
        hit
    }

    /// Remembers the fetched bursts of a compressed line: neighbouring
    /// compressed lines in them are free prefetches.
    pub fn prefetch_record(&mut self, page: u64, offset: u32, size: u32) {
        if size == 0 || size >= 64 {
            return;
        }
        for unit in units(offset, size) {
            if self.prefetch.len() >= PREFETCH_BUFFER {
                self.prefetch.pop_front();
            }
            self.prefetch.push_back((page, unit));
        }
    }

    /// A store invalidates every buffered burst of its page.
    pub fn prefetch_invalidate(&mut self, page: u64) {
        self.prefetch.retain(|&(p, _)| p != page);
    }
}

/// The device-specific halves of [`metadata_lookup`].
pub(crate) trait MetadataHooks {
    /// The device's shared controller state.
    fn controller(&mut self) -> &mut Controller;

    /// `page`'s entry crossed the DRAM bus, arriving at `t`, and suffered
    /// the injected `fault`. Returns when translation is available.
    fn on_corrupt(&mut self, t: u64, page: u64, fault: MetadataFault) -> u64;

    /// `victim`'s entry left the metadata cache at `t`, after its dirty
    /// writeback.
    fn on_evict(&mut self, _t: u64, _victim: u64) {}
}

/// The metadata access for `page`: a cache hit costs
/// [`MCACHE_HIT_LATENCY`]; a miss reads the entry from DRAM. Evicted dirty
/// entries are written back, and an injected eviction storm flushes extra
/// LRU entries through the same path. Returns the cycle translation is
/// available and whether the lookup missed.
pub(crate) fn metadata_lookup<D: MetadataHooks>(
    device: &mut D,
    now: u64,
    page: u64,
    uncompressed: bool,
    dirty: bool,
) -> (u64, bool) {
    let ctl = device.controller();
    let access = ctl.mcache.access(page, uncompressed, dirty);
    let t = if access.hit {
        ctl.stats.mcache_hits += 1;
        now + MCACHE_HIT_LATENCY
    } else {
        ctl.stats.mcache_misses += 1;
        let r = ctl.mem.read(now, METADATA_BASE + page * 64);
        ctl.stats.metadata_accesses += 1;
        match ctl.faults.fetch(&mut ctl.stats) {
            Some(fault) => device.on_corrupt(r.complete_at, page, fault),
            None => r.complete_at,
        }
    };
    evict(device, t, access.evicted);
    let ctl = device.controller();
    if let Some(n) = ctl.faults.storm(&mut ctl.stats) {
        let victims = ctl.mcache.evict_up_to(n);
        evict(device, t, victims);
    }
    (t, !access.hit)
}

fn evict<D: MetadataHooks>(device: &mut D, t: u64, victims: Vec<(u64, bool)>) {
    for (victim, dirty) in victims {
        let ctl = device.controller();
        if dirty {
            ctl.mem.write(t, METADATA_BASE + victim * 64);
            ctl.stats.metadata_accesses += 1;
        }
        device.on_evict(t, victim);
    }
}
