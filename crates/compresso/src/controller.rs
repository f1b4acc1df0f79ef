//! The memory-controller steps Compresso and the LCP baselines share.
//!
//! The paper's LCP baseline (§VI-F) is built on Compresso's own
//! controller parts: the same BPC, the same-size metadata cache, the same
//! DRAM channel. [`Controller`] holds that common state (data world,
//! DRAM, metadata cache, event counters and metrics registry, fault
//! plan, free-prefetch buffer, write-ahead journal and each page's last
//! commit) and makes each shared decision once:
//!
//! * line sizing ([`Controller::size_page`],
//!   [`Controller::stored_sizes`], [`Controller::resize_line`]): the
//!   modified-BPC size kernel and the stored per-page sizes it fills
//!   (see [`crate::device`]);
//! * the metadata lookup ([`metadata_lookup`]): hit latency, the miss
//!   read at [`METADATA_BASE`]` + page * 64`, dirty-victim writeback and
//!   the injected eviction-storm drain;
//! * burst issue and accounting ([`Controller::read_bursts`],
//!   [`Controller::write_bursts`]): a line's first burst is its demand
//!   access, later ones are split-access extras;
//! * the 16-entry free-prefetch buffer: record, lookup, invalidate;
//! * page-move traffic ([`Controller::move_page`]);
//! * bounded allocation retry ([`Controller::alloc_with_retry`]);
//! * the durability glue (DESIGN.md §10): journal appends, the
//!   ownership-delta commit and the per-page [`Committed`] record it
//!   keeps, the recovery preamble, the ownership rule
//!   ([`check_ownership`]), the compacted checkpoint and the
//!   `recovery.*` counters;
//! * the [`MemoryDevice`](crate::MemoryDevice) capacity accounting.
//!
//! What differs stays in the devices: Compresso's LinePack layout,
//! predictor, inflation room, repacking and scrubber; LCP's plan and
//! exception layout, speculative reads and OS-trap re-plan. So do two
//! timing differences, kept as they are: a line straddling two bursts is
//! read in parallel by Compresso and serially by LCP, and Compresso's
//! prefetch buffer serves only single-burst lines while LCP's serves any
//! compressed line whose bursts are all buffered.

use crate::device::LineSizes;
use crate::error::CompressoError;
use crate::faultkit::FaultPlan;
use crate::journal::{
    self, AppendOutcome, DurabilityEvents, Journal, JournalRecord, RecoveryReport, ShadowModel,
};
use crate::mcache::MetadataCache;
use crate::metadata::{LINES_PER_PAGE, PAGE_BYTES};
use crate::stats::DeviceEvents;
use compresso_compression::{Bpc, Compressor};
use compresso_mem_sim::{MainMemory, MemConfig};
use compresso_telemetry::Registry;
use compresso_workloads::LineSource;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// MPA region where metadata entries live (outside the chunk space).
pub const METADATA_BASE: u64 = 1 << 40;
/// Compression/decompression latency in core cycles (12 for BPC).
pub const CODEC_LATENCY: u64 = 12;
/// Metadata-cache hit latency in cycles.
pub const MCACHE_HIT_LATENCY: u64 = 2;
/// Extra cycle for the LinePack offset-calculation circuit (§VII-E).
pub const OFFSET_CALC_LATENCY: u64 = 1;
/// Free-prefetch buffer depth (compressed 64 B bursts kept by the
/// controller; a fill whose bytes are already buffered needs no DRAM).
const PREFETCH_BUFFER: usize = 16;
/// Bounded backoff: a refused chunk/block allocation is retried this many
/// times before the page degrades (see DESIGN.md, fault model).
const MAX_ALLOC_RETRIES: u32 = 3;

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

/// Touched OSPA bytes over MPA bytes in use (1.0 before any use).
pub(crate) fn compression_ratio(data: u64, pages: usize) -> f64 {
    let used = mpa_used_bytes(data, pages);
    if used == 0 {
        return 1.0;
    }
    touched_ospa_bytes(pages) as f64 / used as f64
}

/// Recovery's ownership rule: a committed entry must imply exactly the
/// blocks the journal granted its page. `implied` comes from the entry
/// (in any order), `granted` from the replayed journal (ascending by
/// address, as [`ShadowModel::blocks_of`] returns them). Returns the
/// violation, naming the page, if they differ.
pub(crate) fn check_ownership(
    page: u64,
    mut implied: Vec<(u64, u32)>,
    granted: &[(u64, u32)],
) -> Option<String> {
    implied.sort_unstable();
    (implied != granted).then(|| {
        format!("page {page}: entry implies blocks {implied:?} but the journal grants {granted:?}")
    })
}

/// What the journal last committed for a page: the MPA blocks it owns
/// and its commit record (the entry image). The scrubber repairs from
/// it and the recovery checkpoint re-appends it.
pub(crate) struct Committed {
    pub blocks: Vec<(u64, u32)>,
    pub entry: JournalRecord,
}

/// The controller state both compressed devices keep (see the
/// [module documentation](self)).
pub(crate) struct Controller {
    pub world: Box<dyn LineSource>,
    pub mem: MainMemory,
    pub mcache: MetadataCache,
    pub stats: DeviceEvents,
    pub registry: Registry,
    pub faults: Option<FaultPlan>,
    prefetch: VecDeque<(u64, u32)>,
    /// Write-ahead journal; `Some` iff journaling is on.
    pub journal: Option<Journal>,
    /// Each page's last journal commit: the base of the next delta
    /// records, the scrubber's repair source and the checkpoint.
    pub committed: HashMap<u64, Committed>,
    /// Set when an armed crash fired: the journal is frozen and the
    /// device stops mutating state (recovery trusts the journal only).
    pub crashed: bool,
    pub dur_events: DurabilityEvents,
}

impl Controller {
    /// A controller over `world`, on the paper's DDR4-2666 channel and
    /// 96 KB metadata cache.
    pub fn new(world: Box<dyn LineSource>, half_entries: bool, journaling: bool) -> Self {
        Self {
            world,
            mem: MainMemory::new(MemConfig::ddr4_2666()),
            mcache: MetadataCache::paper_default(half_entries),
            stats: DeviceEvents::default(),
            registry: Registry::new(),
            faults: None,
            prefetch: VecDeque::new(),
            journal: journaling.then(Journal::new),
            committed: HashMap::new(),
            crashed: false,
            dur_events: DurabilityEvents::default(),
        }
    }

    /// Registers the shared subsystems' metrics: device events under
    /// `prefix`, then `dram.*`, `mcache.*` and, when journaling, the
    /// durability counters (DESIGN.md §9).
    pub fn register_metrics(&self, prefix: &str) {
        self.stats.register_metrics(&self.registry, prefix);
        self.mem.register_metrics(&self.registry, "dram");
        self.mcache.register_metrics(&self.registry, "mcache");
        if self.journal.is_some() {
            self.dur_events.register_metrics(&self.registry, "");
        }
    }

    // ------------------------------------------------------------------
    // Line sizing (see `crate::device`)
    // ------------------------------------------------------------------

    /// Runs the size kernel, modified BPC (Tab. III), on the current
    /// bytes of the line at `line_addr`: its compressed size in bytes, 0
    /// for an all-zero line. Counted as one kernel run.
    fn size_line(&self, line_addr: u64) -> u8 {
        self.stats.size_calls.add(1);
        self.stats.size_memo_misses.add(1);
        let data = self.world.line_data(line_addr);
        if compresso_compression::is_zero_line(&data) {
            0
        } else {
            Bpc::new().compressed_size(&data) as u8
        }
    }

    /// Runs the size kernel on every line of `page`.
    pub fn size_page(&self, page: u64) -> LineSizes {
        let base = page * PAGE_BYTES as u64;
        std::array::from_fn(|line| self.size_line(base + line as u64 * 64))
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

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// One chunk/block allocation with bounded retry against injected
    /// refusals. A genuine [`OutOfMpaSpace`](CompressoError::OutOfMpaSpace)
    /// from `alloc` fails immediately (retrying cannot clear real
    /// exhaustion; ballooning can).
    pub fn alloc_with_retry<T>(
        &mut self,
        alloc: impl FnOnce() -> Result<T, CompressoError>,
    ) -> Result<T, CompressoError> {
        let mut retries = 0;
        while self.faults.as_mut().is_some_and(|f| f.alloc_refused()) {
            self.stats.injected_faults += 1;
            if retries == MAX_ALLOC_RETRIES {
                self.stats.alloc_failures += 1;
                return Err(CompressoError::OutOfMpaSpace);
            }
            retries += 1;
            self.stats.alloc_retries += 1;
        }
        alloc().inspect_err(|&e| {
            if e == CompressoError::OutOfMpaSpace {
                self.stats.alloc_failures += 1;
            }
        })
    }

    // ------------------------------------------------------------------
    // Durability glue (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Whether layout mutations are journaled now: journaling is on and
    /// no armed crash has frozen the device.
    pub fn journaling(&self) -> bool {
        self.journal.is_some() && !self.crashed
    }

    /// Appends records in order, stopping (and freezing the device) if
    /// an armed crash tears one of them.
    pub fn append_all(&mut self, recs: &[JournalRecord]) {
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

    /// Journals `page`'s new committed state: `ChunkFree`/`ChunkAlloc`
    /// deltas from the last committed ownership to `blocks`, then `entry`
    /// as the commit point, and records both as the page's [`Committed`]
    /// state. Returns whether the commit landed (an armed crash may tear
    /// it).
    pub fn commit(&mut self, page: u64, blocks: Vec<(u64, u32)>, entry: JournalRecord) -> bool {
        let old = self.committed.get(&page).map_or(&[][..], |c| &c.blocks);
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
        recs.push(entry);
        self.append_all(&recs);
        if self.crashed {
            return false;
        }
        self.dur_events.journal_commits += 1;
        let entry = recs.pop().expect("the commit record");
        self.committed.insert(page, Committed { blocks, entry });
        true
    }

    /// The recovery preamble: parses the surviving journal bytes and
    /// replays them through the [`ShadowModel`] semantics (torn tail
    /// discarded, uncommitted deltas and open repack transactions rolled
    /// back). Returns the records, the committed shadow state and the
    /// report so far.
    pub fn replay(journal_bytes: &[u8]) -> (Vec<JournalRecord>, ShadowModel, RecoveryReport) {
        let (records, parse_report) = journal::parse(journal_bytes);
        let (shadow, rolled_back) = ShadowModel::replay(&records);
        let report = RecoveryReport {
            replayed: shadow.replayed(),
            discarded_bytes: parse_report.discarded_bytes,
            torn: parse_report.torn,
            rolled_back,
            violations: shadow.violations().to_vec(),
            ..Default::default()
        };
        (records, shadow, report)
    }

    /// Finishes a cold-boot recovery: writes a fresh compacted journal
    /// equivalent to the recovered [`Committed`] state, page by page, so
    /// the next crash replays from here; then adds `report` to the
    /// `recovery.*` counters.
    pub fn checkpoint(&mut self, report: &RecoveryReport) {
        let mut pages: Vec<u64> = self.committed.keys().copied().collect();
        pages.sort_unstable();
        for page in pages {
            let committed = &self.committed[&page];
            let mut recs: Vec<JournalRecord> = committed
                .blocks
                .iter()
                .map(|&(addr, bytes)| JournalRecord::ChunkAlloc { page, addr, bytes })
                .collect();
            recs.push(committed.entry.clone());
            self.append_all(&recs);
            self.dur_events.journal_commits += 1;
        }
        self.dur_events.recovery_replayed += report.replayed as u64;
        self.dur_events.recovery_rolled_back += report.rolled_back as u64;
        self.dur_events.recovery_violations += report.violations.len() as u64;
        self.dur_events.recovery_prewarmed += report.prewarmed as u64;
    }
}

/// The device-specific halves of [`metadata_lookup`].
pub(crate) trait MetadataHooks {
    /// The device's shared controller state.
    fn controller(&mut self) -> &mut Controller;

    /// `page`'s entry just crossed the DRAM bus, arriving at `t`: where
    /// an injected corruption lands. Returns when translation is
    /// available.
    fn on_fetch(&mut self, t: u64, page: u64) -> u64;

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
        device.on_fetch(r.complete_at, page)
    };
    evict(device, t, access.evicted);
    let ctl = device.controller();
    if let Some(n) = ctl.faults.as_mut().and_then(|f| f.eviction_storm()) {
        ctl.stats.injected_faults += 1;
        ctl.stats.eviction_storms += 1;
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
