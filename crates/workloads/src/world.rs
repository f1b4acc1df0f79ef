//! The data world: what every OSPA line currently contains.
//!
//! The simulator never stores line bytes. Instead [`DataWorld`] assigns
//! each page a composition (from the benchmark profile) and an
//! [`Evolution`], tracks per-line write versions, and re-materializes
//! bytes on demand. The compressed-memory devices call
//! [`DataWorld::on_writeback`] when a dirty line reaches memory, which is
//! when data (and hence compressibility) changes.

use crate::addr_map::AddrMap;
use crate::data::{materialize, mix64, DataClass};
use crate::profile::{BenchmarkProfile, Evolution, PageSpec};
use compresso_compression::{Line, LINE_SIZE};

/// Number of bytes in an OSPA page.
pub const PAGE_BYTES: u64 = 4096;
/// Cache lines per page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / 64;

#[derive(Debug, Clone, Copy)]
struct PageState {
    spec: PageSpec,
    evolution: Evolution,
    /// Set at the page's first writeback: until then every line of the
    /// page is at version 0 and has no `versions` entry.
    written: bool,
}

// The written mark sits in the padding after `spec` and `evolution`.
const _: () = assert!(std::mem::size_of::<PageState>() == 8);

/// Deterministic content model for one benchmark's address space.
#[derive(Debug, Clone)]
pub struct DataWorld {
    seed: u64,
    pages: Vec<PageState>,
    /// Per-line write version (only lines ever written appear here).
    versions: AddrMap<u32>,
    writebacks: u64,
}

impl DataWorld {
    /// Builds the world for `profile`, deterministically from its seed.
    pub fn new(profile: &BenchmarkProfile) -> Self {
        let total_weight: u64 = profile.page_mix.iter().map(|s| s.weight as u64).sum();
        assert!(total_weight > 0, "page mix must have weight");
        let mut pages = Vec::with_capacity(profile.footprint_pages);
        for p in 0..profile.footprint_pages as u64 {
            let h = mix64(profile.seed ^ mix64(p));
            // Weighted pick of the page composition.
            let mut ticket = h % total_weight;
            let mut spec = profile.page_mix[0];
            for s in profile.page_mix {
                if ticket < s.weight as u64 {
                    spec = *s;
                    break;
                }
                ticket -= s.weight as u64;
            }
            // Independent draw for evolution.
            let e = (mix64(h ^ 0xE0E0) % 10_000) as f64 / 10_000.0;
            let evolution = if e < profile.degrading_fraction {
                Evolution::Degrading
            } else if e < profile.degrading_fraction + profile.improving_fraction {
                Evolution::Improving
            } else {
                Evolution::Stable
            };
            pages.push(PageState {
                spec,
                evolution,
                written: false,
            });
        }
        Self {
            seed: profile.seed,
            pages,
            versions: AddrMap::default(),
            writebacks: 0,
        }
    }

    /// Number of pages in the footprint.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total writebacks absorbed so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    fn page_of(&self, line_addr: u64) -> usize {
        ((line_addr / PAGE_BYTES) as usize) % self.pages.len()
    }

    /// Canonical line index: wraps addresses beyond the footprint so that
    /// aliased addresses see identical content.
    fn line_of(&self, line_addr: u64) -> u64 {
        (line_addr / 64) % (self.pages.len() as u64 * LINES_PER_PAGE)
    }

    /// The evolution class of the page containing `line_addr`.
    pub fn evolution_of(&self, line_addr: u64) -> Evolution {
        self.pages[self.page_of(line_addr)].evolution
    }

    /// The *current* data class of one line, accounting for writes.
    pub fn class_of(&self, line_addr: u64) -> DataClass {
        let line = self.line_of(line_addr);
        self.class_in(self.page_state(line), line, self.version(line))
    }

    /// The state of the page holding canonical line `line`.
    fn page_state(&self, line: u64) -> &PageState {
        &self.pages[(line / LINES_PER_PAGE) as usize]
    }

    /// The data class of canonical line `line`, on `page`, at write
    /// `version`.
    fn class_in(&self, page: &PageState, line: u64, version: u32) -> DataClass {
        match page.evolution {
            // Written lines of a degrading page turn incompressible.
            Evolution::Degrading if version > 0 => DataClass::Random,
            // Repeatedly-written lines of an improving page become highly
            // compressible (e.g. a sparse structure densifying to small
            // deltas).
            Evolution::Improving if version >= 3 => DataClass::DeltaInt,
            // Static composition: secondary_pct% of lines are the
            // secondary class, chosen by a per-line hash (which no line
            // can pass at 0%).
            _ if page.spec.secondary_pct == 0 => page.spec.primary,
            _ => {
                let r = mix64(self.seed ^ mix64(line) ^ 0x51EC) % 100;
                if (r as u8) < page.spec.secondary_pct {
                    page.spec.secondary
                } else {
                    page.spec.primary
                }
            }
        }
    }

    /// The bytes of canonical line `line`, on `page`, at write `version`:
    /// the one synthesis [`DataWorld::line_data`] and
    /// [`DataWorld::page_lines`] share.
    fn synthesize(&self, page: &PageState, line: u64, version: u32) -> Line {
        match self.class_in(page, line, version) {
            DataClass::Zero => [0; LINE_SIZE],
            class => materialize(class, self.seed, line, version),
        }
    }

    /// Write version of canonical line `line`.
    fn version(&self, line: u64) -> u32 {
        self.versions.get(&line).copied().unwrap_or(0)
    }

    /// Current write version of a line.
    pub fn version_of(&self, line_addr: u64) -> u32 {
        self.version(self.line_of(line_addr))
    }

    /// Materializes the current bytes of the line at `line_addr`.
    pub fn line_data(&self, line_addr: u64) -> Line {
        let line = self.line_of(line_addr);
        self.synthesize(self.page_state(line), line, self.version(line))
    }

    /// Materializes the current bytes of the 64 lines of the page-aligned
    /// `page_addr` into `out`, line `i` from `page_addr + 64 i`: the same
    /// bytes as 64 [`DataWorld::line_data`] calls, with the footprint
    /// wrap and the page lookup done once, and no version lookups on a
    /// page none of whose lines has been written.
    pub fn page_lines(&self, page_addr: u64, out: &mut [Line; LINES_PER_PAGE as usize]) {
        debug_assert_eq!(page_addr % PAGE_BYTES, 0, "page_addr must be page-aligned");
        let first = self.line_of(page_addr);
        let page = self.page_state(first);
        for (line, data) in (first..).zip(out.iter_mut()) {
            let version = if page.written { self.version(line) } else { 0 };
            *data = self.synthesize(page, line, version);
        }
    }

    /// Records that a dirty copy of `line_addr` reached memory: the line's
    /// content (and possibly class) changes.
    pub fn on_writeback(&mut self, line_addr: u64) {
        self.writebacks += 1;
        let line = self.line_of(line_addr);
        *self.versions.entry(line).or_insert(0) += 1;
        self.pages[(line / LINES_PER_PAGE) as usize].written = true;
    }

    /// Generation tag for compressed-size caching: changes iff the line's
    /// bytes change.
    pub fn generation(&self, line_addr: u64) -> u64 {
        self.version_of(line_addr) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::benchmark;
    use compresso_compression::is_zero_line;

    #[test]
    fn world_is_deterministic() {
        let p = benchmark("gcc").unwrap();
        let a = DataWorld::new(&p);
        let b = DataWorld::new(&p);
        for line in [0u64, 64, 4096, 123 * 64] {
            assert_eq!(a.line_data(line), b.line_data(line));
            assert_eq!(a.class_of(line), b.class_of(line));
        }
    }

    #[test]
    fn writeback_changes_data() {
        let p = benchmark("gcc").unwrap();
        let mut w = DataWorld::new(&p);
        // Find a non-zero-class line so content actually varies.
        let addr = (0..w.page_count() as u64 * LINES_PER_PAGE)
            .map(|l| l * 64)
            .find(|&a| w.class_of(a) != DataClass::Zero)
            .expect("some non-zero line");
        let before = w.line_data(addr);
        w.on_writeback(addr);
        assert_ne!(w.line_data(addr), before);
        assert_eq!(w.version_of(addr), 1);
        assert_eq!(w.writebacks(), 1);
    }

    #[test]
    fn degrading_pages_turn_random_on_write() {
        let p = benchmark("lbm").unwrap(); // 25% degrading pages
        let mut w = DataWorld::new(&p);
        let addr = (0..w.page_count() as u64)
            .map(|pg| pg * PAGE_BYTES)
            .find(|&a| w.evolution_of(a) == Evolution::Degrading)
            .expect("lbm must have degrading pages");
        w.on_writeback(addr);
        assert_eq!(w.class_of(addr), DataClass::Random);
        // The bytes follow the written class and version.
        assert_eq!(
            w.line_data(addr),
            materialize(DataClass::Random, p.seed, addr / 64, 1)
        );
    }

    #[test]
    fn improving_pages_become_compressible() {
        let p = benchmark("GemsFDTD").unwrap(); // 10% improving
        let mut w = DataWorld::new(&p);
        let addr = (0..w.page_count() as u64)
            .map(|pg| pg * PAGE_BYTES)
            .find(|&a| w.evolution_of(a) == Evolution::Improving)
            .expect("GemsFDTD must have improving pages");
        for _ in 0..3 {
            w.on_writeback(addr);
        }
        assert_eq!(w.class_of(addr), DataClass::DeltaInt);
        assert_eq!(
            w.line_data(addr),
            materialize(DataClass::DeltaInt, p.seed, addr / 64, 3)
        );
    }

    #[test]
    fn zeusmp_has_many_zero_lines() {
        let p = benchmark("zeusmp").unwrap();
        let w = DataWorld::new(&p);
        let sample = 2000u64;
        let zeros = (0..sample)
            .filter(|&l| {
                is_zero_line(&w.line_data(l * 64 * 7 % (p.footprint_pages as u64 * PAGE_BYTES)))
            })
            .count();
        assert!(
            zeros as f64 / sample as f64 > 0.30,
            "zeusmp should be zero-rich, got {zeros}/{sample}"
        );
    }

    #[test]
    fn addresses_wrap_modulo_footprint() {
        let p = benchmark("povray").unwrap();
        let w = DataWorld::new(&p);
        let far = (p.footprint_pages as u64 + 3) * PAGE_BYTES;
        assert_eq!(w.class_of(far), w.class_of(3 * PAGE_BYTES));
    }
}
