//! The metadata cache (§III, §IV-B5).
//!
//! A 96 KB, 8-way cache of 64 B metadata entries sits in the memory
//! controller so the common case of OSPA→MPA translation does not touch
//! DRAM. The half-entry optimization exploits the fact that an
//! *uncompressed* page's lines are all exactly 64 B, so only the first
//! 32 B of its metadata (control + MPFNs) need caching — doubling the
//! effective capacity for incompressible data (omnetpp, Forestfire,
//! Pagerank, Graph500 in Fig. 6).

use crate::error::CompressoError;
use compresso_telemetry::{counters, Registry};

/// Result of a metadata-cache access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McAccess {
    /// Whether the entry was present.
    pub hit: bool,
    /// Pages whose entries were evicted to make room. Dirty entries cost
    /// a DRAM write; every eviction is also Compresso's repacking
    /// trigger (§IV-B4).
    pub evicted: Vec<(u64, bool)>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    bytes: u32,
    dirty: bool,
    used: u64,
}

counters! {
    /// Metadata-cache statistics.
    pub struct McStats;
    /// Live counter handles behind [`McStats`].
    struct McEvents {
        /// Hits.
        hits => "hit.total",
        /// Misses.
        misses => "miss.total",
        /// Evictions (capacity).
        evictions => "eviction.total",
    }
}

/// A set-associative metadata cache with byte-budgeted sets.
#[derive(Debug, Clone)]
pub struct MetadataCache {
    sets: Vec<Vec<Slot>>,
    set_budget: u32,
    half_entries: bool,
    stamp: u64,
    stats: McEvents,
}

impl MetadataCache {
    /// Creates a cache of `capacity_bytes` with 8-way-equivalent sets of
    /// full 64 B entries. `half_entries` enables the §IV-B5 optimization.
    ///
    /// # Errors
    ///
    /// Returns [`CompressoError::InvalidCacheGeometry`] if the capacity
    /// does not yield a power-of-two set count.
    pub fn new(capacity_bytes: u64, half_entries: bool) -> Result<Self, CompressoError> {
        let set_budget = 8 * 64u32;
        let sets = capacity_bytes / set_budget as u64;
        if !sets.is_power_of_two() {
            return Err(CompressoError::InvalidCacheGeometry { capacity_bytes });
        }
        Ok(Self {
            sets: vec![Vec::new(); sets as usize],
            set_budget,
            half_entries,
            stamp: 0,
            stats: McEvents::default(),
        })
    }

    /// The paper's 96 KB metadata cache.
    ///
    /// 96 KB / 512 B-sets = 192 sets — not a power of two, so we index
    /// modulo the set count instead.
    pub fn paper_default(half_entries: bool) -> Self {
        Self {
            sets: vec![Vec::new(); 192],
            set_budget: 8 * 64,
            half_entries,
            stamp: 0,
            stats: McEvents::default(),
        }
    }

    /// Snapshot of the statistics so far.
    pub fn stats(&self) -> McStats {
        self.stats.snapshot()
    }

    /// Registers hit/miss/eviction counters under `prefix`
    /// (e.g. `mcache` -> `mcache.eviction.total`).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.stats.register_metrics(registry, prefix);
    }

    /// Whether `page`'s entry is currently cached (no state change).
    pub fn probe(&self, page: u64) -> bool {
        let set = (page % self.sets.len() as u64) as usize;
        self.sets[set].iter().any(|s| s.page == page)
    }

    fn entry_bytes(&self, uncompressed_page: bool) -> u32 {
        if self.half_entries && uncompressed_page {
            32
        } else {
            64
        }
    }

    /// Accesses `page`'s metadata entry, inserting it on miss.
    ///
    /// `uncompressed_page` selects the half-entry footprint when the
    /// optimization is enabled. `dirty` marks the entry as modified (it
    /// will need a DRAM write on eviction).
    pub fn access(&mut self, page: u64, uncompressed_page: bool, dirty: bool) -> McAccess {
        self.stamp += 1;
        let stamp = self.stamp;
        let bytes = self.entry_bytes(uncompressed_page);
        let set_idx = (page % self.sets.len() as u64) as usize;
        let budget = self.set_budget;
        let set = &mut self.sets[set_idx];

        if let Some(slot) = set.iter_mut().find(|s| s.page == page) {
            slot.used = stamp;
            slot.dirty |= dirty;
            // Entry size can change (page transitions compressed <->
            // uncompressed); adopt the new footprint.
            slot.bytes = bytes;
            self.stats.hits += 1;
            return McAccess {
                hit: true,
                evicted: Vec::new(),
            };
        }

        self.stats.misses += 1;
        let mut evicted = Vec::new();
        let mut used: u32 = set.iter().map(|s| s.bytes).sum();
        while used + bytes > budget {
            let victim_idx = set
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.used)
                .map(|(i, _)| i)
                .expect("set cannot be empty while over budget");
            let victim = set.swap_remove(victim_idx);
            used -= victim.bytes;
            evicted.push((victim.page, victim.dirty));
            self.stats.evictions += 1;
        }
        set.push(Slot {
            page,
            bytes,
            dirty,
            used: stamp,
        });
        McAccess {
            hit: false,
            evicted,
        }
    }

    /// Forcibly evicts up to `n` entries, least recently used first,
    /// returning `(page, dirty)` pairs exactly like [`McAccess::evicted`].
    ///
    /// This is the fault-injection hook for eviction storms: the caller
    /// treats each pair as a normal eviction (dirty writeback, repack
    /// trigger), so a storm exercises the whole eviction pipeline.
    pub fn evict_up_to(&mut self, n: usize) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        while out.len() < n {
            let victim = self
                .sets
                .iter()
                .enumerate()
                .flat_map(|(si, set)| set.iter().enumerate().map(move |(wi, s)| (si, wi, s.used)))
                .min_by_key(|&(_, _, used)| used);
            let Some((si, wi, _)) = victim else { break };
            let slot = self.sets[si].swap_remove(wi);
            self.stats.evictions += 1;
            out.push((slot.page, slot.dirty));
        }
        out
    }

    /// Number of entries currently cached (for tests).
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_geometry_is_a_typed_error() {
        assert!(matches!(
            MetadataCache::new(3 * 8 * 64, false),
            Err(CompressoError::InvalidCacheGeometry {
                capacity_bytes: 1536
            })
        ));
        assert!(matches!(
            MetadataCache::new(0, false),
            Err(CompressoError::InvalidCacheGeometry { .. })
        ));
    }

    #[test]
    fn evict_up_to_flushes_lru_first() {
        let mut mc = MetadataCache::new(64 * 64, false).expect("valid geometry");
        mc.access(1, false, true); // oldest, dirty
        mc.access(2, false, false);
        mc.access(3, false, false);
        let evicted = mc.evict_up_to(2);
        assert_eq!(evicted, vec![(1, true), (2, false)]);
        assert_eq!(mc.len(), 1);
        assert!(mc.probe(3));
        // Draining past the population stops cleanly.
        assert_eq!(mc.evict_up_to(5).len(), 1);
        assert!(mc.is_empty());
        assert!(mc.evict_up_to(4).is_empty());
    }

    #[test]
    fn hit_after_insert() {
        let mut mc = MetadataCache::new(64 * 64, false).expect("valid geometry"); // 8 sets
        assert!(!mc.access(5, false, false).hit);
        assert!(mc.access(5, false, false).hit);
        assert_eq!(mc.stats().hits, 1);
        assert_eq!(mc.stats().misses, 1);
    }

    #[test]
    fn full_entries_evict_lru() {
        let mut mc = MetadataCache::new(64 * 64, false).expect("valid geometry"); // 8 sets, 8 ways
        let set_stride = 8u64;
        // Fill set 0 with 8 entries, then touch entry 0 and add a ninth.
        for i in 0..8 {
            mc.access(i * set_stride, false, false);
        }
        mc.access(0, false, false);
        let r = mc.access(8 * set_stride, false, false);
        assert!(!r.hit);
        assert_eq!(r.evicted.len(), 1);
        assert_eq!(r.evicted[0].0, set_stride, "LRU entry (page 8) must go");
        assert!(mc.probe(0));
    }

    #[test]
    fn half_entries_double_capacity_for_uncompressed() {
        let mut full = MetadataCache::new(64 * 64, false).expect("valid geometry");
        let mut half = MetadataCache::new(64 * 64, true).expect("valid geometry");
        let set_stride = 8u64;
        // 16 uncompressed pages mapping to one set.
        for i in 0..16 {
            full.access(i * set_stride, true, false);
            half.access(i * set_stride, true, false);
        }
        // With half entries all 16 fit (16 * 32 = 512); without, only 8.
        let full_resident = (0..16).filter(|&i| full.probe(i * set_stride)).count();
        let half_resident = (0..16).filter(|&i| half.probe(i * set_stride)).count();
        assert_eq!(full_resident, 8);
        assert_eq!(half_resident, 16);
    }

    #[test]
    fn dirty_eviction_is_flagged() {
        let mut mc = MetadataCache::new(64 * 64, false).expect("valid geometry");
        let set_stride = 8u64;
        mc.access(0, false, true); // dirty
        for i in 1..=8 {
            let r = mc.access(i * set_stride, false, false);
            if let Some(&(page, dirty)) = r.evicted.first() {
                assert_eq!(page, 0);
                assert!(dirty, "evicted entry must report dirtiness");
                return;
            }
        }
        panic!("entry 0 was never evicted");
    }

    #[test]
    fn paper_default_has_1536_full_entries() {
        let mut mc = MetadataCache::paper_default(false);
        for i in 0..2000u64 {
            mc.access(i, false, false);
        }
        assert!(mc.len() <= 1536);
        assert!(
            mc.len() >= 1400,
            "most sets should be full, got {}",
            mc.len()
        );
    }

    #[test]
    fn size_transition_adopts_new_footprint() {
        let mut mc = MetadataCache::new(64 * 64, true).expect("valid geometry");
        mc.access(1, true, false); // 32B
        mc.access(1, false, false); // becomes 64B (page got compressed)
        assert!(mc.probe(1));
    }
}
