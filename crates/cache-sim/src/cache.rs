//! A set-associative, write-back, write-allocate cache with LRU
//! replacement.

use compresso_telemetry::{counters, Registry};

counters! {
    /// Per-cache statistics.
    pub struct CacheStats;
    /// Live counter handles behind [`CacheStats`].
    struct CacheEvents {
        /// Accesses that hit.
        hits => "hit.total",
        /// Accesses that missed.
        misses => "miss.total",
        /// Dirty lines evicted (writebacks to the next level).
        writebacks => "writeback.total",
    }
}

impl CacheStats {
    /// Miss rate in [0, 1]; 0 when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// Dirty line evicted to make room (line address), if any.
    pub evicted_dirty: Option<u64>,
}

/// A single cache level.
///
/// Addresses are byte addresses; lines are 64 B. The ways are stored
/// flat and set-major: way `w` of set `s` is slot `s * assoc + w` of
/// `ways`.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Per slot: 0 when the way is invalid, else `(tag + 1) << 1 | dirty`.
    /// Each set is kept in recency order, most recently used first and
    /// invalid ways at the tail, so a set's last slot is its victim: an
    /// invalid way if the set has one, else the LRU line.
    ways: Vec<u64>,
    assoc: usize,
    set_bits: u32,
    set_mask: u64,
    stats: CacheEvents,
}

/// Cache line size in bytes (Tab. III: 64 B everywhere).
pub const LINE_BYTES: u64 = 64;

impl Cache {
    /// Creates a cache of `capacity_bytes` with `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is 0 or the geometry is not a power-of-two number
    /// of sets.
    pub fn new(capacity_bytes: u64, assoc: usize) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        let sets = capacity_bytes / LINE_BYTES / assoc as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            ways: vec![0; sets as usize * assoc],
            assoc,
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            stats: CacheEvents::default(),
        }
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// Registers this cache's counters under `prefix` (e.g. `cache.l1`
    /// → `cache.l1.hit.total`).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.stats.register_metrics(registry, prefix);
    }

    /// The set of `addr` and the way word of its line when clean.
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr / LINE_BYTES;
        (
            (line & self.set_mask) as usize,
            ((line >> self.set_bits) + 1) << 1,
        )
    }

    /// The slot range of `set` in `ways`.
    fn slots(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Looks up `addr` without changing state; returns `true` on hit.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, key) = self.index(addr);
        self.ways[self.slots(set)].iter().any(|&w| w & !1 == key)
    }

    /// Accesses `addr`, allocating on miss. `is_write` marks the line
    /// dirty. Returns hit/miss and any dirty eviction.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        let (set, key) = self.index(addr);
        let dirty = u64::from(is_write);
        let slots = self.slots(set);
        let ways = &mut self.ways[slots];
        if let Some(pos) = ways.iter().position(|&w| w & !1 == key) {
            ways[..=pos].rotate_right(1);
            ways[0] |= dirty;
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                evicted_dirty: None,
            };
        }
        let victim = *ways.last().expect("associativity >= 1");
        ways.rotate_right(1);
        ways[0] = key | dirty;
        self.stats.misses += 1;
        let evicted_dirty = (victim & 1 == 1).then(|| {
            self.stats.writebacks += 1;
            self.line_addr(set, (victim >> 1) - 1)
        });
        CacheAccess {
            hit: false,
            evicted_dirty,
        }
    }

    /// Invalidates `addr` if present, returning its line address when the
    /// line was dirty (back-invalidation writeback).
    pub fn invalidate(&mut self, addr: u64) -> Option<u64> {
        let (set, key) = self.index(addr);
        let slots = self.slots(set);
        let ways = &mut self.ways[slots];
        let pos = ways.iter().position(|&w| w & !1 == key)?;
        let was_dirty = ways[pos] & 1 == 1;
        ways[pos..].rotate_left(1);
        *ways.last_mut().expect("associativity >= 1") = 0;
        was_dirty.then_some(addr / LINE_BYTES * LINE_BYTES)
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.set_bits) | set as u64) * LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(4096, 4); // 16 sets
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(32, false).hit, "same line, different offset");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = Cache::new(256, 2); // 2 sets, 2 ways
        let set_stride = 2 * LINE_BYTES; // addresses mapping to set 0
        c.access(0, false);
        c.access(set_stride * 2, false); // fills way 2 of set 0
        c.access(0, false); // touch A: B becomes LRU
        let r = c.access(set_stride * 4, false); // evicts B (clean)
        assert!(!r.hit);
        assert_eq!(r.evicted_dirty, None);
        assert!(c.probe(0), "MRU line must survive");
        assert!(!c.probe(set_stride * 2), "LRU line must be evicted");
    }

    #[test]
    fn dirty_eviction_reports_address() {
        let mut c = Cache::new(256, 2);
        let set_stride = 2 * LINE_BYTES;
        c.access(64, true); // set 1, dirty
        c.access(64 + set_stride, false);
        let r = c.access(64 + 2 * set_stride, false); // evicts dirty line
        assert_eq!(r.evicted_dirty, Some(64));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = Cache::new(256, 2);
        let set_stride = 2 * LINE_BYTES;
        c.access(0, false);
        c.access(0, true); // dirty via hit
        c.access(set_stride * 2, false);
        let r = c.access(set_stride * 4, false);
        assert_eq!(r.evicted_dirty, Some(0));
    }

    #[test]
    fn invalidate_dirty_line() {
        let mut c = Cache::new(256, 2);
        c.access(128, true);
        assert_eq!(c.invalidate(128), Some(128));
        assert!(!c.probe(128));
        assert_eq!(c.invalidate(128), None, "second invalidate is a no-op");
    }

    #[test]
    fn miss_rate() {
        let mut c = Cache::new(4096, 4);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-9);
    }
}
