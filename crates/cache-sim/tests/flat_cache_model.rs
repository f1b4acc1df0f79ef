//! The recency-ordered [`Cache`] against a reference model: a
//! straightforward `Vec<Vec<Way>>` cache with a valid flag, dirty flag and
//! use stamp per way, whose victim is found by the smallest stamp. Random
//! access / write / invalidate streams must give identical results, probes
//! and statistics at every step.

use compresso_cache_sim::{Cache, CacheAccess, CacheStats, LINE_BYTES};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    used: u64,
}

/// The reference cache: per-set way vectors, victim = the first way of
/// smallest `valid ? used : 0`.
struct ModelCache {
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    stamp: u64,
    stats: CacheStats,
}

impl ModelCache {
    fn new(capacity_bytes: u64, assoc: usize) -> Self {
        let sets = capacity_bytes / LINE_BYTES / assoc as u64;
        let way = Way {
            tag: 0,
            valid: false,
            dirty: false,
            used: 0,
        };
        Self {
            sets: vec![vec![way; assoc]; sets as usize],
            set_mask: sets - 1,
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr / LINE_BYTES;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.stamp += 1;
        let (set, tag) = self.index(addr);
        let bits = self.set_mask.count_ones();
        let set_ways = &mut self.sets[set];
        if let Some(way) = set_ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.used = self.stamp;
            way.dirty |= is_write;
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                evicted_dirty: None,
            };
        }
        self.stats.misses += 1;
        let victim = set_ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.used } else { 0 })
            .map(|(i, _)| i)
            .expect("associativity >= 1");
        let old = set_ways[victim];
        set_ways[victim] = Way {
            tag,
            valid: true,
            dirty: is_write,
            used: self.stamp,
        };
        let evicted_dirty = if old.valid && old.dirty {
            self.stats.writebacks += 1;
            Some(((old.tag << bits) | set as u64) * LINE_BYTES)
        } else {
            None
        };
        CacheAccess {
            hit: false,
            evicted_dirty,
        }
    }

    fn invalidate(&mut self, addr: u64) -> Option<u64> {
        let (set, tag) = self.index(addr);
        for way in self.sets[set].iter_mut() {
            if way.valid && way.tag == tag {
                way.valid = false;
                if way.dirty {
                    way.dirty = false;
                    return Some(addr / LINE_BYTES * LINE_BYTES);
                }
                return None;
            }
        }
        None
    }
}

/// One step of a stream: 0 = read, 1 = write, 2 = invalidate.
type Step = (u8, u64);

/// Runs `steps` on both caches of `sets` sets and `assoc` ways. Addresses
/// span four times the capacity, so sets conflict and lines return after
/// eviction.
fn agree(assoc: usize, sets: u64, steps: &[Step]) {
    let capacity = sets * assoc as u64 * LINE_BYTES;
    let mut flat = Cache::new(capacity, assoc);
    let mut model = ModelCache::new(capacity, assoc);
    for (i, &(kind, raw)) in steps.iter().enumerate() {
        // Unaligned addresses too: the offset within a line is ignored.
        let addr = raw % (4 * capacity);
        match kind {
            0 | 1 => assert_eq!(
                flat.access(addr, kind == 1),
                model.access(addr, kind == 1),
                "step {i}: access {addr:#x} (assoc {assoc})"
            ),
            _ => assert_eq!(
                flat.invalidate(addr),
                model.invalidate(addr),
                "step {i}: invalidate {addr:#x} (assoc {assoc})"
            ),
        }
        assert_eq!(flat.stats(), model.stats, "step {i} (assoc {assoc})");
        let other = raw.rotate_left(17) % (4 * capacity);
        for a in [addr, other] {
            assert_eq!(flat.probe(a), model.probe(a), "step {i}: probe {a:#x}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_cache_matches_the_way_vector_model(
        assoc in prop::sample::select(vec![1usize, 2, 8, 16, 64]),
        sets in prop::sample::select(vec![1u64, 2, 8]),
        steps in prop::collection::vec((0u8..3, any::<u64>()), 1..600),
    ) {
        agree(assoc, sets, &steps);
    }

    #[test]
    fn flat_cache_matches_the_model_on_write_heavy_streams(
        assoc in prop::sample::select(vec![1usize, 2, 8, 16, 64]),
        steps in prop::collection::vec((0u8..2, any::<u64>()), 1..600),
    ) {
        // Reads and writes only: every set fills and keeps evicting.
        agree(assoc, 4, &steps);
    }
}

#[test]
fn paper_geometries_agree_on_a_long_stream() {
    // L1, L2 and the 1-core and 4-core L3s of Tab. III.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let steps: Vec<Step> = (0..20_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Reads and writes 3 in 7 each, invalidations 1 in 7.
            ((x % 7 / 3) as u8, x >> 8)
        })
        .collect();
    for (capacity, assoc) in [
        (64u64 << 10, 8usize),
        (512 << 10, 8),
        (2 << 20, 16),
        (8 << 20, 16),
    ] {
        // 64 sets, each visited by twice as many lines as it has ways, so
        // hits, evictions and invalidations all occur.
        let mut flat = Cache::new(capacity, assoc);
        let mut model = ModelCache::new(capacity, assoc);
        let way_bytes = capacity / assoc as u64;
        for &(kind, raw) in &steps {
            let addr = raw % (64 * LINE_BYTES) + (raw >> 40) % (2 * assoc as u64) * way_bytes;
            match kind {
                0 | 1 => assert_eq!(flat.access(addr, kind == 1), model.access(addr, kind == 1)),
                _ => assert_eq!(flat.invalidate(addr), model.invalidate(addr)),
            }
            assert_eq!(flat.probe(addr), model.probe(addr));
        }
        assert_eq!(flat.stats(), model.stats);
        assert!(model.stats.hits > 0 && model.stats.writebacks > 0);
    }
}
