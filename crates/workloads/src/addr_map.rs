//! Hash maps keyed by simulator-made `u64`s: page numbers, line indices.
//!
//! The default SipHash hasher protects a map against keys crafted to
//! collide, which these keys cannot be: the simulator derives them from
//! its own deterministic traces. [`AddrHasher`] is one multiply per key
//! instead.
//!
//! The hasher is fixed, so iteration order is the same in every process,
//! but no output may depend on it: a result that needs an order sorts or
//! uses a `BTreeMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator-made `u64`s.
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;
/// A `HashSet` of simulator-made `u64`s.
pub type AddrSet = HashSet<u64, BuildHasherDefault<AddrHasher>>;

/// Multiplicative hasher: the key times an odd 64-bit constant, rotated
/// so that the well-mixed high product bits pick the bucket. Sequential
/// keys and keys with common low zero bits both spread.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

/// Odd constant with no simple bit pattern (from rustc's FxHasher).
const K: u64 = 0xF135_7AEA_2E62_A9C5;

impl Hasher for AddrHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(K);
    }

    /// Other key types hash byte by byte through the same step.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_sets_behave_as_std() {
        let mut m: AddrMap<u32> = AddrMap::default();
        let mut s = AddrSet::default();
        for k in 0..10_000u64 {
            *m.entry(k * 4096).or_insert(0) += 1;
            *m.entry(k * 4096).or_insert(0) += 1;
            s.insert(k << 6);
        }
        assert_eq!(m.len(), 10_000);
        assert!(m.values().all(|&v| v == 2));
        assert_eq!(s.len(), 10_000);
        assert!(s.contains(&(123 << 6)) && !s.contains(&((123 << 6) + 1)));
    }

    #[test]
    fn aligned_keys_spread_over_buckets() {
        // Page-aligned byte addresses share 12 low zero bits; the bucket
        // index (low hash bits) must still take many values.
        let low = |k: u64| {
            let mut h = AddrHasher::default();
            h.write_u64(k);
            h.finish() & 1023
        };
        let buckets: AddrSet = (0..4096u64).map(|k| low(k << 12)).collect();
        assert!(buckets.len() > 900, "{} of 1024 buckets", buckets.len());
    }
}
