//! Three-level cache hierarchy in front of a pluggable memory backend.

use crate::cache::Cache;
use compresso_telemetry::Registry;

/// Where in the hierarchy an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory (through the backend).
    Memory,
}

/// The memory side of the hierarchy: implemented by the uncompressed
/// DRAM path and by every compressed-memory device in `compresso-core`.
///
/// Addresses are OS physical (OSPA) byte addresses of 64 B-aligned lines.
pub trait Backend {
    /// An LLC fill: returns the core cycle at which data is available.
    fn fill(&mut self, now: u64, line_addr: u64) -> u64;

    /// An LLC writeback of a dirty line: returns the cycle at which the
    /// writeback is accepted (posted writes usually return `now`).
    fn writeback(&mut self, now: u64, line_addr: u64) -> u64;
}

impl<B: Backend + ?Sized> Backend for &mut B {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        (**self).fill(now, line_addr)
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        (**self).writeback(now, line_addr)
    }
}

impl<B: Backend + ?Sized> Backend for Box<B> {
    fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
        (**self).fill(now, line_addr)
    }

    fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
        (**self).writeback(now, line_addr)
    }
}

/// Private L1+L2 for one core.
#[derive(Debug, Clone)]
pub struct PrivateCaches {
    l1: Cache,
    l2: Cache,
}

impl PrivateCaches {
    /// The paper's private hierarchy: 64 KB L1D, 512 KB L2 (Tab. III).
    pub fn paper_default() -> Self {
        Self {
            l1: Cache::new(64 << 10, 8),
            l2: Cache::new(512 << 10, 8),
        }
    }

    /// Registers both private levels under `prefix` (`{prefix}.l1.*`,
    /// `{prefix}.l2.*`).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.l1.register_metrics(registry, &format!("{prefix}.l1"));
        self.l2.register_metrics(registry, &format!("{prefix}.l2"));
    }
}

/// A full per-core view of the hierarchy (the L3 may be shared between
/// several cores in the 4-core configuration).
#[derive(Debug)]
pub struct Hierarchy {
    private: PrivateCaches,
    l3: Cache,
}

/// Result of an access through the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// Level that satisfied the access.
    pub level: HitLevel,
    /// Cycle at which the data is available to the core.
    pub data_ready: u64,
}

impl Hierarchy {
    /// Single-core configuration: 2 MB 16-way L3 (Tab. III).
    pub fn single_core() -> Self {
        Self {
            private: PrivateCaches::paper_default(),
            l3: Cache::new(2 << 20, 16),
        }
    }

    /// Builds from explicit parts (used by the multi-core wrapper).
    pub fn from_parts(private: PrivateCaches, l3: Cache) -> Self {
        Self { private, l3 }
    }

    /// Registers per-level hit/miss/writeback counters for the whole
    /// hierarchy under `prefix` (`{prefix}.l1.hit.total`, ...).
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        self.private.register_metrics(registry, prefix);
        self.l3.register_metrics(registry, &format!("{prefix}.l3"));
    }

    /// Accesses `addr` at `now`, consulting the backend on an LLC miss.
    ///
    /// Dirty evictions cascade: L1 victims are installed in L2, L2 victims
    /// in L3, and dirty L3 victims become backend writebacks.
    pub fn access<B: Backend>(
        &mut self,
        now: u64,
        addr: u64,
        is_write: bool,
        backend: &mut B,
    ) -> HierarchyAccess {
        let l1 = self.private.l1.access(addr, is_write);
        if let Some(victim) = l1.evicted_dirty {
            self.install_l2(now, victim, backend);
        }
        if l1.hit {
            return HierarchyAccess {
                level: HitLevel::L1,
                data_ready: now,
            };
        }

        let l2 = self.private.l2.access(addr, false);
        if let Some(victim) = l2.evicted_dirty {
            self.install_l3(now, victim, backend);
        }
        if l2.hit {
            return HierarchyAccess {
                level: HitLevel::L2,
                data_ready: now,
            };
        }

        let l3 = self.l3.access(addr, false);
        if let Some(victim) = l3.evicted_dirty {
            backend.writeback(now, victim);
        }
        if l3.hit {
            return HierarchyAccess {
                level: HitLevel::L3,
                data_ready: now,
            };
        }

        let ready = backend.fill(now, addr);
        HierarchyAccess {
            level: HitLevel::Memory,
            data_ready: ready,
        }
    }

    fn install_l2<B: Backend>(&mut self, now: u64, addr: u64, backend: &mut B) {
        let r = self.private.l2.access(addr, true);
        if let Some(victim) = r.evicted_dirty {
            self.install_l3(now, victim, backend);
        }
    }

    fn install_l3<B: Backend>(&mut self, now: u64, addr: u64, backend: &mut B) {
        let r = self.l3.access(addr, true);
        if let Some(victim) = r.evicted_dirty {
            backend.writeback(now, victim);
        }
    }

    /// Consumes the hierarchy into its private caches and L3 (used by the
    /// multi-core wrapper, which time-multiplexes a shared L3).
    pub fn into_parts(self) -> (PrivateCaches, Cache) {
        (self.private, self.l3)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::Backend;

    /// Counts fills/writebacks and returns a fixed latency.
    #[derive(Debug, Default)]
    pub struct CountingBackend {
        pub fills: Vec<u64>,
        pub writebacks: Vec<u64>,
        pub latency: u64,
    }

    impl Backend for CountingBackend {
        fn fill(&mut self, now: u64, line_addr: u64) -> u64 {
            self.fills.push(line_addr);
            now + self.latency
        }

        fn writeback(&mut self, now: u64, line_addr: u64) -> u64 {
            self.writebacks.push(line_addr);
            now
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::CountingBackend;
    use super::*;

    #[test]
    fn first_access_goes_to_memory() {
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend {
            latency: 100,
            ..Default::default()
        };
        let r = h.access(0, 0x1000, false, &mut b);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(r.data_ready, 100);
        assert_eq!(b.fills, vec![0x1000]);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend::default();
        h.access(0, 0x1000, false, &mut b);
        let r = h.access(10, 0x1000, false, &mut b);
        assert_eq!(r.level, HitLevel::L1);
        assert_eq!(r.data_ready, 10);
        assert_eq!(b.fills.len(), 1, "no second fill");
    }

    #[test]
    fn l1_capacity_spill_hits_l2() {
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend::default();
        // Touch 3x the L1 capacity, then re-touch the first line: it
        // should be out of L1 but still in L2.
        let lines = 3 * (64 << 10) / 64u64;
        for i in 0..lines {
            h.access(0, i * 64, false, &mut b);
        }
        let r = h.access(0, 0, false, &mut b);
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn dirty_data_eventually_written_back() {
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend::default();
        h.access(0, 0, true, &mut b);
        // Stream enough lines to push line 0 out of every level.
        let lines = 3 * (2 << 20) / 64u64;
        for i in 1..lines {
            h.access(0, i * 64, false, &mut b);
        }
        assert!(
            b.writebacks.contains(&0),
            "dirty line must reach the backend"
        );
    }

    #[test]
    fn write_allocate_fills_from_memory() {
        let mut h = Hierarchy::single_core();
        let mut b = CountingBackend {
            latency: 80,
            ..Default::default()
        };
        let r = h.access(0, 0x2000, true, &mut b);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(b.fills, vec![0x2000]);
    }
}
