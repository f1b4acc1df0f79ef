//! OS paging under a memory budget.
//!
//! Models what Linux does when cgroups cap a process's resident set: pages
//! beyond the budget are reclaimed LRU-first and swapped out; touching
//! them again costs a major fault (swap-in). First touches are minor
//! faults (demand-zero) and cost nothing here, matching the paper's
//! methodology where only steady-state paging matters.

use std::collections::{HashMap, HashSet, VecDeque};

/// Cost of a major page fault (swap-in from an SSD swap device) in core
/// cycles: ~100 µs at 3 GHz.
pub const SWAP_IN_CYCLES: u64 = 300_000;

/// Paging statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Page accesses observed.
    pub accesses: u64,
    /// Major faults (swap-ins).
    pub major_faults: u64,
    /// Pages reclaimed (swap-outs).
    pub evictions: u64,
    /// Minor (first-touch) faults.
    pub minor_faults: u64,
}

impl PagingStats {
    /// Major faults per access.
    pub fn fault_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.major_faults as f64 / self.accesses as f64
        }
    }
}

/// An LRU-managed resident set under a dynamic page budget.
#[derive(Debug, Clone)]
pub struct PagingSim {
    budget: usize,
    /// Resident pages with a recency queue (front = LRU).
    resident: HashSet<u64>,
    /// Queue of (page, stamp); entries whose stamp is outdated are stale.
    lru: VecDeque<(u64, u64)>,
    /// Recency stamps to lazily compact the queue.
    stamp: HashMap<u64, u64>,
    tick: u64,
    /// Pages that have ever been resident (their content is in swap once
    /// evicted).
    touched: HashSet<u64>,
    stats: PagingStats,
}

impl PagingSim {
    /// Creates a paging simulation with an initial `budget` (pages).
    pub fn new(budget: usize) -> Self {
        Self {
            budget: budget.max(1),
            resident: HashSet::new(),
            lru: VecDeque::new(),
            stamp: HashMap::new(),
            tick: 0,
            touched: HashSet::new(),
            stats: PagingStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &PagingStats {
        &self.stats
    }

    /// Current budget in pages.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Adjusts the budget (the cgroup limit / ballooned capacity),
    /// reclaiming immediately if over.
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget.max(1);
        while self.resident.len() > self.budget {
            self.evict_one();
        }
    }

    fn evict_one(&mut self) {
        while let Some((page, stamp)) = self.lru.pop_front() {
            // Skip stale queue entries (page was re-touched later).
            if self.stamp.get(&page).copied() != Some(stamp) {
                continue;
            }
            if self.resident.remove(&page) {
                self.stats.evictions += 1;
                return;
            }
        }
    }

    /// Initializes steady state: every page in `pages` has been touched
    /// (its content is in memory or swap) and the first `budget` of them
    /// are resident, in order. Pass the hot set first so warm-up ends
    /// with the realistic resident set.
    pub fn prefault<I: IntoIterator<Item = u64>>(&mut self, pages: I) {
        for page in pages {
            self.touched.insert(page);
            if self.resident.len() < self.budget && self.resident.insert(page) {
                self.tick += 1;
                self.lru.push_back((page, self.tick));
                self.stamp.insert(page, self.tick);
            }
        }
    }

    /// Touches `page`, returning the fault penalty in cycles (0 when
    /// resident or on a first touch).
    pub fn access(&mut self, page: u64) -> u64 {
        self.stats.accesses += 1;
        self.tick += 1;
        let penalty = if self.resident.contains(&page) {
            0
        } else if self.touched.contains(&page) {
            self.stats.major_faults += 1;
            SWAP_IN_CYCLES
        } else {
            self.stats.minor_faults += 1;
            self.touched.insert(page);
            0
        };
        if !self.resident.contains(&page) {
            while self.resident.len() >= self.budget {
                self.evict_one();
            }
            self.resident.insert(page);
        }
        self.lru.push_back((page, self.tick));
        self.stamp.insert(page, self.tick);
        // Bound queue growth: compact when it far exceeds residency.
        if self.lru.len() > 4 * self.budget + 64 {
            self.compact();
        }
        penalty
    }

    fn compact(&mut self) {
        // Keep only the live entry of each resident page, preserving
        // recency order.
        let stamp = &self.stamp;
        let resident = &self.resident;
        self.lru
            .retain(|&(page, s)| resident.contains(&page) && stamp.get(&page).copied() == Some(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_free() {
        let mut p = PagingSim::new(10);
        assert_eq!(p.access(1), 0);
        assert_eq!(p.stats().minor_faults, 1);
        assert_eq!(p.stats().major_faults, 0);
    }

    #[test]
    fn refault_after_eviction_costs_swap() {
        let mut p = PagingSim::new(2);
        p.access(1);
        p.access(2);
        p.access(3); // evicts 1 (LRU)
        assert_eq!(p.stats().evictions, 1);
        let penalty = p.access(1);
        assert_eq!(penalty, SWAP_IN_CYCLES);
        assert_eq!(p.stats().major_faults, 1);
    }

    #[test]
    fn lru_order_respects_recency() {
        let mut p = PagingSim::new(2);
        p.access(1);
        p.access(2);
        p.access(1); // 2 becomes LRU
        p.access(3); // evicts 2
        assert_eq!(p.access(1), 0, "1 must still be resident");
        assert_eq!(p.access(2), SWAP_IN_CYCLES, "2 was evicted");
    }

    #[test]
    fn working_set_within_budget_never_faults() {
        let mut p = PagingSim::new(8);
        for round in 0..50u64 {
            for page in 0..8u64 {
                assert_eq!(p.access(page), 0, "round {round} page {page}");
            }
        }
        assert_eq!(p.stats().major_faults, 0);
    }

    #[test]
    fn thrashing_when_working_set_exceeds_budget() {
        let mut p = PagingSim::new(4);
        let mut penalty = 0;
        for _ in 0..20 {
            for page in 0..8u64 {
                penalty += p.access(page);
            }
        }
        assert!(
            p.stats().fault_rate() > 0.5,
            "cyclic overflow must thrash LRU"
        );
        assert!(penalty > 0);
    }

    #[test]
    fn budget_shrink_reclaims_immediately() {
        let mut p = PagingSim::new(10);
        for page in 0..10u64 {
            p.access(page);
        }
        assert_eq!(p.resident_pages(), 10);
        p.set_budget(3);
        assert_eq!(p.resident_pages(), 3);
        assert!(p.stats().evictions >= 7);
    }

    #[test]
    fn budget_growth_stops_faulting() {
        let mut p = PagingSim::new(2);
        for _ in 0..5 {
            for page in 0..6u64 {
                p.access(page);
            }
        }
        let faults_before = p.stats().major_faults;
        assert!(faults_before > 0);
        p.set_budget(6);
        for _ in 0..5 {
            for page in 0..6u64 {
                p.access(page);
            }
        }
        // One refault round at most while repopulating, then silence.
        for page in 0..6u64 {
            assert_eq!(p.access(page), 0);
        }
    }
}
