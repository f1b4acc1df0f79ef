//! OS paging under a memory budget.
//!
//! Models what Linux does when cgroups cap a process's resident set: pages
//! beyond the budget are reclaimed LRU-first and swapped out; touching
//! them again costs a major fault (swap-in). First touches are minor
//! faults (demand-zero) and cost nothing here, matching the paper's
//! methodology where only steady-state paging matters.

use compresso_workloads::{AddrMap, AddrSet};

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

/// Key of the recency list's sentinel, whose `newer` link is the least
/// recently used page and whose `older` link the most recently used one.
/// Page numbers are byte addresses over 4 KB, so none reaches it.
const SENTINEL: u64 = u64::MAX;

/// A resident page's neighbours in the recency list.
#[derive(Debug, Clone, Copy)]
struct Links {
    older: u64,
    newer: u64,
}

/// An LRU-managed resident set under a dynamic page budget.
#[derive(Debug, Clone)]
pub struct PagingSim {
    budget: usize,
    /// The resident pages ordered by last touch: a circular list through
    /// `SENTINEL`, linked by page number.
    recency: AddrMap<Links>,
    /// Pages ever touched: their content is in memory or swap.
    touched: AddrSet,
    stats: PagingStats,
}

impl PagingSim {
    /// Creates a paging simulation with an initial `budget` (pages).
    pub fn new(budget: usize) -> Self {
        let empty = Links {
            older: SENTINEL,
            newer: SENTINEL,
        };
        Self {
            budget: budget.max(1),
            recency: AddrMap::from_iter([(SENTINEL, empty)]),
            touched: AddrSet::default(),
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
        self.recency.len() - 1
    }

    /// Adjusts the budget (the cgroup limit / ballooned capacity),
    /// reclaiming immediately if over.
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget.max(1);
        self.reclaim_to(self.budget);
    }

    /// Swaps out least recently used pages until at most `pages` remain.
    fn reclaim_to(&mut self, pages: usize) {
        while self.resident_pages() > pages {
            self.unlink(self.recency[&SENTINEL].newer);
            self.stats.evictions += 1;
        }
    }

    /// Takes `page` out of the recency list; returns whether it was
    /// resident.
    fn unlink(&mut self, page: u64) -> bool {
        let Some(Links { older, newer }) = self.recency.remove(&page) else {
            return false;
        };
        self.recency.get_mut(&older).expect("linked").newer = newer;
        self.recency.get_mut(&newer).expect("linked").older = older;
        true
    }

    /// Links `page` in as the most recently used resident page.
    fn push_newest(&mut self, page: u64) {
        let sentinel = self.recency.get_mut(&SENTINEL).expect("sentinel");
        let older = std::mem::replace(&mut sentinel.older, page);
        self.recency.get_mut(&older).expect("linked").newer = page;
        let newer = SENTINEL;
        self.recency.insert(page, Links { older, newer });
    }

    /// Initializes steady state: every page in `pages` has been touched
    /// (its content is in memory or swap) and the first `budget` of them
    /// are resident, in order. Pass the hot set first so warm-up ends
    /// with the realistic resident set.
    pub fn prefault<I: IntoIterator<Item = u64>>(&mut self, pages: I) {
        for page in pages {
            self.touched.insert(page);
            if self.resident_pages() < self.budget && !self.recency.contains_key(&page) {
                self.push_newest(page);
            }
        }
    }

    /// Touches `page`, returning the fault penalty in cycles (0 when
    /// resident or on a first touch).
    pub fn access(&mut self, page: u64) -> u64 {
        self.stats.accesses += 1;
        if self.unlink(page) {
            self.push_newest(page);
            return 0;
        }
        let penalty = if self.touched.insert(page) {
            self.stats.minor_faults += 1;
            0
        } else {
            self.stats.major_faults += 1;
            SWAP_IN_CYCLES
        };
        self.reclaim_to(self.budget - 1);
        self.push_newest(page);
        penalty
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
