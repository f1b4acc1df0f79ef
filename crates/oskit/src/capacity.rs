//! The memory-capacity impact evaluation (§VI-A).
//!
//! Emulates the paper's real-hardware methodology: a benchmark runs under
//! a cgroup-style page budget; the budget optionally follows the
//! benchmark's compressibility vector; major faults cost a swap-in.
//!
//! The stream here is a *page-visit* stream, not the line-level trace the
//! cycle simulator consumes: applications touch pages in dwells of many
//! line accesses (spatial locality plus cache-resident reuse), so the
//! paging-relevant event is "visit a page for a while". Each step models
//! one such dwell ([`DWELL_OPS`] memory operations). Hot pages are
//! revisited constantly; genuinely *new* cold pages are discovered only
//! once every [`COLD_DISCOVERY`] cold-leaning steps — the page-level
//! locality real memory-constrained systems exhibit. Stall-class
//! benchmarks (mcf, GemsFDTD, lbm) have hot working sets close to their
//! whole footprints, so any budget below that thrashes the LRU exactly as
//! the paper reports.

use crate::budget::Budget;
use crate::paging::{PagingSim, PagingStats};
use compresso_workloads::BenchmarkProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Memory operations represented by one page visit.
pub const DWELL_OPS: u64 = 64;

/// One in this many cold-leaning visits discovers a brand-new cold page;
/// the rest revisit recently used pages.
pub const COLD_DISCOVERY: u32 = 32;

/// Outcome of one capacity run.
#[derive(Debug, Clone, Copy)]
pub struct CapacityResult {
    /// Total modelled runtime in cycles.
    pub runtime_cycles: u64,
    /// Cycles lost to major faults.
    pub fault_cycles: u64,
    /// Paging statistics.
    pub paging: PagingStats,
}

impl CapacityResult {
    /// Fraction of runtime spent paging.
    pub fn paging_fraction(&self) -> f64 {
        self.fault_cycles as f64 / self.runtime_cycles.max(1) as f64
    }

    /// The paper's stall criterion: a benchmark that spends almost all of
    /// its time paging never finishes under constraint.
    pub fn stalled(&self) -> bool {
        self.paging_fraction() > 0.90
    }
}

/// Runs `mem_ops` memory operations' worth of page visits of `profile`
/// under `budget`.
pub fn capacity_run(profile: &BenchmarkProfile, budget: &Budget, mem_ops: usize) -> CapacityResult {
    let footprint = profile.footprint_pages as u64;
    let hot_pages = ((footprint as f64 * profile.hot_fraction) as u64).max(1);
    let steps = (mem_ops as u64 / DWELL_OPS).max(1);
    // Base cost of one dwell: DWELL_OPS operations at the benchmark's
    // unconstrained cycles-per-access (issue-width compute + hierarchy).
    let per_op = (profile.compute_per_mem as u64 / 4).max(1) + 20;
    let dwell_cost = DWELL_OPS * per_op;

    let mut rng = StdRng::seed_from_u64(profile.seed ^ 0xCA9A_C17F);
    let mut paging = PagingSim::new(budget.pages_at(0.0, profile.footprint_pages));
    // Steady state after warm-up: the whole footprint has been touched
    // and the hot set (then as much cold data as fits) is resident.
    paging.prefault((0..hot_pages).chain(hot_pages..footprint));
    let mut recent_cold: Vec<u64> = Vec::new();
    let mut runtime = 0u64;
    let mut fault_cycles = 0u64;

    let mut current_budget = paging.budget();
    for step in 0..steps {
        if step % 64 == 0 {
            let progress = step as f64 / steps as f64;
            let target = budget.pages_at(progress, profile.footprint_pages);
            // Hysteresis: real reclaim (ballooning/cgroup adjustment) only
            // reacts to substantial compressibility changes; without it,
            // noise in the compressibility vector would thrash the LRU.
            if target.abs_diff(current_budget) * 10 > current_budget {
                current_budget = target;
                paging.set_budget(target);
            }
        }
        let page = if rng.gen_bool(profile.hot_prob) {
            rng.gen_range(0..hot_pages)
        } else if recent_cold.is_empty() || rng.gen_ratio(1, COLD_DISCOVERY) {
            // Discover a new cold page.
            let p = rng.gen_range(0..footprint);
            recent_cold.push(p);
            if recent_cold.len() > 64 {
                recent_cold.remove(0);
            }
            p
        } else {
            // Revisit a recently used cold page.
            recent_cold[rng.gen_range(0..recent_cold.len())]
        };
        let penalty = paging.access(page);
        fault_cycles += penalty;
        runtime += dwell_cost + penalty;
    }
    CapacityResult {
        runtime_cycles: runtime,
        fault_cycles,
        paging: *paging.stats(),
    }
}

/// Relative performance of `system` versus `baseline`, the constrained
/// uncompressed run (the Fig. 10/11 memory-capacity metric: >1 means the
/// system outperforms the constrained baseline).
pub fn relative_performance(baseline: &CapacityResult, system: &CapacityResult) -> f64 {
    baseline.runtime_cycles as f64 / system.runtime_cycles.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use compresso_workloads::benchmark;

    const OPS: usize = 2_000_000; // ~31k page visits

    #[test]
    fn unconstrained_run_has_no_faults() {
        let p = benchmark("gcc").unwrap();
        let r = capacity_run(&p, &Budget::Unconstrained, OPS);
        assert_eq!(r.paging.major_faults, 0);
        assert_eq!(r.fault_cycles, 0);
    }

    #[test]
    fn insensitive_benchmark_shrugs_off_constraint() {
        // gamess: hot set 8% of footprint, 99% hot probability.
        let p = benchmark("gamess").unwrap();
        let constrained = capacity_run(&p, &Budget::constrained(0.7, p.footprint_pages), OPS);
        let free = capacity_run(&p, &Budget::Unconstrained, OPS);
        let slowdown = constrained.runtime_cycles as f64 / free.runtime_cycles as f64;
        assert!(
            slowdown < 1.15,
            "gamess should barely notice 70%: {slowdown:.2}"
        );
        assert!(!constrained.stalled());
    }

    #[test]
    fn sensitive_benchmark_pays_moderately() {
        // xalancbmk: sensitive but not stalling (Fig. 10a shape).
        let p = benchmark("xalancbmk").unwrap();
        let constrained = capacity_run(&p, &Budget::constrained(0.7, p.footprint_pages), OPS);
        let free = capacity_run(&p, &Budget::Unconstrained, OPS);
        let slowdown = constrained.runtime_cycles as f64 / free.runtime_cycles as f64;
        assert!(
            (1.05..8.0).contains(&slowdown),
            "xalancbmk should pay a moderate paging tax at 70%: {slowdown:.2}"
        );
        assert!(!constrained.stalled());
    }

    #[test]
    fn capacity_starved_benchmark_stalls() {
        // mcf: the hot working set itself exceeds 70% of the footprint.
        let p = benchmark("mcf").unwrap();
        let constrained = capacity_run(&p, &Budget::constrained(0.7, p.footprint_pages), OPS);
        assert!(
            constrained.stalled(),
            "mcf must stall at 70%: paging fraction {:.3}",
            constrained.paging_fraction()
        );
    }

    #[test]
    fn compression_budget_recovers_performance() {
        let p = benchmark("xalancbmk").unwrap();
        let rel = relative_performance(
            &capacity_run(&p, &Budget::constrained(0.7, p.footprint_pages), OPS),
            &capacity_run(
                &p,
                &Budget::compressed(0.7, p.footprint_pages, vec![1.8]),
                OPS,
            ),
        );
        assert!(
            rel > 1.0,
            "compression must help xalancbmk at 70%: {rel:.2}"
        );
    }

    #[test]
    fn relative_performance_of_baseline_is_one() {
        let p = benchmark("povray").unwrap();
        let constrained = || capacity_run(&p, &Budget::constrained(0.7, p.footprint_pages), OPS);
        let rel = relative_performance(&constrained(), &constrained());
        assert!((rel - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_constraint_hurts_more() {
        let p = benchmark("Pagerank").unwrap();
        let at80 = capacity_run(&p, &Budget::constrained(0.8, p.footprint_pages), OPS);
        let at60 = capacity_run(&p, &Budget::constrained(0.6, p.footprint_pages), OPS);
        assert!(
            at60.runtime_cycles > at80.runtime_cycles,
            "60% must be slower than 80%: {} vs {}",
            at60.runtime_cycles,
            at80.runtime_cycles
        );
    }

    #[test]
    fn results_are_deterministic() {
        let p = benchmark("astar").unwrap();
        let a = capacity_run(&p, &Budget::constrained(0.7, p.footprint_pages), OPS);
        let b = capacity_run(&p, &Budget::constrained(0.7, p.footprint_pages), OPS);
        assert_eq!(a.runtime_cycles, b.runtime_cycles);
        assert_eq!(a.paging, b.paging);
    }
}
