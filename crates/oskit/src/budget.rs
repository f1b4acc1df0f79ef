//! Memory budgets: the cgroup-style limit of the paper's
//! memory-capacity impact methodology (§VI-A).
//!
//! A *static* budget models a regular memory-constrained system. A
//! *dynamic* budget follows the benchmark's real-time compressibility
//! vector: when data compresses `r×`, a physical budget of `B` pages holds
//! `r·B` OSPA pages — which is exactly how the paper emulates a
//! compressed system on real hardware.

/// A memory budget policy over the course of a run.
#[derive(Debug, Clone)]
pub enum Budget {
    /// Fixed number of resident OSPA pages.
    Static(usize),
    /// A base physical budget scaled by a compressibility vector sampled
    /// at equal instruction intervals.
    Dynamic {
        /// Physical budget in pages.
        base_pages: usize,
        /// Compression ratio per interval (the profiling-stage vector).
        ratios: Vec<f64>,
    },
    /// Effectively unlimited (the unconstrained upper bound): the whole
    /// footprint is resident.
    Unconstrained,
}

impl Budget {
    /// The OSPA-page budget at `progress` ∈ [0, 1] through the run,
    /// capped at `footprint`.
    pub fn pages_at(&self, progress: f64, footprint: usize) -> usize {
        match self {
            Budget::Static(pages) => (*pages).min(footprint).max(1),
            Budget::Dynamic { base_pages, ratios } => {
                if ratios.is_empty() {
                    return (*base_pages).min(footprint).max(1);
                }
                let idx = ((progress.clamp(0.0, 1.0) * ratios.len() as f64) as usize)
                    .min(ratios.len() - 1);
                let effective = (*base_pages as f64 * ratios[idx]) as usize;
                effective.min(footprint).max(1)
            }
            Budget::Unconstrained => footprint,
        }
    }

    /// Convenience: a static budget of `fraction` of `footprint` pages
    /// (e.g. the paper's 80% / 70% / 60% constraints).
    pub fn constrained(fraction: f64, footprint: usize) -> Self {
        Budget::Static(((footprint as f64 * fraction) as usize).max(1))
    }

    /// Convenience: a compressed system emulated over the same physical
    /// constraint.
    pub fn compressed(fraction: f64, footprint: usize, ratios: Vec<f64>) -> Self {
        Budget::Dynamic {
            base_pages: ((footprint as f64 * fraction) as usize).max(1),
            ratios,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_budget_is_flat() {
        let b = Budget::Static(700);
        assert_eq!(b.pages_at(0.0, 1000), 700);
        assert_eq!(b.pages_at(1.0, 1000), 700);
        assert_eq!(b.pages_at(0.5, 500), 500, "capped at footprint");
    }

    #[test]
    fn dynamic_budget_follows_ratios() {
        let b = Budget::compressed(0.5, 1000, vec![1.0, 2.0]);
        assert_eq!(b.pages_at(0.0, 1000), 500);
        assert_eq!(b.pages_at(0.9, 1000), 1000, "2x ratio doubles capacity");
    }

    #[test]
    fn dynamic_budget_capped_at_footprint() {
        let b = Budget::compressed(0.7, 1000, vec![4.0]);
        assert_eq!(b.pages_at(0.5, 1000), 1000);
    }

    #[test]
    fn unconstrained_covers_footprint() {
        let b = Budget::Unconstrained;
        assert_eq!(b.pages_at(0.3, 12345), 12345);
    }

    #[test]
    fn budgets_never_zero() {
        let b = Budget::constrained(0.0001, 100);
        assert!(b.pages_at(0.0, 100) >= 1);
    }
}
