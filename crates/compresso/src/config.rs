//! Configuration of the Compresso device, with one switch per
//! data-movement optimization so Fig. 6's ablation can be regenerated.

use compresso_compression::BinSet;

/// How MPA pages are allocated (§II-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAllocation {
    /// Incremental allocation in fixed 512 B chunks: 8 page sizes
    /// (512 B … 4 KB). Compresso's choice.
    Chunks512,
    /// Variable-sized chunks of 4 sizes {512 B, 1 KB, 2 KB, 4 KB}.
    Variable4,
}

impl PageAllocation {
    /// The permissible page sizes (bytes), ascending, excluding 0.
    pub fn page_sizes(&self) -> &'static [u32] {
        match self {
            PageAllocation::Chunks512 => &[512, 1024, 1536, 2048, 2560, 3072, 3584, 4096],
            PageAllocation::Variable4 => &[512, 1024, 2048, 4096],
        }
    }

    /// Rounds a byte requirement up to a permissible page size.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds 4096.
    pub fn fit(&self, bytes: u32) -> u32 {
        assert!(bytes <= 4096, "page data cannot exceed 4 KB");
        if bytes == 0 {
            return 0;
        }
        *self
            .page_sizes()
            .iter()
            .find(|&&s| s >= bytes)
            .expect("4096 is always present")
    }
}

/// Full Compresso configuration (Tab. III defaults), with each
/// optimization individually switchable for the Fig. 6 ablation.
#[derive(Debug, Clone)]
pub struct CompressoConfig {
    /// Compressed line-size bins. Alignment-friendly `{0,8,32,64}` is the
    /// optimization of §IV-B1; `{0,22,44,64}` is the unoptimized baseline.
    pub bins: BinSet,
    /// Page allocation scheme.
    pub allocation: PageAllocation,
    /// Page-overflow prediction (§IV-B2).
    pub prediction: bool,
    /// Dynamic inflation-room expansion (§IV-B3) — only meaningful with
    /// [`PageAllocation::Chunks512`].
    pub ir_expansion: bool,
    /// Dynamic page repacking on metadata-cache eviction (§IV-B4).
    pub repacking: bool,
    /// Metadata-cache half-entry optimization (§IV-B5).
    pub mcache_half_entries: bool,
    /// MPA capacity in bytes available to this device.
    pub mpa_capacity: u64,
}

impl CompressoConfig {
    /// Full Compresso: every optimization on (the paper's headline
    /// configuration).
    pub fn compresso() -> Self {
        Self {
            bins: BinSet::aligned4(),
            allocation: PageAllocation::Chunks512,
            prediction: true,
            ir_expansion: true,
            repacking: true,
            mcache_half_entries: true,
            mpa_capacity: 8 << 30,
        }
    }

    /// The unoptimized compressed baseline of Fig. 4: legacy bins, no
    /// prediction / IR expansion / repacking / half entries.
    pub fn unoptimized(allocation: PageAllocation) -> Self {
        Self {
            bins: BinSet::legacy4(),
            allocation,
            prediction: false,
            ir_expansion: false,
            repacking: false,
            mcache_half_entries: false,
            ..Self::compresso()
        }
    }

    /// The Fig. 6 ablation ladder: configurations with optimizations
    /// applied cumulatively, with their paper labels.
    pub fn ablation_ladder(allocation: PageAllocation) -> Vec<(&'static str, Self)> {
        let base = Self::unoptimized(allocation);
        let mut ladder = vec![("baseline", base.clone())];
        let aligned = Self {
            bins: BinSet::aligned4(),
            ..base
        };
        ladder.push(("+alignment-friendly", aligned.clone()));
        let predicted = Self {
            prediction: true,
            ..aligned
        };
        ladder.push(("+prediction", predicted.clone()));
        let ir = Self {
            ir_expansion: true,
            ..predicted
        };
        ladder.push(("+IR-expansion", ir.clone()));
        let repack = Self {
            repacking: true,
            ..ir
        };
        ladder.push(("+repacking", repack.clone()));
        let half = Self {
            mcache_half_entries: true,
            ..repack
        };
        ladder.push(("+mcache-opt", half));
        ladder
    }
}

impl Default for CompressoConfig {
    fn default() -> Self {
        Self::compresso()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_allocation_has_eight_sizes() {
        assert_eq!(PageAllocation::Chunks512.page_sizes().len(), 8);
        assert_eq!(PageAllocation::Variable4.page_sizes().len(), 4);
    }

    #[test]
    fn fit_rounds_up() {
        let a = PageAllocation::Chunks512;
        assert_eq!(a.fit(0), 0);
        assert_eq!(a.fit(1), 512);
        assert_eq!(a.fit(512), 512);
        assert_eq!(a.fit(513), 1024);
        assert_eq!(a.fit(4096), 4096);
        let v = PageAllocation::Variable4;
        assert_eq!(v.fit(1100), 2048);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn fit_rejects_oversize() {
        let _ = PageAllocation::Chunks512.fit(4097);
    }

    #[test]
    fn ablation_ladder_is_cumulative() {
        let ladder = CompressoConfig::ablation_ladder(PageAllocation::Chunks512);
        assert_eq!(ladder.len(), 6);
        assert_eq!(ladder[0].1.bins.name(), "legacy4");
        assert_eq!(ladder[1].1.bins.name(), "aligned4");
        assert!(!ladder[1].1.prediction);
        assert!(ladder[2].1.prediction);
        assert!(ladder[3].1.ir_expansion);
        assert!(ladder[4].1.repacking);
        assert!(ladder[5].1.mcache_half_entries);
        // Final rung equals the full Compresso configuration.
        let full = CompressoConfig::compresso();
        assert_eq!(ladder[5].1.bins, full.bins);
        assert!(ladder[5].1.repacking && ladder[5].1.ir_expansion);
    }

    #[test]
    fn paper_latencies() {
        use crate::controller::{CODEC_LATENCY, MCACHE_HIT_LATENCY, OFFSET_CALC_LATENCY};
        assert_eq!(CODEC_LATENCY, 12);
        assert_eq!(MCACHE_HIT_LATENCY, 2);
        assert_eq!(OFFSET_CALC_LATENCY, 1);
        assert_eq!(crate::metadata_codec::MAX_INFLATED, 17);
    }
}
