//! Linearly Compressed Pages layout planning (§II-C).
//!
//! LCP compresses every cache line of a page to the same *target* size so
//! that line offsets are a multiplication instead of a prefix sum. Lines
//! that do not fit the target are *exceptions*, stored uncompressed in an
//! exception region after the data region. LCP trades compression ratio
//! for this simplicity — Fig. 2 quantifies the loss (13% with BPC, 2.3%
//! with BDI).

use crate::config::PageAllocation;
use crate::metadata::LINES_PER_PAGE;
use compresso_compression::BinSet;

/// The result of planning an LCP page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LcpPlan {
    /// Target compressed size per line, in bytes (0 for all-zero pages).
    pub target: u32,
    /// Lines stored uncompressed in the exception region.
    pub exceptions: Vec<u8>,
    /// Bytes needed: data region + exception slots.
    pub needed_bytes: u32,
}

impl LcpPlan {
    /// Data-region size (64 slots of `target` bytes).
    pub fn data_region(&self) -> u32 {
        self.target * LINES_PER_PAGE as u32
    }

    /// The page's allocation: the smallest Variable4 block holding
    /// [`Self::needed_bytes`] (0 for an all-zero page).
    pub fn page_bytes(&self) -> u32 {
        PageAllocation::Variable4.fit(self.needed_bytes)
    }

    /// Logical offset of `line` given this plan: a slot in the data
    /// region, or an exception slot after it.
    ///
    /// Returns `None` for zero-size targets (all-zero page).
    pub fn offset_of(&self, line: usize) -> Option<(u32, u32)> {
        if self.target == 0 {
            return None;
        }
        if let Some(pos) = self.exceptions.iter().position(|&l| l as usize == line) {
            Some((self.data_region() + 64 * pos as u32, 64))
        } else {
            Some((line as u32 * self.target, self.target))
        }
    }
}

/// One LCP page's layout: its plan, its block and its zero lines. It is
/// what [`crate::LcpDevice`] keeps per page and what the journal records
/// as the page's commit point ([`crate::JournalRecord::LcpEntryUpdate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LcpImage {
    /// The target and exceptions. A writeback may add exceptions after
    /// planning; `needed_bytes` stays as planned.
    pub plan: LcpPlan,
    /// The allocation in bytes (0: no storage).
    pub page_bytes: u32,
    /// MPA base of the page's one block.
    pub base: u64,
    /// Bit `i` set ⇔ line `i` is all-zero.
    pub zero_bitmap: u64,
}

impl LcpImage {
    /// The layout of a page whose lines compress to `sizes`, planned with
    /// `bins` and sized for a block of the variable allocator (base
    /// still 0).
    pub fn new(sizes: &[u8], bins: &BinSet) -> Self {
        let plan = plan(sizes, bins);
        Self {
            page_bytes: plan.page_bytes(),
            plan,
            base: 0,
            zero_bitmap: sizes.iter().enumerate().fold(0, |bitmap, (line, &size)| {
                bitmap | u64::from(size == 0) << line
            }),
        }
    }

    /// Whether every line is zero: the plan has no target.
    pub fn all_zero(&self) -> bool {
        self.plan.target == 0
    }

    /// Whether `line` is all-zero.
    pub fn is_zero_line(&self, line: usize) -> bool {
        self.zero_bitmap >> line & 1 != 0
    }

    /// Records whether `line` is all-zero.
    pub fn set_zero_line(&mut self, line: usize, zero: bool) {
        self.zero_bitmap = self.zero_bitmap & !(1 << line) | u64::from(zero) << line;
    }

    /// The page's one block, if it holds storage.
    pub fn blocks(&self) -> Vec<(u64, u32)> {
        match self.page_bytes {
            0 => Vec::new(),
            bytes => vec![(self.base, bytes)],
        }
    }
}

/// Plans an LCP page for the given per-line compressed sizes: picks the
/// target from `bins` minimizing the total footprint, the first such on
/// a tie. Each candidate is costed by counting the lines that spill past
/// it; only the chosen target's exceptions are listed.
///
/// # Panics
///
/// Panics if `sizes` is not 64 entries.
pub fn plan(sizes: &[u8], bins: &BinSet) -> LcpPlan {
    assert_eq!(sizes.len(), LINES_PER_PAGE, "a page has 64 lines");
    if sizes.iter().all(|&s| s == 0) {
        return LcpPlan {
            target: 0,
            exceptions: Vec::new(),
            needed_bytes: 0,
        };
    }
    let (mut target, mut needed_bytes) = (0, u32::MAX);
    for &t in bins.sizes().iter().skip(1) {
        let spills = sizes.iter().filter(|&&s| s > t).count() as u32;
        let needed = t as u32 * LINES_PER_PAGE as u32 + 64 * spills;
        if needed < needed_bytes {
            (target, needed_bytes) = (t, needed);
        }
    }
    LcpPlan {
        target: target as u32,
        exceptions: (0..)
            .zip(sizes)
            .filter(|&(_, &s)| s > target)
            .map(|(line, _)| line)
            .collect(),
        needed_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_zero_page_is_free() {
        let p = plan(&[0; 64], &BinSet::aligned4());
        assert_eq!(p.target, 0);
        assert_eq!(p.needed_bytes, 0);
        assert_eq!(p.page_bytes(), 0);
        assert_eq!(p.offset_of(0), None);
    }

    #[test]
    fn homogeneous_page_has_no_exceptions() {
        let p = plan(&[8; 64], &BinSet::aligned4());
        assert_eq!(p.target, 8);
        assert!(p.exceptions.is_empty());
        assert_eq!(p.needed_bytes, 512);
        assert_eq!(p.offset_of(3), Some((24, 8)));
    }

    #[test]
    fn outliers_become_exceptions() {
        let mut sizes = [8u8; 64];
        sizes[10] = 64;
        sizes[20] = 50;
        let p = plan(&sizes, &BinSet::aligned4());
        assert_eq!(p.target, 8);
        assert_eq!(p.exceptions, vec![10, 20]);
        assert_eq!(p.needed_bytes, 512 + 128);
        assert_eq!(p.page_bytes(), 1024);
        // Exception slots sit after the data region.
        assert_eq!(p.offset_of(10), Some((512, 64)));
        assert_eq!(p.offset_of(20), Some((576, 64)));
        assert_eq!(p.offset_of(0), Some((0, 8)));
    }

    #[test]
    fn mixed_sizes_hurt_lcp_more_than_linepack() {
        // Half the lines at 8 B, half at 32 B: LinePack needs 20 B/line
        // average; LCP must pick a single target.
        let mut sizes = [8u8; 64];
        for s in sizes.iter_mut().skip(32) {
            *s = 32;
        }
        let bins = BinSet::aligned4();
        let p = plan(&sizes, &bins);
        let linepack = crate::metadata::linepack_bytes(&sizes, &bins);
        assert!(
            p.needed_bytes > linepack,
            "LCP ({}) must lose to LinePack ({}) on heterogeneous pages",
            p.needed_bytes,
            linepack
        );
    }

    #[test]
    fn target_prefers_smaller_footprint() {
        // All lines at 40 B: target 64 wastes; with legacy bins target 44
        // is exact.
        let p = plan(&[40; 64], &BinSet::legacy4());
        assert_eq!(p.target, 44);
        assert!(p.exceptions.is_empty());
    }

    #[test]
    fn ties_go_to_the_first_target() {
        // Targets 32 and 64 both need 4096 B; target 8 needs 4608 B.
        let mut sizes = [32u8; 64];
        sizes[32..].fill(64);
        let p = plan(&sizes, &BinSet::aligned4());
        assert_eq!((p.target, p.needed_bytes), (32, 4096));
        assert_eq!(p.exceptions, (32..64).collect::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "64 lines")]
    fn plan_requires_64_sizes() {
        let _ = plan(&[8; 63], &BinSet::aligned4());
    }
}
