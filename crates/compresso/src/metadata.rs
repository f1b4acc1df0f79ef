//! Per-OSPA-page metadata (Fig. 3) and the LinePack layout it describes.
//!
//! Compresso keeps one 64 B metadata entry per OSPA page in dedicated MPA
//! space (1.6% storage overhead). [`PageMeta`] is the in-memory entry:
//! control flags, the allocation, its chunk frames, one size bin per line
//! and the inflation pointers. Its packed DRAM format, every field width
//! included, is defined once by [`crate::metadata_codec`] (the Fig. 3
//! table there). [`PageMeta::locate`] is the one LinePack offset formula,
//! and [`linepack_bytes`] the one LinePack page-size sum.

use compresso_compression::{BinSet, SizeBin};

/// Lines per 4 KB OSPA page.
pub const LINES_PER_PAGE: usize = 64;
/// Size of a metadata entry in bytes.
pub const METADATA_ENTRY_BYTES: u64 = 64;
/// MPA chunk granularity.
pub const CHUNK_BYTES: u32 = 512;
/// OSPA page size.
pub const PAGE_BYTES: u32 = 4096;

/// Where a line lives within its page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineLocation {
    /// All-zero line: no storage, served from metadata.
    Zero,
    /// Packed in the data region at `offset` with `size` bytes.
    Packed {
        /// Byte offset within the logical page.
        offset: u32,
        /// Stored (binned) size in bytes.
        size: u32,
    },
    /// Stored uncompressed in the inflation room.
    Inflated {
        /// Byte offset within the logical page (64 B aligned).
        offset: u32,
    },
}

/// One page's metadata entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageMeta {
    /// Entry maps an OSPA page that has been touched.
    pub valid: bool,
    /// Page is all zeros (no MPA storage at all).
    pub zero: bool,
    /// Page data is stored compressed; `false` means raw 4 KB.
    pub compressed: bool,
    /// Current MPA allocation in bytes (multiple of 512, or 0).
    pub page_bytes: u32,
    /// Chunk frame numbers backing this page (each covers 512 B of the
    /// logical page, in order).
    pub chunks: Vec<u32>,
    /// Per-line size-bin index (into the device's [`BinSet`]).
    pub line_bins: [u8; LINES_PER_PAGE],
    /// Line indices currently held in the inflation room, in placement
    /// order (index 0 is deepest, at the very end of the page).
    pub inflated: Vec<u8>,
}

impl Default for PageMeta {
    fn default() -> Self {
        Self::invalid()
    }
}

impl PageMeta {
    /// An invalid (untouched / ballooned-out) page.
    pub fn invalid() -> Self {
        Self {
            valid: false,
            zero: false,
            compressed: true,
            page_bytes: 0,
            chunks: Vec::new(),
            line_bins: [0; LINES_PER_PAGE],
            inflated: Vec::new(),
        }
    }

    /// A valid all-zero page (the state of a freshly touched page).
    pub fn zero_page() -> Self {
        Self {
            valid: true,
            zero: true,
            ..Self::invalid()
        }
    }

    /// Bytes of the data region (sum of binned line sizes): the sum over
    /// bins of line count times bin size.
    pub fn data_bytes(&self, bins: &BinSet) -> u32 {
        if !self.compressed {
            return PAGE_BYTES;
        }
        self.bin_bytes_above(0, bins)
    }

    /// Bytes of the lines in bins above `bin`: Σ_{b > bin} count_b·size_b.
    fn bin_bytes_above(&self, bin: u8, bins: &BinSet) -> u32 {
        (bin + 1..bins.len() as u8)
            .map(|b| count_bin(&self.line_bins, b) * bins.bin(b).bytes as u32)
            .sum()
    }

    /// Bytes actually used: data region plus 64 B per inflated line.
    pub fn used_bytes(&self, bins: &BinSet) -> u32 {
        self.data_bytes(bins) + 64 * self.inflated.len() as u32
    }

    /// Free bytes within the current allocation (the "free space" field
    /// the paper tracks for repacking decisions).
    pub fn free_bytes(&self, bins: &BinSet) -> u32 {
        self.page_bytes.saturating_sub(self.used_bytes(bins))
    }

    /// Locates `line` within the page.
    ///
    /// Inflated lines live at the end of the allocation: the i-th entry of
    /// `inflated` occupies `[page_bytes − 64·(i+1), page_bytes − 64·i)`.
    /// Packed lines are grouped by size bin, largest bins first, and
    /// ordered by line number within a group; the offset is a sum over
    /// the 2-bit size codes, computable by the §VII-E adder circuit.
    ///
    /// Grouping is what makes the alignment-friendly bins pay off: with
    /// sizes {8, 32, 64} every group starts at a multiple of its size, so
    /// no packed line ever straddles a 64 B boundary — whereas the legacy
    /// {22, 44} sizes split regardless of ordering (§IV-B1).
    ///
    /// # Panics
    ///
    /// Panics if `line >= 64`.
    pub fn locate(&self, line: usize, bins: &BinSet) -> LineLocation {
        assert!(line < LINES_PER_PAGE, "line index out of range");
        if self.zero {
            return LineLocation::Zero;
        }
        if !self.compressed {
            return LineLocation::Packed {
                offset: line as u32 * 64,
                size: 64,
            };
        }
        if let Some(pos) = self.inflated.iter().position(|&l| l as usize == line) {
            let offset = self.page_bytes - 64 * (pos as u32 + 1);
            return LineLocation::Inflated { offset };
        }
        let my_bin = self.line_bins[line];
        let size = bins.bin(my_bin).bytes as u32;
        if size == 0 {
            return LineLocation::Zero;
        }
        // The §VII-E adder: the groups of larger bins come first, then the
        // lines of this bin that precede this one.
        let offset =
            self.bin_bytes_above(my_bin, bins) + count_bin(&self.line_bins[..line], my_bin) * size;
        LineLocation::Packed { offset, size }
    }

    /// The bin currently recorded for `line`.
    pub fn bin_of(&self, line: usize, bins: &BinSet) -> SizeBin {
        bins.bin(self.line_bins[line])
    }

    /// Whether `line` is in the inflation room.
    pub fn is_inflated(&self, line: usize) -> bool {
        self.inflated.iter().any(|&l| l as usize == line)
    }
}

/// The LinePack data bytes of a page whose lines compress to `sizes`:
/// each size rounded up to its bin, summed. Only bin 0 is empty, so the
/// sum is 0 exactly when every line is zero, and
/// [`PageAllocation::fit`](crate::PageAllocation::fit) of it is the
/// page's allocation (0 for an all-zero page).
pub fn linepack_bytes(sizes: &[u8], bins: &BinSet) -> u32 {
    sizes
        .iter()
        .map(|&size| bins.quantize(size as usize).bytes as u32)
        .sum()
}

/// The number of `line_bins` entries equal to `bin`: at most 64, so the
/// count is summed in a byte.
fn count_bin(line_bins: &[u8], bin: u8) -> u32 {
    line_bins.iter().map(|&b| u8::from(b == bin)).sum::<u8>() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use compresso_compression::BinSet;
    use proptest::prelude::*;

    /// Reference: the per-line loop `locate` used before the per-bin
    /// counts. Every line of a larger bin, and every earlier line of the
    /// same bin, adds its size.
    fn reference_offset(line_bins: &[u8; LINES_PER_PAGE], line: usize, bins: &BinSet) -> u32 {
        let my_bin = line_bins[line];
        let mut offset = 0u32;
        for (i, &b) in line_bins.iter().enumerate() {
            let larger = b > my_bin;
            let same_before = b == my_bin && i < line;
            if larger || same_before {
                offset += bins.bin(b).bytes as u32;
            }
        }
        offset
    }

    /// Reference: the per-line sum `data_bytes` used before the counts.
    fn reference_data_bytes(line_bins: &[u8; LINES_PER_PAGE], bins: &BinSet) -> u32 {
        line_bins.iter().map(|&b| bins.bin(b).bytes as u32).sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn per_bin_counts_match_the_per_line_loop(
            set in 0usize..3,
            raw_bins in prop::collection::vec(any::<u8>(), LINES_PER_PAGE),
            skew in 0u8..4,
            line in 0usize..LINES_PER_PAGE,
            inflated in prop::collection::vec(0u8..LINES_PER_PAGE as u8, 0..=17),
        ) {
            let bins = [BinSet::aligned4(), BinSet::legacy4(), BinSet::eight()][set].clone();
            let n = bins.len() as u8;
            // `skew` biases the draw toward one bin, so runs of equal
            // bins and empty bins both occur.
            let line_bins: [u8; LINES_PER_PAGE] = std::array::from_fn(|i| {
                let r = raw_bins[i];
                if r % 4 < skew { skew % n } else { r % n }
            });
            // Inflation pointers name distinct lines; keep first draws.
            let mut seen = [false; LINES_PER_PAGE];
            let mut inflated = inflated;
            inflated.retain(|&l| !std::mem::replace(&mut seen[l as usize], true));
            let p = PageMeta {
                valid: true,
                page_bytes: 4096,
                line_bins,
                inflated: inflated.clone(),
                ..PageMeta::invalid()
            };
            prop_assert_eq!(p.data_bytes(&bins), reference_data_bytes(&line_bins, &bins));
            prop_assert_eq!(
                p.used_bytes(&bins),
                reference_data_bytes(&line_bins, &bins) + 64 * inflated.len() as u32
            );
            let size = bins.bin(line_bins[line]).bytes as u32;
            let expected = if let Some(pos) = inflated.iter().position(|&l| l as usize == line) {
                LineLocation::Inflated { offset: 4096 - 64 * (pos as u32 + 1) }
            } else if size == 0 {
                LineLocation::Zero
            } else {
                LineLocation::Packed { offset: reference_offset(&line_bins, line, &bins), size }
            };
            prop_assert_eq!(p.locate(line, &bins), expected);
            // Every line at once: packed lines tile the data region.
            for l in 0..LINES_PER_PAGE {
                if let LineLocation::Packed { offset, size } = p.locate(l, &bins) {
                    prop_assert_eq!(offset, reference_offset(&line_bins, l, &bins));
                    prop_assert!(offset + size <= p.data_bytes(&bins));
                }
            }
        }
    }

    #[test]
    fn zero_page_has_no_storage() {
        let bins = BinSet::aligned4();
        let p = PageMeta::zero_page();
        assert!(p.valid && p.zero);
        assert_eq!(p.used_bytes(&bins), 0);
        assert_eq!(p.locate(0, &bins), LineLocation::Zero);
        assert_eq!(p.locate(63, &bins), LineLocation::Zero);
    }

    #[test]
    fn uncompressed_page_is_identity_layout() {
        let bins = BinSet::aligned4();
        let p = PageMeta {
            valid: true,
            compressed: false,
            page_bytes: 4096,
            ..PageMeta::invalid()
        };
        assert_eq!(
            p.locate(5, &bins),
            LineLocation::Packed {
                offset: 320,
                size: 64
            }
        );
        assert_eq!(p.data_bytes(&bins), 4096);
    }

    #[test]
    fn packed_offsets_group_by_descending_bin() {
        let bins = BinSet::aligned4();
        let mut p = PageMeta {
            valid: true,
            page_bytes: 1024,
            ..PageMeta::invalid()
        };
        // bins: index 1 = 8B, index 2 = 32B.
        p.line_bins[0] = 1; // 8
        p.line_bins[1] = 2; // 32 — largest group comes first
        p.line_bins[2] = 0; // zero line
        p.line_bins[3] = 1; // 8
        assert_eq!(
            p.locate(1, &bins),
            LineLocation::Packed {
                offset: 0,
                size: 32
            }
        );
        assert_eq!(
            p.locate(0, &bins),
            LineLocation::Packed {
                offset: 32,
                size: 8
            }
        );
        assert_eq!(p.locate(2, &bins), LineLocation::Zero);
        assert_eq!(
            p.locate(3, &bins),
            LineLocation::Packed {
                offset: 40,
                size: 8
            }
        );
        assert_eq!(p.data_bytes(&bins), 48);
    }

    #[test]
    fn aligned_bins_with_grouping_never_split() {
        // §IV-B1: with sizes {8, 32, 64} and grouped packing, no packed
        // line straddles a 64 B boundary.
        let bins = BinSet::aligned4();
        let mut p = PageMeta {
            valid: true,
            page_bytes: 4096,
            ..PageMeta::invalid()
        };
        for (i, bin) in p.line_bins.iter_mut().enumerate() {
            *bin = match i % 4 {
                0 => 3, // 64
                1 => 2, // 32
                2 => 1, // 8
                _ => 0, // zero
            };
        }
        for line in 0..LINES_PER_PAGE {
            if let LineLocation::Packed { offset, size } = p.locate(line, &bins) {
                assert!(
                    !compresso_compression::bins::is_split_access(offset as usize, size as usize),
                    "line {line} at {offset}+{size} splits"
                );
            }
        }
        // The legacy bins split even with grouping.
        let legacy = BinSet::legacy4();
        let splits = (0..LINES_PER_PAGE)
            .filter(|&line| match p.locate(line, &legacy) {
                LineLocation::Packed { offset, size } => {
                    compresso_compression::bins::is_split_access(offset as usize, size as usize)
                }
                _ => false,
            })
            .count();
        assert!(splits > 0, "legacy bins must still split");
    }

    #[test]
    fn inflated_lines_sit_at_page_end() {
        let bins = BinSet::aligned4();
        let mut p = PageMeta {
            valid: true,
            page_bytes: 1024,
            ..PageMeta::invalid()
        };
        p.line_bins[7] = 1;
        p.inflated = vec![7, 9];
        assert_eq!(
            p.locate(7, &bins),
            LineLocation::Inflated { offset: 1024 - 64 }
        );
        assert_eq!(
            p.locate(9, &bins),
            LineLocation::Inflated { offset: 1024 - 128 }
        );
        assert!(p.is_inflated(7));
        assert!(!p.is_inflated(8));
        // Inflated lines cost 64 B each in used_bytes.
        assert_eq!(p.used_bytes(&bins), 8 + 128);
    }

    #[test]
    fn free_space_tracking() {
        let bins = BinSet::aligned4();
        let mut p = PageMeta {
            valid: true,
            page_bytes: 512,
            ..PageMeta::invalid()
        };
        for i in 0..8 {
            p.line_bins[i] = 2; // 8 lines * 32B = 256B
        }
        assert_eq!(p.free_bytes(&bins), 256);
        p.inflated = vec![20];
        assert_eq!(p.free_bytes(&bins), 192);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_rejects_bad_line() {
        let _ = PageMeta::zero_page().locate(64, &BinSet::aligned4());
    }
}
