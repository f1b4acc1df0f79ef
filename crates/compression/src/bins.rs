//! Compressed cache-line size bins and split-access arithmetic.
//!
//! A compressed memory cannot afford to track exact byte sizes per line;
//! instead each line is rounded up to one of a small set of *bins*, encoded
//! in the page metadata (2 bits for 4 bins). The Compresso paper studies
//! three bin sets:
//!
//! * [`BinSet::aligned4`] — `{0, 8, 32, 64}` B, Compresso's
//!   alignment-friendly choice (§IV-B1): only 0.25% compression loss vs the
//!   legacy bins while cutting split-access lines from 30.9% to 3.2%.
//! * [`BinSet::legacy4`] — `{0, 22, 44, 64}` B, the compression-ratio-
//!   optimal choice used by prior work (LCP, RMC).
//! * [`BinSet::eight`] — 8 bins; higher ratio (1.82 vs 1.59 with 8 page
//!   sizes) but 17.5% more line overflows and 3-bit codes (§IV-A1).

use crate::LINE_SIZE;
use std::fmt;

/// A compressed line size after quantization to a bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SizeBin {
    /// Index of the bin within its [`BinSet`].
    pub index: u8,
    /// Size in bytes the line occupies.
    pub bytes: u8,
}

impl fmt::Display for SizeBin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B(bin {})", self.bytes, self.index)
    }
}

/// An ordered set of permissible compressed line sizes.
///
/// The first bin is always 0 (reserved for all-zero lines) and the last is
/// always 64 (uncompressed fallback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinSet {
    sizes: Vec<u8>,
    name: &'static str,
    /// `bin_of[size]`: the bin [`BinSet::quantize`] returns for `size`
    /// (boxed, so that configurations holding a set stay small).
    bin_of: Box<[SizeBin; LINE_SIZE + 1]>,
}

impl BinSet {
    /// Compresso's alignment-friendly bins `{0, 8, 32, 64}`.
    pub fn aligned4() -> Self {
        Self::new("aligned4", vec![0, 8, 32, 64])
    }

    /// Prior work's compression-optimal bins `{0, 22, 44, 64}`.
    pub fn legacy4() -> Self {
        Self::new("legacy4", vec![0, 22, 44, 64])
    }

    /// An eight-bin set offering finer granularity at the cost of more
    /// overflows and 3-bit line codes.
    pub fn eight() -> Self {
        Self::new("eight", vec![0, 8, 16, 24, 32, 40, 48, 64])
    }

    /// The set of the ascending `sizes` from 0 to 64, with its quantize
    /// table: size 0 takes bin 0 and every other size the first nonzero
    /// bin that holds it.
    fn new(name: &'static str, sizes: Vec<u8>) -> Self {
        let mut bin_of = Box::new([SizeBin { index: 0, bytes: 0 }; LINE_SIZE + 1]);
        let mut index = 0;
        for (size, entry) in bin_of.iter_mut().enumerate().skip(1) {
            while (sizes[index] as usize) < size {
                index += 1;
            }
            *entry = SizeBin {
                index: index as u8,
                bytes: sizes[index],
            };
        }
        Self {
            sizes,
            name,
            bin_of,
        }
    }

    /// A custom bin set.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is not strictly ascending, does not start at 0, or
    /// does not end at 64.
    pub fn custom(name: &'static str, sizes: Vec<u8>) -> Self {
        assert!(sizes.first() == Some(&0), "bin set must start at 0");
        assert!(sizes.last() == Some(&64), "bin set must end at 64");
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "bin sizes must be strictly ascending"
        );
        Self::new(name, sizes)
    }

    /// Short identifier of this bin set.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the set is empty (never true for the built-in sets).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The bin sizes in ascending order.
    pub fn sizes(&self) -> &[u8] {
        &self.sizes
    }

    /// Bits of per-line metadata needed to encode a bin index
    /// (2 bits for 4 bins, 3 bits for 8).
    pub fn code_bits(&self) -> u32 {
        (self.sizes.len() as u32)
            .next_power_of_two()
            .trailing_zeros()
    }

    /// Quantizes a compressed byte size up to the smallest bin that fits.
    ///
    /// Size 0 is reserved for all-zero lines; any nonzero size maps to a
    /// nonzero bin.
    ///
    /// # Panics
    ///
    /// Panics if `size > 64`.
    pub fn quantize(&self, size: usize) -> SizeBin {
        assert!(size <= LINE_SIZE, "compressed size exceeds a raw line");
        self.bin_of[size]
    }

    /// Returns the bin at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bin(&self, index: u8) -> SizeBin {
        SizeBin {
            index,
            bytes: self.sizes[index as usize],
        }
    }
}

/// Number of 64 B memory bursts needed to fetch `size` bytes stored at
/// byte `offset` within a page.
///
/// A compressed line whose bytes straddle a 64 B boundary requires two
/// accesses — the *split-access* overhead of §IV. Zero-size (all-zero)
/// lines need no access at all.
pub fn accesses_for(offset: usize, size: usize) -> usize {
    if size == 0 {
        return 0;
    }
    let first = offset / 64;
    let last = (offset + size - 1) / 64;
    last - first + 1
}

/// Whether a line of `size` bytes at `offset` is split across a 64 B
/// boundary.
pub fn is_split_access(offset: usize, size: usize) -> bool {
    accesses_for(offset, size) > 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned4_quantization() {
        let bins = BinSet::aligned4();
        assert_eq!(bins.quantize(0).bytes, 0);
        assert_eq!(bins.quantize(1).bytes, 8);
        assert_eq!(bins.quantize(8).bytes, 8);
        assert_eq!(bins.quantize(9).bytes, 32);
        assert_eq!(bins.quantize(32).bytes, 32);
        assert_eq!(bins.quantize(33).bytes, 64);
        assert_eq!(bins.quantize(64).bytes, 64);
    }

    #[test]
    fn legacy4_quantization() {
        let bins = BinSet::legacy4();
        assert_eq!(bins.quantize(20).bytes, 22);
        assert_eq!(bins.quantize(23).bytes, 44);
        assert_eq!(bins.quantize(45).bytes, 64);
    }

    /// Reference: the linear scan `quantize` ran before its table.
    fn scan_quantize(bins: &BinSet, size: usize) -> SizeBin {
        if size == 0 {
            return SizeBin { index: 0, bytes: 0 };
        }
        let (index, &bytes) = bins
            .sizes()
            .iter()
            .enumerate()
            .skip(1)
            .find(|&(_, &b)| size <= b as usize)
            .expect("last bin is 64");
        SizeBin {
            index: index as u8,
            bytes,
        }
    }

    #[test]
    fn quantize_table_matches_the_linear_scan() {
        for bins in [
            BinSet::aligned4(),
            BinSet::legacy4(),
            BinSet::eight(),
            BinSet::custom("custom", vec![0, 1, 2, 3, 17, 63, 64]),
        ] {
            for size in 0..=64 {
                assert_eq!(
                    bins.quantize(size),
                    scan_quantize(&bins, size),
                    "{} size {size}",
                    bins.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds a raw line")]
    fn quantize_refuses_more_than_a_line() {
        let _ = BinSet::aligned4().quantize(65);
    }

    #[test]
    fn code_bits() {
        assert_eq!(BinSet::aligned4().code_bits(), 2);
        assert_eq!(BinSet::eight().code_bits(), 3);
    }

    #[test]
    fn bins_monotone_and_bounded() {
        for bins in [BinSet::aligned4(), BinSet::legacy4(), BinSet::eight()] {
            for size in 0..=64usize {
                let bin = bins.quantize(size);
                assert!(bin.bytes as usize >= size);
                if size > 0 {
                    assert!(bin.index > 0, "nonzero size must not land in the zero bin");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "start at 0")]
    fn custom_must_start_at_zero() {
        let _ = BinSet::custom("bad", vec![8, 64]);
    }

    #[test]
    #[should_panic(expected = "end at 64")]
    fn custom_must_end_at_64() {
        let _ = BinSet::custom("bad", vec![0, 32]);
    }

    #[test]
    fn split_access_math() {
        // Aligned 64B line: one access.
        assert_eq!(accesses_for(0, 64), 1);
        assert!(!is_split_access(0, 64));
        // 22B line at offset 50 crosses the 64B boundary.
        assert_eq!(accesses_for(50, 22), 2);
        assert!(is_split_access(50, 22));
        // 8B line at offset 56 exactly touches the boundary but fits.
        assert_eq!(accesses_for(56, 8), 1);
        // Zero lines need no access.
        assert_eq!(accesses_for(123, 0), 0);
        // Worst case: 64B line at odd offset.
        assert_eq!(accesses_for(1, 64), 2);
    }

    #[test]
    fn aligned_bins_never_split_when_packed_contiguously() {
        // Pack lines of aligned bins back to back starting at 0: since all
        // bins divide 64 or are 64, a greedy packer never splits as long
        // as sizes stay sorted descending within each 64B unit. Check the
        // simple sequential property for same-size runs.
        for &size in BinSet::aligned4().sizes() {
            if size == 0 {
                continue;
            }
            let mut offset = 0usize;
            for _ in 0..32 {
                assert!(
                    !is_split_access(offset, size as usize),
                    "aligned bin {size} split at offset {offset}"
                );
                offset += size as usize;
            }
        }
    }
}
