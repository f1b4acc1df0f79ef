//! Property-based tests on Compresso's core data structures.

use compresso_compression::{bins::is_split_access, BinSet};
use compresso_core::metadata_codec::{crc32, CRC_OFFSET, MAX_INFLATED, PACKED_BYTES};
use compresso_core::{
    decode_metadata, encode_metadata, lcp_plan, LcpPlan, LineLocation, MetadataCache, PageMeta,
    LINES_PER_PAGE,
};
use proptest::prelude::*;

fn arb_meta() -> impl Strategy<Value = PageMeta> {
    (
        prop::array::uniform32(0u8..4),
        prop::array::uniform32(0u8..4),
        prop::collection::vec(0u32..(1 << 24), 0..=8),
        prop::collection::vec(0u8..64, 0..=17),
        any::<bool>(),
    )
        .prop_map(|(a, b, chunks, mut inflated, compressed)| {
            let mut line_bins = [0u8; LINES_PER_PAGE];
            line_bins[..32].copy_from_slice(&a);
            line_bins[32..].copy_from_slice(&b);
            inflated.sort_unstable();
            inflated.dedup();
            let page_bytes = chunks.len() as u32 * 512;
            PageMeta {
                valid: true,
                zero: false,
                compressed,
                page_bytes,
                chunks,
                line_bins,
                inflated,
            }
        })
}

/// The three bin sets the figures use.
fn bin_set(index: usize) -> BinSet {
    [BinSet::aligned4(), BinSet::legacy4(), BinSet::eight()][index].clone()
}

/// A bin set's index and 64 line sizes near its edges: an all-zero, a
/// sparse or a dense page, each nonzero line on a bin edge, one byte
/// either side of it, or of any size.
fn arb_lcp_page() -> impl Strategy<Value = (usize, Vec<u8>)> {
    (
        0usize..3,
        0u8..3,
        prop::collection::vec((0u8..4, any::<u8>()), 64),
    )
        .prop_map(|(set, shape, lines)| {
            let edges = bin_set(set).sizes().to_vec();
            let sizes = lines
                .into_iter()
                .map(|(kind, r)| match (shape, kind) {
                    (0, _) | (1, 1..) => 0,
                    (_, 3) => r % 65,
                    _ => (edges[r as usize % edges.len()] + kind)
                        .saturating_sub(1)
                        .min(64),
                })
                .collect();
            (set, sizes)
        })
}

/// Reference: `lcp_plan` as it built every candidate's exception list
/// and kept the first of least `needed_bytes`.
fn reference_lcp_plan(sizes: &[u8], bins: &BinSet) -> LcpPlan {
    if sizes.iter().all(|&s| s == 0) {
        return LcpPlan {
            target: 0,
            exceptions: Vec::new(),
            needed_bytes: 0,
        };
    }
    let mut best: Option<LcpPlan> = None;
    for &t in bins.sizes().iter().skip(1) {
        let exceptions: Vec<u8> = sizes
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > t)
            .map(|(i, _)| i as u8)
            .collect();
        let needed = t as u32 * LINES_PER_PAGE as u32 + 64 * exceptions.len() as u32;
        let candidate = LcpPlan {
            target: t as u32,
            exceptions,
            needed_bytes: needed,
        };
        if best
            .as_ref()
            .is_none_or(|b| candidate.needed_bytes < b.needed_bytes)
        {
            best = Some(candidate);
        }
    }
    best.expect("bin sets are nonempty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn metadata_codec_roundtrips(meta in arb_meta(), legacy in any::<bool>()) {
        // Both 4-bin sets pack into the same 2-bit codes.
        let bins = if legacy { BinSet::legacy4() } else { BinSet::aligned4() };
        let packed = encode_metadata(&meta, &bins);
        let decoded = decode_metadata(&packed, &bins).expect("valid entry");
        prop_assert_eq!(decoded, meta);
    }

    #[test]
    fn decode_metadata_is_total(
        bytes in prop::collection::vec(any::<u8>(), PACKED_BYTES),
        seal in any::<bool>(),
        set in 0usize..3,
    ) {
        // Any 64 bytes decode to an entry or an error, never a panic.
        // Half the inputs carry a valid CRC, so the field checks run too.
        let bins = [BinSet::aligned4(), BinSet::legacy4(), BinSet::eight()][set].clone();
        let mut packed: [u8; PACKED_BYTES] = bytes.try_into().expect("64 bytes");
        if seal {
            let crc = crc32(&packed[..CRC_OFFSET]);
            packed[CRC_OFFSET..].copy_from_slice(&crc.to_le_bytes());
        }
        if let Ok(meta) = decode_metadata(&packed, &bins) {
            prop_assert!(seal, "an unsealed entry passed the CRC");
            prop_assert!(meta.chunks.len() <= 8);
            prop_assert!(meta.inflated.len() <= MAX_INFLATED);
            prop_assert!(meta.line_bins.iter().all(|&b| (b as usize) < bins.len()));
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected(meta in arb_meta(), bit in 0usize..512) {
        // DESIGN.md §10: the entry CRC covers every packed byte, so a
        // single flipped bit anywhere in the 64 B entry must surface as
        // a decode error — never a panic, never a silently different
        // (or identical-by-luck) decode.
        let bins = BinSet::aligned4();
        let mut packed = encode_metadata(&meta, &bins);
        packed[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            decode_metadata(&packed, &bins).is_err(),
            "bit {bit} flipped without detection"
        );
    }

    #[test]
    fn packed_lines_never_overlap(meta in arb_meta()) {
        // For a compressed page with no inflated lines, every packed
        // line's byte range must be disjoint from every other's.
        let bins = BinSet::aligned4();
        let mut meta = meta;
        meta.compressed = true;
        meta.inflated.clear();
        meta.page_bytes = 4096;
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for line in 0..LINES_PER_PAGE {
            if let LineLocation::Packed { offset, size } = meta.locate(line, &bins) {
                ranges.push((offset, offset + size));
            }
        }
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].0, "overlap: {:?}", pair);
        }
        // And the layout fits the data region.
        if let Some(&(_, end)) = ranges.last() {
            prop_assert!(end <= meta.data_bytes(&bins));
        }
    }

    #[test]
    fn aligned_packed_lines_never_split(meta in arb_meta()) {
        let bins = BinSet::aligned4();
        let mut meta = meta;
        meta.compressed = true;
        meta.inflated.clear();
        for line in 0..LINES_PER_PAGE {
            if let LineLocation::Packed { offset, size } = meta.locate(line, &bins) {
                if size < 64 {
                    prop_assert!(
                        !is_split_access(offset as usize, size as usize),
                        "aligned bins must not split: line {line} at {offset}+{size}"
                    );
                }
            }
        }
    }

    #[test]
    fn inflated_lines_sit_in_distinct_aligned_slots(meta in arb_meta()) {
        let bins = BinSet::aligned4();
        let mut meta = meta;
        meta.compressed = true;
        meta.page_bytes = 4096;
        let mut offsets = Vec::new();
        for &line in meta.inflated.clone().iter() {
            if let LineLocation::Inflated { offset } = meta.locate(line as usize, &bins) {
                prop_assert_eq!(offset % 64, 0, "IR slots are 64B aligned");
                offsets.push(offset);
            }
        }
        offsets.sort_unstable();
        offsets.dedup();
        prop_assert_eq!(offsets.len(), meta.inflated.len());
    }

    #[test]
    fn lcp_plan_covers_all_sizes(sizes in prop::collection::vec(0u8..=64, 64)) {
        let bins = BinSet::aligned4();
        let plan = lcp_plan(&sizes, &bins);
        for (i, &s) in sizes.iter().enumerate() {
            if plan.target == 0 {
                prop_assert_eq!(s, 0);
                continue;
            }
            let (_, slot) = plan.offset_of(i).expect("nonzero target");
            // Every line fits its slot: either it compresses to the
            // target, or it is an exception with a 64B slot.
            prop_assert!(s as u32 <= slot, "line {i}: size {s} > slot {slot}");
        }
        // The plan never needs more than an uncompressed page plus full
        // metadata-pointer capacity of exceptions.
        prop_assert!(plan.needed_bytes <= 64 * 64 + 64 * 64);
    }

    #[test]
    fn lcp_plan_matches_the_per_candidate_reference(page in arb_lcp_page()) {
        let (set, sizes) = page;
        let bins = bin_set(set);
        prop_assert_eq!(lcp_plan(&sizes, &bins), reference_lcp_plan(&sizes, &bins));
    }

    #[test]
    fn mcache_never_exceeds_budget(ops in prop::collection::vec((0u64..64, any::<bool>(), any::<bool>()), 1..300)) {
        let mut mc = MetadataCache::new(8 * 64 * 4, true); // 4 sets
        for (page, uncompressed, dirty) in ops {
            mc.access(page, uncompressed, dirty);
        }
        // With half entries, at most 16 entries per set fit; 4 sets.
        prop_assert!(mc.len() <= 64);
    }
}
