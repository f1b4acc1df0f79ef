//! Property-based tests: every compressor must round-trip every possible
//! line and never expand beyond the raw size.

use compresso_compression::{
    bins::{accesses_for, is_split_access},
    is_zero_line, Bdi, BinSet, Bpc, CPack, Compressor, Fpc, Line, LINE_SIZE,
};
use proptest::prelude::*;

fn line_from_symbols(syms: &[u16; 32]) -> Line {
    let mut line = [0u8; LINE_SIZE];
    for (i, s) in syms.iter().enumerate() {
        line[2 * i..2 * i + 2].copy_from_slice(&s.to_le_bytes());
    }
    line
}

fn arb_line() -> impl Strategy<Value = Line> {
    prop::array::uniform32(any::<u16>()).prop_map(|syms| line_from_symbols(&syms))
}

/// Structured lines: more likely to exercise the compressible paths than
/// uniform random bytes.
fn arb_structured_line() -> impl Strategy<Value = Line> {
    (
        any::<u64>(),
        0u64..256,
        prop::sample::select(vec![1u64, 2, 4, 8, 16, 64, 4096]),
    )
        .prop_map(|(base, step_scale, stride)| {
            let mut line = [0u8; LINE_SIZE];
            for (i, chunk) in line.chunks_exact_mut(8).enumerate() {
                let v = base.wrapping_add(i as u64 * step_scale * stride);
                chunk.copy_from_slice(&v.to_le_bytes());
            }
            line
        })
}

fn roundtrips<C: Compressor>(c: &C, line: &Line) {
    let compressed = c.compress(line);
    prop_assert_eq_ok(&c.decompress(&compressed), line, c.name());
    assert!(
        compressed.size_bytes() <= LINE_SIZE,
        "{} expanded beyond a raw line",
        c.name()
    );
}

fn prop_assert_eq_ok(got: &Line, want: &Line, algo: &str) {
    assert_eq!(got, want, "{algo} failed to round-trip");
}

/// The size-only fast path must agree with the full encoder.
fn size_kernel_agrees<C: Compressor>(c: &C, line: &Line) {
    let compressed = c.compress(line);
    assert_eq!(
        c.compressed_size(line),
        compressed.size_bytes(),
        "{} size kernel disagrees with full encoder",
        c.name()
    );
}

fn size_kernels_agree(line: &Line) {
    size_kernel_agrees(&Bdi::new(), line);
    size_kernel_agrees(&Fpc::new(), line);
    size_kernel_agrees(&Bpc::new(), line);
    size_kernel_agrees(&CPack::new(), line);
}

#[test]
fn size_kernels_agree_on_degenerate_lines() {
    // The degenerate BDI modes: all-zero and one repeated 8-byte value.
    size_kernels_agree(&[0u8; LINE_SIZE]);
    let mut repeat8 = [0u8; LINE_SIZE];
    for chunk in repeat8.chunks_exact_mut(8) {
        chunk.copy_from_slice(&0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
    }
    size_kernels_agree(&repeat8);
    // And a high-entropy raw-fallback line.
    let mut raw = [0u8; LINE_SIZE];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for byte in raw.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *byte = (state >> 33) as u8;
    }
    size_kernels_agree(&raw);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn bpc_roundtrips_random(line in arb_line()) {
        roundtrips(&Bpc::new(), &line);
    }

    #[test]
    fn bpc_roundtrips_structured(line in arb_structured_line()) {
        roundtrips(&Bpc::new(), &line);
    }

    #[test]
    fn bdi_roundtrips_random(line in arb_line()) {
        roundtrips(&Bdi::new(), &line);
    }

    #[test]
    fn bdi_roundtrips_structured(line in arb_structured_line()) {
        roundtrips(&Bdi::new(), &line);
    }

    #[test]
    fn fpc_roundtrips_random(line in arb_line()) {
        roundtrips(&Fpc::new(), &line);
    }

    #[test]
    fn fpc_roundtrips_structured(line in arb_structured_line()) {
        roundtrips(&Fpc::new(), &line);
    }

    #[test]
    fn cpack_roundtrips_random(line in arb_line()) {
        roundtrips(&CPack::new(), &line);
    }

    #[test]
    fn cpack_roundtrips_structured(line in arb_structured_line()) {
        roundtrips(&CPack::new(), &line);
    }

    #[test]
    fn bpc_transform_only_roundtrips(line in arb_line()) {
        let bpc = Bpc::new();
        let c = bpc.compress_transform_only(&line);
        assert_eq!(bpc.decompress(&c), line);
    }

    #[test]
    fn best_of_race_never_loses(line in arb_structured_line()) {
        let bpc = Bpc::new();
        assert!(bpc.compress(&line).bit_len() <= bpc.compress_transform_only(&line).bit_len());
    }

    #[test]
    fn size_kernels_agree_random(line in arb_line()) {
        size_kernels_agree(&line);
    }

    #[test]
    fn size_kernels_agree_structured(line in arb_structured_line()) {
        size_kernels_agree(&line);
    }

    #[test]
    fn is_zero_line_matches_a_byte_scan(
        bytes in prop::collection::vec((0..LINE_SIZE, any::<u8>()), 0..=2)
    ) {
        let mut line = [0u8; LINE_SIZE];
        for (pos, value) in bytes {
            line[pos] = value;
        }
        prop_assert_eq!(is_zero_line(&line), line.iter().all(|&b| b == 0));
    }

    #[test]
    fn quantize_upper_bounds(size in 0usize..=64) {
        for bins in [BinSet::aligned4(), BinSet::legacy4(), BinSet::eight()] {
            let bin = bins.quantize(size);
            assert!(bin.bytes as usize >= size);
            // Quantization is idempotent.
            assert_eq!(bins.quantize(bin.bytes as usize), bin);
        }
    }

    #[test]
    fn split_access_consistency(offset in 0usize..4096, size in 0usize..=64) {
        let n = accesses_for(offset, size);
        if size == 0 {
            assert_eq!(n, 0);
        } else {
            assert!((1..=2).contains(&n), "a <=64B line spans at most 2 bursts");
            assert_eq!(is_split_access(offset, size), n == 2);
        }
    }
}
