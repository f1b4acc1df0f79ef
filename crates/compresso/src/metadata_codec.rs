//! Bit-exact serialization of a metadata entry into its 64 B DRAM format
//! (Fig. 3).
//!
//! The in-memory [`PageMeta`] is a convenient struct; what actually sits
//! in the dedicated MPA metadata region is a packed 512-bit record:
//!
//! | field | bits |
//! |---|---|
//! | valid, zero, compressed, spare | 4 |
//! | page size (number of 512 B chunks, 0–8) | 4 |
//! | free space (bytes, for repack decisions) | 12 |
//! | 8 × MPFN (24-bit chunk frame numbers) | 192 |
//! | 64 × 2-bit line-size codes | 128 |
//! | inflation count | 6 |
//! | 17 × 6-bit inflation pointers | 102 |
//! | spare | 32 |
//! | CRC-32 over bytes [0, 60) | 32 |
//!
//! The first 32 bytes hold the control word and MPFNs — everything an
//! *uncompressed* page needs — which is precisely why the §IV-B5
//! half-entry metadata-cache optimization works.
//!
//! The fields occupy exactly 448 bits (56 bytes); the former padding now
//! carries a CRC-32 (IEEE) over bytes `[0, 60)`, stored little-endian in
//! bytes `[60, 64)`. Every single-bit flip anywhere in the 512-bit record
//! is detected: a flip in `[0, 60)` changes the computed checksum, a flip
//! in `[60, 64)` changes the stored one. Before the CRC landed, flips in
//! the padding decoded to an identical entry and were accepted silently
//! (counted as `metadata.corruption_undetected`, DESIGN.md §10).

use crate::error::CompressoError;
use crate::metadata::{PageMeta, LINES_PER_PAGE};
use compresso_compression::{BinSet, BitReader, BitWriter};

/// Size of the packed entry.
pub const PACKED_BYTES: usize = 64;

/// Offset of the little-endian CRC-32 within a packed entry; the
/// checksum covers bytes `[0, CRC_OFFSET)`.
pub const CRC_OFFSET: usize = PACKED_BYTES - 4;

/// Width of each line-size code: the packed entry holds 64 of them, so
/// a bin set of more than four bins cannot be packed (§IV-A1).
pub const LINE_CODE_BITS: u32 = 2;

/// Inflation pointers in an entry: the most lines a page's inflation
/// room can hold (§IV-B3).
pub const MAX_INFLATED: usize = 17;

/// Table-driven CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
///
/// Shared by the packed-entry codec and the metadata journal
/// ([`crate::journal`]) so both layers agree on what "checksummed"
/// means.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Error decoding a packed metadata entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMetadataError {
    /// The chunk count field exceeds 8.
    BadChunkCount(u8),
    /// The inflation count exceeds 17.
    BadInflationCount(u8),
    /// A line-size code exceeds the bin set.
    BadLineCode(u8),
    /// The stored CRC-32 does not match the entry bytes.
    BadCrc { expected: u32, found: u32 },
}

impl std::fmt::Display for DecodeMetadataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeMetadataError::BadChunkCount(n) => write!(f, "invalid chunk count {n}"),
            DecodeMetadataError::BadInflationCount(n) => {
                write!(f, "invalid inflation count {n}")
            }
            DecodeMetadataError::BadLineCode(c) => write!(f, "invalid line-size code {c}"),
            DecodeMetadataError::BadCrc { expected, found } => {
                write!(
                    f,
                    "metadata CRC mismatch: expected {expected:#010x}, found {found:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeMetadataError {}

/// Packs `meta` into its 64 B DRAM representation.
///
/// # Errors
///
/// Returns [`CompressoError::UnencodableMetadata`] if the entry violates
/// hardware limits (more than 8 chunks, more than 17 inflated lines, a
/// chunk frame number above 2^24, or a line code outside the bin set or
/// wider than [`LINE_CODE_BITS`]) —
/// such an entry cannot exist in a correct controller, but fault-injected
/// runs must not abort on it.
pub fn try_encode(meta: &PageMeta, bins: &BinSet) -> Result<[u8; PACKED_BYTES], CompressoError> {
    if meta.chunks.len() > 8 {
        return Err(CompressoError::UnencodableMetadata(
            "more than 8 chunks per page",
        ));
    }
    if meta.inflated.len() > MAX_INFLATED {
        return Err(CompressoError::UnencodableMetadata(
            "more than 17 inflation pointers",
        ));
    }
    // Validate line codes before `free_bytes` indexes the bin set.
    let codes = bins.len().min(1 << LINE_CODE_BITS);
    if meta.line_bins.iter().any(|&code| code as usize >= codes) {
        return Err(CompressoError::UnencodableMetadata(
            "line code outside the bin set or its 2-bit field",
        ));
    }
    let mut w = BitWriter::new();
    w.write_bit(meta.valid);
    w.write_bit(meta.zero);
    w.write_bit(meta.compressed);
    w.write_bit(false); // spare
    w.write(meta.chunks.len() as u64, 4);
    let free = meta.free_bytes(bins).min(4095);
    w.write(free as u64, 12);
    for i in 0..8 {
        let mpfn = meta.chunks.get(i).copied().unwrap_or(0);
        if mpfn >= (1 << 24) {
            return Err(CompressoError::UnencodableMetadata("MPFN must fit 24 bits"));
        }
        w.write(mpfn as u64, 24);
    }
    for &code in meta.line_bins.iter() {
        w.write(code as u64, LINE_CODE_BITS as usize);
    }
    w.write(meta.inflated.len() as u64, 6);
    for i in 0..MAX_INFLATED {
        let line = meta.inflated.get(i).copied().unwrap_or(0);
        w.write(line as u64, 6);
    }
    let (bytes, bit_len) = w.into_parts();
    debug_assert!(
        bit_len <= CRC_OFFSET * 8,
        "fields must leave room for the CRC"
    );
    let mut out = [0u8; PACKED_BYTES];
    out[..bytes.len()].copy_from_slice(&bytes);
    let crc = crc32(&out[..CRC_OFFSET]);
    out[CRC_OFFSET..].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// As [`try_encode`] for entries known to respect the hardware limits.
///
/// # Panics
///
/// Panics where [`try_encode`] would return an error.
pub fn encode(meta: &PageMeta, bins: &BinSet) -> [u8; PACKED_BYTES] {
    match try_encode(meta, bins) {
        Ok(packed) => packed,
        Err(e) => panic!("{e}"),
    }
}

/// Unpacks a 64 B metadata record.
///
/// `page_bytes` is reconstructed from the chunk count (chunks × 512 B).
///
/// # Errors
///
/// Returns a [`DecodeMetadataError`] if the CRC does not match the entry
/// bytes or any field is out of range (corrupted metadata). The CRC is
/// checked first, so every single-bit flip — including flips in spare
/// bits that leave the fields intact — surfaces as `BadCrc`.
pub fn decode(packed: &[u8; PACKED_BYTES], bins: &BinSet) -> Result<PageMeta, DecodeMetadataError> {
    let expected = crc32(&packed[..CRC_OFFSET]);
    let found = u32::from_le_bytes(packed[CRC_OFFSET..].try_into().expect("4 bytes"));
    if expected != found {
        return Err(DecodeMetadataError::BadCrc { expected, found });
    }
    let mut r = BitReader::new(packed);
    let valid = r.read_bit();
    let zero = r.read_bit();
    let compressed = r.read_bit();
    let _spare = r.read_bit();
    let chunk_count = r.read(4) as u8;
    if chunk_count > 8 {
        return Err(DecodeMetadataError::BadChunkCount(chunk_count));
    }
    let _free = r.read(12);
    let mut chunks = Vec::with_capacity(chunk_count as usize);
    for i in 0..8 {
        let mpfn = r.read(24) as u32;
        if i < chunk_count as usize {
            chunks.push(mpfn);
        }
    }
    let mut line_bins = [0u8; LINES_PER_PAGE];
    for code in line_bins.iter_mut() {
        let c = r.read(LINE_CODE_BITS as usize) as u8;
        if (c as usize) >= bins.len() {
            return Err(DecodeMetadataError::BadLineCode(c));
        }
        *code = c;
    }
    let inflation_count = r.read(6) as u8;
    if inflation_count as usize > MAX_INFLATED {
        return Err(DecodeMetadataError::BadInflationCount(inflation_count));
    }
    let mut inflated = Vec::with_capacity(inflation_count as usize);
    for i in 0..MAX_INFLATED {
        let line = r.read(6) as u8;
        if i < inflation_count as usize {
            inflated.push(line);
        }
    }
    Ok(PageMeta {
        valid,
        zero,
        compressed,
        page_bytes: chunk_count as u32 * 512,
        chunks,
        line_bins,
        inflated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use compresso_compression::BinSet;

    fn sample() -> PageMeta {
        let mut m = PageMeta {
            valid: true,
            zero: false,
            compressed: true,
            page_bytes: 1536,
            chunks: vec![100, 2000, 16_000_000],
            line_bins: [0; LINES_PER_PAGE],
            inflated: vec![5, 63, 0],
        };
        for (i, b) in m.line_bins.iter_mut().enumerate() {
            *b = (i % 4) as u8;
        }
        m
    }

    #[test]
    fn roundtrip() {
        let bins = BinSet::aligned4();
        let m = sample();
        let packed = encode(&m, &bins);
        let decoded = decode(&packed, &bins).expect("valid entry");
        assert_eq!(decoded, m);
    }

    #[test]
    fn zero_page_roundtrip() {
        let bins = BinSet::aligned4();
        let m = PageMeta::zero_page();
        let decoded = decode(&encode(&m, &bins), &bins).expect("valid entry");
        assert_eq!(decoded, m);
    }

    #[test]
    fn invalid_entry_roundtrip() {
        let bins = BinSet::aligned4();
        let m = PageMeta::invalid();
        let decoded = decode(&encode(&m, &bins), &bins).expect("valid entry");
        assert_eq!(decoded, m);
    }

    #[test]
    fn control_and_mpfns_fit_the_first_32_bytes() {
        // The §IV-B5 half-entry claim: everything an uncompressed page
        // needs (control + 8 MPFNs) lives in bits [0, 212) < 256.
        let control_and_mpfn_bits = 4 + 4 + 12 + 8 * 24;
        assert!(control_and_mpfn_bits <= 32 * 8);
    }

    #[test]
    fn corrupted_chunk_count_is_rejected() {
        let bins = BinSet::aligned4();
        let mut packed = encode(&sample(), &bins);
        packed[0] |= 0x0F; // force the 4-bit chunk count to 15
                           // The CRC guard fires before field validation gets a chance.
        assert!(matches!(
            decode(&packed, &bins),
            Err(DecodeMetadataError::BadCrc { .. })
        ));
        // Re-seal the corrupted bytes to exercise the field check itself.
        let crc = crc32(&packed[..CRC_OFFSET]);
        packed[CRC_OFFSET..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode(&packed, &bins),
            Err(DecodeMetadataError::BadChunkCount(_))
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bins = BinSet::aligned4();
        let packed = encode(&sample(), &bins);
        for bit in 0..PACKED_BYTES * 8 {
            let mut flipped = packed;
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode(&flipped, &bins).is_err(),
                "flip of bit {bit} was accepted silently"
            );
        }
    }

    #[test]
    fn max_sized_entry_fits() {
        let bins = BinSet::aligned4();
        let mut m = sample();
        m.chunks = (0..8).map(|i| (1 << 24) - 1 - i).collect();
        m.inflated = (0..MAX_INFLATED).map(|i| i as u8 * 3).collect();
        m.line_bins = [3; LINES_PER_PAGE];
        m.page_bytes = 4096;
        let decoded = decode(&encode(&m, &bins), &bins).expect("valid entry");
        assert_eq!(decoded, m);
    }

    #[test]
    #[should_panic(expected = "24 bits")]
    fn oversized_mpfn_panics() {
        let bins = BinSet::aligned4();
        let mut m = sample();
        m.chunks = vec![1 << 24];
        let _ = encode(&m, &bins);
    }

    #[test]
    fn try_encode_reports_every_hardware_limit() {
        let bins = BinSet::aligned4();
        assert!(try_encode(&sample(), &bins).is_ok());
        let mut m = sample();
        m.chunks = vec![0; 9];
        assert!(matches!(
            try_encode(&m, &bins),
            Err(CompressoError::UnencodableMetadata(_))
        ));
        let mut m = sample();
        m.inflated = vec![0; 18];
        assert!(matches!(
            try_encode(&m, &bins),
            Err(CompressoError::UnencodableMetadata(_))
        ));
        let mut m = sample();
        m.chunks = vec![1 << 24];
        assert!(matches!(
            try_encode(&m, &bins),
            Err(CompressoError::UnencodableMetadata(_))
        ));
        let mut m = sample();
        m.line_bins[0] = 4; // aligned4 has exactly 4 bins: codes 0..=3
        assert!(matches!(
            try_encode(&m, &bins),
            Err(CompressoError::UnencodableMetadata(_))
        ));
        // Eight bins need 3-bit codes: code 5 is in the bin set but not
        // in the 2-bit field, so it must not be truncated to 1.
        let eight = BinSet::eight();
        assert!(try_encode(&sample(), &eight).is_ok());
        let mut m = sample();
        m.line_bins[0] = 5;
        assert!(matches!(
            try_encode(&m, &eight),
            Err(CompressoError::UnencodableMetadata(_))
        ));
    }
}
