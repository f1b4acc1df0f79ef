//! Bit-Plane Compression (BPC), adapted for 64 B CPU cache lines.
//!
//! The original BPC (Kim et al., ISCA 2016) compresses 128 B GPU blocks of
//! 32-bit words, producing 33 bit-planes of 31 bits each after its
//! Delta-BitPlane-XOR (DBX) transform. Compresso (§II-A) adapts it to 64 B
//! CPU lines. We keep the original plane width by treating the line as
//! **32 16-bit symbols**: 31 deltas of 17 bits transpose into **17
//! bit-planes of 31 bits** — matching the "17 bit-planes" the Compresso
//! paper's latency model processes (§VI-D).
//!
//! The paper further observes that always applying the transform is
//! suboptimal and adds a unit that compresses **with and without the
//! transform in parallel**, keeping the smaller encoding (worth an average
//! 13% extra memory savings). [`Bpc::compress`] implements exactly that
//! race: a 2-bit mode header selects zero-line / transformed /
//! untransformed-bit-plane / raw.
//!
//! The size-only path ([`Bpc::compressed_size`]) runs the same race
//! without building planes. A plane's code depends only on its class
//! (zero, all-ones, one 1, two adjacent 1s, other), and each class is a
//! reduction over the lanes at one bit position: OR, AND, "at least two
//! lanes", "at least three lanes" and "two neighbouring lanes". On
//! x86_64 the kernel (`kernel::Classes`) holds the 32 symbols in four
//! SSE2 vectors of eight 16-bit lanes, so every bit position of a lane is
//! one plane's bit, and computes:
//!
//! * the deltas with `psubw` against the successor lanes, their borrow
//!   bits with a signed compare after flipping the top bits, and the DBX
//!   planes as `d ^ (d << 1)`;
//! * the five reductions down the four vectors, for the symbols and for
//!   the deltas (lane 31, which has no delta, masked off);
//! * a 3-step horizontal fold of both sets at once, to one mask per
//!   reduction with one bit per plane;
//! * the borrow-mixed top plane with `movemask` as a 31-bit word,
//!   classified directly.
//!
//! Both sets are then costed from popcounts of those masks. The kernel
//! is compiled twice (`kernel::Build`): as SSE2 with SWAR popcounts, and
//! as AVX2+POPCNT, which every call runs where the CPU has both. On other
//! targets the size path costs the encoder's own planes. The encoder
//! builds and costs real planes and is the reference the kernel is tested
//! against.
//!
//! # Code table
//!
//! Each (31-bit or 32-bit) plane is encoded with a prefix-free code:
//!
//! | code              | meaning                                  |
//! |-------------------|------------------------------------------|
//! | `01`  + 5 bits    | run of 1–32 all-zero planes (len − 1)    |
//! | `001`             | all-ones plane                           |
//! | `0001` + 5 bits   | plane with a single 1 at position *p*    |
//! | `00001` + 5 bits  | plane with two consecutive 1s at *p*,*p+1* |
//! | `1`   + plane-width raw bits | verbatim plane                |

use crate::bits::{BitReader, BitWriter};
use crate::{Algorithm, CompressedLine, Compressor, Line, LINE_SIZE};

const SYMBOLS: usize = 32; // 16-bit symbols per line
const DELTAS: usize = SYMBOLS - 1; // 31
const DELTA_BITS: usize = 17; // 16-bit difference needs 17 bits
const DATA_PLANES: usize = 16; // untransformed mode: 16 planes of 32 bits

const MODE_ZERO: u64 = 0b00;
const MODE_TRANSFORMED: u64 = 0b01;
const MODE_BITPLANE: u64 = 0b10;
const MODE_RAW: u64 = 0b11;

/// The Bit-Plane Compression algorithm with Compresso's modifications.
///
/// See the [module documentation](self) for the exact encoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bpc {
    _private: (),
}

impl Bpc {
    /// Creates a BPC compressor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compresses using only the DBX transform (no untransformed race).
    ///
    /// This is "baseline BPC" — used to quantify the paper's claim that the
    /// best-of-both modification saves an average 13% more memory.
    pub fn compress_transform_only(&self, line: &Line) -> CompressedLine {
        let mut w = BitWriter::new();
        if crate::is_zero_line(line) {
            w.write(MODE_ZERO, 2);
        } else {
            let (base, dbx) = transformed_planes(line);
            if transformed_bits(base, &dbx) >= LINE_SIZE * 8 {
                emit_raw(&mut w, line);
            } else {
                emit_transformed(&mut w, base, &dbx);
            }
        }
        let (bytes, len) = w.into_parts();
        CompressedLine::new(Algorithm::Bpc, bytes, len)
    }
}

impl Compressor for Bpc {
    fn name(&self) -> &'static str {
        "BPC"
    }

    fn compress(&self, line: &Line) -> CompressedLine {
        if crate::is_zero_line(line) {
            return CompressedLine::encode(Algorithm::Bpc, |w| w.write(MODE_ZERO, 2));
        }
        // The paper's modification: race the transform against a direct
        // bit-plane encoding and keep the smaller result (transformed on
        // ties). Both plane sets live on the stack; only the winner is
        // serialized.
        let (base, dbx) = transformed_planes(line);
        let planes = data_planes(line);
        let t_bits = transformed_bits(base, &dbx);
        let p_bits = 2 + planes_bits(&planes, SYMBOLS);
        CompressedLine::encode(Algorithm::Bpc, |w| {
            if t_bits.min(p_bits) >= LINE_SIZE * 8 {
                emit_raw(w, line);
            } else if t_bits <= p_bits {
                emit_transformed(w, base, &dbx);
            } else {
                emit_bitplane(w, &planes);
            }
        })
    }

    fn decompress(&self, compressed: &CompressedLine) -> Line {
        assert_eq!(compressed.algorithm(), Algorithm::Bpc, "not a BPC stream");
        let mut r = BitReader::new(compressed.payload());
        match r.read(2) {
            MODE_ZERO => [0u8; LINE_SIZE],
            MODE_TRANSFORMED => decode_transformed(&mut r),
            MODE_BITPLANE => decode_bitplane(&mut r),
            MODE_RAW => {
                let mut line = [0u8; LINE_SIZE];
                for byte in line.iter_mut() {
                    *byte = r.read(8) as u8;
                }
                line
            }
            _ => unreachable!("2-bit mode"),
        }
    }

    fn compressed_size(&self, line: &Line) -> usize {
        if crate::is_zero_line(line) {
            return 1; // 2-bit mode header
        }
        let (t_bits, p_bits) = race_bits(line);
        let best = t_bits.min(p_bits);
        if best >= LINE_SIZE * 8 {
            LINE_SIZE // raw fallback
        } else {
            best.div_ceil(8)
        }
    }
}

/// Exact bit lengths of a non-zero line's transformed and untransformed
/// encodings, mode header included, from the plane classes of the
/// fastest kernel build this CPU runs.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn race_bits(line: &Line) -> (usize, usize) {
    let w = words(line);
    let (_, (t_planes, p_planes)) = kernel::Build::fastest().run(&w);
    let base_bits = if w[0] as u16 == 0 { 1 } else { 1 + 16 };
    (2 + base_bits + t_planes, 2 + p_planes)
}

/// Exact bit lengths of a non-zero line's transformed and untransformed
/// encodings, mode header included, costed on the encoder's own planes.
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
fn race_bits(line: &Line) -> (usize, usize) {
    let (base, dbx) = transformed_planes(line);
    (
        transformed_bits(base, &dbx),
        2 + planes_bits(&data_planes(line), SYMBOLS),
    )
}

fn line_from_symbols(syms: &[u16; SYMBOLS]) -> Line {
    let mut line = [0u8; LINE_SIZE];
    for (i, sym) in syms.iter().enumerate() {
        line[2 * i..2 * i + 2].copy_from_slice(&sym.to_le_bytes());
    }
    line
}

/// The top bit of every 16-bit lane.
const LANE_MSB: u64 = 0x8000_8000_8000_8000;
/// The 31 delta positions of a delta plane.
const DELTA_MASK: u32 = (1 << DELTAS) - 1;

/// The line as 8 little-endian words: word `w` holds symbols `4w..4w+4`,
/// symbol `4w + l` in bits `16l..16l + 16`.
fn words(line: &Line) -> [u64; 8] {
    let mut words = [0u64; 8];
    for (word, chunk) in words.iter_mut().zip(line.chunks_exact(8)) {
        *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    words
}

/// The even-indexed bytes of `w`, packed into its low 32 bits.
fn even_bytes(w: u64) -> u64 {
    let x = w & 0x00FF_00FF_00FF_00FF;
    let x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x | (x >> 16)) & 0xFFFF_FFFF
}

/// Transposes the 8×8 bit matrix held one row per byte: bit `c` of byte
/// `r` moves to bit `r` of byte `c` (Hacker's Delight §7-3).
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Bit-planes of the 32 16-bit lanes of `words`: bit `j` of `planes[k]`
/// is bit `k` of lane `j`. Each group of 8 lanes splits into its low and
/// high bytes, and one 8×8 transpose per byte turns 8 lanes' bits into 8
/// plane bytes.
fn lane_planes(words: &[u64; 8]) -> [u32; 16] {
    let mut lo = [0u64; 4];
    let mut hi = [0u64; 4];
    for (g, pair) in words.chunks_exact(2).enumerate() {
        lo[g] = transpose8(even_bytes(pair[0]) | even_bytes(pair[1]) << 32);
        hi[g] = transpose8(even_bytes(pair[0] >> 8) | even_bytes(pair[1] >> 8) << 32);
    }
    let mut planes = [0u32; 16];
    gather_bytes(&lo, &mut planes[..8]);
    gather_bytes(&hi, &mut planes[8..]);
    planes
}

/// The 4×8 byte transpose: byte `k` of `blocks[g]` becomes byte `g` of
/// `planes[k]`.
fn gather_bytes(blocks: &[u64; 4], planes: &mut [u32]) {
    const M8: u64 = 0x00FF_00FF_00FF_00FF;
    const M16: u64 = 0x0000_FFFF_0000_FFFF;
    let [b0, b1, b2, b3] = *blocks;
    // 16-bit lane m: byte 2m (even) or 2m + 1 (odd) of two blocks.
    let even01 = (b0 & M8) | ((b1 & M8) << 8);
    let odd01 = ((b0 >> 8) & M8) | (b1 & !M8);
    let even23 = (b2 & M8) | ((b3 & M8) << 8);
    let odd23 = ((b2 >> 8) & M8) | (b3 & !M8);
    // `near` holds planes `first` and `first + 4` in its 32-bit halves,
    // `far` planes `first + 2` and `first + 6`.
    for (first, lo01, lo23) in [(0, even01, even23), (1, odd01, odd23)] {
        let near = (lo01 & M16) | ((lo23 & M16) << 16);
        let far = ((lo01 >> 16) & M16) | (lo23 & !M16);
        planes[first] = near as u32;
        planes[first + 4] = (near >> 32) as u32;
        planes[first + 2] = far as u32;
        planes[first + 6] = (far >> 32) as u32;
    }
}

/// Builds the transformed-mode planes: the base symbol plus the DBX'd
/// delta planes (each plane XOR the next toward the LSB plane).
///
/// Delta `j` is `sym[j + 1] - sym[j]` as a 17-bit two's-complement
/// value: its low 16 bits are the wrapping 16-bit difference and bit 16
/// is the borrow out of it. Both are computed four lanes per word, then
/// transposed into planes (plane index 0 = delta bit 16, the MSB).
fn transformed_planes(line: &Line) -> (u16, [u32; DELTA_BITS]) {
    let w = words(line);
    let mut diffs = [0u64; 8];
    let mut borrows = 0u32;
    for i in 0..8 {
        // Lane l of `next` is symbol 4i + l + 1; the last word's top lane
        // has no successor and is masked off below.
        let next = (w[i] >> 16) | w.get(i + 1).map_or(0, |n| n << 48);
        let cur = w[i];
        let diff = ((next | LANE_MSB) - (cur & !LANE_MSB)) ^ ((next ^ !cur) & LANE_MSB);
        let borrow = ((!next & cur) | (!(next ^ cur) & diff)) & LANE_MSB;
        diffs[i] = diff;
        let nibble =
            ((borrow >> 15) & 1) | ((borrow >> 30) & 2) | ((borrow >> 45) & 4) | (borrow >> 60);
        borrows |= (nibble as u32) << (4 * i);
    }
    let lanes = lane_planes(&diffs);
    let mut planes = [0u32; DELTA_BITS];
    planes[0] = borrows & DELTA_MASK;
    for b in 1..DELTA_BITS {
        planes[b] = lanes[DELTA_BITS - 1 - b] & DELTA_MASK;
    }
    let mut dbx = [0u32; DELTA_BITS];
    for b in 0..DELTA_BITS {
        dbx[b] = if b + 1 < DELTA_BITS {
            planes[b] ^ planes[b + 1]
        } else {
            planes[b]
        };
    }
    (w[0] as u16, dbx)
}

/// Builds the untransformed-mode planes: the 32 symbols' 16 bit-planes
/// (plane index 0 = symbol bit 15, the MSB).
fn data_planes(line: &Line) -> [u32; DATA_PLANES] {
    let lanes = lane_planes(&words(line));
    std::array::from_fn(|b| lanes[DATA_PLANES - 1 - b])
}

/// Exact bit length of the transformed encoding (mode + base + planes).
fn transformed_bits(base: u16, dbx: &[u32; DELTA_BITS]) -> usize {
    let base_bits = if base == 0 { 1 } else { 1 + 16 };
    2 + base_bits + planes_bits(dbx, DELTAS)
}

fn emit_transformed(w: &mut BitWriter, base: u16, dbx: &[u32; DELTA_BITS]) {
    w.write(MODE_TRANSFORMED, 2);
    if base == 0 {
        w.write_bit(false);
    } else {
        w.write_bit(true);
        w.write(base as u64, 16);
    }
    encode_planes(w, dbx, DELTAS);
}

fn decode_transformed(r: &mut BitReader<'_>) -> Line {
    let base = if r.read_bit() { r.read(16) as u16 } else { 0 };
    let mut dbx = [0u32; DELTA_BITS];
    decode_planes(r, &mut dbx, DELTAS);
    // Undo DBX from the LSB plane upward.
    let mut planes = [0u32; DELTA_BITS];
    planes[DELTA_BITS - 1] = dbx[DELTA_BITS - 1];
    for b in (0..DELTA_BITS - 1).rev() {
        planes[b] = dbx[b] ^ planes[b + 1];
    }
    // Transpose back into deltas.
    let mut syms = [0u16; SYMBOLS];
    syms[0] = base;
    for j in 0..DELTAS {
        let mut bits = 0u32;
        for (b, plane) in planes.iter().enumerate() {
            bits |= ((plane >> j) & 1) << (DELTA_BITS - 1 - b);
        }
        // Sign-extend the 17-bit delta.
        let delta = ((bits << 15) as i32) >> 15;
        syms[j + 1] = (syms[j] as i32 + delta) as u16;
    }
    line_from_symbols(&syms)
}

/// Untransformed mode: the 32 symbols' 16 bit-planes (32 bits wide each)
/// encoded directly with the same pattern table.
fn emit_bitplane(w: &mut BitWriter, planes: &[u32; DATA_PLANES]) {
    w.write(MODE_BITPLANE, 2);
    encode_planes(w, planes, SYMBOLS);
}

fn decode_bitplane(r: &mut BitReader<'_>) -> Line {
    let mut planes = [0u32; DATA_PLANES];
    decode_planes(r, &mut planes, SYMBOLS);
    let mut syms = [0u16; SYMBOLS];
    for (j, sym) in syms.iter_mut().enumerate() {
        let mut bits = 0u32;
        for (b, plane) in planes.iter().enumerate() {
            bits |= ((plane >> j) & 1) << (DATA_PLANES - 1 - b);
        }
        *sym = bits as u16;
    }
    line_from_symbols(&syms)
}

fn emit_raw(w: &mut BitWriter, line: &Line) {
    w.write(MODE_RAW, 2);
    for chunk in line.chunks_exact(8) {
        let word = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        w.write(word, 64);
    }
}

/// Encodes `planes` (each `width` bits wide) with the pattern code table,
/// run-length-collapsing consecutive all-zero planes.
fn encode_planes(w: &mut BitWriter, planes: &[u32], width: usize) {
    let ones_mask: u32 = if width == 32 {
        u32::MAX
    } else {
        (1 << width) - 1
    };
    let mut i = 0;
    while i < planes.len() {
        let plane = planes[i] & ones_mask;
        if plane == 0 {
            let mut run = 1;
            while i + run < planes.len() && planes[i + run] & ones_mask == 0 && run < 32 {
                run += 1;
            }
            w.write(0b01, 2);
            w.write(run as u64 - 1, 5);
            i += run;
            continue;
        }
        if plane == ones_mask {
            w.write(0b001, 3);
        } else if plane.count_ones() == 1 {
            w.write(0b0001, 4);
            w.write(plane.trailing_zeros() as u64, 5);
        } else if plane.count_ones() == 2 && is_two_consecutive(plane) {
            w.write(0b00001, 5);
            w.write(plane.trailing_zeros() as u64, 5);
        } else {
            w.write(0b1, 1);
            w.write(plane as u64, width);
        }
        i += 1;
    }
}

/// Bit-length counterpart of [`encode_planes`]: the exact number of bits
/// that call would emit, without touching a writer. Zero runs are never
/// split: a line has at most 17 planes, under the 32-plane run limit.
fn planes_bits(planes: &[u32], width: usize) -> usize {
    debug_assert!(planes.len() <= 32, "a zero run may not exceed 32 planes");
    let ones_mask: u32 = if width == 32 {
        u32::MAX
    } else {
        (1 << width) - 1
    };
    let mut bits = 0;
    let mut zero_runs = 0;
    let mut prev_zero = false;
    for &plane in planes {
        let plane = plane & ones_mask;
        let lowest = plane & plane.wrapping_neg();
        zero_runs += (plane == 0 && !prev_zero) as usize;
        prev_zero = plane == 0;
        // Branch-free: on a non-zero plane at most one special code
        // applies; a zero plane costs nothing here.
        let nonzero = (plane != 0) as usize;
        let ones = (plane == ones_mask) as usize;
        let single = (plane == lowest) as usize & nonzero;
        let pair = (plane as u64 == lowest as u64 * 3) as usize & nonzero;
        let raw = 1 + width;
        bits +=
            raw * nonzero - (raw - 3) * ones - (raw - (4 + 5)) * single - (raw - (5 + 5)) * pair;
    }
    bits + zero_runs * (2 + 5)
}

fn is_two_consecutive(plane: u32) -> bool {
    let p = plane >> plane.trailing_zeros();
    p == 0b11
}

fn decode_planes(r: &mut BitReader<'_>, planes: &mut [u32], width: usize) {
    let ones_mask: u32 = if width == 32 {
        u32::MAX
    } else {
        (1 << width) - 1
    };
    let mut i = 0;
    while i < planes.len() {
        if r.read_bit() {
            planes[i] = r.read(width) as u32;
            i += 1;
        } else if r.read_bit() {
            let run = r.read(5) as usize + 1;
            for _ in 0..run {
                planes[i] = 0;
                i += 1;
            }
        } else if r.read_bit() {
            planes[i] = ones_mask;
            i += 1;
        } else if r.read_bit() {
            let pos = r.read(5);
            planes[i] = 1 << pos;
            i += 1;
        } else {
            let decoded = r.read_bit();
            assert!(decoded, "invalid BPC plane code");
            let pos = r.read(5);
            planes[i] = 0b11 << pos;
            i += 1;
        }
    }
}

/// The size kernel: the code-table class of every plane of both plane
/// sets, computed with SSE2 over the line's 32 symbols as four vectors of
/// eight 16-bit lanes, without building planes.
///
/// One source, two builds: [`Build::Sse2`] for baseline x86_64, and
/// [`Build::Avx2Popcnt`], the same code compiled with AVX2 (VEX-encoded,
/// three-operand) and POPCNT enabled. Every helper is
/// `#[inline(always)]`, so each build's entry function holds its own copy
/// of the whole kernel.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod kernel {
    use super::{DELTAS, DELTA_MASK, SYMBOLS};
    use std::arch::x86_64::*;

    /// Where untransformed plane `k` (symbol bit `k`) sits in a
    /// [`Classes`] mask: bit `DATA + k`. Transformed plane `k` sits at
    /// bit `k`: for `k < 16` the DBX of delta bits `k` and `k - 1`, bit
    /// `k` of `y = d ^ (d << 1)` over the 31 wrapping 16-bit deltas `d`;
    /// at 16, borrow ⊕ delta bit 15.
    pub(super) const DATA: u32 = 32;
    /// Every plane of both sets.
    const PLANES: u64 = 0xFFFF << DATA | 0x1_FFFF;
    /// Both 16-bit lane-0 fields of a folded mask.
    const FIELDS: u64 = 0xFFFF << DATA | 0xFFFF;

    /// A compiled build of the kernel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Build {
        /// Baseline x86_64: SSE2, popcounts in SWAR arithmetic.
        Sse2,
        /// AVX2 and POPCNT: VEX encodings, one `popcnt` per mask half.
        Avx2Popcnt,
    }

    impl Build {
        /// Both builds.
        #[cfg(test)]
        pub(super) const ALL: [Build; 2] = [Build::Sse2, Build::Avx2Popcnt];

        /// The build this CPU runs best: AVX2+POPCNT where it has both,
        /// else the baseline. std caches the CPUID probe, so this is a
        /// load and a test per call.
        #[inline]
        pub(super) fn fastest() -> Build {
            if avx2_popcnt_detected() {
                Build::Avx2Popcnt
            } else {
                Build::Sse2
            }
        }

        /// Why this CPU cannot run the build, if it cannot.
        #[cfg(test)]
        pub(super) fn missing(self) -> Option<&'static str> {
            match self {
                Build::Avx2Popcnt if !avx2_popcnt_detected() => {
                    Some("the CPU lacks AVX2 or POPCNT")
                }
                _ => None,
            }
        }

        /// The classes of the line held in `words` (symbol `4w + l` in
        /// bits `16l..16l + 16` of word `w`), and the exact bit lengths
        /// of [`super::encode_planes`] over its transformed planes (31
        /// bits wide) and its untransformed ones (32 bits wide).
        ///
        /// # Panics
        ///
        /// On [`Build::Avx2Popcnt`] where the CPU lacks AVX2 or POPCNT.
        #[inline]
        pub(super) fn run(self, words: &[u64; 8]) -> (Classes, (usize, usize)) {
            match self {
                Build::Sse2 => sse2(words),
                Build::Avx2Popcnt => {
                    assert!(avx2_popcnt_detected(), "the CPU lacks AVX2 or POPCNT");
                    // SAFETY: the CPU has AVX2 and POPCNT, asserted above.
                    unsafe { avx2_popcnt(words) }
                }
            }
        }
    }

    #[inline]
    fn avx2_popcnt_detected() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
    }

    /// The baseline build: SWAR popcounts, since baseline x86_64 has no
    /// `popcnt`.
    #[inline]
    fn sse2(words: &[u64; 8]) -> (Classes, (usize, usize)) {
        // SAFETY: SSE2 is part of the x86_64 baseline; this module
        // compiles only where `target_feature = "sse2"` holds.
        let classes = unsafe { classes(words) };
        (classes, classes.bits(swar_counts))
    }

    /// The AVX2+POPCNT build of the same kernel.
    #[target_feature(enable = "avx2,popcnt")]
    fn avx2_popcnt(words: &[u64; 8]) -> (Classes, (usize, usize)) {
        // SAFETY: AVX2 implies SSE2.
        let classes = unsafe { classes(words) };
        let counts =
            |x: u64| u64::from((x as u32).count_ones()) | u64::from((x >> 32).count_ones()) << 32;
        (classes, classes.bits(counts))
    }

    /// The code-table class of every plane of both plane sets, as masks
    /// with one bit per plane (see [`DATA`]): plane `k` is zero unless
    /// `any` has bit `k`, all-ones if `all` has it, a single 1 if `two`
    /// lacks it, and two adjacent 1s if `two` and `adjacent` have it but
    /// `three` does not.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Classes {
        /// Some lane has the bit.
        pub any: u64,
        /// Every lane has the bit.
        pub all: u64,
        /// At least two lanes have the bit.
        pub two: u64,
        /// At least three lanes have the bit.
        pub three: u64,
        /// Two neighbouring lanes both have the bit.
        pub adjacent: u64,
    }

    impl Classes {
        /// Exact bit lengths of [`super::encode_planes`] over the
        /// transformed planes and over the untransformed ones. A zero run
        /// is counted at its first (highest) plane. `counts` gives the
        /// population counts of the two 32-bit halves of a mask, each in
        /// its own half.
        #[inline(always)]
        fn bits(self, counts: impl Fn(u64) -> u64) -> (usize, usize) {
            let single = self.any & !self.two;
            let pair = self.two & !self.three & self.adjacent;
            let raw = self.any & !(self.all | single | pair);
            let zero = !self.any & PLANES;
            let runs = zero & !(zero >> 1);
            let coded = 3 * counts(self.all)
                + (4 + 5) * counts(single)
                + (5 + 5) * counts(pair)
                + (2 + 5) * counts(runs);
            let raw = counts(raw);
            let half = |x: u64, set: u32| (x >> set) as u32 as usize;
            (
                half(coded, 0) + (1 + DELTAS) * half(raw, 0),
                half(coded, DATA) + (1 + SYMBOLS) * half(raw, DATA),
            )
        }
    }

    /// The population counts of the two 32-bit halves of `x`, each in
    /// its own half, in SWAR arithmetic.
    #[inline(always)]
    fn swar_counts(x: u64) -> u64 {
        let x = x - ((x >> 1) & 0x5555_5555_5555_5555);
        let x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
        let x = (x + (x >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        let x = x + (x >> 8);
        (x + (x >> 16)) & 0x0000_00FF_0000_00FF
    }

    /// Per bit position of each 16-bit lane, saturating counts of the
    /// lanes folded into it (1, ≥2, ≥3), their AND, and whether two
    /// neighbouring lanes both have the bit.
    #[derive(Clone, Copy)]
    struct Counts {
        one: __m128i,
        two: __m128i,
        three: __m128i,
        all: __m128i,
        adjacent: __m128i,
    }

    impl Counts {
        /// # Safety
        ///
        /// The CPU must have SSE2.
        #[inline(always)]
        unsafe fn new() -> Counts {
            let zero = _mm_setzero_si128();
            Counts {
                one: zero,
                two: zero,
                three: zero,
                all: _mm_set1_epi16(-1),
                adjacent: zero,
            }
        }

        /// Adds the lanes `x`, whose successor lanes are `next`; bits
        /// set in `pad` count as set for `all` only.
        ///
        /// # Safety
        ///
        /// The CPU must have SSE2.
        #[inline(always)]
        unsafe fn add(&mut self, x: __m128i, next: __m128i, pad: __m128i) {
            self.three = _mm_or_si128(self.three, _mm_and_si128(self.two, x));
            self.two = _mm_or_si128(self.two, _mm_and_si128(self.one, x));
            self.one = _mm_or_si128(self.one, x);
            self.all = _mm_and_si128(self.all, _mm_or_si128(x, pad));
            self.adjacent = _mm_or_si128(self.adjacent, _mm_and_si128(x, next));
        }

        /// Folds `other` into `self`, lane by lane.
        ///
        /// # Safety
        ///
        /// The CPU must have SSE2.
        #[inline(always)]
        unsafe fn merge(self, other: Counts) -> Counts {
            let (p, q) = (self, other);
            let or3 = |a, b, c| _mm_or_si128(_mm_or_si128(a, b), c);
            Counts {
                three: _mm_or_si128(
                    or3(p.three, q.three, _mm_and_si128(p.two, q.one)),
                    _mm_and_si128(p.one, q.two),
                ),
                two: or3(p.two, q.two, _mm_and_si128(p.one, q.one)),
                one: _mm_or_si128(p.one, q.one),
                all: _mm_and_si128(p.all, q.all),
                adjacent: _mm_or_si128(p.adjacent, q.adjacent),
            }
        }

        /// Applies `f` to every field.
        #[inline(always)]
        fn map(self, f: impl Fn(__m128i) -> __m128i) -> Counts {
            Counts {
                one: f(self.one),
                two: f(self.two),
                three: f(self.three),
                all: f(self.all),
                adjacent: f(self.adjacent),
            }
        }

        /// Applies `f` to every pair of fields.
        #[inline(always)]
        fn zip(self, other: Counts, f: impl Fn(__m128i, __m128i) -> __m128i) -> Counts {
            Counts {
                one: f(self.one, other.one),
                two: f(self.two, other.two),
                three: f(self.three, other.three),
                all: f(self.all, other.all),
                adjacent: f(self.adjacent, other.adjacent),
            }
        }
    }

    /// Lanes `l + 1` of `v` then `next`: lane 7 takes lane 0 of `next`.
    ///
    /// # Safety
    ///
    /// The CPU must have SSE2.
    #[inline(always)]
    unsafe fn successors(v: __m128i, next: __m128i) -> __m128i {
        _mm_or_si128(_mm_srli_si128::<2>(v), _mm_slli_si128::<14>(next))
    }

    /// The plane classes of the line held in `words`.
    ///
    /// # Safety
    ///
    /// The CPU must have SSE2.
    #[inline(always)]
    unsafe fn classes(words: &[u64; 8]) -> Classes {
        let zero = _mm_setzero_si128();
        let sign = _mm_set1_epi16(i16::MIN);
        // Lane 7 of the last vector is symbol 31, which has no delta.
        let last = _mm_set_epi16(-1, 0, 0, 0, 0, 0, 0, 0);
        // Lane l of sym[v] is symbol 8v + l; of next[v], symbol 8v + l + 1
        // (0 past the line).
        let sym: [__m128i; 4] =
            std::array::from_fn(|v| _mm_set_epi64x(words[2 * v + 1] as i64, words[2 * v] as i64));
        let next: [__m128i; 4] =
            std::array::from_fn(|v| successors(sym[v], *sym.get(v + 1).unwrap_or(&zero)));
        let mut y = [zero; 4];
        let mut msb = [zero; 4];
        for v in 0..4 {
            let diff = _mm_sub_epi16(next[v], sym[v]);
            // The borrow out of the 16-bit difference: symbol > successor
            // as unsigned, a signed compare after flipping the top bits.
            let borrow = _mm_cmpgt_epi16(_mm_xor_si128(sym[v], sign), _mm_xor_si128(next[v], sign));
            y[v] = _mm_xor_si128(diff, _mm_slli_epi16::<1>(diff));
            msb[v] = _mm_xor_si128(borrow, diff);
        }
        y[3] = _mm_andnot_si128(last, y[3]);
        let mut data = Counts::new();
        let mut delta = Counts::new();
        for v in 0..4 {
            data.add(sym[v], next[v], zero);
            let pad = if v == 3 { last } else { zero };
            delta.add(y[v], successors(y[v], *y.get(v + 1).unwrap_or(&zero)), pad);
        }
        // The borrow-mixed plane's 31 bits: the sign of each lane.
        let signs = |a, b| _mm_movemask_epi8(_mm_packs_epi16(a, b)) as u32;
        let top = (signs(msb[0], msb[1]) | signs(msb[2], msb[3]) << 16) & DELTA_MASK;
        // Fold each set's eight lanes into lane 0 (transformed) and lane
        // 4 (untransformed) of one vector.
        let folded = delta
            .zip(data, |t, d| _mm_unpacklo_epi64(t, d))
            .merge(delta.zip(data, |t, d| _mm_unpackhi_epi64(t, d)));
        let folded = folded.merge(folded.map(|x| _mm_srli_si128::<4>(x)));
        let folded = folded.merge(folded.map(|x| _mm_srli_si128::<2>(x)));
        // Lane 0 to bits 0..16, lane 4 to bits 32..48.
        let mask = |x| _mm_cvtsi128_si64(_mm_shuffle_epi32::<0b00_00_10_00>(x)) as u64 & FIELDS;
        let rest = top & top.wrapping_sub(1);
        let flag = |set: bool| (set as u64) << 16;
        Classes {
            any: mask(folded.one) | flag(top != 0),
            all: mask(folded.all) | flag(top == DELTA_MASK),
            two: mask(folded.two) | flag(rest != 0),
            three: mask(folded.three) | flag(rest & rest.wrapping_sub(1) != 0),
            adjacent: mask(folded.adjacent) | flag(top & (top >> 1) != 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(line: &Line) -> usize {
        let bpc = Bpc::new();
        let c = bpc.compress(line);
        assert_eq!(&bpc.decompress(&c), line, "BPC roundtrip failed");
        assert_eq!(
            bpc.compressed_size(line),
            c.size_bytes(),
            "size kernel disagrees with encoder"
        );
        c.size_bytes()
    }

    #[test]
    fn zero_line_compresses_to_one_byte() {
        assert_eq!(roundtrip(&[0u8; LINE_SIZE]), 1);
    }

    #[test]
    fn arithmetic_u16_sequence_is_tiny() {
        let mut line = [0u8; LINE_SIZE];
        for (i, chunk) in line.chunks_exact_mut(2).enumerate() {
            chunk.copy_from_slice(&(1000 + 7 * i as u16).to_le_bytes());
        }
        let size = roundtrip(&line);
        assert!(size <= 8, "arithmetic sequence should be <=8B, got {size}");
    }

    #[test]
    fn constant_line_is_tiny() {
        let mut line = [0u8; LINE_SIZE];
        for chunk in line.chunks_exact_mut(2) {
            chunk.copy_from_slice(&0x1234u16.to_le_bytes());
        }
        let size = roundtrip(&line);
        assert!(size <= 8, "constant line should be <=8B, got {size}");
    }

    #[test]
    fn random_line_falls_back_to_raw() {
        // A fixed high-entropy pattern; BPC cannot beat 64 B so the raw
        // mode must round-trip.
        let mut line = [0u8; LINE_SIZE];
        let mut state = 0x9E3779B97F4A7C15u64;
        for byte in line.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *byte = (state >> 33) as u8;
        }
        assert_eq!(roundtrip(&line), LINE_SIZE);
    }

    #[test]
    fn low_byte_counter_pattern() {
        // Pointer-like data: identical upper bytes, counting lower bytes.
        let mut line = [0u8; LINE_SIZE];
        for (i, chunk) in line.chunks_exact_mut(8).enumerate() {
            let v: u64 = 0x7FFF_AB00_0000_0000 | (i as u64 * 64);
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        // Wide symbol swings (lo-word, zero, 0xAB00, 0x7FFF, ...) limit
        // BPC here; it still beats raw storage.
        let size = roundtrip(&line);
        assert!(
            size < LINE_SIZE,
            "pointer array should beat raw, got {size}"
        );
    }

    #[test]
    fn best_of_transform_never_worse_than_transform_only() {
        let bpc = Bpc::new();
        let mut cases: Vec<Line> = Vec::new();
        // Alternating pattern (hostile to deltas, fine for raw planes).
        let mut alt = [0u8; LINE_SIZE];
        for (i, chunk) in alt.chunks_exact_mut(2).enumerate() {
            let v: u16 = if i % 2 == 0 { 0x00FF } else { 0xFF00 };
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        cases.push(alt);
        cases.push([0x55u8; LINE_SIZE]);
        for line in &cases {
            let best = bpc.compress(line).size_bytes();
            let only = bpc.compress_transform_only(line).size_bytes();
            assert!(best <= only, "best-of must never lose: {best} vs {only}");
            assert_eq!(&bpc.decompress(&bpc.compress(line)), line);
        }
    }

    #[test]
    fn single_bit_set_delta_planes() {
        // One nonzero symbol in an otherwise zero line exercises the
        // single-one and two-consecutive-ones plane codes.
        for pos in [0usize, 1, 15, 16, 30, 31] {
            let mut line = [0u8; LINE_SIZE];
            line[2 * pos] = 0x80;
            roundtrip(&line);
        }
    }

    #[test]
    fn extreme_deltas_roundtrip() {
        // Max positive and negative symbol swings stress the 17-bit delta.
        let mut line = [0u8; LINE_SIZE];
        for (i, chunk) in line.chunks_exact_mut(2).enumerate() {
            let v: u16 = if i % 2 == 0 { 0x0000 } else { 0xFFFF };
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        roundtrip(&line);
    }

    /// Bit-by-bit reference planes: delta `j` is `sym[j + 1] - sym[j]`
    /// in 17-bit two's complement; plane `b` holds bit `16 - b` of
    /// every delta (data planes: bit `15 - b` of every symbol).
    fn reference_planes(line: &Line) -> (u16, [u32; DELTA_BITS], [u32; DATA_PLANES]) {
        let sym = |i: usize| u16::from_le_bytes([line[2 * i], line[2 * i + 1]]);
        let mut planes = [0u32; DELTA_BITS];
        for j in 0..DELTAS {
            let delta = ((sym(j + 1) as i32 - sym(j) as i32) as u32) & 0x1_FFFF;
            for (b, plane) in planes.iter_mut().enumerate() {
                *plane |= ((delta >> (DELTA_BITS - 1 - b)) & 1) << j;
            }
        }
        let mut dbx = planes;
        for b in 0..DELTA_BITS - 1 {
            dbx[b] ^= planes[b + 1];
        }
        let mut data = [0u32; DATA_PLANES];
        for j in 0..SYMBOLS {
            for (b, plane) in data.iter_mut().enumerate() {
                *plane |= ((sym(j) as u32 >> (DATA_PLANES - 1 - b)) & 1) << j;
            }
        }
        (sym(0), dbx, data)
    }

    #[test]
    fn word_level_planes_match_bit_by_bit_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..4096 {
            let mut line = [0u8; LINE_SIZE];
            for chunk in line.chunks_exact_mut(8) {
                // Mix dense noise with sparse, narrow and saturated words
                // so every borrow and carry pattern shows up.
                let r = next();
                let word = match case % 4 {
                    0 => r,
                    1 => r & 0x0001_0003_8000_FFFF,
                    2 => (r % 5).wrapping_mul(0x7FFF_8001_0000_FFFF),
                    _ => !(r & 0x00F0_000F_0F00_F000),
                };
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            let (base, dbx, data) = reference_planes(&line);
            assert_eq!(transformed_planes(&line), (base, dbx), "case {case}");
            assert_eq!(data_planes(&line), data, "case {case}");
        }
    }

    /// The kernel builds this CPU runs. A build it cannot run is skipped
    /// with the reason printed.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn builds() -> Vec<kernel::Build> {
        kernel::Build::ALL
            .into_iter()
            .filter(|build| match build.missing() {
                Some(reason) => {
                    eprintln!("skipping the {build:?} kernel build: {reason}");
                    false
                }
                None => true,
            })
            .collect()
    }

    /// The encoder's plane bit lengths for `line`, mode and base bits
    /// excluded: transformed planes, then untransformed ones.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn encoder_plane_bits(line: &Line) -> (usize, usize) {
        let (_, dbx) = transformed_planes(line);
        (
            planes_bits(&dbx, DELTAS),
            planes_bits(&data_planes(line), SYMBOLS),
        )
    }

    /// The classes `build` computes for `line`, after checking the bit
    /// lengths it computes against the encoder's planes.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn kernel_classes(build: kernel::Build, line: &Line) -> kernel::Classes {
        let (classes, bits) = build.run(&words(line));
        assert_eq!(bits, encoder_plane_bits(line), "{build:?} plane bits");
        classes
    }

    /// Single and adjacent-pair planes at both ends of `lanes` lanes,
    /// all-ones, and their inversions.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn edge_planes(lanes: u32) -> Vec<u32> {
        let ones = u32::MAX >> (32 - lanes);
        let mut planes = vec![ones];
        for p in [0, 1, lanes - 3, lanes - 2, lanes - 1] {
            planes.push(1 << p);
            planes.push(0b11 << p.min(lanes - 2));
        }
        let inverted: Vec<u32> = planes[1..].iter().map(|p| !p & ones).collect();
        planes.extend(inverted);
        planes
    }

    /// The class bit `k` that `plane` must set, checked against
    /// `classes`.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn assert_class(classes: kernel::Classes, k: u32, plane: u32, ones: u32) {
        let bit = |mask: u64| mask >> k & 1 == 1;
        assert!(bit(classes.any), "plane {k} {plane:#x}: not non-zero");
        assert_eq!(bit(classes.all), plane == ones, "plane {k} {plane:#x}: all");
        assert_eq!(bit(classes.two), plane.count_ones() >= 2, "plane {k}");
        assert_eq!(bit(classes.three), plane.count_ones() >= 3, "plane {k}");
        assert_eq!(bit(classes.adjacent), plane & plane >> 1 != 0, "plane {k}");
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn lane_classes_reach_every_code_table_edge() {
        for build in builds() {
            for k in 0..16 {
                for plane in edge_planes(32) {
                    // Only plane k is non-zero: zero runs on either side of
                    // it, or at one end when k is 0 or 15.
                    let syms = std::array::from_fn(|j| ((plane >> j & 1) as u16) << k);
                    let line = line_from_symbols(&syms);
                    let classes = kernel_classes(build, &line);
                    assert_eq!(classes.any >> kernel::DATA, 1 << k);
                    assert_class(classes, kernel::DATA + k, plane, u32::MAX);
                    roundtrip(&line);
                }
            }
        }
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn delta_classes_reach_every_code_table_edge() {
        for build in builds() {
            for k in 0..16 {
                for plane in edge_planes(31) {
                    for base in [0u16, 0x8000, 0xBEEF] {
                        // y = d ^ (d << 1) has only plane k set; d is y's
                        // prefix XOR.
                        let mut syms = [base; SYMBOLS];
                        for j in 0..DELTAS {
                            let d = ((plane >> j & 1) as u16) << k;
                            let d = (0..16).fold(0u16, |acc, s| acc ^ d << s);
                            syms[j + 1] = syms[j].wrapping_add(d);
                        }
                        let line = line_from_symbols(&syms);
                        let classes = kernel_classes(build, &line);
                        assert_eq!(classes.any & 0xFFFF, 1 << k);
                        assert_class(classes, k, plane, DELTA_MASK);
                        roundtrip(&line);
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    fn borrow_plane_classes() {
        for build in builds() {
            // The top plane holds borrow ⊕ delta bit 15: set exactly where
            // a symbol rises by at least 0x8000 or falls by more. It is never
            // the only non-zero plane, since y = 0 forces d = 0 and so no
            // borrow. Jumps between 0 and 0xFFFF at chosen lanes put it in
            // every class.
            for plane in edge_planes(31) {
                let mut syms = [0u16; SYMBOLS];
                for j in 0..DELTAS {
                    let jump = plane >> j & 1 == 1;
                    syms[j + 1] = if jump { !syms[j] } else { syms[j] };
                }
                let classes = kernel_classes(build, &line_from_symbols(&syms));
                assert_class(classes, 16, plane, DELTA_MASK);
                for offset in [0, 1, 0x8000, 0xBEEF] {
                    roundtrip(&line_from_symbols(&syms.map(|s| s.wrapping_add(offset))));
                }
            }
        }
    }

    /// A bit-plane of `lanes` lanes on an edge of BPC's code table, chosen
    /// by `r`: zero, all-ones, a single 1 or two adjacent 1s at either end
    /// of the lanes, their inversions, or arbitrary bits. Zero planes are
    /// common so that zero runs reach both ends of a plane set.
    fn edge_plane(r: u64, lanes: u32) -> u32 {
        let ones = u32::MAX >> (32 - lanes);
        let end = [0, 1, lanes - 3, lanes - 2, lanes - 1][(r >> 8) as usize % 5];
        let pair = 0b11 << end.min(lanes - 2);
        match r % 12 {
            0..=3 => 0,
            4 => ones,
            5 | 6 => 1 << end,
            7 | 8 => pair,
            9 => !(1 << end) & ones,
            10 => !pair & ones,
            _ => (r >> 32) as u32 & ones,
        }
    }

    /// Lane `j` of 16 planes: bit `k` is bit `j` of `planes[k]`.
    fn lane(planes: &[u32], j: usize) -> u16 {
        (0..16).fold(0, |x, k| x | ((planes[k] >> j & 1) as u16) << k)
    }

    /// Symbols beside the wrap and sign edges of 16-bit arithmetic, where
    /// a delta's borrow flips and a signed compare differs from an
    /// unsigned one.
    const EDGE_SYMBOLS: [u16; 8] = [
        0x0000, 0x0001, 0x7FFE, 0x7FFF, 0x8000, 0x8001, 0xFFFE, 0xFFFF,
    ];

    /// A line drawn from the 18 words `r`: random symbols, or built plane
    /// by plane, reaching plane sets random bytes never produce.
    /// Untransformed: plane `k` is bit `k` of the 32 symbols. Transformed:
    /// plane `k` is bit `k` of `d ^ (d << 1)` over the 31 wrapping 16-bit
    /// deltas `d`, summed from a base of 0, 0x8000 or any; the
    /// borrow-mixed top plane follows from the deltas and the base. Edge
    /// symbols: neighbouring lanes of [`EDGE_SYMBOLS`], either all drawn
    /// or one constant with only lane 31, which has no delta of its own,
    /// drawn apart.
    fn plane_line(r: &[u64]) -> Line {
        let edge = |x: u64| EDGE_SYMBOLS[x as usize % EDGE_SYMBOLS.len()];
        match r[16] % 4 {
            0 => line_from_symbols(&std::array::from_fn(|j| {
                (r[j / 4] >> (16 * (j % 4))) as u16
            })),
            1 => {
                let planes: Vec<u32> = r[..16].iter().map(|&x| edge_plane(x, 32)).collect();
                line_from_symbols(&std::array::from_fn(|j| lane(&planes, j)))
            }
            2 => {
                let planes: Vec<u32> = r[..16].iter().map(|&x| edge_plane(x, 31)).collect();
                let mut syms = [[0, 0x8000, (r[17] >> 16) as u16][r[17] as usize % 3]; SYMBOLS];
                for j in 0..DELTAS {
                    // Undo d ^ (d << 1): bit k of d is the XOR of y's bits
                    // 0..=k.
                    let mut d = lane(&planes, j);
                    for shift in [1, 2, 4, 8] {
                        d ^= d << shift;
                    }
                    syms[j + 1] = syms[j].wrapping_add(d);
                }
                line_from_symbols(&syms)
            }
            _ if r[17].is_multiple_of(2) => {
                let mut syms = [edge(r[0]); SYMBOLS];
                syms[31] = edge(r[1]);
                line_from_symbols(&syms)
            }
            _ => line_from_symbols(&std::array::from_fn(|j| edge(r[j / 2] >> (32 * (j % 2))))),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Every kernel build, the encoder's planes and the encoder's
        /// output agree on a line's size.
        #[test]
        fn kernel_builds_agree_with_the_encoder_planes(
            r in proptest::collection::vec(proptest::any::<u64>(), 18)
        ) {
            let line = plane_line(&r);
            let bpc = Bpc::new();
            assert_eq!(bpc.compressed_size(&line), bpc.compress(&line).size_bytes());
            #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
            for build in builds() {
                assert_eq!(build.run(&words(&line)).1, encoder_plane_bits(&line), "{build:?}");
            }
        }
    }

    #[test]
    fn only_the_zero_line_takes_one_byte() {
        // Device metadata stores a 1-byte size as a zero line. Any other
        // line has a non-zero plane (3+ bits) and, unless every plane is
        // non-zero, a zero run (7 bits): 12+ bits with the mode header.
        assert_eq!(Bpc::new().compressed_size(&[0; LINE_SIZE]), 1);
        for bit in 0..LINE_SIZE * 8 {
            let mut line = [0u8; LINE_SIZE];
            line[bit / 8] = 1 << (bit % 8);
            assert!(roundtrip(&line) >= 2, "bit {bit}");
        }
    }
}
