//! Compression algorithms for the Compresso reproduction.
//!
//! Main memory stores compressed 64 B cache lines; the cores operate on
//! uncompressed data. Everything in this crate therefore works at the
//! granularity of a single cache line ([`Line`], 64 bytes) and provides
//! *real* (bit-exact, round-trippable) encoders and decoders:
//!
//! * [`Bpc`] — Bit-Plane Compression (Kim et al., ISCA 2016) adapted from
//!   128 B GPU blocks to 64 B CPU lines, including the paper's modification
//!   of compressing with and without the delta-bitplane-XOR transform in
//!   parallel and keeping the smaller result (§II-A of the Compresso paper).
//! * [`Bdi`] — Base-Delta-Immediate (Pekhimenko et al., PACT 2012).
//! * [`Fpc`] — Frequent Pattern Compression (Alameldeen & Wood, 2004).
//!
//! Compressed line sizes are quantized to *bins* ([`BinSet`]) before being
//! stored: Compresso uses the alignment-friendly bins `{0, 8, 32, 64}` while
//! prior work used `{0, 22, 44, 64}` (§IV-B1).
//!
//! # Hot paths
//!
//! A memory controller mostly needs the *size* a line would compress to
//! (to pick a bin), not the encoded bytes. Every algorithm therefore
//! implements [`Compressor::compressed_size`] as a dedicated size-only
//! circuit that computes the exact encoded bit length with word-level
//! arithmetic and no heap allocation. The full encoder,
//! [`Compressor::compress`], is the reference those circuits are tested
//! against, and what the decoders and the size studies consume.
//!
//! BPC's circuit is the one the devices run on every line they size. On
//! x86_64 it is a vector kernel compiled twice from one source: an SSE2
//! build for the baseline target, and an AVX2+POPCNT build that each
//! call picks where the CPU has both features (std caches the probe).
//! Both builds compute the same sizes. The crate's `unsafe` is confined
//! to that kernel: the SSE2 intrinsics it calls, and the call into the
//! AVX2+POPCNT build after the probe.
//!
//! # Example
//!
//! ```
//! use compresso_compression::{Bpc, Compressor, Line, LINE_SIZE};
//!
//! let bpc = Bpc::new();
//! let mut line = [0u8; LINE_SIZE];
//! // An arithmetic sequence of u16s: highly compressible under BPC.
//! for (i, chunk) in line.chunks_exact_mut(2).enumerate() {
//!     chunk.copy_from_slice(&(100 + 3 * i as u16).to_le_bytes());
//! }
//! let compressed = bpc.compress(&line);
//! assert!(compressed.size_bytes() < LINE_SIZE / 2);
//! assert_eq!(bpc.compressed_size(&line), compressed.size_bytes());
//! let roundtrip: Line = bpc.decompress(&compressed);
//! assert_eq!(roundtrip, line);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bdi;
pub mod bins;
mod bits;
pub mod bpc;
pub mod cpack;
pub mod fpc;

pub use bdi::Bdi;
pub use bins::{BinSet, SizeBin};
pub use bits::{BitReader, BitWriter};
pub use bpc::Bpc;
pub use cpack::CPack;
pub use fpc::Fpc;

/// Size of an uncompressed cache line in bytes.
pub const LINE_SIZE: usize = 64;

/// An uncompressed 64-byte cache line.
pub type Line = [u8; LINE_SIZE];

/// Identifies which algorithm produced a [`CompressedLine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Bit-Plane Compression.
    Bpc,
    /// Base-Delta-Immediate.
    Bdi,
    /// Frequent Pattern Compression.
    Fpc,
    /// C-Pack dictionary compression.
    CPack,
    /// Stored raw (incompressible or intentionally uncompressed).
    Raw,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Algorithm::Bpc => "BPC",
            Algorithm::Bdi => "BDI",
            Algorithm::Fpc => "FPC",
            Algorithm::CPack => "C-Pack",
            Algorithm::Raw => "raw",
        };
        f.write_str(name)
    }
}

/// The result of compressing one cache line.
///
/// Holds the exact encoded bit stream so that [`Compressor::decompress`] can
/// reconstruct the original line. `size_bytes` is the byte size the line
/// occupies in memory: the bit length rounded up, clamped to [`LINE_SIZE`]
/// (a line that does not compress is stored raw).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedLine {
    algorithm: Algorithm,
    /// Encoded payload; `bit_len` bits of it are meaningful.
    payload: Vec<u8>,
    bit_len: usize,
}

impl CompressedLine {
    /// Creates a compressed line from an encoded bit stream.
    ///
    /// If the stream is no smaller than a raw line, callers should prefer
    /// [`CompressedLine::raw`].
    pub fn new(algorithm: Algorithm, payload: Vec<u8>, bit_len: usize) -> Self {
        debug_assert!(payload.len() * 8 >= bit_len);
        Self {
            algorithm,
            payload,
            bit_len,
        }
    }

    /// Runs `encode` over a fresh [`BitWriter`] and wraps its stream.
    pub(crate) fn encode(algorithm: Algorithm, encode: impl FnOnce(&mut BitWriter)) -> Self {
        let mut w = BitWriter::new();
        encode(&mut w);
        let (bytes, bit_len) = w.into_parts();
        Self::new(algorithm, bytes, bit_len)
    }

    /// Wraps an uncompressed line (occupies the full 64 bytes).
    pub fn raw(line: &Line) -> Self {
        Self::new(Algorithm::Raw, line.to_vec(), LINE_SIZE * 8)
    }

    /// The algorithm that produced this encoding.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Exact encoded length in bits.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Size in bytes this line occupies in memory (bits rounded up, clamped
    /// to the raw line size).
    pub fn size_bytes(&self) -> usize {
        self.bit_len.div_ceil(8).min(LINE_SIZE)
    }

    /// The encoded payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }
}

/// A cache-line compressor with a bit-exact decoder.
///
/// Implementations must round-trip: `decompress(&compress(line)) == line`
/// for every possible `line`, and the size-only fast path must agree with
/// the encoder: `compressed_size(line) == compress(line).size_bytes()`.
pub trait Compressor {
    /// Short human-readable algorithm name.
    fn name(&self) -> &'static str;

    /// Compresses one line. Never returns an encoding larger than the
    /// raw line: incompressible input falls back to a raw encoding.
    fn compress(&self, line: &Line) -> CompressedLine;

    /// Decompresses a line previously produced by [`Compressor::compress`].
    ///
    /// # Panics
    ///
    /// May panic if `compressed` was not produced by this compressor (a
    /// corrupted stream models a hardware fault, which the real unit cannot
    /// recover from either).
    fn decompress(&self, compressed: &CompressedLine) -> Line;

    /// Compressed size in bytes for `line`.
    ///
    /// Implementations override this with a size-only circuit that never
    /// materializes the encoding (what the hardware compressor's bin
    /// selector computes); the default runs the full encoder.
    fn compressed_size(&self, line: &Line) -> usize {
        self.compress(line).size_bytes()
    }
}

/// Returns `true` if every byte of `line` is zero.
///
/// Zero lines are special throughout Compresso: fills and writebacks of
/// all-zero lines are handled purely in (cached) metadata and require no
/// DRAM data access (§VII-A).
pub fn is_zero_line(line: &Line) -> bool {
    // ORs the eight words in registers; `*line == [0; LINE_SIZE]`
    // compiles to a `bcmp` call, and every size kernel starts here.
    line.chunks_exact(8)
        .map(|word| u64::from_ne_bytes(word.try_into().expect("8-byte chunk")))
        .fold(0, |acc, word| acc | word)
        == 0
}

/// Decompresses any [`CompressedLine`] by dispatching on its algorithm tag.
///
/// # Panics
///
/// Panics if the payload is corrupt (see [`Compressor::decompress`]).
pub fn decompress_any(compressed: &CompressedLine) -> Line {
    match compressed.algorithm() {
        Algorithm::Bpc => Bpc::new().decompress(compressed),
        Algorithm::Bdi => Bdi::new().decompress(compressed),
        Algorithm::Fpc => Fpc::new().decompress(compressed),
        Algorithm::CPack => CPack::new().decompress(compressed),
        Algorithm::Raw => {
            let mut line = [0u8; LINE_SIZE];
            line.copy_from_slice(&compressed.payload()[..LINE_SIZE]);
            line
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_line_detection() {
        assert!(is_zero_line(&[0u8; LINE_SIZE]));
        let mut line = [0u8; LINE_SIZE];
        line[63] = 1;
        assert!(!is_zero_line(&line));
    }

    #[test]
    fn raw_compressed_line_is_full_size() {
        let line = [0xABu8; LINE_SIZE];
        let c = CompressedLine::raw(&line);
        assert_eq!(c.size_bytes(), LINE_SIZE);
        assert_eq!(c.algorithm(), Algorithm::Raw);
        assert_eq!(decompress_any(&c), line);
    }

    #[test]
    fn size_bytes_rounds_up_and_clamps() {
        let c = CompressedLine::new(Algorithm::Bpc, vec![0; 2], 9);
        assert_eq!(c.size_bytes(), 2);
        let c = CompressedLine::new(Algorithm::Bpc, vec![0; 70], 70 * 8);
        assert_eq!(c.size_bytes(), LINE_SIZE);
    }

    #[test]
    fn algorithm_display_names() {
        assert_eq!(Algorithm::Bpc.to_string(), "BPC");
        assert_eq!(Algorithm::Bdi.to_string(), "BDI");
        assert_eq!(Algorithm::Fpc.to_string(), "FPC");
        assert_eq!(Algorithm::Raw.to_string(), "raw");
    }
}
