//! C-Pack (Chen et al., TVLSI 2010): a dictionary-based cache-line
//! compressor, cited by the Compresso paper as one of the candidate
//! algorithms (§II-A). Included for completeness of the algorithm
//! comparison; Compresso itself chose BPC.
//!
//! Each 32-bit word is encoded against a 16-entry FIFO dictionary of
//! recently seen words:
//!
//! | code | pattern | payload |
//! |------|---------|---------|
//! | `00`   | zero word | — |
//! | `01`   | full dictionary match | 4-bit index |
//! | `10`   | raw word | 32 bits |
//! | `1100` | match on the upper 3 bytes | 4-bit index + 8 bits |
//! | `1101` | zero-extended byte (`000x`) | 8 bits |
//! | `1110` | match on the upper 2 bytes | 4-bit index + 16 bits |
//!
//! Unmatched (raw and partially matched) words are pushed into the
//! dictionary, which starts empty for every line (lines must be
//! independently decompressible in memory). The dictionary is a fixed
//! 16-slot ring buffer: logical FIFO indices (the ones emitted in the bit
//! stream) are preserved exactly while eviction becomes a pointer bump
//! instead of a front-removal shift.

use crate::bits::BitReader;
use crate::{Algorithm, CompressedLine, Compressor, Line, LINE_SIZE};

const WORDS: usize = LINE_SIZE / 4;
const DICT: usize = 16;

/// The C-Pack algorithm.
///
/// See the [module documentation](self) for the code table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CPack {
    _private: (),
}

impl CPack {
    /// Creates a C-Pack compressor.
    pub fn new() -> Self {
        Self::default()
    }
}

/// 16-entry FIFO dictionary as a ring buffer. Logical index `i` (what the
/// bit stream stores) lives at `entries[(start + i) % DICT]`; evicting the
/// oldest entry advances `start` instead of shifting.
#[derive(Default)]
struct Dictionary {
    entries: [u32; DICT],
    start: usize,
    len: usize,
}

impl Dictionary {
    fn push(&mut self, word: u32) {
        if self.len == DICT {
            // Overwrite the oldest (logical index 0) and rotate.
            self.entries[self.start] = word;
            self.start = (self.start + 1) % DICT;
        } else {
            self.entries[(self.start + self.len) % DICT] = word;
            self.len += 1;
        }
    }

    fn position(&self, pred: impl Fn(u32) -> bool) -> Option<usize> {
        (0..self.len).find(|&i| pred(self.entries[(self.start + i) % DICT]))
    }

    fn full_match(&self, word: u32) -> Option<usize> {
        self.position(|e| e == word)
    }

    fn match_bytes(&self, word: u32, mask: u32) -> Option<usize> {
        self.position(|e| e & mask == word & mask)
    }

    fn get(&self, index: usize) -> u32 {
        assert!(index < self.len, "C-Pack index past dictionary fill");
        self.entries[(self.start + index) % DICT]
    }
}

/// Per-word code costs in bits (prefix + payload).
const BITS_ZERO: usize = 2;
const BITS_FULL_MATCH: usize = 2 + 4;
const BITS_BYTE: usize = 4 + 8;
const BITS_UPPER3: usize = 4 + 4 + 8;
const BITS_UPPER2: usize = 4 + 4 + 16;
const BITS_RAW: usize = 2 + 32;

/// Exact encoded bit length: the same classification walk as the encoder
/// (including dictionary pushes), summing code costs only.
fn encoded_bits(line: &Line) -> usize {
    let mut dict = Dictionary::default();
    let mut bits = 0;
    for chunk in line.chunks_exact(4) {
        let word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        bits += if word == 0 {
            BITS_ZERO
        } else if dict.full_match(word).is_some() {
            BITS_FULL_MATCH
        } else if word <= 0xFF {
            BITS_BYTE
        } else if dict.match_bytes(word, 0xFFFF_FF00).is_some() {
            dict.push(word);
            BITS_UPPER3
        } else if dict.match_bytes(word, 0xFFFF_0000).is_some() {
            dict.push(word);
            BITS_UPPER2
        } else {
            dict.push(word);
            BITS_RAW
        };
    }
    bits
}

impl Compressor for CPack {
    fn name(&self) -> &'static str {
        "C-Pack"
    }

    fn compress(&self, line: &Line) -> CompressedLine {
        CompressedLine::encode(Algorithm::CPack, |w| {
            let mut dict = Dictionary::default();
            for chunk in line.chunks_exact(4) {
                let word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
                if word == 0 {
                    w.write(0b00, 2);
                } else if let Some(idx) = dict.full_match(word) {
                    w.write(0b01, 2);
                    w.write(idx as u64, 4);
                } else if word <= 0xFF {
                    w.write(0b1101, 4);
                    w.write(word as u64, 8);
                } else if let Some(idx) = dict.match_bytes(word, 0xFFFF_FF00) {
                    w.write(0b1100, 4);
                    w.write(idx as u64, 4);
                    w.write((word & 0xFF) as u64, 8);
                    dict.push(word);
                } else if let Some(idx) = dict.match_bytes(word, 0xFFFF_0000) {
                    w.write(0b1110, 4);
                    w.write(idx as u64, 4);
                    w.write((word & 0xFFFF) as u64, 16);
                    dict.push(word);
                } else {
                    w.write(0b10, 2);
                    w.write(word as u64, 32);
                    dict.push(word);
                }
            }
        })
    }

    fn decompress(&self, compressed: &CompressedLine) -> Line {
        assert_eq!(
            compressed.algorithm(),
            Algorithm::CPack,
            "not a C-Pack stream"
        );
        let mut r = BitReader::new(compressed.payload());
        let mut dict = Dictionary::default();
        let mut line = [0u8; LINE_SIZE];
        for i in 0..WORDS {
            let word = if !r.read_bit() {
                if !r.read_bit() {
                    0
                } else {
                    let idx = r.read(4) as usize;
                    dict.get(idx)
                }
            } else if !r.read_bit() {
                let word = r.read(32) as u32;
                dict.push(word);
                word
            } else {
                // 11xx prefixes.
                let sub = r.read(2);
                match sub {
                    0b00 => {
                        let idx = r.read(4) as usize;
                        let low = r.read(8) as u32;
                        let word = (dict.get(idx) & 0xFFFF_FF00) | low;
                        dict.push(word);
                        word
                    }
                    0b01 => r.read(8) as u32,
                    0b10 => {
                        let idx = r.read(4) as usize;
                        let low = r.read(16) as u32;
                        let word = (dict.get(idx) & 0xFFFF_0000) | low;
                        dict.push(word);
                        word
                    }
                    _ => panic!("invalid C-Pack code 11{sub:02b}"),
                }
            };
            line[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        line
    }

    fn compressed_size(&self, line: &Line) -> usize {
        encoded_bits(line).div_ceil(8).min(LINE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(line: &Line) -> usize {
        let c = CPack::new();
        let compressed = c.compress(line);
        assert_eq!(&c.decompress(&compressed), line, "C-Pack roundtrip failed");
        assert_eq!(
            c.compressed_size(line),
            compressed.size_bytes(),
            "size kernel disagrees with encoder"
        );
        compressed.size_bytes()
    }

    #[test]
    fn zero_line_is_tiny() {
        assert_eq!(roundtrip(&[0u8; LINE_SIZE]), 4); // 16 x 2 bits
    }

    #[test]
    fn repeated_words_hit_the_dictionary() {
        let mut line = [0u8; LINE_SIZE];
        for chunk in line.chunks_exact_mut(4) {
            chunk.copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        }
        // First word raw (34b), the rest full matches (6b each).
        let size = roundtrip(&line);
        assert!(size <= 16, "repeated words should be tiny, got {size}");
    }

    #[test]
    fn partial_matches_compress() {
        let mut line = [0u8; LINE_SIZE];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            let word = 0x1234_5600u32 | (i as u32); // shared upper 3 bytes
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        // 1 raw word (34b) + 15 upper-3-byte matches (16b each) = 35 B.
        let size = roundtrip(&line);
        assert!(size <= 36, "upper-byte matches should compress, got {size}");
    }

    #[test]
    fn small_bytes_use_zero_extension() {
        let mut line = [0u8; LINE_SIZE];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&((i as u32 * 7 + 1) & 0xFF).to_le_bytes());
        }
        let size = roundtrip(&line);
        assert!(size <= 24, "byte-sized words should compress, got {size}");
    }

    #[test]
    fn random_line_roundtrips_near_raw() {
        let mut line = [0u8; LINE_SIZE];
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        for byte in line.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *byte = (state >> 32) as u8;
        }
        let size = roundtrip(&line);
        assert!(size >= 60, "random data cannot compress much, got {size}");
    }

    #[test]
    fn dictionary_is_per_line() {
        // Two identical lines must compress identically (no state leaks).
        let mut line = [0u8; LINE_SIZE];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&(0xABCD_0000u32 | i as u32).to_le_bytes());
        }
        let c = CPack::new();
        assert_eq!(c.compress(&line), c.compress(&line));
    }

    #[test]
    fn ring_eviction_preserves_fifo_indices() {
        // More than 16 distinct unmatched words forces eviction; every
        // emitted index must still decode to the word the encoder matched.
        let mut line = [0u8; LINE_SIZE];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            // Distinct upper halves so only the pushed words can match.
            let word = ((0x0101_0000u32).wrapping_mul(i as u32 + 1)) | 0x100;
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        roundtrip(&line);
    }
}
