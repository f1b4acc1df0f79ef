//! Frequent Pattern Compression (Alameldeen & Wood, 2004).
//!
//! Each 32-bit word of the line is encoded with a 3-bit prefix selecting
//! one of eight patterns:
//!
//! | prefix | pattern                                   | payload |
//! |--------|-------------------------------------------|---------|
//! | `000`  | run of 1–16 zero words                    | 4 bits  |
//! | `001`  | 4-bit sign-extended                       | 4 bits  |
//! | `010`  | 8-bit sign-extended                       | 8 bits  |
//! | `011`  | 16-bit sign-extended                      | 16 bits |
//! | `100`  | 16 significant upper bits, lower half zero | 16 bits |
//! | `101`  | two halfwords, each 8-bit sign-extended   | 16 bits |
//! | `110`  | word of four repeated bytes               | 8 bits  |
//! | `111`  | uncompressed word                         | 32 bits |
//!
//! The size-only path ([`Compressor::compressed_size`]) classifies each
//! word and sums pattern costs without building the bit stream.

use crate::bits::BitReader;
use crate::{Algorithm, CompressedLine, Compressor, Line, LINE_SIZE};

const WORDS: usize = LINE_SIZE / 4;

/// The Frequent Pattern Compression algorithm.
///
/// See the [module documentation](self) for the pattern table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fpc {
    _private: (),
}

impl Fpc {
    /// Creates an FPC compressor.
    pub fn new() -> Self {
        Self::default()
    }
}

fn words(line: &Line) -> [u32; WORDS] {
    let mut out = [0u32; WORDS];
    for (i, chunk) in line.chunks_exact(4).enumerate() {
        out[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    out
}

fn fits_signed(word: u32, bits: u32) -> bool {
    let v = word as i32;
    let min = -(1i32 << (bits - 1));
    let max = (1i32 << (bits - 1)) - 1;
    (min..=max).contains(&v)
}

/// Exact bit length of the normal (non-fallback) FPC stream for `ws`:
/// the same walk the encoder performs, summing `3 + payload` costs.
fn encoded_bits(ws: &[u32; WORDS]) -> usize {
    let mut bits = 0;
    let mut i = 0;
    while i < WORDS {
        let word = ws[i];
        if word == 0 {
            let mut run = 1;
            while i + run < WORDS && ws[i + run] == 0 && run < 16 {
                run += 1;
            }
            bits += 3 + 4;
            i += run;
            continue;
        }
        // The encoder's three 16-bit-payload patterns are consecutive,
        // so they collapse into one cost branch here.
        bits += 3 + if fits_signed(word, 4) {
            4
        } else if fits_signed(word, 8) {
            8
        } else if fits_signed(word, 16) || word & 0xFFFF == 0 || halfwords_fit_i8(word) {
            16
        } else if repeated_bytes(word) {
            8
        } else {
            32
        };
        i += 1;
    }
    bits
}

impl Compressor for Fpc {
    fn name(&self) -> &'static str {
        "FPC"
    }

    fn compress(&self, line: &Line) -> CompressedLine {
        let ws = words(line);
        // Decide up front whether the pattern stream is profitable; if not,
        // emit the all-uncompressed fallback stream (decoder-compatible,
        // exposes raw size via the clamp in `size_bytes`).
        let fallback = encoded_bits(&ws) >= LINE_SIZE * 8;
        CompressedLine::encode(Algorithm::Fpc, |w| {
            if fallback {
                for &word in ws.iter() {
                    w.write(0b111, 3);
                    w.write(word as u64, 32);
                }
                return;
            }
            let mut i = 0;
            while i < WORDS {
                let word = ws[i];
                if word == 0 {
                    let mut run = 1;
                    while i + run < WORDS && ws[i + run] == 0 && run < 16 {
                        run += 1;
                    }
                    w.write(0b000, 3);
                    w.write(run as u64 - 1, 4);
                    i += run;
                    continue;
                }
                if fits_signed(word, 4) {
                    w.write(0b001, 3);
                    w.write((word & 0xF) as u64, 4);
                } else if fits_signed(word, 8) {
                    w.write(0b010, 3);
                    w.write((word & 0xFF) as u64, 8);
                } else if fits_signed(word, 16) {
                    w.write(0b011, 3);
                    w.write((word & 0xFFFF) as u64, 16);
                } else if word & 0xFFFF == 0 {
                    w.write(0b100, 3);
                    w.write((word >> 16) as u64, 16);
                } else if halfwords_fit_i8(word) {
                    w.write(0b101, 3);
                    w.write((word & 0xFF) as u64, 8);
                    w.write(((word >> 16) & 0xFF) as u64, 8);
                } else if repeated_bytes(word) {
                    w.write(0b110, 3);
                    w.write((word & 0xFF) as u64, 8);
                } else {
                    w.write(0b111, 3);
                    w.write(word as u64, 32);
                }
                i += 1;
            }
        })
    }

    fn decompress(&self, compressed: &CompressedLine) -> Line {
        assert_eq!(compressed.algorithm(), Algorithm::Fpc, "not an FPC stream");
        let mut r = BitReader::new(compressed.payload());
        let mut ws = [0u32; WORDS];
        let mut i = 0;
        while i < WORDS {
            match r.read(3) {
                0b000 => {
                    let run = r.read(4) as usize + 1;
                    i += run; // words are already zero
                }
                0b001 => {
                    let v = r.read(4) as u32;
                    ws[i] = (((v << 28) as i32) >> 28) as u32;
                    i += 1;
                }
                0b010 => {
                    let v = r.read(8) as u32;
                    ws[i] = (((v << 24) as i32) >> 24) as u32;
                    i += 1;
                }
                0b011 => {
                    let v = r.read(16) as u32;
                    ws[i] = (((v << 16) as i32) >> 16) as u32;
                    i += 1;
                }
                0b100 => {
                    ws[i] = (r.read(16) as u32) << 16;
                    i += 1;
                }
                0b101 => {
                    let lo = r.read(8) as u32;
                    let hi = r.read(8) as u32;
                    let lo = (((lo << 24) as i32) >> 24) as u32 & 0xFFFF;
                    let hi = (((hi << 24) as i32) >> 24) as u32 & 0xFFFF;
                    ws[i] = (hi << 16) | lo;
                    i += 1;
                }
                0b110 => {
                    let b = r.read(8) as u32;
                    ws[i] = b | (b << 8) | (b << 16) | (b << 24);
                    i += 1;
                }
                0b111 => {
                    ws[i] = r.read(32) as u32;
                    i += 1;
                }
                _ => unreachable!("3-bit prefix"),
            }
        }
        let mut line = [0u8; LINE_SIZE];
        for (i, word) in ws.iter().enumerate() {
            line[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        line
    }

    fn compressed_size(&self, line: &Line) -> usize {
        let bits = encoded_bits(&words(line));
        // The unprofitable fallback stream is longer than a raw line but
        // `size_bytes` clamps it, so both cases collapse to LINE_SIZE.
        bits.div_ceil(8).min(LINE_SIZE)
    }
}

fn halfwords_fit_i8(word: u32) -> bool {
    let lo = (word & 0xFFFF) as u16 as i16;
    let hi = (word >> 16) as u16 as i16;
    (-128..=127).contains(&lo) && (-128..=127).contains(&hi)
}

fn repeated_bytes(word: u32) -> bool {
    let b = word & 0xFF;
    word == b | (b << 8) | (b << 16) | (b << 24)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(line: &Line) -> usize {
        let fpc = Fpc::new();
        let c = fpc.compress(line);
        assert_eq!(&fpc.decompress(&c), line, "FPC roundtrip failed");
        assert_eq!(
            fpc.compressed_size(line),
            c.size_bytes(),
            "size kernel disagrees with encoder"
        );
        c.size_bytes()
    }

    #[test]
    fn zero_line_is_one_byte() {
        assert_eq!(roundtrip(&[0u8; LINE_SIZE]), 1);
    }

    #[test]
    fn small_signed_ints_compress() {
        let mut line = [0u8; LINE_SIZE];
        let values: [i32; 16] = [1, -1, 7, -8, 100, -100, 3, 0, 42, -42, 5, 6, -7, 8, 9, -2];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&values[i].to_le_bytes());
        }
        let size = roundtrip(&line);
        assert!(size <= 24, "small ints should be <=24B, got {size}");
    }

    #[test]
    fn repeated_byte_words() {
        let mut line = [0u8; LINE_SIZE];
        for chunk in line.chunks_exact_mut(4) {
            chunk.copy_from_slice(&0x7777_7777u32.to_le_bytes());
        }
        let size = roundtrip(&line);
        assert!(size <= 22, "repeated-byte words should be tiny, got {size}");
    }

    #[test]
    fn upper_half_words() {
        let mut line = [0u8; LINE_SIZE];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            chunk.copy_from_slice(&((0x1234u32 + i as u32) << 16).to_le_bytes());
        }
        let size = roundtrip(&line);
        assert!(size <= 40, "padded halfwords should compress, got {size}");
    }

    #[test]
    fn random_line_is_raw_size() {
        let mut line = [0u8; LINE_SIZE];
        let mut state = 0xB5297A4D3F84D5B5u64;
        for byte in line.iter_mut() {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            *byte = (state >> 40) as u8;
        }
        assert_eq!(roundtrip(&line), LINE_SIZE);
    }

    #[test]
    fn two_halfword_pattern() {
        // Words whose halves are independently small: 0x00FF00FE etc.
        let mut line = [0u8; LINE_SIZE];
        for (i, chunk) in line.chunks_exact_mut(4).enumerate() {
            let lo = (i as u32) & 0x7F;
            let hi = 0xFFu32.wrapping_sub(i as u32) & 0xFF;
            // hi half as sign-extended i8 in 16 bits
            let hi16 = ((hi as i8) as i16 as u16) as u32;
            let word = (hi16 << 16) | lo;
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        roundtrip(&line);
    }

    #[test]
    fn zero_runs_collapse() {
        // 15 zero words then one value: one run code + one code.
        let mut line = [0u8; LINE_SIZE];
        line[60..64].copy_from_slice(&12345u32.to_le_bytes());
        let size = roundtrip(&line);
        assert!(size <= 4, "mostly-zero line should be <=4B, got {size}");
    }
}
