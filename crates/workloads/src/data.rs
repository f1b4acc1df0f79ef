//! Deterministic synthesis of cache-line contents.
//!
//! Every line's bytes are a pure function of `(seed, page, line-in-page,
//! version)`, so the simulator never stores data — it re-materializes it on
//! demand, and bumping a line's *version* models a store changing the data.
//!
//! Each [`DataClass`] mimics a family of in-memory data the paper's
//! benchmarks exhibit, with characteristic compressibility under BPC, BDI
//! and FPC (measured by the tests at the bottom of this module).

use compresso_compression::{Line, LINE_SIZE};

/// Families of synthetic line contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// All zeros (freshly allocated / zero-initialized memory).
    Zero,
    /// One 64-bit value repeated (memset-style fills, padding).
    Constant,
    /// Small integers, mostly < 2^16 (counters, indices, sizes).
    SmallInt,
    /// Arithmetic-like sequences of 16-bit-stride values (array indices,
    /// induction variables) — BPC's best case.
    DeltaInt,
    /// 64-bit pointers sharing high bits (heap objects) — BDI's best case.
    Pointer,
    /// Doubles with shared exponents but noisy mantissas (HPC data):
    /// partially compressible under BPC, poor under BDI.
    Float,
    /// ASCII text: bytes in a narrow range.
    Text,
    /// High-entropy data (compressed media, hashes): incompressible.
    Random,
}

impl DataClass {
    /// All classes, for enumeration in tests and profiles.
    pub const ALL: [DataClass; 8] = [
        DataClass::Zero,
        DataClass::Constant,
        DataClass::SmallInt,
        DataClass::DeltaInt,
        DataClass::Pointer,
        DataClass::Float,
        DataClass::Text,
        DataClass::Random,
    ];
}

/// A small, fast, deterministic mixer: the splitmix64 finalizer, which
/// spreads nearby inputs apart. Every seeded stream of the simulator
/// derives from it.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Materializes the bytes of a line.
///
/// `key` should uniquely identify (page, line); `version` is the number of
/// stores the line has absorbed.
pub fn materialize(class: DataClass, seed: u64, key: u64, version: u32) -> Line {
    let mut line = [0u8; LINE_SIZE];
    let h = mix64(seed ^ mix64(key) ^ ((version as u64) << 48));
    match class {
        DataClass::Zero => {}
        DataClass::Constant => {
            // memset-style fill: one 16-bit pattern repeated through the
            // line (compresses to a few bytes under BPC and BDI alike).
            let v = ((h & 0xFFFF) as u16) | 1; // nonzero
            for chunk in line.chunks_exact_mut(2) {
                chunk.copy_from_slice(&v.to_le_bytes());
            }
        }
        DataClass::SmallInt => {
            // A random walk of u16 counters: neighbouring elements differ
            // by at most ±16, the correlation real index/counter arrays
            // show.
            let mut v = (h & 0x3FF) as u16;
            for (i, chunk) in line.chunks_exact_mut(2).enumerate() {
                chunk.copy_from_slice(&v.to_le_bytes());
                let step = (mix64(h ^ (0x51 + i as u64)) % 33) as i32 - 16;
                v = (v as i32).wrapping_add(step).unsigned_abs() as u16;
            }
        }
        DataClass::DeltaInt => {
            let base = (h & 0xFFFF) as u16;
            let step = ((h >> 16) & 0x3F) as u16 + 1;
            for (i, chunk) in line.chunks_exact_mut(2).enumerate() {
                let v = base.wrapping_add(step.wrapping_mul(i as u16));
                chunk.copy_from_slice(&v.to_le_bytes());
            }
        }
        DataClass::Pointer => {
            // Heap pointers into one region: shared high bits, offsets
            // that walk in ±512 B steps — BDI's base8-delta2 sweet spot.
            let region = (h & 0x0000_7FFF_FF00_0000) | 0x10_0000;
            let mut offset: i64 = (mix64(h ^ 0xA11C) % 4096) as i64 * 8;
            for (i, chunk) in line.chunks_exact_mut(8).enumerate() {
                let v = (region as i64 + offset) as u64;
                chunk.copy_from_slice(&v.to_le_bytes());
                let step = ((mix64(h ^ (0x9 + i as u64)) % 129) as i64 - 64) * 8;
                offset += step;
            }
        }
        DataClass::Float => {
            // Doubles near a common magnitude: identical sign/exponent
            // bits, noisy mantissa low bits.
            let exp = 1023 + (h % 16); // biased exponent
            for (i, chunk) in line.chunks_exact_mut(8).enumerate() {
                let mantissa = mix64(h ^ (0xF100 + i as u64)) & 0x000F_FFFF_0000_0000;
                let v = (exp << 52) | mantissa;
                chunk.copy_from_slice(&v.to_le_bytes());
            }
        }
        DataClass::Text => {
            for (i, byte) in line.iter_mut().enumerate() {
                let r = mix64(h ^ (0x7E47 + i as u64));
                *byte = b'a' + (r % 26) as u8;
            }
        }
        DataClass::Random => {
            for (i, chunk) in line.chunks_exact_mut(8).enumerate() {
                let v = mix64(h ^ (0xDEAD_0000 + i as u64));
                chunk.copy_from_slice(&v.to_le_bytes());
            }
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use compresso_compression::{Bdi, Bpc, Compressor};

    #[test]
    fn materialization_is_deterministic() {
        for class in DataClass::ALL {
            let a = materialize(class, 42, 7, 3);
            let b = materialize(class, 42, 7, 3);
            assert_eq!(a, b, "{class:?} must be deterministic");
        }
    }

    #[test]
    fn versions_change_content_except_zero() {
        for class in DataClass::ALL {
            let a = materialize(class, 42, 7, 0);
            let b = materialize(class, 42, 7, 1);
            if class == DataClass::Zero {
                assert_eq!(a, b);
            } else {
                assert_ne!(a, b, "{class:?} must vary with version");
            }
        }
    }

    #[test]
    fn zero_class_is_zero() {
        assert!(compresso_compression::is_zero_line(&materialize(
            DataClass::Zero,
            1,
            2,
            3
        )));
    }

    #[test]
    fn class_compressibility_ordering_under_bpc() {
        let bpc = Bpc::new();
        let avg = |class: DataClass| -> f64 {
            let mut total = 0usize;
            for key in 0..64u64 {
                total += bpc.compressed_size(&materialize(class, 9, key, 0));
            }
            total as f64 / 64.0
        };
        let delta = avg(DataClass::DeltaInt);
        let small = avg(DataClass::SmallInt);
        let float = avg(DataClass::Float);
        let random = avg(DataClass::Random);
        assert!(
            delta < 10.0,
            "DeltaInt should be tiny under BPC, got {delta}"
        );
        assert!(small < 34.0, "SmallInt should compress well, got {small}");
        // Noisy-mantissa doubles barely compress — the float-heavy
        // benchmarks' modest ratios come from their zero/int pages.
        assert!(
            float > 50.0,
            "Float must be nearly incompressible, got {float}"
        );
        assert!(random > 62.0, "Random must be incompressible, got {random}");
        assert!(delta < small && small < random);
    }

    #[test]
    fn pointers_compress_better_under_bdi_than_floats() {
        let bdi = Bdi::new();
        let avg = |class: DataClass| -> f64 {
            let mut total = 0usize;
            for key in 0..64u64 {
                total += bdi.compressed_size(&materialize(class, 11, key, 0));
            }
            total as f64 / 64.0
        };
        let ptr = avg(DataClass::Pointer);
        let float = avg(DataClass::Float);
        assert!(
            ptr < 40.0,
            "pointer lines should compress under BDI, got {ptr}"
        );
        assert!(
            ptr < float,
            "BDI must prefer pointers ({ptr}) over floats ({float})"
        );
    }

    #[test]
    fn bpc_beats_bdi_on_delta_data() {
        // The reason the paper chose BPC: context-transform data wins.
        let bpc = Bpc::new();
        let bdi = Bdi::new();
        let mut bpc_total = 0usize;
        let mut bdi_total = 0usize;
        for key in 0..64u64 {
            let line = materialize(DataClass::DeltaInt, 5, key, 0);
            bpc_total += bpc.compressed_size(&line);
            bdi_total += bdi.compressed_size(&line);
        }
        assert!(
            bpc_total < bdi_total,
            "BPC {bpc_total} should beat BDI {bdi_total}"
        );
    }
}
