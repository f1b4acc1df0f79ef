//! Bit-granular writers and readers used by the encoders.
//!
//! Bits are written MSB-first within each byte, matching how a hardware
//! shifter would serialize a code stream.

/// Appends bit fields to a growing byte buffer, MSB-first.
///
/// Fields are staged in a 64-bit accumulator and spilled to the byte
/// buffer one whole word at a time, so a `write` costs a couple of
/// shifts instead of a loop per bit.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Staged bits, MSB-aligned; `acc_bits` of them are meaningful.
    acc: u64,
    /// Number of staged bits in `acc`; always `< 64` between calls.
    acc_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.acc_bits as usize
    }

    /// Writes the low `width` bits of `value`, most significant bit first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn write(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "bit field wider than 64 bits");
        if width == 0 {
            return;
        }
        let value = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        let free = 64 - self.acc_bits as usize;
        if width < free {
            self.acc |= value << (free - width);
            self.acc_bits += width as u32;
        } else {
            // The field fills (or overflows) the accumulator: spill one
            // whole word and restage the leftover low bits.
            let spill = width - free;
            self.acc |= if spill == 0 { value } else { value >> spill };
            self.bytes.extend_from_slice(&self.acc.to_be_bytes());
            if spill == 0 {
                self.acc = 0;
                self.acc_bits = 0;
            } else {
                self.acc = value << (64 - spill);
                self.acc_bits = spill as u32;
            }
        }
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write(bit as u64, 1);
    }

    /// Consumes the writer, returning the backing bytes and exact bit
    /// length. The returned buffer holds exactly `bit_len.div_ceil(8)`
    /// bytes.
    pub fn into_parts(mut self) -> (Vec<u8>, usize) {
        let bit_len = self.bit_len();
        let tail = (self.acc_bits as usize).div_ceil(8);
        self.bytes
            .extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        (self.bytes, bit_len)
    }
}

/// Reads bit fields from a byte buffer, MSB-first (inverse of [`BitWriter`]).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes` starting at bit 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current bit position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads `width` bits, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if the read runs past the end of the buffer or `width > 64`.
    pub fn read(&mut self, width: usize) -> u64 {
        assert!(width <= 64, "bit field wider than 64 bits");
        let mut value = 0u64;
        for _ in 0..width {
            let byte_idx = self.pos / 8;
            assert!(byte_idx < self.bytes.len(), "bit read past end of stream");
            let bit = (self.bytes[byte_idx] >> (7 - (self.pos % 8))) & 1;
            value = (value << 1) | bit as u64;
            self.pos += 1;
        }
        value
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> bool {
        self.read(1) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xDEAD, 16);
        w.write_bit(true);
        w.write(7, 5);
        let (bytes, len) = w.into_parts();
        assert_eq!(len, 3 + 16 + 1 + 5);

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), 0b101);
        assert_eq!(r.read(16), 0xDEAD);
        assert!(r.read_bit());
        assert_eq!(r.read(5), 7);
        assert_eq!(r.position(), len);
    }

    #[test]
    fn zero_width_reads_and_writes() {
        let mut w = BitWriter::new();
        w.write(0, 0);
        assert_eq!(w.bit_len(), 0);
        let (bytes, _) = w.into_parts();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(0), 0);
    }

    #[test]
    fn sixty_four_bit_field() {
        let mut w = BitWriter::new();
        w.write(u64::MAX, 64);
        w.write(0, 2);
        let (bytes, len) = w.into_parts();
        assert_eq!(len, 66);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(64), u64::MAX);
        assert_eq!(r.read(2), 0);
    }

    #[test]
    fn exact_output_length() {
        for widths in [vec![1usize], vec![7, 1], vec![64, 64, 3], vec![17; 9]] {
            let mut w = BitWriter::new();
            let mut total = 0;
            for &width in &widths {
                w.write(u64::MAX, width);
                total += width;
            }
            assert_eq!(w.bit_len(), total);
            let (bytes, len) = w.into_parts();
            assert_eq!(len, total);
            assert_eq!(bytes.len(), total.div_ceil(8));
        }
    }

    #[test]
    fn accumulator_spill_preserves_order() {
        // Cross the 64-bit boundary with an unaligned field and check
        // every bit lands where the per-bit writer would put it.
        let mut w = BitWriter::new();
        w.write(0x5, 3); // 101
        w.write(u64::MAX, 64); // spans the spill
        w.write(0b0110, 4);
        let (bytes, len) = w.into_parts();
        assert_eq!(len, 71);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), 0x5);
        assert_eq!(r.read(64), u64::MAX);
        assert_eq!(r.read(4), 0b0110);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn read_past_end_panics() {
        let bytes = [0u8; 1];
        let mut r = BitReader::new(&bytes);
        r.read(9);
    }
}
