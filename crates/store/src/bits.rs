//! MSB-first bit-level writer/reader for the chunk codec.
//!
//! The codec emits variable-width fields (1-bit hold flags, 7–65-bit
//! zigzagged deltas, 1–64-bit XOR windows); this module packs them densely
//! into bytes. Writing is append-only; reading is a cursor over an
//! immutable byte slice. Both sides count bits, so a decoder can detect a
//! truncated stream instead of misreading past the end.

/// Append-only bit sink. Bits fill each byte from the most significant
/// position down, so the byte stream is a straight left-to-right
/// transcription of the bit stream.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte (0 when the stream is
    /// byte-aligned).
    used: u8,
}

impl BitWriter {
    /// An empty stream.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.used == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.used as usize
        }
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.last_mut().expect("push_bit opened a byte");
            *last |= 1 << (7 - self.used);
        }
        self.used = (self.used + 1) % 8;
    }

    /// Appends the low `n` bits of `value`, most significant first.
    /// `n` must be 1..=64. Tops up the open byte, then writes whole bytes.
    pub fn push_bits(&mut self, value: u64, n: u8) {
        debug_assert!((1..=64).contains(&n), "push_bits width {n}");
        let mut n = u32::from(n);
        let value = if n == 64 { value } else { value & ((1u64 << n) - 1) };
        if self.used != 0 {
            let free = 8 - u32::from(self.used);
            let take = free.min(n);
            n -= take;
            let bits = ((value >> n) & ((1u64 << take) - 1)) as u8;
            let last = self.bytes.last_mut().expect("a partial byte is open");
            *last |= bits << (free - take);
            self.used = ((u32::from(self.used) + take) % 8) as u8;
        }
        while n >= 8 {
            n -= 8;
            self.bytes.push((value >> n) as u8);
        }
        if n > 0 {
            self.bytes.push((value << (8 - n)) as u8);
            self.used = n as u8;
        }
    }

    /// Finishes the stream, returning the packed bytes (final byte
    /// zero-padded) and the exact bit length.
    pub fn finish(self) -> (Vec<u8>, usize) {
        let bits = self.bit_len();
        (self.bytes, bits)
    }
}

/// Cursor over a packed bit stream.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit position of the cursor.
    pos: usize,
    /// Total valid bits (the writer's `bit_len`).
    len: usize,
}

impl<'a> BitReader<'a> {
    /// A cursor over `len` valid bits of `bytes`.
    /// A `len` beyond the bytes given is clamped to them, so a lying bit
    /// length reads as a truncated stream rather than out of bounds.
    pub fn new(bytes: &'a [u8], len: usize) -> Self {
        BitReader { bytes, pos: 0, len: len.min(bytes.len() * 8) }
    }

    /// Bits left to read.
    pub fn remaining(&self) -> usize {
        self.len.saturating_sub(self.pos)
    }

    /// Reads one bit; `None` past the end.
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.len {
            return None;
        }
        let byte = self.bytes[self.pos / 8];
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits (1..=64), most significant first; `None` if fewer
    /// remain. The field is cut out of one big-endian load of the (at
    /// most nine) bytes it spans.
    pub fn read_bits(&mut self, n: u8) -> Option<u64> {
        debug_assert!((1..=64).contains(&n), "read_bits width {n}");
        if self.remaining() < n as usize {
            return None;
        }
        let at = self.pos / 8;
        let word = match self.bytes.get(at..at + 16) {
            Some(window) => u128::from_be_bytes(window.try_into().expect("16-byte window")),
            None => {
                let mut window = [0u8; 16];
                let tail = &self.bytes[at..];
                window[..tail.len()].copy_from_slice(tail);
                u128::from_be_bytes(window)
            }
        } << (self.pos % 8);
        self.pos += n as usize;
        Some((word >> (128 - u32::from(n))) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time writer the word-at-a-time one must match.
    #[derive(Default)]
    struct RefWriter {
        bytes: Vec<u8>,
        bits: usize,
    }

    impl RefWriter {
        fn push_bits(&mut self, value: u64, n: u8) {
            for i in (0..n).rev() {
                if self.bits.is_multiple_of(8) {
                    self.bytes.push(0);
                }
                if (value >> i) & 1 == 1 {
                    *self.bytes.last_mut().unwrap() |= 1 << (7 - self.bits % 8);
                }
                self.bits += 1;
            }
        }
    }

    /// The bit-at-a-time reader the word-at-a-time one must match.
    fn ref_read_bits(bytes: &[u8], len: usize, pos: &mut usize, n: u8) -> Option<u64> {
        if len - *pos < n as usize {
            return None;
        }
        let mut out = 0u64;
        for _ in 0..n {
            out = (out << 1) | u64::from((bytes[*pos / 8] >> (7 - *pos % 8)) & 1);
            *pos += 1;
        }
        Some(out)
    }

    /// Random `(value, width)` fields: every width 1..=64 at every
    /// starting alignment, with values that use the whole width and
    /// values carrying junk above it.
    fn random_fields(seed: u64, count: usize) -> Vec<(u64, u8)> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state ^ (state >> 29)
        };
        (0..count).map(|_| (next(), (next() % 64 + 1) as u8)).collect()
    }

    #[test]
    fn word_io_matches_bit_by_bit_reference() {
        for seed in 0..64u64 {
            // A lead-in of `seed % 8` bits puts the fields at every alignment.
            let mut fields = vec![(0b1011_0110, (seed % 8) as u8)];
            fields.retain(|&(_, n)| n > 0);
            fields.extend(random_fields(seed, 300));
            let mut w = BitWriter::new();
            let mut reference = RefWriter::default();
            for &(v, n) in &fields {
                w.push_bits(v, n);
                reference.push_bits(v, n);
                assert_eq!(w.bit_len(), reference.bits);
            }
            let (bytes, len) = w.finish();
            assert_eq!(bytes, reference.bytes, "seed {seed}: writer bytes differ");
            assert_eq!(len, reference.bits);
            let mut r = BitReader::new(&bytes, len);
            let mut pos = 0usize;
            for &(v, n) in &fields {
                let want = if n == 64 { v } else { v & ((1 << n) - 1) };
                assert_eq!(ref_read_bits(&bytes, len, &mut pos, n), Some(want));
                assert_eq!(r.read_bits(n), Some(want), "seed {seed}: width {n}");
            }
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn every_truncation_point_reads_none() {
        let fields = random_fields(7, 40);
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.push_bits(v, n);
        }
        let (bytes, len) = w.finish();
        for cut in 0..len {
            let mut r = BitReader::new(&bytes, cut);
            let mut consumed = 0usize;
            for &(v, n) in &fields {
                if consumed + n as usize > cut {
                    assert_eq!(r.read_bits(n), None, "cut {cut}: width {n} past the end");
                    break;
                }
                let want = if n == 64 { v } else { v & ((1 << n) - 1) };
                assert_eq!(r.read_bits(n), Some(want), "cut {cut}");
                consumed += n as usize;
            }
        }
        // A bit length past the bytes is clamped, not read out of bounds.
        let mut r = BitReader::new(&bytes[..2], len);
        assert_eq!(r.read_bits(17), None);
        assert_eq!(r.read_bits(16).map(|_| ()), Some(()));
    }

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, false, true, true, false, true];
        for &b in &pattern {
            w.push_bit(b);
        }
        let (bytes, len) = w.finish();
        assert_eq!(len, pattern.len());
        let mut r = BitReader::new(&bytes, len);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn multi_bit_fields_round_trip() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        w.push_bits(u64::MAX, 64);
        w.push_bits(0x1234_5678, 32);
        w.push_bit(true);
        let (bytes, len) = w.finish();
        assert_eq!(len, 3 + 64 + 32 + 1);
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(32), Some(0x1234_5678));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn truncated_stream_reports_none_not_garbage() {
        let mut w = BitWriter::new();
        w.push_bits(0xFFFF, 16);
        let (bytes, len) = w.finish();
        let mut r = BitReader::new(&bytes, len);
        assert_eq!(r.read_bits(10), Some(0x3FF));
        assert_eq!(r.read_bits(7), None, "only 6 bits remain");
        assert_eq!(r.read_bits(6), Some(0x3F));
    }

    #[test]
    fn byte_alignment_is_tracked_across_boundaries() {
        let mut w = BitWriter::new();
        for i in 0..23 {
            w.push_bit(i % 3 == 0);
        }
        assert_eq!(w.bit_len(), 23);
        let (bytes, len) = w.finish();
        assert_eq!(bytes.len(), 3);
        let mut r = BitReader::new(&bytes, len);
        for i in 0..23 {
            assert_eq!(r.read_bit(), Some(i % 3 == 0), "bit {i}");
        }
    }
}
