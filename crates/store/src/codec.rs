//! The chunk codec: delta-of-delta timestamps + Gorilla-style XOR floats.
//!
//! Samples are `(t, watts)` pairs of `f64`s with non-decreasing, finite,
//! non-negative timestamps and finite, non-negative watts. Both columns are
//! compressed losslessly at the *bit-pattern* level, so a decoded sample is
//! `to_bits`-identical to what was encoded — the property every energy
//! query downstream relies on.
//!
//! **Timestamps.** For finite non-negative `f64`s, the IEEE-754 bit
//! pattern is order-isomorphic to the value, so the `u64` bit patterns of
//! a valid timestamp column are non-decreasing. The encoder stores the
//! first pattern raw, then the delta-of-delta of consecutive patterns in
//! Gorilla's bucketed scheme: a metronomic logger (deltas repeating
//! bit-for-bit, which a fixed-cadence meter produces over long stretches)
//! costs **one bit per sample**; jitter pays only for the bits it moves.
//!
//! **Watts.** Classic Gorilla XOR: a repeated value (a quantized meter
//! holding a level) is one bit; a changed value stores only the meaningful
//! window of the XOR, reusing the previous window when it still fits.
//!
//! The encoder is deliberately validation-free: the store validates at its
//! append boundary, and the decoder re-checks on the way out (a chunk that
//! passed its CRC but decodes into invalid samples is reported as corrupt,
//! never surfaced).

use crate::bits::{BitReader, BitWriter};

/// Zigzag-folds a signed delta-of-delta into an unsigned value so small
/// magnitudes of either sign stay small. The input fits in 65 bits
/// (difference of two `u64` deltas), hence `i128`/`u128`.
fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag(z: u128) -> i128 {
    ((z >> 1) as i128) ^ -((z & 1) as i128)
}

/// Streaming encoder for one chunk.
#[derive(Debug)]
pub struct Encoder {
    bw: BitWriter,
    count: usize,
    prev_t_bits: u64,
    prev_delta: u64,
    prev_w_bits: u64,
    /// XOR window from the last confined write; `u8::MAX` marks "no window
    /// yet".
    prev_leading: u8,
    prev_meaningful: u8,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder {
            bw: BitWriter::new(),
            count: 0,
            prev_t_bits: 0,
            prev_delta: 0,
            prev_w_bits: 0,
            prev_leading: u8::MAX,
            prev_meaningful: 0,
        }
    }

    /// Samples encoded so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Appends one sample. The caller guarantees validity (finite,
    /// non-negative, `t` non-decreasing); the encoder is lossless either
    /// way, but the decoder will reject streams that decode invalid.
    pub fn push(&mut self, t: f64, w: f64) {
        let t_bits = t.to_bits();
        let w_bits = w.to_bits();
        if self.count == 0 {
            self.bw.push_bits(t_bits, 64);
            self.bw.push_bits(w_bits, 64);
        } else {
            self.push_time(t_bits);
            self.push_watts(w_bits);
        }
        self.prev_t_bits = t_bits;
        self.prev_w_bits = w_bits;
        self.count += 1;
    }

    fn push_time(&mut self, t_bits: u64) {
        let delta = t_bits - self.prev_t_bits;
        let dod = delta as i128 - self.prev_delta as i128;
        self.prev_delta = delta;
        if dod == 0 {
            self.bw.push_bit(false);
            return;
        }
        let z = zigzag(dod);
        if z < (1 << 7) {
            self.bw.push_bits(0b10, 2);
            self.bw.push_bits(z as u64, 7);
        } else if z < (1 << 12) {
            self.bw.push_bits(0b110, 3);
            self.bw.push_bits(z as u64, 12);
        } else if z < (1 << 20) {
            self.bw.push_bits(0b1110, 4);
            self.bw.push_bits(z as u64, 20);
        } else if z < (1 << 32) {
            self.bw.push_bits(0b11110, 5);
            self.bw.push_bits(z as u64, 32);
        } else {
            // Worst case: 65 bits of zigzagged delta-of-delta, split as
            // high bit + low 64.
            self.bw.push_bits(0b11111, 5);
            self.bw.push_bit((z >> 64) & 1 == 1);
            self.bw.push_bits(z as u64, 64);
        }
    }

    fn push_watts(&mut self, w_bits: u64) {
        let xor = w_bits ^ self.prev_w_bits;
        if xor == 0 {
            self.bw.push_bit(false);
            return;
        }
        self.bw.push_bit(true);
        let leading = xor.leading_zeros() as u8;
        let trailing = xor.trailing_zeros() as u8;
        let meaningful = 64 - leading - trailing;
        let fits_prev = self.prev_leading != u8::MAX
            && leading >= self.prev_leading
            && (64 - self.prev_leading - self.prev_meaningful) <= trailing;
        if fits_prev {
            // Confined to the previous window: control '0', then the
            // window's bits.
            self.bw.push_bit(false);
            let prev_trailing = 64 - self.prev_leading - self.prev_meaningful;
            self.bw.push_bits(xor >> prev_trailing, self.prev_meaningful);
        } else {
            // New window: control '1', 6-bit leading count, 6-bit
            // (length - 1), then the meaningful bits.
            self.bw.push_bit(true);
            self.bw.push_bits(leading as u64, 6);
            self.bw.push_bits((meaningful - 1) as u64, 6);
            self.bw.push_bits(xor >> trailing, meaningful);
            self.prev_leading = leading;
            self.prev_meaningful = meaningful;
        }
    }

    /// Finishes the stream: packed payload bytes plus the exact bit length.
    pub fn finish(self) -> (Vec<u8>, usize) {
        self.bw.finish()
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

/// Why a chunk payload failed to decode.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The bit stream ended before `count` samples were read.
    Truncated,
    /// A decoded sample violated the trace invariants (non-finite or
    /// negative values, backwards timestamps) — the payload is corrupt
    /// even though its checksum matched.
    InvalidSample {
        /// Index of the offending sample within the chunk.
        index: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "bit stream ended mid-sample"),
            DecodeError::InvalidSample { index } => {
                write!(f, "decoded sample {index} violates trace invariants")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes a payload of exactly `count` samples into parallel columns,
/// validating the trace invariants on the way out.
pub fn decode(
    payload: &[u8],
    bit_len: usize,
    count: usize,
) -> Result<(Vec<f64>, Vec<f64>), DecodeError> {
    let mut times = Vec::with_capacity(count);
    let mut watts = Vec::with_capacity(count);
    decode_each(payload, bit_len, count, |t, w| {
        times.push(t);
        watts.push(w);
    })?;
    Ok((times, watts))
}

/// Decodes a payload of exactly `count` samples, handing each one to
/// `sink` in order as soon as it has passed the trace-invariant checks —
/// the streaming form of [`decode`], for readers that fold samples into
/// something other than columns. On `Err` the sink has seen a prefix of
/// the stream's valid samples.
pub fn decode_each(
    payload: &[u8],
    bit_len: usize,
    count: usize,
    mut sink: impl FnMut(f64, f64),
) -> Result<(), DecodeError> {
    let mut br = BitReader::new(payload, bit_len);
    let mut prev_t_bits = 0u64;
    let mut prev_delta = 0u64;
    let mut prev_w_bits = 0u64;
    let mut prev_leading = u8::MAX;
    let mut prev_meaningful = 0u8;
    for i in 0..count {
        let (t_bits, w_bits) = if i == 0 {
            let t = br.read_bits(64).ok_or(DecodeError::Truncated)?;
            let w = br.read_bits(64).ok_or(DecodeError::Truncated)?;
            (t, w)
        } else {
            let t_bits = {
                let dod = read_dod(&mut br)?;
                let delta = (prev_delta as i128 + dod) as u64;
                prev_delta = delta;
                prev_t_bits.wrapping_add(delta)
            };
            let w_bits = if !br.read_bit().ok_or(DecodeError::Truncated)? {
                prev_w_bits
            } else if !br.read_bit().ok_or(DecodeError::Truncated)? {
                if prev_leading == u8::MAX {
                    return Err(DecodeError::InvalidSample { index: i });
                }
                let prev_trailing = 64 - prev_leading - prev_meaningful;
                let window = br.read_bits(prev_meaningful).ok_or(DecodeError::Truncated)?;
                prev_w_bits ^ (window << prev_trailing)
            } else {
                let leading = br.read_bits(6).ok_or(DecodeError::Truncated)? as u8;
                let meaningful = br.read_bits(6).ok_or(DecodeError::Truncated)? as u8 + 1;
                if leading + meaningful > 64 {
                    return Err(DecodeError::InvalidSample { index: i });
                }
                let trailing = 64 - leading - meaningful;
                let window = br.read_bits(meaningful).ok_or(DecodeError::Truncated)?;
                prev_leading = leading;
                prev_meaningful = meaningful;
                prev_w_bits ^ (window << trailing)
            };
            (t_bits, w_bits)
        };
        let t = f64::from_bits(t_bits);
        let w = f64::from_bits(w_bits);
        let ordered = i == 0 || t >= f64::from_bits(prev_t_bits);
        if !t.is_finite() || t < 0.0 || !w.is_finite() || w < 0.0 || !ordered {
            return Err(DecodeError::InvalidSample { index: i });
        }
        prev_t_bits = t_bits;
        prev_w_bits = w_bits;
        sink(t, w);
    }
    Ok(())
}

#[inline]
fn read_dod(br: &mut BitReader<'_>) -> Result<i128, DecodeError> {
    if !br.read_bit().ok_or(DecodeError::Truncated)? {
        return Ok(0);
    }
    let z = if !br.read_bit().ok_or(DecodeError::Truncated)? {
        br.read_bits(7).ok_or(DecodeError::Truncated)? as u128
    } else if !br.read_bit().ok_or(DecodeError::Truncated)? {
        br.read_bits(12).ok_or(DecodeError::Truncated)? as u128
    } else if !br.read_bit().ok_or(DecodeError::Truncated)? {
        br.read_bits(20).ok_or(DecodeError::Truncated)? as u128
    } else if !br.read_bit().ok_or(DecodeError::Truncated)? {
        br.read_bits(32).ok_or(DecodeError::Truncated)? as u128
    } else {
        let high = br.read_bit().ok_or(DecodeError::Truncated)? as u128;
        let low = br.read_bits(64).ok_or(DecodeError::Truncated)? as u128;
        (high << 64) | low
    };
    Ok(unzigzag(z))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The column-building decoder [`decode_each`] replaced, kept as the
    /// reference the streaming one must match on every input.
    fn ref_decode(
        payload: &[u8],
        bit_len: usize,
        count: usize,
    ) -> Result<(Vec<f64>, Vec<f64>), DecodeError> {
        let mut br = BitReader::new(payload, bit_len);
        let mut times = Vec::with_capacity(count);
        let mut watts = Vec::with_capacity(count);
        let mut prev_t_bits = 0u64;
        let mut prev_delta = 0u64;
        let mut prev_w_bits = 0u64;
        let mut prev_leading = u8::MAX;
        let mut prev_meaningful = 0u8;
        for i in 0..count {
            let (t_bits, w_bits) = if i == 0 {
                let t = br.read_bits(64).ok_or(DecodeError::Truncated)?;
                let w = br.read_bits(64).ok_or(DecodeError::Truncated)?;
                (t, w)
            } else {
                let t_bits = {
                    let dod = read_dod(&mut br)?;
                    let delta = (prev_delta as i128 + dod) as u64;
                    prev_delta = delta;
                    prev_t_bits.wrapping_add(delta)
                };
                let w_bits = if !br.read_bit().ok_or(DecodeError::Truncated)? {
                    prev_w_bits
                } else if !br.read_bit().ok_or(DecodeError::Truncated)? {
                    if prev_leading == u8::MAX {
                        return Err(DecodeError::InvalidSample { index: i });
                    }
                    let prev_trailing = 64 - prev_leading - prev_meaningful;
                    let window = br.read_bits(prev_meaningful).ok_or(DecodeError::Truncated)?;
                    prev_w_bits ^ (window << prev_trailing)
                } else {
                    let leading = br.read_bits(6).ok_or(DecodeError::Truncated)? as u8;
                    let meaningful = br.read_bits(6).ok_or(DecodeError::Truncated)? as u8 + 1;
                    if leading + meaningful > 64 {
                        return Err(DecodeError::InvalidSample { index: i });
                    }
                    let trailing = 64 - leading - meaningful;
                    let window = br.read_bits(meaningful).ok_or(DecodeError::Truncated)?;
                    prev_leading = leading;
                    prev_meaningful = meaningful;
                    prev_w_bits ^ (window << trailing)
                };
                (t_bits, w_bits)
            };
            let t = f64::from_bits(t_bits);
            let w = f64::from_bits(w_bits);
            let ordered = times.last().map(|&last: &f64| t >= last).unwrap_or(true);
            if !t.is_finite() || t < 0.0 || !w.is_finite() || w < 0.0 || !ordered {
                return Err(DecodeError::InvalidSample { index: i });
            }
            prev_t_bits = t_bits;
            prev_w_bits = w_bits;
            times.push(t);
            watts.push(w);
        }
        Ok((times, watts))
    }

    /// Both decoders over one input: the same `to_bits` columns, or the
    /// same error variant and index.
    fn assert_decoders_agree(payload: &[u8], bit_len: usize, count: usize, what: &str) {
        let bits = |cols: (Vec<f64>, Vec<f64>)| {
            let t: Vec<u64> = cols.0.iter().map(|x| x.to_bits()).collect();
            let w: Vec<u64> = cols.1.iter().map(|x| x.to_bits()).collect();
            (t, w)
        };
        let got = decode(payload, bit_len, count).map(bits);
        let want = ref_decode(payload, bit_len, count).map(bits);
        assert_eq!(got, want, "{what}");
    }

    /// A seeded valid stream mixing what meters and hostile-but-valid
    /// writers produce: a steady cadence, jitter, repeated timestamps,
    /// large jumps, held and 0.1 W-quantized watts, and free values.
    fn random_stream(seed: u64, n: usize) -> (Vec<u8>, usize) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut enc = Encoder::new();
        let (mut t, mut w) = ((next() % 1_000_000) as f64, 250.0);
        for _ in 0..n {
            t += match next() % 8 {
                0 => 0.0,
                1 => (next() % 1000) as f64 * 1e-3,
                2 => (next() % 100_000) as f64,
                _ => 1.0,
            };
            w = match next() % 6 {
                0 | 1 => w,
                2 | 3 => ((next() % 45_000) as f64 / 10.0).round(),
                4 => (next() % 45_000) as f64 / 10.0,
                _ => f64::from_bits(next() >> 2) % 5000.0,
            };
            enc.push(t, w.abs());
        }
        enc.finish()
    }

    #[test]
    fn streaming_decoder_matches_the_column_reference() {
        for seed in 0..16u64 {
            let n = 1 + (seed as usize * 37) % 120;
            let (payload, bit_len) = random_stream(seed, n);
            assert_decoders_agree(&payload, bit_len, n, &format!("seed {seed}: clean"));
            // Claiming more samples than were written.
            assert_decoders_agree(&payload, bit_len, n + 1, &format!("seed {seed}: count + 1"));
            // Every truncation point.
            for cut in 0..bit_len {
                assert_decoders_agree(&payload, cut, n, &format!("seed {seed}: cut at bit {cut}"));
            }
            // Random single and double payload bit flips, bypassing any
            // checksum.
            let mut state = seed ^ 0xF1F1_F1F1;
            for flip in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let mut damaged = payload.clone();
                let at = (state >> 33) as usize % bit_len;
                damaged[at / 8] ^= 0x80 >> (at % 8);
                if flip % 2 == 1 {
                    let at2 = (state >> 7) as usize % bit_len;
                    damaged[at2 / 8] ^= 0x80 >> (at2 % 8);
                }
                assert_decoders_agree(&damaged, bit_len, n, &format!("seed {seed}: flip {flip}"));
            }
        }
    }

    fn round_trip(samples: &[(f64, f64)]) -> (Vec<f64>, Vec<f64>) {
        let mut enc = Encoder::new();
        for &(t, w) in samples {
            enc.push(t, w);
        }
        let (payload, bits) = enc.finish();
        decode(&payload, bits, samples.len()).expect("valid stream decodes")
    }

    #[test]
    fn empty_and_single_sample() {
        let (t, w) = round_trip(&[]);
        assert!(t.is_empty() && w.is_empty());
        let (t, w) = round_trip(&[(1.5, 250.25)]);
        assert_eq!((t[0], w[0]), (1.5, 250.25));
    }

    #[test]
    fn bit_identical_round_trip() {
        let samples = [
            (0.0, 80.0),
            (1.0, 80.0),
            (2.0, 80.1),
            (2.0, 250.7),
            (3.5, 250.7),
            (1e9, 0.1),
            (1.0000000001e9, 1e-300),
            (f64::MAX / 2.0, 4999.9),
        ];
        let (t, w) = round_trip(&samples);
        for (i, &(st, sw)) in samples.iter().enumerate() {
            assert_eq!(t[i].to_bits(), st.to_bits(), "time {i}");
            assert_eq!(w[i].to_bits(), sw.to_bits(), "watts {i}");
        }
    }

    #[test]
    fn metronomic_cadence_costs_two_bits_per_sample() {
        // Exact 1 s cadence with a held power level: after the first
        // sample the time delta repeats bit-for-bit (dod = 0 → 1 bit) and
        // the power XOR is 0 (1 bit).
        let n = 10_000usize;
        let mut enc = Encoder::new();
        for i in 0..n {
            enc.push(1_000_000.0 + i as f64, 242.5);
        }
        let (payload, bits) = enc.finish();
        // First sample is 128 bits; the steady state must stay under
        // 4 bits/sample even across exponent-boundary hiccups.
        assert!(bits < 128 + 4 * n, "steady-state stream took {bits} bits");
        let (t, w) = decode(&payload, bits, n).unwrap();
        assert_eq!(t.len(), n);
        assert!(w.iter().all(|&x| x == 242.5));
    }

    #[test]
    fn truncated_payload_is_detected() {
        let mut enc = Encoder::new();
        for i in 0..50 {
            enc.push(i as f64, 100.0 + (i % 7) as f64);
        }
        let (payload, bits) = enc.finish();
        assert_eq!(decode(&payload, bits / 2, 50).unwrap_err(), DecodeError::Truncated);
        // Claiming more samples than were written also fails loudly.
        assert_eq!(decode(&payload, bits, 51).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [
            0i128,
            1,
            -1,
            i64::MAX as i128,
            i64::MIN as i128,
            (u64::MAX as i128),
            -(u64::MAX as i128),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
