//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
//!
//! Every on-disk record — WAL records, sub-block streams, chunk footers
//! and sub-block indexes — carries a CRC so torn or bit-flipped tails
//! are *detected* and truncated on open instead of surfacing as corrupt
//! samples. Every cold sub-block read checksums its whole stream, so the
//! CRC runs at the read path's byte rate: the slicing-by-8 scheme
//! (Kounavis & Berry, 2005) folds eight bytes per step through eight
//! lookup tables instead of one byte per step through one, with a
//! bytewise tail. The values are the standard zlib/IEEE ones either way.
//! The build environment is offline, so the checksum is implemented here
//! rather than pulled in.

/// The eight 256-entry slicing tables, built at compile time.
/// `TABLES[0]` is the classic bytewise table; `TABLES[k][i]` is the CRC
/// contribution of byte `i` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (initial value 0xFFFF_FFFF, final XOR 0xFFFF_FFFF —
/// the standard zlib/IEEE convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[word[4] as usize]
            ^ t2[word[5] as usize]
            ^ t1[word[6] as usize]
            ^ t0[word[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the sliced one must match.
    fn ref_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn slicing_matches_the_bytewise_reference() {
        // Every length 0..=1024 from every start offset 0..8, so each
        // word/tail split meets each alignment of the buffer.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=1024 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), ref_crc32(bytes), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = b"power trace chunk payload".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
