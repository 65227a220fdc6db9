//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
//!
//! Every on-disk record — WAL records, sub-block streams, chunk footers
//! and sub-block indexes — carries a CRC so torn or bit-flipped tails
//! are *detected* and truncated on open instead of surfacing as corrupt
//! samples. The build environment is offline, so the checksum is
//! implemented here rather than pulled in.

/// The 256-entry lookup table for the reflected IEEE polynomial, built at
/// compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 of `bytes` (initial value 0xFFFF_FFFF, final XOR 0xFFFF_FFFF —
/// the standard zlib/IEEE convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = b"power trace chunk payload".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
