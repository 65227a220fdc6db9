//! Sealed-chunk segment format: `[magic][len][payload][footer][index]`
//! blocks in one append-only file.
//!
//! A chunk's payload is a run of **sub-blocks** of up to
//! [`SUB_BLOCK_SAMPLES`] samples, each its own byte-aligned codec stream
//! with its own CRC. Each sealed chunk carries a fixed-size footer
//! summarizing everything a window query needs without decompressing
//! anything: first/last timestamp and watts, the *prefix energy* at the
//! chunk's first and last sample (bit-exact snapshots of the store's
//! running trapezoid accumulation), peak/min watts, and CRCs over the
//! footer and the index. The **sub-block index** that follows the footer
//! holds, per sub-block, its byte offset, bit length, sample count, first
//! timestamp and watts, the accumulation chain at its first sample, and
//! its CRC. Footers and indexes stay resident, so `energy_between`
//! binary-searches footers, then one chunk's index, and touches at most
//! the two boundary *sub-blocks* of a window.
//!
//! **Versions.** The magics carry the format version. v2 (this layout)
//! is what the store writes. A v1 block (`TGSC`/`TGSF`: one codec stream
//! per chunk, payload bit length and CRC in the footer, no index) is read
//! as a chunk with one sub-block whose index entry is synthesized from
//! the footer, so both versions go through the same read path.
//!
//! Opening a segment scans blocks sequentially — header, *seek over* the
//! payload, footer, index — so cold sample data is never read. A query
//! later reads exactly one sub-block's stream, located by its index
//! entry, with one positional read (see `store`). A torn
//! tail (crash during a seal) fails its magic/length/CRC checks, or its
//! footer breaks the trace's time order, and the scan reports the last
//! valid offset; the store truncates there and re-seals from the WAL.

use crate::crc::crc32;
use std::io::{self, Read, Seek, SeekFrom, Write};

/// Magic prefix of every v2 block: "TGS2" (TGI Store, format 2).
pub const BLOCK_MAGIC: u32 = 0x5447_5332;
/// Magic prefix of every v2 footer: "TGF2".
pub const FOOTER_MAGIC: u32 = 0x5447_4632;
/// Magic prefix of a v1 block: "TGSC" (TGI Store Chunk).
pub const BLOCK_MAGIC_V1: u32 = 0x5447_5343;
/// Magic prefix of a v1 footer: "TGSF".
pub const FOOTER_MAGIC_V1: u32 = 0x5447_5346;
/// Serialized footer size, bytes (both versions).
pub const FOOTER_LEN: usize = 96;
/// Block header size: magic + payload length.
pub const BLOCK_HEADER_LEN: usize = 8;
/// Serialized sub-block index entry size, bytes.
pub const INDEX_ENTRY_LEN: usize = 40;
/// Samples per sub-block; a chunk's last sub-block may hold fewer. The
/// most samples a boundary lookup ever decodes.
pub const SUB_BLOCK_SAMPLES: usize = 4096;

/// One independently decodable codec stream inside a chunk payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubBlock {
    /// Byte offset within the chunk payload.
    pub offset: u64,
    /// Exact valid bit count of the stream.
    pub bit_len: u64,
    /// Samples in the sub-block.
    pub count: u64,
    /// First sample's timestamp.
    pub first_t: f64,
    /// First sample's power.
    pub first_w: f64,
    /// The store's accumulation chain at the first sample.
    pub cum_first: f64,
    /// CRC-32 of the stream's bytes.
    pub crc: u32,
}

impl SubBlock {
    /// Stream length in whole bytes.
    pub fn byte_len(&self) -> u64 {
        self.bit_len.div_ceil(8)
    }
}

/// An in-memory chunk summary: the footer, the sub-block index, and the
/// payload's location in the segment file. One of these per sealed chunk
/// stays resident; the payload stays on disk until a query needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMeta {
    /// Byte offset of the payload within the segment file.
    pub payload_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Samples in the chunk (always ≥ 1 for a sealed chunk).
    pub count: u64,
    /// First sample's timestamp.
    pub first_t: f64,
    /// Last sample's timestamp.
    pub last_t: f64,
    /// First sample's power.
    pub first_w: f64,
    /// Last sample's power.
    pub last_w: f64,
    /// Prefix energy (J) at the chunk's first sample — the store's running
    /// trapezoid accumulation snapshotted bit-exactly at seal time.
    pub cum_first: f64,
    /// Prefix energy at the chunk's last sample.
    pub cum_last: f64,
    /// Highest power in the chunk.
    pub peak_w: f64,
    /// Lowest power in the chunk.
    pub min_w: f64,
    /// The payload's sub-blocks, in sample order.
    pub index: Vec<SubBlock>,
}

impl ChunkMeta {
    /// Serializes the v2 footer (without the payload offset, which is
    /// implied by the block's position in the file). `index_crc` is the
    /// CRC of the serialized index that follows it.
    fn encode_footer(&self, index_crc: u32) -> [u8; FOOTER_LEN] {
        let mut out = [0u8; FOOTER_LEN];
        let mut at = 0usize;
        let mut put = |bytes: &[u8]| {
            out[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        };
        put(&FOOTER_MAGIC.to_le_bytes());
        put(&self.count.to_le_bytes());
        put(&(self.index.len() as u64).to_le_bytes());
        for v in [
            self.first_t,
            self.last_t,
            self.first_w,
            self.last_w,
            self.cum_first,
            self.cum_last,
            self.peak_w,
            self.min_w,
        ] {
            put(&v.to_bits().to_le_bytes());
        }
        put(&self.payload_len.to_le_bytes());
        put(&index_crc.to_le_bytes());
        debug_assert_eq!(at, FOOTER_LEN - 4);
        let crc = crc32(&out[..FOOTER_LEN - 4]);
        out[FOOTER_LEN - 4..].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a footer of either version. Both share one layout; the two
    /// version-specific words are returned raw beside the meta (whose
    /// index is left empty): v1 stores the payload's bit length and CRC
    /// there, v2 the sub-block count and the index CRC. `None` on a bad
    /// magic or checksum.
    fn decode_footer(
        bytes: &[u8; FOOTER_LEN],
        magic: u32,
        payload_offset: u64,
    ) -> Option<(ChunkMeta, u64, u32)> {
        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        if crc32(&bytes[..FOOTER_LEN - 4]) != u32_at(FOOTER_LEN - 4) || u32_at(0) != magic {
            return None;
        }
        let f = |i: usize| f64::from_bits(u64_at(20 + 8 * i));
        let meta = ChunkMeta {
            payload_offset,
            payload_len: u32_at(84),
            count: u64_at(4),
            first_t: f(0),
            last_t: f(1),
            first_w: f(2),
            last_w: f(3),
            cum_first: f(4),
            cum_last: f(5),
            peak_w: f(6),
            min_w: f(7),
            index: Vec::new(),
        };
        Some((meta, u64_at(12), u32_at(88)))
    }

    /// Checks that the index describes this chunk: contiguous sub-blocks
    /// that exactly tile the payload, counts that sum to `count`, each
    /// stream long enough for its count, first samples in time order
    /// within the footer's span, and a first entry that agrees with the
    /// footer. The store runs this before trusting an index entry, so a
    /// checksum-valid but inconsistent index reads as corrupt instead of
    /// steering a slice or an allocation out of range.
    pub(crate) fn check_index(&self) -> Result<(), String> {
        let head = self.index.first().ok_or("empty sub-block index")?;
        if head.first_t.to_bits() != self.first_t.to_bits()
            || head.first_w.to_bits() != self.first_w.to_bits()
            || head.cum_first.to_bits() != self.cum_first.to_bits()
        {
            return Err("first sub-block disagrees with the footer".to_string());
        }
        let (mut end, mut samples, mut prev_t) = (0u64, 0u64, self.first_t);
        for (k, sb) in self.index.iter().enumerate() {
            // A stream spends 128 bits on its first sample and at least 2
            // on each later one.
            let fits = sb.bit_len >= 128 && sb.count >= 1 && sb.count - 1 <= (sb.bit_len - 128) / 2;
            if sb.offset != end || !fits {
                return Err(format!("sub-block {k}: offset, bit length or count out of range"));
            }
            if !(sb.first_t >= prev_t && sb.first_t <= self.last_t) {
                return Err(format!("sub-block {k}: first timestamp out of order"));
            }
            end = end.checked_add(sb.byte_len()).ok_or("sub-block extent overflows")?;
            samples = samples.checked_add(sb.count).ok_or("sub-block counts overflow")?;
            prev_t = sb.first_t;
        }
        if end != u64::from(self.payload_len) || samples != self.count {
            return Err("sub-blocks do not tile the payload".to_string());
        }
        Ok(())
    }
}

fn encode_index(index: &[SubBlock]) -> Vec<u8> {
    let mut out = Vec::with_capacity(index.len() * INDEX_ENTRY_LEN);
    for sb in index {
        // v2 sub-blocks are bounded by `SUB_BLOCK_SAMPLES`, so offsets
        // within a `u32` payload and bit lengths fit 32 bits.
        out.extend_from_slice(&(sb.offset as u32).to_le_bytes());
        out.extend_from_slice(&(sb.bit_len as u32).to_le_bytes());
        out.extend_from_slice(&(sb.count as u32).to_le_bytes());
        for v in [sb.first_t, sb.first_w, sb.cum_first] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&sb.crc.to_le_bytes());
    }
    out
}

fn decode_index(bytes: &[u8]) -> Vec<SubBlock> {
    bytes
        .chunks_exact(INDEX_ENTRY_LEN)
        .map(|e| {
            let u32_at = |at: usize| u32::from_le_bytes(e[at..at + 4].try_into().expect("4 bytes"));
            let f64_at = |at: usize| {
                f64::from_bits(u64::from_le_bytes(e[at..at + 8].try_into().expect("8 bytes")))
            };
            SubBlock {
                offset: u64::from(u32_at(0)),
                bit_len: u64::from(u32_at(4)),
                count: u64::from(u32_at(8)),
                first_t: f64_at(12),
                first_w: f64_at(20),
                cum_first: f64_at(28),
                crc: u32_at(36),
            }
        })
        .collect()
}

/// Serializes one full v2 block (`header + payload + footer + index`)
/// ready to append to the segment file. `meta.payload_offset` is ignored;
/// the caller knows where the block lands.
pub fn encode_block(meta: &ChunkMeta, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(meta.payload_len as usize, payload.len());
    let index = encode_index(&meta.index);
    let mut out = Vec::with_capacity(BLOCK_HEADER_LEN + payload.len() + FOOTER_LEN + index.len());
    out.extend_from_slice(&BLOCK_MAGIC.to_le_bytes());
    out.extend_from_slice(&meta.payload_len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&meta.encode_footer(crc32(&index)));
    out.extend_from_slice(&index);
    out
}

/// Scans a segment file from the start, returning every valid chunk's
/// metadata (v1 chunks with their one-entry index synthesized) plus the
/// byte length of the valid prefix. The scan stops at the first block
/// whose magic, length, footer or index CRC fails, or whose footer breaks
/// the time order of the chunks before it — the torn tail a crash
/// mid-seal leaves — and never reads payload bytes.
pub fn scan_segment<F: Read + Seek>(file: &mut F) -> io::Result<(Vec<ChunkMeta>, u64)> {
    let total = file.seek(SeekFrom::End(0))?;
    file.seek(SeekFrom::Start(0))?;
    let mut chunks: Vec<ChunkMeta> = Vec::new();
    let mut offset = 0u64;
    let fixed = (BLOCK_HEADER_LEN + FOOTER_LEN) as u64;
    loop {
        let remaining = total - offset;
        if remaining < fixed {
            break;
        }
        let mut header = [0u8; BLOCK_HEADER_LEN];
        file.read_exact(&mut header)?;
        let magic = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
        let payload_len = u64::from(u32::from_le_bytes(header[4..].try_into().expect("4 bytes")));
        let footer_magic = match magic {
            BLOCK_MAGIC => FOOTER_MAGIC,
            BLOCK_MAGIC_V1 => FOOTER_MAGIC_V1,
            _ => break,
        };
        if payload_len > remaining - fixed {
            break;
        }
        // Seek over the payload — cold data stays cold.
        file.seek(SeekFrom::Current(payload_len as i64))?;
        let mut footer = [0u8; FOOTER_LEN];
        file.read_exact(&mut footer)?;
        let payload_offset = offset + BLOCK_HEADER_LEN as u64;
        let (mut meta, word, crc) =
            match ChunkMeta::decode_footer(&footer, footer_magic, payload_offset) {
                Some(parsed) if u64::from(parsed.0.payload_len) == payload_len => parsed,
                _ => break,
            };
        let prev_last = chunks.last().map_or(f64::NEG_INFINITY, |m| m.last_t);
        let ordered = meta.first_t.is_finite()
            && meta.first_t >= 0.0
            && meta.first_t <= meta.last_t
            && meta.first_t >= prev_last;
        if meta.count == 0 || !ordered {
            break;
        }
        let index_len = if magic == BLOCK_MAGIC {
            let room = (remaining - fixed - payload_len) / INDEX_ENTRY_LEN as u64;
            if word == 0 || word > room.min(meta.count) {
                break;
            }
            let mut index = vec![0u8; word as usize * INDEX_ENTRY_LEN];
            file.read_exact(&mut index)?;
            if crc32(&index) != crc {
                break;
            }
            meta.index = decode_index(&index);
            index.len() as u64
        } else {
            meta.index = vec![SubBlock {
                offset: 0,
                bit_len: word,
                count: meta.count,
                first_t: meta.first_t,
                first_w: meta.first_w,
                cum_first: meta.cum_first,
                crc,
            }];
            0
        };
        offset = payload_offset + payload_len + FOOTER_LEN as u64 + index_len;
        chunks.push(meta);
    }
    Ok((chunks, offset))
}

/// Appends a v2 block and returns the new file length. The caller fsyncs.
pub fn append_block<F: Write + Seek>(
    file: &mut F,
    end: u64,
    meta: &ChunkMeta,
    payload: &[u8],
) -> io::Result<u64> {
    file.seek(SeekFrom::Start(end))?;
    let block = encode_block(meta, payload);
    file.write_all(&block)?;
    Ok(end + block.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A two-sub-block chunk over `payload` (the bytes need not decode;
    /// the scan never reads them).
    fn meta(payload: &[u8], first_t: f64, last_t: f64) -> ChunkMeta {
        let split = payload.len() / 2;
        let sub = |offset: usize, len: usize, t: f64, cum: f64| SubBlock {
            offset: offset as u64,
            bit_len: len as u64 * 8,
            count: 1,
            first_t: t,
            first_w: 100.0,
            cum_first: cum,
            crc: crc32(&payload[offset..offset + len]),
        };
        ChunkMeta {
            payload_offset: 0,
            payload_len: payload.len() as u32,
            count: 2,
            first_t,
            last_t,
            first_w: 100.0,
            last_w: 120.0,
            cum_first: 0.0,
            cum_last: 220.0,
            peak_w: 120.0,
            min_w: 100.0,
            index: vec![
                sub(0, split, first_t, 0.0),
                sub(split, payload.len() - split, last_t, 220.0),
            ],
        }
    }

    #[test]
    fn footer_round_trips() {
        let payload = [7u8; 40];
        let m = meta(&payload, 1.0, 2.0);
        let mut file = Cursor::new(encode_block(&m, &payload));
        let (chunks, valid_len) = scan_segment(&mut file).unwrap();
        assert_eq!(chunks, vec![ChunkMeta { payload_offset: BLOCK_HEADER_LEN as u64, ..m }]);
        assert_eq!(valid_len, file.get_ref().len() as u64);
    }

    #[test]
    fn footer_rejects_corruption() {
        let payload = [7u8; 40];
        let block = encode_block(&meta(&payload, 1.0, 2.0), &payload);
        let footer_at = BLOCK_HEADER_LEN + payload.len();
        for at in [footer_at + 10, footer_at + FOOTER_LEN + 5] {
            let mut torn = block.clone();
            torn[at] ^= 1;
            let (chunks, valid_len) = scan_segment(&mut Cursor::new(torn)).unwrap();
            assert!(chunks.is_empty() && valid_len == 0, "flip at byte {at} was accepted");
        }
    }

    #[test]
    fn scan_recovers_blocks_and_stops_at_torn_tail() {
        let mut file = Cursor::new(Vec::new());
        let p1 = b"first payload".to_vec();
        let p2 = b"second".to_vec();
        let mut end = 0;
        end = append_block(&mut file, end, &meta(&p1, 0.0, 1.0), &p1).unwrap();
        end = append_block(&mut file, end, &meta(&p2, 1.0, 2.0), &p2).unwrap();
        let clean_len = end;
        // A torn third block: header + half a payload, no footer.
        file.seek(SeekFrom::Start(end)).unwrap();
        file.write_all(&BLOCK_MAGIC.to_le_bytes()).unwrap();
        file.write_all(&400u32.to_le_bytes()).unwrap();
        file.write_all(b"torn....").unwrap();

        let (chunks, valid_len) = scan_segment(&mut file).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(valid_len, clean_len);
        assert_eq!(chunks[0].payload_len as usize, p1.len());
        let at = chunks[1].payload_offset as usize;
        assert_eq!(&file.get_ref()[at..at + p2.len()], p2.as_slice());
    }

    #[test]
    fn scan_stops_at_a_block_that_breaks_time_order() {
        let mut file = Cursor::new(Vec::new());
        let p = b"payload".to_vec();
        let end = append_block(&mut file, 0, &meta(&p, 5.0, 6.0), &p).unwrap();
        append_block(&mut file, end, &meta(&p, 1.0, 2.0), &p).unwrap();
        let (chunks, valid_len) = scan_segment(&mut file).unwrap();
        assert_eq!((chunks.len(), valid_len), (1, end));
    }

    #[test]
    fn scan_of_empty_file_is_empty() {
        let mut file = Cursor::new(Vec::new());
        let (chunks, valid_len) = scan_segment(&mut file).unwrap();
        assert!(chunks.is_empty());
        assert_eq!(valid_len, 0);
    }
}
