//! `tgi-trace-store`: append-only, compressed, crash-safe on-disk storage
//! for power traces, with O(log n) cold energy queries.
//!
//! Long-running fleet telemetry outgrows RAM: a month of 1 Hz wall-power
//! samples per node is ~2.6 M samples, and raw `(f64, f64)` pairs cost
//! 16 bytes each. This crate stores the same stream at well under
//! 2 bytes/sample for realistic meter output, survives crashes at any
//! byte, and answers windowed energy queries without rehydrating the
//! trace:
//!
//! * **Codec** ([`codec`]): delta-of-delta timestamps + Gorilla-style XOR
//!   floats, lossless at the bit-pattern level — decoded samples are
//!   `to_bits`-identical to what was appended.
//! * **Chunks** ([`chunk`]): fixed-sample-count sealed chunks in one
//!   append-only segment file. A chunk's payload is a run of
//!   independently decodable 4,096-sample sub-blocks, each with its own
//!   CRC; a fixed-size footer (first/last timestamp and watts,
//!   prefix-energy snapshots, peak/min, CRCs) and a sub-block index (per
//!   sub-block: byte offset, bit length, count, first sample, energy
//!   snapshot, CRC) stay resident; payloads stay on disk. The magics
//!   carry the format version: v1 segments (one stream per chunk, no
//!   index) are still read, as one-sub-block chunks, and `compact`
//!   rewrites them as v2.
//! * **WAL** ([`wal`]): the active chunk is write-ahead logged as raw
//!   length-prefixed records; open-time recovery truncates torn tails and
//!   never surfaces an invalid sample.
//! * **Store** ([`store`]): [`TraceStore`] ties them together — validated
//!   appends, footer-then-index binary-search queries that decode at most
//!   the two boundary sub-blocks of a window (at most 2 × 4,096 samples,
//!   whatever the chunk size), and retention/merge compaction.
//!
//! The store maintains the same running trapezoid accumulation chain as
//! the in-memory `PowerTrace` prefix index, snapshotted into every
//! footer and index entry, so its energy answers are bit-identical to the in-memory
//! structure over the same samples. The crate depends only on `std`;
//! `tgi-power-model` layers the `PowerTrace` integration on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod chunk;
pub mod codec;
pub mod crc;
pub mod store;
pub mod wal;

pub use store::{
    check_sample, clamp_window, CompactionStats, StoreConfig, StoreError, TraceStore, SEGMENT_FILE,
    WAL_FILE,
};
