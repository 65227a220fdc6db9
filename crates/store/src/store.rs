//! The store itself: an append-only directory of `{segment.tgs, wal.tgw}`
//! holding one compressed power trace.
//!
//! Appends go to the write-ahead log first ([`crate::wal`]), accumulate in
//! an in-memory active chunk, and seal into the segment file
//! ([`crate::chunk`]) every `chunk_samples` samples. The store maintains
//! the *same running trapezoid accumulation chain* as the in-memory
//! `PowerTrace` prefix index — each chunk footer snapshots that chain at
//! the chunk's first and last sample, each sub-block index entry at the
//! sub-block's first — so energy queries answered from footers, index
//! entries and boundary sub-blocks are bit-identical (`to_bits`-equal) to
//! the in-memory structure over the same samples.
//!
//! Queries binary-search the resident footers, then the resident
//! sub-block index of one chunk. A query time that lands *between* chunks
//! or sub-blocks (or exactly on an edge sample) is answered from footers
//! and index entries alone; one that lands inside a sub-block decodes
//! exactly that sub-block. `energy_between` therefore decodes at most its
//! two boundary sub-blocks — at most `2 × SUB_BLOCK_SAMPLES` samples —
//! regardless of store or chunk size: O(log n) search plus
//! O(`SUB_BLOCK_SAMPLES`) work. Every decode goes through one function
//! that checks the sub-block's CRC, the decoded samples' validity, and
//! the rebuilt energy chain against the index and footer.

use crate::chunk::{self, ChunkMeta, SubBlock, BLOCK_HEADER_LEN, SUB_BLOCK_SAMPLES};
use crate::codec::{self, Encoder};
use crate::crc::crc32;
use crate::wal;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Segment file name inside a store directory.
pub const SEGMENT_FILE: &str = "segment.tgs";
/// Write-ahead-log file name inside a store directory.
pub const WAL_FILE: &str = "wal.tgw";

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Samples per sealed chunk. Larger chunks keep fewer footers
    /// resident; a boundary query decodes one sub-block of at most
    /// [`SUB_BLOCK_SAMPLES`] samples whatever the chunk size.
    pub chunk_samples: usize,
    /// Retention horizon for [`TraceStore::compact`]: sealed chunks whose
    /// entire span is older than `last_time - retain_seconds` are dropped.
    /// `None` retains everything.
    pub retain_seconds: Option<f64>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { chunk_samples: 65_536, retain_seconds: None }
    }
}

/// The invariants every power sample keeps, in a store or in memory:
/// finite, non-negative time and watts, and a time not before `last_t`
/// (the previous sample's). `Err` says which one `(t, w)` breaks.
#[inline]
pub fn check_sample(t: f64, w: f64, last_t: f64) -> Result<(), String> {
    if !t.is_finite() || t < 0.0 {
        Err(format!("time must be finite and non-negative (got {t})"))
    } else if !w.is_finite() || w < 0.0 {
        Err(format!("power must be finite and non-negative (got {w})"))
    } else if t < last_t {
        Err(format!("timestamps must be non-decreasing (got {t} after {last_t})"))
    } else {
        Ok(())
    }
}

/// `[t0, t1]` clamped to a trace's `bounds` (its first and last sample
/// times); `None` for an empty trace or an interval wholly outside it.
/// The windowed queries here and on the in-memory trace all clamp through
/// this, so their edge cases agree.
///
/// # Panics
/// If either bound is NaN (infinities clamp to the span).
pub fn clamp_window(bounds: Option<(f64, f64)>, t0: f64, t1: f64) -> Option<(f64, f64)> {
    assert!(!t0.is_nan() && !t1.is_nan(), "window bounds must not be NaN");
    let (first, last) = bounds?;
    let (a, b) = (t0.max(first), t1.min(last));
    (a <= b).then_some((a, b))
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file system failed.
    Io(io::Error),
    /// On-disk data failed a checksum or invariant check. Recovery-on-open
    /// truncates torn *tails*; this error means damage past that point
    /// (e.g. a payload whose CRC matched but decoded invalid).
    Corrupt {
        /// Human-readable description of what failed.
        detail: String,
    },
    /// An appended sample violated the trace invariants and was rejected
    /// (nothing was written).
    InvalidSample {
        /// Index of the offending sample within the submitted batch.
        index: usize,
        /// Which invariant it broke.
        detail: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { detail } => write!(f, "store corrupt: {detail}"),
            StoreError::InvalidSample { index, detail } => {
                write!(f, "invalid sample {index}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What [`TraceStore::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Sealed chunks before compaction (the active chunk, if any, is
    /// sealed by compaction and counted in `chunks_after`).
    pub chunks_before: usize,
    /// Sealed chunks after retention and merging.
    pub chunks_after: usize,
    /// Samples dropped by the retention horizon.
    pub samples_dropped: u64,
    /// Store bytes on disk before.
    pub bytes_before: u64,
    /// Store bytes on disk after.
    pub bytes_after: u64,
}

/// Decoded sub-block columns: `(times, watts, cum)`.
type Columns = (Vec<f64>, Vec<f64>, Vec<f64>);

/// One step of the running trapezoid accumulation chain from sample
/// `(t0, w0)` to `(t1, w1)` — the exact arithmetic of the in-memory
/// prefix index, so chains built here stay `to_bits`-identical to it.
#[inline]
fn chain_step(cum: f64, (t0, w0): (f64, f64), (t1, w1): (f64, f64)) -> f64 {
    cum + 0.5 * (w0 + w1) * (t1 - t0)
}

/// The last appended sample and the accumulation chain value at it.
#[derive(Debug, Clone, Copy)]
struct LastSample {
    t: f64,
    w: f64,
    cum: f64,
}

/// The sample neighborhood a point query interpolates in: the greatest
/// sample index with `time <= t`, plus the following sample when one
/// exists.
struct Neighborhood {
    t_i: f64,
    w_i: f64,
    cum_i: f64,
    next: Option<(f64, f64)>,
}

/// One on-disk power trace: compressed sealed chunks plus a WAL-backed
/// active chunk. See the module docs for the format and guarantees.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    config: StoreConfig,
    /// Segment file handle; a mutex so `&self` queries can seek/read.
    segment: Mutex<File>,
    segment_len: u64,
    wal_file: File,
    wal_len: u64,
    /// Resident footers of the sealed chunks, in sample order.
    chunks: Vec<ChunkMeta>,
    /// Lifetime sample index of the first *active* sample (total samples
    /// sealed, after any retention rebase).
    sealed_count: u64,
    /// Active (unsealed) chunk columns; `active_cum[i]` is the absolute
    /// accumulation-chain value at that sample.
    active_t: Vec<f64>,
    active_w: Vec<f64>,
    active_cum: Vec<f64>,
    /// Chain state at the newest sample (sealed or active).
    last: Option<LastSample>,
    /// Running extrema over the stored samples (footer-derived on open).
    peak_w: f64,
    min_w: f64,
    /// Units (sub-blocks, or whole v1 chunks) decoded by queries since
    /// open (or the last [`TraceStore::reset_decompressions`]) — the
    /// observable the bench uses to prove boundary-only decompression.
    decompressions: AtomicU64,
    /// Samples those decodes produced.
    decoded_samples: AtomicU64,
}

impl TraceStore {
    /// Opens (or creates) the store in `dir`, running crash recovery:
    /// torn tails of both segment and WAL are truncated, WAL records
    /// overlapping sealed data are dropped by absolute sample index, and
    /// the surviving active samples are replayed. Recovery never surfaces
    /// a sample that fails the trace invariants.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<TraceStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let config = StoreConfig { chunk_samples: config.chunk_samples.max(1), ..config };
        std::fs::create_dir_all(&dir)?;
        let mut segment = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(SEGMENT_FILE))?;
        let (chunks, valid_len) = chunk::scan_segment(&mut segment)?;
        if segment.seek(SeekFrom::End(0))? > valid_len {
            segment.set_len(valid_len)?;
            segment.sync_data()?;
        }
        let sealed_count: u64 = chunks.iter().map(|m| m.count).sum();
        let last = chunks.last().map(|m| LastSample { t: m.last_t, w: m.last_w, cum: m.cum_last });
        let peak_w = chunks.iter().map(|m| m.peak_w).fold(0.0, f64::max);
        let min_w = chunks.iter().map(|m| m.min_w).fold(f64::INFINITY, f64::min);
        let mut wal_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL_FILE))?;
        let wal_bytes = wal::read_all(&mut wal_file)?;
        let replayed =
            wal::replay(&wal_bytes, sealed_count, last.map(|l| l.t).unwrap_or(f64::NEG_INFINITY));
        if wal_bytes.len() as u64 > replayed.valid_len {
            wal_file.set_len(replayed.valid_len)?;
            wal_file.sync_data()?;
        }
        let segment_len = valid_len;
        let wal_len = replayed.valid_len;
        let mut store = TraceStore {
            dir,
            config,
            segment: Mutex::new(segment),
            segment_len,
            wal_file,
            wal_len,
            chunks,
            sealed_count,
            active_t: Vec::new(),
            active_w: Vec::new(),
            active_cum: Vec::new(),
            last,
            peak_w,
            min_w,
            decompressions: AtomicU64::new(0),
            decoded_samples: AtomicU64::new(0),
        };
        // Replay the surviving active samples through the normal ingest
        // path (already validated by `wal::replay`); if the configured
        // chunk size shrank since the WAL was written this may seal.
        let mut sealed = false;
        for rec in &replayed.records {
            for (&t, &w) in rec.times.iter().zip(&rec.watts) {
                store.ingest(t, w)?;
                if store.active_t.len() >= store.config.chunk_samples {
                    store.seal_active()?;
                    sealed = true;
                }
            }
        }
        if sealed {
            store.segment.get_mut().expect("segment lock").sync_data()?;
            store.reset_wal()?;
        }
        Ok(store)
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one sample. Equivalent to a one-sample
    /// [`TraceStore::append_batch`].
    pub fn append(&mut self, t: f64, w: f64) -> Result<(), StoreError> {
        self.append_batch(&[t], &[w])
    }

    /// Appends a batch of samples: validates every sample up front
    /// (rejecting the whole batch on the first violation, with nothing
    /// written), writes one WAL record, then extends the active chunk,
    /// sealing as it fills. If any chunk sealed, the segment is fsynced
    /// before the WAL is atomically reset to the remaining active tail —
    /// so at every instant each sample is durable in the WAL or in an
    /// fsynced sealed chunk.
    pub fn append_batch(&mut self, times: &[f64], watts: &[f64]) -> Result<(), StoreError> {
        if times.len() != watts.len() {
            return Err(StoreError::InvalidSample {
                index: times.len().min(watts.len()),
                detail: "times and watts columns differ in length".to_string(),
            });
        }
        if times.is_empty() {
            return Ok(());
        }
        let mut last_t = self.last.map(|l| l.t).unwrap_or(f64::NEG_INFINITY);
        for (index, (&t, &w)) in times.iter().zip(watts).enumerate() {
            check_sample(t, w, last_t)
                .map_err(|detail| StoreError::InvalidSample { index, detail })?;
            last_t = t;
        }
        let start_index = self.sealed_count + self.active_t.len() as u64;
        wal::append_record(&mut self.wal_file, start_index, times, watts)?;
        self.wal_len +=
            (wal::RECORD_HEADER_LEN + wal::PAYLOAD_PREFIX_LEN) as u64 + times.len() as u64 * 16;
        let mut sealed = false;
        for (&t, &w) in times.iter().zip(watts) {
            self.ingest(t, w)?;
            if self.active_t.len() >= self.config.chunk_samples {
                self.seal_active()?;
                sealed = true;
            }
        }
        if sealed {
            self.segment.get_mut().expect("segment lock").sync_data()?;
            self.reset_wal()?;
        }
        Ok(())
    }

    /// Forces both files to disk (appends alone leave the WAL tail in the
    /// OS page cache; torn-tail recovery bounds what a power cut loses to
    /// the un-synced suffix).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal_file.sync_data()?;
        self.segment.get_mut().expect("segment lock").sync_data()?;
        Ok(())
    }

    /// Extends the in-memory columns and the accumulation chain with one
    /// pre-validated sample — exactly the operations the in-memory prefix
    /// index performs, so the chain stays `to_bits`-identical to it.
    fn ingest(&mut self, t: f64, w: f64) -> Result<(), StoreError> {
        let cum = match self.last {
            Some(l) => chain_step(l.cum, (l.t, l.w), (t, w)),
            None => 0.0,
        };
        self.active_t.push(t);
        self.active_w.push(w);
        self.active_cum.push(cum);
        self.last = Some(LastSample { t, w, cum });
        self.peak_w = self.peak_w.max(w);
        self.min_w = self.min_w.min(w);
        Ok(())
    }

    /// Compresses the active chunk, appends it to the segment, and clears
    /// the active columns. The caller fsyncs and resets the WAL.
    fn seal_active(&mut self) -> Result<(), StoreError> {
        debug_assert!(!self.active_t.is_empty(), "sealing an empty active chunk");
        let (mut meta, payload) = encode_chunk(&self.active_t, &self.active_w, &self.active_cum);
        let file = self.segment.get_mut().expect("segment lock");
        let new_len = chunk::append_block(file, self.segment_len, &meta, &payload)?;
        meta.payload_offset = self.segment_len + BLOCK_HEADER_LEN as u64;
        self.sealed_count += meta.count;
        self.chunks.push(meta);
        self.segment_len = new_len;
        self.active_t.clear();
        self.active_w.clear();
        self.active_cum.clear();
        Ok(())
    }

    /// Atomically replaces the WAL with a single record holding the
    /// current active tail (or an empty file): write a temp file, fsync,
    /// rename over the live WAL.
    fn reset_wal(&mut self) -> Result<(), StoreError> {
        let tmp = self.dir.join("wal.tgw.tmp");
        let mut f = File::create(&tmp)?;
        let mut len = 0u64;
        if !self.active_t.is_empty() {
            let record = wal::encode_record(self.sealed_count, &self.active_t, &self.active_w);
            f.write_all(&record)?;
            len = record.len() as u64;
        }
        f.sync_all()?;
        std::fs::rename(&tmp, self.dir.join(WAL_FILE))?;
        self.wal_file = OpenOptions::new().read(true).write(true).open(self.dir.join(WAL_FILE))?;
        self.wal_len = len;
        Ok(())
    }

    /// Total samples stored (sealed + active).
    pub fn len(&self) -> u64 {
        self.sealed_count + self.active_t.len() as u64
    }

    /// True when the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed chunks.
    pub fn sealed_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Samples currently in the unsealed active chunk.
    pub fn active_samples(&self) -> usize {
        self.active_t.len()
    }

    /// Bytes the store occupies on disk (segment + WAL).
    pub fn disk_bytes(&self) -> u64 {
        self.segment_len + self.wal_len
    }

    /// Decoded units — sub-blocks, or whole chunks of a v1 segment —
    /// since open or the last [`TraceStore::reset_decompressions`].
    pub fn decompressions(&self) -> u64 {
        self.decompressions.load(Ordering::Relaxed)
    }

    /// Samples decoded over the same span as
    /// [`TraceStore::decompressions`].
    pub fn decoded_samples(&self) -> u64 {
        self.decoded_samples.load(Ordering::Relaxed)
    }

    /// Zeroes both decode counters (bench instrumentation).
    pub fn reset_decompressions(&self) {
        self.decompressions.store(0, Ordering::Relaxed);
        self.decoded_samples.store(0, Ordering::Relaxed);
    }

    /// First and last sample timestamps, when non-empty.
    pub fn time_bounds(&self) -> Option<(f64, f64)> {
        let first =
            self.chunks.first().map(|m| m.first_t).or_else(|| self.active_t.first().copied());
        let last = self.active_t.last().copied().or_else(|| self.chunks.last().map(|m| m.last_t));
        match (first, last) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }

    /// Total trapezoidal energy over the stored samples — O(1) from the
    /// chain snapshots, `to_bits`-identical to the in-memory prefix index
    /// over the same samples (for a store that has never dropped data to
    /// retention; after retention the result is the retained span's
    /// energy).
    pub fn energy_total(&self) -> f64 {
        let last = match self.last {
            Some(l) => l.cum,
            None => return 0.0,
        };
        let base = self
            .chunks
            .first()
            .map(|m| m.cum_first)
            .or_else(|| self.active_cum.first().copied())
            .unwrap_or(0.0);
        last - base
    }

    /// Highest sampled power (0 when empty) — O(1).
    pub fn peak_watts(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.peak_w
        }
    }

    /// Lowest sampled power (0 when empty) — O(1).
    pub fn min_watts(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.min_w
        }
    }

    /// Chunk `c`'s sub-block index, checked against its footer first so
    /// no entry is trusted until the whole index is consistent.
    fn index(&self, c: usize) -> Result<&[SubBlock], StoreError> {
        let meta = &self.chunks[c];
        meta.check_index()
            .map_err(|e| StoreError::Corrupt { detail: format!("chunk {c}: {e}") })?;
        Ok(&meta.index)
    }

    /// Reads, checksums, decodes, and re-chains sub-block `k` of chunk
    /// `c`, returning `(times, watts, cum)` columns — the store's one
    /// decode path. The cum column is rebuilt from the index entry's
    /// `cum_first` with the arithmetic the chain used at append time, and
    /// must reach the next entry's snapshot (or the footer's `cum_last`
    /// and last sample, for the final sub-block) bit-for-bit.
    fn read_sub_block(&self, c: usize, k: usize) -> Result<Columns, StoreError> {
        let meta = &self.chunks[c];
        let index = self.index(c)?;
        let sb = &index[k];
        let corrupt =
            |what: &str| StoreError::Corrupt { detail: format!("chunk {c} sub-block {k}: {what}") };
        let bytes = {
            let mut file = self.segment.lock().expect("segment lock");
            chunk::read_bytes(&mut *file, meta.payload_offset + sb.offset, sb.byte_len())?
        };
        self.decompressions.fetch_add(1, Ordering::Relaxed);
        self.decoded_samples.fetch_add(sb.count, Ordering::Relaxed);
        if crc32(&bytes) != sb.crc {
            return Err(corrupt("checksum mismatch"));
        }
        let (times, watts) = codec::decode(&bytes, sb.bit_len as usize, sb.count as usize)
            .map_err(|e| corrupt(&e.to_string()))?;
        if times[0].to_bits() != sb.first_t.to_bits() || watts[0].to_bits() != sb.first_w.to_bits()
        {
            return Err(corrupt("first sample disagrees with the index"));
        }
        // The chain runs in a register: re-reading it from `cum` would put
        // a store-to-load round trip on its one serial dependency.
        let mut cum = Vec::with_capacity(times.len());
        let mut cum_last = sb.cum_first;
        cum.push(cum_last);
        for (t, w) in times.windows(2).zip(watts.windows(2)) {
            cum_last = chain_step(cum_last, (t[0], w[0]), (t[1], w[1]));
            cum.push(cum_last);
        }
        let last = (times[times.len() - 1], watts[watts.len() - 1]);
        let chained = match index.get(k + 1) {
            Some(next) => {
                last.0 <= next.first_t
                    && chain_step(cum_last, last, (next.first_t, next.first_w)).to_bits()
                        == next.cum_first.to_bits()
            }
            None => {
                last.0.to_bits() == meta.last_t.to_bits()
                    && last.1.to_bits() == meta.last_w.to_bits()
                    && cum_last.to_bits() == meta.cum_last.to_bits()
            }
        };
        if !chained {
            return Err(corrupt("rebuilt energy chain disagrees with the index and footer"));
        }
        Ok((times, watts, cum))
    }

    /// Locates the greatest sample with `time <= t` and its successor.
    /// Requires a non-empty store and `first <= t <= last`. Decodes a
    /// sub-block only when `t` falls strictly inside one; queries landing
    /// in the active chunk, between chunks, or on chunk-edge samples are
    /// answered without touching payloads.
    ///
    /// `energy_only` callers read just `cum_i` when `t` lands exactly on a
    /// stored timestamp, which licenses one more shortcut: at a chunk's or
    /// sub-block's `first_t` the chain value is its `cum_first` snapshot
    /// even when the timestamp repeats into it (duplicates add zero-width
    /// trapezoids, leaving the chain bit-unchanged). `power_at` must not
    /// take that shortcut — it needs the *last* duplicate's watts.
    fn locate(&self, t: f64, energy_only: bool) -> Result<Neighborhood, StoreError> {
        // The last sample with time <= t lives in the active chunk iff the
        // active chunk's first sample is <= t (active samples follow every
        // sealed sample).
        if let Some(&a0) = self.active_t.first() {
            if t >= a0 {
                let j = self.active_t.partition_point(|&x| x <= t) - 1;
                return Ok(Neighborhood {
                    t_i: self.active_t[j],
                    w_i: self.active_w[j],
                    cum_i: self.active_cum[j],
                    next: self.active_t.get(j + 1).map(|&nt| (nt, self.active_w[j + 1])),
                });
            }
        }
        // Otherwise it lives in the last chunk whose first sample is <= t
        // (every sample of later chunks is > t).
        let c = self.chunks.partition_point(|m| m.first_t <= t) - 1;
        let meta = &self.chunks[c];
        if energy_only && t <= meta.first_t {
            // Exactly on the chunk's first timestamp: the chain snapshot
            // answers the energy query without decompression.
            return Ok(Neighborhood {
                t_i: meta.first_t,
                w_i: meta.first_w,
                cum_i: meta.cum_first,
                next: None,
            });
        }
        if t >= meta.last_t {
            // On or past the chunk's final sample: the footer has
            // everything, and the successor is the next region's first
            // sample — no decompression.
            let next = self
                .chunks
                .get(c + 1)
                .map(|m| (m.first_t, m.first_w))
                .or_else(|| self.active_t.first().map(|&nt| (nt, self.active_w[0])));
            return Ok(Neighborhood {
                t_i: meta.last_t,
                w_i: meta.last_w,
                cum_i: meta.cum_last,
                next,
            });
        }
        // Strictly inside the chunk: the last sub-block starting at or
        // before t holds the neighborhood (the index's first entry starts
        // at the chunk's first sample, which is <= t).
        let index = self.index(c)?;
        let k = index.partition_point(|s| s.first_t <= t) - 1;
        let sb = &index[k];
        if energy_only && t <= sb.first_t {
            return Ok(Neighborhood {
                t_i: sb.first_t,
                w_i: sb.first_w,
                cum_i: sb.cum_first,
                next: None,
            });
        }
        // Decode that one sub-block — the only payload this lookup
        // touches. A neighborhood at its last sample continues into the
        // next sub-block's first; t < last_t rules that out for the
        // chunk's final sub-block.
        let (times, watts, cum) = self.read_sub_block(c, k)?;
        let j = times.partition_point(|&x| x <= t) - 1;
        let next = match times.get(j + 1) {
            Some(&nt) => Some((nt, watts[j + 1])),
            None => index.get(k + 1).map(|s| (s.first_t, s.first_w)),
        };
        Ok(Neighborhood { t_i: times[j], w_i: watts[j], cum_i: cum[j], next })
    }

    /// Cumulative trapezoidal energy from the (lifetime) trace start to
    /// time `t`. Requires a non-empty store and `first <= t <= last`; the
    /// public windowed queries clamp before calling.
    fn cum_energy_at(&self, t: f64) -> Result<f64, StoreError> {
        let n = self.locate(t, true)?;
        if t <= n.t_i {
            return Ok(n.cum_i);
        }
        let (nt, nw) = n.next.expect("t < last implies a successor sample");
        let w_t = n.w_i + (nw - n.w_i) * ((t - n.t_i) / (nt - n.t_i));
        Ok(chain_step(n.cum_i, (n.t_i, n.w_i), (t, w_t)))
    }

    /// Trapezoidal energy and time-weighted average power over `[t0, t1]`
    /// clamped to the stored span, from one lookup per window end — a
    /// footer and index binary search decoding at most the two boundary
    /// sub-blocks. An empty store or a window outside the span answers
    /// `(0, 0)`; a zero-width clamped window answers no energy and the
    /// interpolated power at that point.
    ///
    /// # Panics
    /// Panics if either bound is NaN (infinities clamp to the span),
    /// mirroring the in-memory trace.
    pub fn energy_and_average_between(&self, t0: f64, t1: f64) -> Result<(f64, f64), StoreError> {
        match clamp_window(self.time_bounds(), t0, t1) {
            Some((a, b)) if a < b => {
                let energy = self.cum_energy_at(b)? - self.cum_energy_at(a)?;
                Ok((energy, energy / (b - a)))
            }
            Some((a, _)) => Ok((0.0, self.power_at(a)?.unwrap_or(0.0))),
            None => Ok((0.0, 0.0)),
        }
    }

    /// The energy half of [`TraceStore::energy_and_average_between`].
    ///
    /// # Panics
    /// Panics if either bound is NaN.
    pub fn energy_between(&self, t0: f64, t1: f64) -> Result<f64, StoreError> {
        Ok(self.energy_and_average_between(t0, t1)?.0)
    }

    /// The average-power half of
    /// [`TraceStore::energy_and_average_between`].
    ///
    /// # Panics
    /// Panics if either bound is NaN.
    pub fn average_power_between(&self, t0: f64, t1: f64) -> Result<f64, StoreError> {
        Ok(self.energy_and_average_between(t0, t1)?.1)
    }

    /// Linearly interpolated instantaneous power at `t`; `None` outside
    /// the stored span. Decodes at most one sub-block.
    pub fn power_at(&self, t: f64) -> Result<Option<f64>, StoreError> {
        let (first, last) = match self.time_bounds() {
            Some(b) => b,
            None => return Ok(None),
        };
        if t.is_nan() || t < first || t > last {
            return Ok(None);
        }
        let n = self.locate(t, false)?;
        if t <= n.t_i {
            return Ok(Some(n.w_i));
        }
        let (nt, nw) = n.next.expect("t < last implies a successor sample");
        let seg = nt - n.t_i;
        let frac = (t - n.t_i) / seg;
        Ok(Some(n.w_i + (nw - n.w_i) * frac))
    }

    /// All samples with `a <= time <= b`, as parallel columns in sample
    /// order (the materialization behind windowed sub-traces; decodes
    /// only the sub-blocks overlapping the range, proportional to the
    /// output).
    pub fn samples_in(&self, a: f64, b: f64) -> Result<(Vec<f64>, Vec<f64>), StoreError> {
        let mut times = Vec::new();
        let mut watts = Vec::new();
        if b < a {
            return Ok((times, watts));
        }
        // Chunks are in time order, so those ending before `a` are a
        // prefix; within a chunk, sub-block k ends at or before the next
        // one's first sample.
        for c in self.chunks.partition_point(|m| m.last_t < a)..self.chunks.len() {
            if self.chunks[c].first_t > b {
                break;
            }
            let index = self.index(c)?;
            let lo = index.partition_point(|s| s.first_t < a).saturating_sub(1);
            let hi = index.partition_point(|s| s.first_t <= b);
            for k in lo..hi {
                let (st, sw, _) = self.read_sub_block(c, k)?;
                let from = st.partition_point(|&x| x < a);
                let to = st.partition_point(|&x| x <= b);
                times.extend_from_slice(&st[from..to]);
                watts.extend_from_slice(&sw[from..to]);
            }
        }
        let lo = self.active_t.partition_point(|&x| x < a);
        let hi = self.active_t.partition_point(|&x| x <= b);
        times.extend_from_slice(&self.active_t[lo..hi]);
        watts.extend_from_slice(&self.active_w[lo..hi]);
        Ok((times, watts))
    }

    /// Materializes the whole store as parallel columns (decodes
    /// everything; the bulk-export path).
    pub fn to_columns(&self) -> Result<(Vec<f64>, Vec<f64>), StoreError> {
        self.samples_in(f64::NEG_INFINITY, f64::INFINITY)
    }

    /// Compacts the store: seals the active chunk (so the WAL empties),
    /// drops sealed chunks wholly older than the retention horizon, merges
    /// adjacent under-full chunks up to `chunk_samples`, and atomically
    /// replaces the segment (write temp, fsync, rename). Queries keep
    /// their absolute energy chain — windowed energies over retained data
    /// are unchanged bit-for-bit.
    pub fn compact(&mut self) -> Result<CompactionStats, StoreError> {
        let bytes_before = self.disk_bytes();
        let chunks_before = self.chunks.len();
        if !self.active_t.is_empty() {
            self.seal_active()?;
            self.segment.get_mut().expect("segment lock").sync_data()?;
        }
        // Retention: keep every chunk whose span reaches the horizon.
        let cutoff = match (self.config.retain_seconds, self.last) {
            (Some(h), Some(l)) => {
                assert!(h.is_finite() && h >= 0.0, "retain_seconds must be finite and >= 0");
                Some(l.t - h)
            }
            _ => None,
        };
        let first_kept = match cutoff {
            Some(c) => self.chunks.partition_point(|m| m.last_t < c),
            None => 0,
        };
        let samples_dropped: u64 = self.chunks[..first_kept].iter().map(|m| m.count).sum();
        // Rewrite the segment atomically, decoding each run of adjacent
        // chunks that fits in `chunk_samples` and re-encoding it as one v2
        // chunk (so a v1 segment comes out sub-blocked).
        let tmp_path = self.dir.join("segment.tgs.tmp");
        let mut tmp = File::create(&tmp_path)?;
        let mut new_chunks = Vec::new();
        let mut offset = 0u64;
        let mut c = first_kept;
        while c < self.chunks.len() {
            let (mut times, mut watts, mut cum) = (Vec::new(), Vec::new(), Vec::new());
            let mut group_count = 0u64;
            while c < self.chunks.len()
                && (group_count == 0
                    || group_count + self.chunks[c].count <= self.config.chunk_samples as u64)
            {
                for k in 0..self.index(c)?.len() {
                    let (ct, cw, cc) = self.read_sub_block(c, k)?;
                    times.extend(ct);
                    watts.extend(cw);
                    cum.extend(cc);
                }
                group_count += self.chunks[c].count;
                c += 1;
            }
            let (mut meta, payload) = encode_chunk(&times, &watts, &cum);
            let new_len = chunk::append_block(&mut tmp, offset, &meta, &payload)?;
            meta.payload_offset = offset + BLOCK_HEADER_LEN as u64;
            new_chunks.push(meta);
            offset = new_len;
        }
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, self.dir.join(SEGMENT_FILE))?;
        self.segment = Mutex::new(
            OpenOptions::new().read(true).write(true).open(self.dir.join(SEGMENT_FILE))?,
        );
        self.segment_len = offset;
        self.chunks = new_chunks;
        self.sealed_count = self.chunks.iter().map(|m| m.count).sum();
        self.peak_w = self.chunks.iter().map(|m| m.peak_w).fold(0.0, f64::max);
        self.min_w = self.chunks.iter().map(|m| m.min_w).fold(f64::INFINITY, f64::min);
        // The active chunk was sealed above, so the WAL covers nothing.
        self.reset_wal()?;
        Ok(CompactionStats {
            chunks_before,
            chunks_after: self.chunks.len(),
            samples_dropped,
            bytes_before,
            bytes_after: self.disk_bytes(),
        })
    }
}

/// Compresses one chunk's columns into `SUB_BLOCK_SAMPLES`-sample
/// sub-blocks, producing the footer and index metadata (with
/// `payload_offset` unset) and the payload bytes.
fn encode_chunk(times: &[f64], watts: &[f64], cum: &[f64]) -> (ChunkMeta, Vec<u8>) {
    debug_assert!(!times.is_empty());
    let mut payload = Vec::new();
    let mut index = Vec::with_capacity(times.len().div_ceil(SUB_BLOCK_SAMPLES));
    for (start, (ts, ws)) in times
        .chunks(SUB_BLOCK_SAMPLES)
        .zip(watts.chunks(SUB_BLOCK_SAMPLES))
        .enumerate()
        .map(|(k, cols)| (k * SUB_BLOCK_SAMPLES, cols))
    {
        let mut enc = Encoder::new();
        for (&t, &w) in ts.iter().zip(ws) {
            enc.push(t, w);
        }
        let (bytes, bit_len) = enc.finish();
        index.push(SubBlock {
            offset: payload.len() as u64,
            bit_len: bit_len as u64,
            count: ts.len() as u64,
            first_t: ts[0],
            first_w: ws[0],
            cum_first: cum[start],
            crc: crc32(&bytes),
        });
        payload.extend_from_slice(&bytes);
    }
    let meta = ChunkMeta {
        payload_offset: 0,
        payload_len: payload.len() as u32,
        count: times.len() as u64,
        first_t: times[0],
        last_t: *times.last().expect("non-empty chunk"),
        first_w: watts[0],
        last_w: *watts.last().expect("non-empty chunk"),
        cum_first: cum[0],
        cum_last: *cum.last().expect("non-empty chunk"),
        peak_w: watts.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        min_w: watts.iter().copied().fold(f64::INFINITY, f64::min),
        index,
    };
    (meta, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A unique scratch directory, removed on drop.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let seq = DIR_SEQ.fetch_add(1, AtomicOrdering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("tgi_store_{tag}_{}_{seq}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn small_config(chunk_samples: usize) -> StoreConfig {
        StoreConfig { chunk_samples, retain_seconds: None }
    }

    /// The reference chain: the exact operations `PowerTrace` performs.
    fn reference_cum(times: &[f64], watts: &[f64]) -> Vec<f64> {
        let mut cum = Vec::with_capacity(times.len());
        for i in 0..times.len() {
            if i == 0 {
                cum.push(0.0);
            } else {
                let dt = times[i] - times[i - 1];
                let prev: f64 = cum[i - 1];
                cum.push(prev + 0.5 * (watts[i - 1] + watts[i]) * dt);
            }
        }
        cum
    }

    fn synth(n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut times = Vec::with_capacity(n);
        let mut watts = Vec::with_capacity(n);
        for i in 0..n {
            times.push(i as f64 * 0.5);
            watts.push(100.0 + 40.0 * ((i % 17) as f64) + if i % 5 == 0 { 0.25 } else { 0.0 });
        }
        (times, watts)
    }

    #[test]
    fn append_seal_query_round_trip() {
        let scratch = ScratchDir::new("round_trip");
        let (times, watts) = synth(1000);
        let cum = reference_cum(&times, &watts);
        let mut store = TraceStore::open(&scratch.0, small_config(64)).unwrap();
        store.append_batch(&times, &watts).unwrap();
        assert_eq!(store.len(), 1000);
        assert_eq!(store.sealed_chunks(), 1000 / 64);
        assert_eq!(store.active_samples(), 1000 % 64);
        assert_eq!(store.energy_total().to_bits(), cum.last().unwrap().to_bits());
        assert_eq!(store.time_bounds(), Some((0.0, 499.5)));
        let (bt, bw) = store.to_columns().unwrap();
        assert_eq!(bt, times);
        assert_eq!(bw, watts);
    }

    #[test]
    fn reopen_recovers_sealed_and_active() {
        let scratch = ScratchDir::new("reopen");
        let (times, watts) = synth(500);
        {
            let mut store = TraceStore::open(&scratch.0, small_config(128)).unwrap();
            store.append_batch(&times, &watts).unwrap();
        }
        let store = TraceStore::open(&scratch.0, small_config(128)).unwrap();
        assert_eq!(store.len(), 500);
        assert_eq!(store.sealed_chunks(), 3);
        assert_eq!(store.active_samples(), 500 - 3 * 128);
        let cum = reference_cum(&times, &watts);
        assert_eq!(store.energy_total().to_bits(), cum.last().unwrap().to_bits());
        let (bt, bw) = store.to_columns().unwrap();
        assert_eq!(bt, times);
        assert_eq!(bw, watts);
    }

    #[test]
    fn torn_wal_tail_recovers_valid_prefix() {
        let scratch = ScratchDir::new("torn_wal");
        let (times, watts) = synth(100);
        {
            let mut store = TraceStore::open(&scratch.0, small_config(1000)).unwrap();
            store.append_batch(&times, &watts).unwrap();
        }
        // Tear the WAL mid-record.
        let wal_path = scratch.0.join(WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(len - 37).unwrap();
        drop(f);
        let store = TraceStore::open(&scratch.0, small_config(1000)).unwrap();
        // The single batch record is torn, so everything in it is lost —
        // but the store opens clean and empty rather than corrupt.
        assert_eq!(store.len(), 0);
        // And appends still work afterwards.
        drop(store);
        let mut store = TraceStore::open(&scratch.0, small_config(1000)).unwrap();
        store.append_batch(&times, &watts).unwrap();
        assert_eq!(store.len(), 100);
    }

    #[test]
    fn torn_segment_tail_is_resealed_from_wal() {
        let scratch = ScratchDir::new("torn_segment");
        let (times, watts) = synth(256);
        let wal_snapshot;
        {
            let mut store = TraceStore::open(&scratch.0, small_config(128)).unwrap();
            // First chunk seals and the WAL resets; snapshot the WAL just
            // before the second seal to simulate a crash where the seal's
            // segment write tore but the WAL had not yet been reset.
            store.append_batch(&times[..128], &watts[..128]).unwrap();
            store.append_batch(&times[128..255], &watts[128..255]).unwrap();
            wal_snapshot = std::fs::read(scratch.0.join(WAL_FILE)).unwrap();
            store.append_batch(&times[255..], &watts[255..]).unwrap();
            assert_eq!(store.sealed_chunks(), 2);
        }
        // Tear the second sealed block and restore the pre-seal WAL.
        let seg_path = scratch.0.join(SEGMENT_FILE);
        let seg_len = std::fs::metadata(&seg_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg_path).unwrap();
        f.set_len(seg_len - 50).unwrap();
        drop(f);
        std::fs::write(scratch.0.join(WAL_FILE), &wal_snapshot).unwrap();
        let store = TraceStore::open(&scratch.0, small_config(128)).unwrap();
        // Samples 0..255 survive: chunk 0 from the segment, 128..255 from
        // the WAL (the torn chunk 1 is re-derived). Sample 255 was only in
        // the post-seal WAL, which this crash predates.
        assert_eq!(store.len(), 255);
        let (bt, bw) = store.to_columns().unwrap();
        assert_eq!(bt, &times[..255]);
        assert_eq!(bw, &watts[..255]);
    }

    #[test]
    fn queries_match_reference_chain_bitwise() {
        let scratch = ScratchDir::new("queries");
        let (times, watts) = synth(800);
        let cum = reference_cum(&times, &watts);
        let mut store = TraceStore::open(&scratch.0, small_config(64)).unwrap();
        store.append_batch(&times, &watts).unwrap();
        // Probe chunk interiors, chunk edges, and the active tail.
        for &t in &[0.0, 0.25, 31.5, 31.75, 32.0, 63.9, 200.0, 390.1, 399.5] {
            let a = store.cum_energy_at(t).unwrap();
            let i = times.partition_point(|&x| x <= t) - 1;
            let expected = if t <= times[i] {
                cum[i]
            } else {
                let dt = t - times[i];
                let seg = times[i + 1] - times[i];
                let w_t = watts[i] + (watts[i + 1] - watts[i]) * (dt / seg);
                cum[i] + 0.5 * (watts[i] + w_t) * dt
            };
            assert_eq!(a.to_bits(), expected.to_bits(), "cum_energy_at({t})");
        }
    }

    #[test]
    fn energy_between_decompresses_at_most_two_chunks() {
        let scratch = ScratchDir::new("bounded");
        let (times, watts) = synth(64 * 100);
        let mut store = TraceStore::open(&scratch.0, small_config(64)).unwrap();
        store.append_batch(&times, &watts).unwrap();
        store.reset_decompressions();
        // Both endpoints strictly inside (different) chunks.
        store.energy_between(100.3, 2500.7).unwrap();
        assert_eq!(store.decompressions(), 2);
        store.reset_decompressions();
        // Endpoints exactly on stored chunk-edge samples: footers only.
        let c0_last = times[63];
        let c9_last = times[64 * 10 - 1];
        store.energy_between(c0_last, c9_last).unwrap();
        assert_eq!(store.decompressions(), 0);
        store.reset_decompressions();
        // Whole-store query from the first to last sample: footers only
        // (both endpoints are edge samples).
        let (first, last) = store.time_bounds().unwrap();
        store.energy_between(first, last).unwrap();
        assert_eq!(store.decompressions(), 0);
    }

    /// The in-memory answers at `t`: `(chain value, power)` from the
    /// greatest sample at or before `t`, interpolated toward its successor.
    fn reference_at(times: &[f64], watts: &[f64], cum: &[f64], t: f64) -> (f64, f64) {
        let i = times.partition_point(|&x| x <= t) - 1;
        if t <= times[i] {
            return (cum[i], watts[i]);
        }
        let frac = (t - times[i]) / (times[i + 1] - times[i]);
        let w_t = watts[i] + (watts[i + 1] - watts[i]) * frac;
        (cum[i] + 0.5 * (watts[i] + w_t) * (t - times[i]), w_t)
    }

    #[test]
    fn sub_block_lookups_match_reference_and_stay_bounded() {
        let scratch = ScratchDir::new("sub_blocks");
        // Two sealed chunks of three sub-blocks (4096 + 4096 + 1808) and an
        // active tail, with timestamps repeating across two of the
        // sub-block edges.
        let (mut times, watts) = synth(22_000);
        for i in [4096, 10_000 + 4096] {
            times[i] = times[i - 1];
        }
        let cum = reference_cum(&times, &watts);
        let mut store = TraceStore::open(&scratch.0, small_config(10_000)).unwrap();
        store.append_batch(&times, &watts).unwrap();
        assert_eq!(store.sealed_chunks(), 2);
        assert_eq!(store.chunks[0].index.len(), 3);
        let mut probes = Vec::new();
        for edge in [0, 4095, 4096, 8191, 8192, 9999, 10_000, 14_095, 14_096, 19_999, 20_000] {
            let t = times[edge];
            probes.extend([t, t + 0.25, (t - 0.25).max(0.0)]);
        }
        probes.extend((0..200).map(|i| i as f64 * 53.37 % times[21_999]));
        for &t in &probes {
            let (want_cum, want_w) = reference_at(&times, &watts, &cum, t);
            store.reset_decompressions();
            let got = store.cum_energy_at(t).unwrap();
            assert_eq!(got.to_bits(), want_cum.to_bits(), "cum_energy_at({t})");
            assert!(store.decompressions() <= 1 && store.decoded_samples() <= 4096, "at {t}");
            let got = store.power_at(t).unwrap().unwrap();
            assert_eq!(got.to_bits(), want_w.to_bits(), "power_at({t})");
        }
        // A window across chunks decodes its two boundary sub-blocks only.
        store.reset_decompressions();
        store.energy_between(100.3, 7_500.7).unwrap();
        assert_eq!(store.decompressions(), 2);
        assert!(store.decoded_samples() <= 2 * 4096);
        // A window inside one sub-block materializes from that one unit,
        // and an edge-aligned energy window needs no decode at all.
        store.reset_decompressions();
        let (wt, ww) = store.samples_in(2_100.2, 2_900.9).unwrap();
        assert_eq!(store.decompressions(), 1);
        let (lo, hi) =
            (times.partition_point(|&x| x < 2_100.2), times.partition_point(|&x| x <= 2_900.9));
        assert_eq!((wt.as_slice(), ww.as_slice()), (&times[lo..hi], &watts[lo..hi]));
        store.reset_decompressions();
        store.energy_between(times[4096], times[14_096]).unwrap();
        assert_eq!(store.decompressions(), 0);
    }

    #[test]
    fn power_at_and_bounds() {
        let scratch = ScratchDir::new("power_at");
        let mut store = TraceStore::open(&scratch.0, small_config(2)).unwrap();
        store.append_batch(&[0.0, 10.0], &[0.0, 100.0]).unwrap();
        assert_eq!(store.power_at(0.0).unwrap(), Some(0.0));
        assert_eq!(store.power_at(10.0).unwrap(), Some(100.0));
        let mid = store.power_at(2.5).unwrap().unwrap();
        assert!((mid - 25.0).abs() < 1e-12);
        assert_eq!(store.power_at(-0.1).unwrap(), None);
        assert_eq!(store.power_at(10.1).unwrap(), None);
    }

    #[test]
    fn rejects_invalid_batches_atomically() {
        let scratch = ScratchDir::new("invalid");
        let mut store = TraceStore::open(&scratch.0, small_config(16)).unwrap();
        store.append_batch(&[0.0, 1.0], &[100.0, 110.0]).unwrap();
        let err = store.append_batch(&[2.0, 1.5], &[100.0, 100.0]).unwrap_err();
        match err {
            StoreError::InvalidSample { index, .. } => assert_eq!(index, 1),
            other => panic!("expected InvalidSample, got {other:?}"),
        }
        // Nothing from the bad batch landed.
        assert_eq!(store.len(), 2);
        assert!(store.append_batch(&[1.0], &[f64::NAN]).is_err());
        assert!(store.append_batch(&[1.0], &[-1.0]).is_err());
        assert!(store.append_batch(&[-1.0], &[1.0]).is_err());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn compact_retention_and_merge() {
        let scratch = ScratchDir::new("compact");
        let (times, watts) = synth(1024);
        let config = StoreConfig { chunk_samples: 64, retain_seconds: Some(100.0) };
        let mut store = TraceStore::open(&scratch.0, config).unwrap();
        store.append_batch(&times, &watts).unwrap();
        let total_before = store.energy_total();
        let last_t = times[1023];
        let horizon = last_t - 100.0;
        let expected_tail = store.energy_between(horizon, last_t).unwrap();
        let stats = store.compact().unwrap();
        assert!(stats.samples_dropped > 0, "retention dropped nothing");
        assert!(stats.chunks_after < stats.chunks_before);
        assert!(store.energy_total() < total_before);
        // Windowed energy over retained data is unchanged bit-for-bit.
        assert_eq!(
            store.energy_between(horizon, last_t).unwrap().to_bits(),
            expected_tail.to_bits()
        );
        // The store still reopens and appends after compaction.
        drop(store);
        let mut store = TraceStore::open(
            &scratch.0,
            StoreConfig { chunk_samples: 64, retain_seconds: Some(100.0) },
        )
        .unwrap();
        store.append(last_t + 1.0, 120.0).unwrap();
        assert!(store.power_at(last_t + 0.5).unwrap().is_some());
    }

    #[test]
    fn compact_merges_underfull_chunks() {
        let scratch = ScratchDir::new("merge");
        // Seal many tiny chunks, then recompact with a larger target.
        let (times, watts) = synth(256);
        {
            let mut store = TraceStore::open(&scratch.0, small_config(8)).unwrap();
            store.append_batch(&times, &watts).unwrap();
            assert_eq!(store.sealed_chunks(), 32);
        }
        let mut store = TraceStore::open(&scratch.0, small_config(128)).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.samples_dropped, 0);
        assert_eq!(store.sealed_chunks(), 2);
        let cum = reference_cum(&times, &watts);
        assert_eq!(store.energy_total().to_bits(), cum.last().unwrap().to_bits());
        let (bt, bw) = store.to_columns().unwrap();
        assert_eq!(bt, times);
        assert_eq!(bw, watts);
    }

    #[test]
    fn compression_beats_two_bytes_per_sample_on_cadenced_input() {
        let scratch = ScratchDir::new("ratio");
        let n = 20_000usize;
        let mut times = Vec::with_capacity(n);
        let mut watts = Vec::with_capacity(n);
        let mut level = 180.0f64;
        for i in 0..n {
            times.push(i as f64);
            if i % 97 == 0 {
                level = 100.0 + ((i / 97) % 23) as f64 * 7.5;
            }
            watts.push(level);
        }
        let mut store = TraceStore::open(&scratch.0, small_config(4096)).unwrap();
        store.append_batch(&times, &watts).unwrap();
        let sealed_samples = store.sealed_count;
        let bytes = store.segment_len;
        let per_sample = bytes as f64 / sealed_samples as f64;
        assert!(per_sample < 2.0, "sealed storage took {per_sample:.3} bytes/sample");
    }

    #[test]
    fn empty_store_defaults() {
        let scratch = ScratchDir::new("empty");
        let store = TraceStore::open(&scratch.0, StoreConfig::default()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.energy_total(), 0.0);
        assert_eq!(store.peak_watts(), 0.0);
        assert_eq!(store.min_watts(), 0.0);
        assert_eq!(store.time_bounds(), None);
        assert_eq!(store.energy_between(0.0, 100.0).unwrap(), 0.0);
        assert_eq!(store.power_at(0.0).unwrap(), None);
    }
}
