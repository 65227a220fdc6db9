//! Property tests: the codec round-trips arbitrary valid sample columns
//! bit-for-bit, the store round-trips them through disk under arbitrary
//! batch splits, and a torn-write corpus — truncations and corrupted
//! tails at arbitrary byte offsets — proves recovery only ever surfaces
//! a bit-exact prefix of what was written, never an invalid or mangled
//! sample. A bit-flip corpus over every part of a sealed block (header,
//! payload, footer, sub-block index) and hand-built checksum-valid but
//! inconsistent indexes prove damage is either truncated on open or
//! reported as corrupt, never answered wrongly and never a panic.

mod common;

use common::{blocks, corrupt_answers, Oracle, ScratchDir};
use proptest::prelude::*;
use std::path::Path;
use tgi_trace_store::chunk::{self, SubBlock};
use tgi_trace_store::{codec, StoreConfig, StoreError, TraceStore, SEGMENT_FILE, WAL_FILE};

/// Builds valid sample columns out of raw generator material: deltas are
/// clamped non-negative (zero deltas exercise duplicate timestamps), and
/// watts mix free values with the 0.1 W-quantized levels real meters
/// emit.
fn columns(raw: &[(f64, f64, bool)]) -> (Vec<f64>, Vec<f64>) {
    let mut t = 0.0;
    let mut times = Vec::with_capacity(raw.len());
    let mut watts = Vec::with_capacity(raw.len());
    for &(dt, w, quantize) in raw {
        t += dt;
        times.push(t);
        watts.push(if quantize { (w * 10.0).round() / 10.0 } else { w });
    }
    (times, watts)
}

proptest! {
    /// The chunk codec is lossless at the bit-pattern level for any valid
    /// column pair, including zero deltas and repeated watts.
    #[test]
    fn codec_round_trips_bitwise(
        raw in proptest::collection::vec((0.0..90.0f64, 0.0..4500.0f64, proptest::bool::ANY), 1..300),
    ) {
        let (times, watts) = columns(&raw);
        let mut enc = codec::Encoder::new();
        for (&t, &w) in times.iter().zip(&watts) {
            enc.push(t, w);
        }
        let (payload, bit_len) = enc.finish();
        let (t2, w2) = codec::decode(&payload, bit_len, times.len()).expect("decodes");
        prop_assert_eq!(t2.len(), times.len());
        for i in 0..times.len() {
            prop_assert_eq!(t2[i].to_bits(), times[i].to_bits(), "time {}", i);
            prop_assert_eq!(w2[i].to_bits(), watts[i].to_bits(), "watts {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid column pair, appended under an arbitrary batch split and
    /// chunk size, reads back bit-identically after a reopen.
    #[test]
    fn store_round_trips_under_any_batching(
        raw in proptest::collection::vec((0.0..10.0f64, 0.0..900.0f64, proptest::bool::ANY), 1..400),
        chunk in 2usize..96,
        split in 1usize..64,
    ) {
        let (times, watts) = columns(&raw);
        let scratch = ScratchDir::new("batch");
        let config = StoreConfig { chunk_samples: chunk, retain_seconds: None };
        {
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            for (ts, ws) in times.chunks(split).zip(watts.chunks(split)) {
                store.append_batch(ts, ws).expect("appends");
            }
            store.sync().expect("syncs");
        }
        let store = TraceStore::open(&scratch.0, config).expect("reopens");
        let (t2, w2) = store.to_columns().expect("reads back");
        prop_assert_eq!(t2.len(), times.len());
        for i in 0..times.len() {
            prop_assert_eq!(t2[i].to_bits(), times[i].to_bits(), "time {}", i);
            prop_assert_eq!(w2[i].to_bits(), watts[i].to_bits(), "watts {}", i);
        }
    }
}

/// Asserts the recovered store holds a bit-exact prefix of `times`/`watts`
/// — the crash-consistency contract. Returns the recovered length.
fn assert_is_prefix(store: &TraceStore, times: &[f64], watts: &[f64]) -> usize {
    let (t2, w2) = store.to_columns().expect("recovered store reads back");
    assert!(
        t2.len() <= times.len(),
        "recovery surfaced {} samples, only {} were ever written",
        t2.len(),
        times.len()
    );
    for i in 0..t2.len() {
        assert_eq!(t2[i].to_bits(), times[i].to_bits(), "recovered time {i} mangled");
        assert_eq!(w2[i].to_bits(), watts[i].to_bits(), "recovered watts {i} mangled");
        assert!(t2[i].is_finite() && t2[i] >= 0.0, "invalid recovered time");
        assert!(w2[i].is_finite() && w2[i] >= 0.0, "invalid recovered watts");
    }
    t2.len()
}

fn truncate_file(path: &Path, len: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).expect("file opens");
    f.set_len(len).expect("truncates");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Torn-write corpus: tear the WAL at an arbitrary byte offset —
    /// optionally scribbling garbage over the new tail — and recovery
    /// yields a valid bit-exact prefix, never a torn or invalid sample.
    #[test]
    fn torn_wal_recovers_a_clean_prefix(
        raw in proptest::collection::vec((0.0..5.0f64, 0.0..800.0f64, proptest::bool::ANY), 8..200),
        cut_unit in 0.0..1.0f64,
        scribble in proptest::bool::ANY,
    ) {
        let (times, watts) = columns(&raw);
        let scratch = ScratchDir::new("torn_wal");
        let config = StoreConfig { chunk_samples: 1 << 20, retain_seconds: None };
        {
            // Large chunks: nothing seals, every sample lives in the WAL.
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            for (ts, ws) in times.chunks(7).zip(watts.chunks(7)) {
                store.append_batch(ts, ws).expect("appends");
            }
            store.sync().expect("syncs");
        }
        let wal = scratch.0.join(WAL_FILE);
        let full = std::fs::metadata(&wal).expect("wal exists").len();
        let cut = (full as f64 * cut_unit) as u64;
        truncate_file(&wal, cut);
        if scribble && cut > 4 {
            // A torn sector is rarely clean zeros: overwrite the last few
            // bytes with junk that cannot CRC-validate.
            let mut bytes = std::fs::read(&wal).expect("read wal");
            let n = bytes.len();
            for b in &mut bytes[n.saturating_sub(4)..] {
                *b ^= 0xA5;
            }
            std::fs::write(&wal, bytes).expect("rewrite wal");
        }
        let store = TraceStore::open(&scratch.0, config).expect("recovery never fails open");
        let recovered = assert_is_prefix(&store, &times, &watts);
        // A full, untouched WAL must recover everything.
        if cut == full && !scribble {
            prop_assert_eq!(recovered, times.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Torn segment writes: tear the sealed-chunk file at an arbitrary
    /// offset. Recovery truncates to the last intact chunk, replays what
    /// the WAL still covers, and surfaces only a bit-exact prefix.
    #[test]
    fn torn_segment_recovers_a_clean_prefix(
        raw in proptest::collection::vec((0.0..5.0f64, 0.0..800.0f64, proptest::bool::ANY), 32..300),
        chunk in 4usize..32,
        cut_unit in 0.0..1.0f64,
    ) {
        let (times, watts) = columns(&raw);
        let scratch = ScratchDir::new("torn_seg");
        let config = StoreConfig { chunk_samples: chunk, retain_seconds: None };
        {
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            store.append_batch(&times, &watts).expect("appends");
            store.sync().expect("syncs");
        }
        let segment = scratch.0.join(SEGMENT_FILE);
        let full = std::fs::metadata(&segment).expect("segment exists").len();
        truncate_file(&segment, (full as f64 * cut_unit) as u64);
        let store = TraceStore::open(&scratch.0, config).expect("recovery never fails open");
        assert_is_prefix(&store, &times, &watts);
        // Whatever survived still answers queries without error.
        if !store.is_empty() {
            let (first, last) = store.time_bounds().expect("bounds");
            let e = store.energy_between(first, last).expect("energy query");
            prop_assert!(e.is_finite() && e >= 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Appending after a torn-tail recovery continues the timeline as if
    /// the lost suffix had never been written.
    #[test]
    fn appends_continue_after_recovery(
        raw in proptest::collection::vec((0.0..5.0f64, 0.0..800.0f64, proptest::bool::ANY), 8..120),
        cut_unit in 0.0..1.0f64,
    ) {
        let (times, watts) = columns(&raw);
        let scratch = ScratchDir::new("resume");
        let config = StoreConfig { chunk_samples: 16, retain_seconds: None };
        {
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            store.append_batch(&times, &watts).expect("appends");
            store.sync().expect("syncs");
        }
        let wal = scratch.0.join(WAL_FILE);
        let full = std::fs::metadata(&wal).expect("wal exists").len();
        truncate_file(&wal, (full as f64 * cut_unit) as u64);
        let mut store = TraceStore::open(&scratch.0, config).expect("recovers");
        let recovered = assert_is_prefix(&store, &times, &watts);
        // Continue past the highest timestamp ever written: always valid.
        let resume_t = times[times.len() - 1] + 1.0;
        store.append(resume_t, 123.4).expect("append resumes");
        prop_assert_eq!(store.len(), recovered as u64 + 1);
        let (_, last) = store.time_bounds().expect("bounds");
        prop_assert_eq!(last.to_bits(), resume_t.to_bits());
    }
}

/// Chunks of two sub-blocks (4,096 + 404 samples).
const FLIP_CHUNK: usize = 4_500;

/// Sample indexes around the sub-block and chunk edges of a
/// `FLIP_CHUNK` store.
const FLIP_EDGES: [usize; 6] = [0, 4_095, 4_096, 4_500, 8_595, 8_596];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bit-flip corpus: flip one bit anywhere in one sealed block — its
    /// header, payload, footer or sub-block index. The store still opens;
    /// it either truncates at the damaged block (the footer and index
    /// CRCs catch those bytes) or reports `Corrupt` from every read that
    /// decodes the damaged sub-block, and every answer it does give
    /// equals the oracle over what it kept.
    #[test]
    fn flipped_segment_bit_fails_closed(
        raw in proptest::collection::vec((0.0..5.0f64, 0.0..800.0f64, proptest::bool::ANY), 9_000..9_600),
        block_unit in 0.0..1.0f64,
        region in 0usize..4,
        at_unit in 0.0..1.0f64,
        bit in 0u32..8,
    ) {
        let (times, watts) = columns(&raw);
        let scratch = ScratchDir::new("flip");
        let config = StoreConfig { chunk_samples: FLIP_CHUNK, retain_seconds: None };
        {
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            store.append_batch(&times, &watts).expect("appends");
            store.sync().expect("syncs");
        }
        let path = scratch.0.join(SEGMENT_FILE);
        let mut bytes = std::fs::read(&path).expect("read segment");
        let layout = blocks(&bytes);
        let block = &layout[(block_unit * layout.len() as f64) as usize];
        let range = match region {
            0 => block.start..block.payload.start,
            1 => block.payload.clone(),
            2 => block.footer.clone(),
            _ => block.index.clone(),
        };
        let at = range.start + (at_unit * range.len() as f64) as usize;
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, bytes).expect("rewrite segment");

        let store = TraceStore::open(&scratch.0, config).expect("a damaged segment still opens");
        let kept = store.len() as usize;
        prop_assert!(kept <= times.len());
        let oracle = Oracle::new(&times[..kept], &watts[..kept]);
        let corrupt = corrupt_answers(&store, &oracle, &oracle.probes(FLIP_EDGES));
        prop_assert!(kept < times.len() || corrupt > 0, "flip at byte {} went unnoticed", at);
    }
}

/// A hand-made change to a chunk's sub-block index.
type IndexEdit = fn(&mut [SubBlock]);

/// Rewrites the first sealed block of the store in `dir` with `edit`
/// applied to its index, re-checksummed so only the index's own
/// consistency checks stand between it and the read path.
fn rewrite_first_index(dir: &Path, edit: IndexEdit) {
    let path = dir.join(SEGMENT_FILE);
    let bytes = std::fs::read(&path).expect("read segment");
    let (chunks, _) = chunk::scan_segment(&mut std::io::Cursor::new(&bytes)).expect("scans");
    let first = &blocks(&bytes)[0];
    let mut meta = chunks[0].clone();
    edit(&mut meta.index);
    let mut out = chunk::encode_block(&meta, &bytes[first.payload.clone()]);
    out.extend_from_slice(&bytes[first.index.end..]);
    std::fs::write(&path, out).expect("rewrite segment");
}

#[test]
fn checksum_valid_hostile_index_reads_corrupt() {
    let cases: [(&str, IndexEdit); 10] = [
        ("offset past the payload", |ix| ix[1].offset += 1 << 20),
        ("offset overlapping the previous stream", |ix| ix[1].offset -= 1),
        ("bit length past the payload", |ix| ix[1].bit_len = u64::from(u32::MAX)),
        ("bit length too short for the count", |ix| ix[0].bit_len = 100),
        ("counts not summing to the chunk's", |ix| ix[1].count += 1),
        ("count beyond what the stream can hold", |ix| ix[1].count = u64::from(u32::MAX)),
        ("first_t out of order", |ix| ix[1].first_t = ix[0].first_t - 1.0),
        ("first_t not a number", |ix| ix[1].first_t = f64::NAN),
        ("first_t past the chunk", |ix| ix[2].first_t = 1e9),
        ("head entry disagreeing with the footer", |ix| ix[0].cum_first += 1.0),
    ];
    let (times, watts) = columns(&vec![(1.0, 250.0, true); 10_500]);
    for (name, edit) in cases {
        let scratch = ScratchDir::new("hostile_index");
        let config = StoreConfig { chunk_samples: 10_000, retain_seconds: None };
        {
            let mut store = TraceStore::open(&scratch.0, config.clone()).expect("opens");
            store.append_batch(&times, &watts).expect("appends");
            store.sync().expect("syncs");
        }
        rewrite_first_index(&scratch.0, edit);
        let store = TraceStore::open(&scratch.0, config).expect("opens");
        assert_eq!(store.len(), times.len() as u64, "{name}: open must keep the chunk");
        for (a, b) in [(2_000.5, 3_000.5), (100.5, 9_000.5), (5_000.5, 10_400.5)] {
            match store.energy_between(a, b) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("{name}: energy_between({a}, {b}) gave {other:?}"),
            }
        }
        let oracle = Oracle::new(&times, &watts);
        assert!(corrupt_answers(&store, &oracle, &oracle.probes([0, 4_096, 8_192])) > 0, "{name}");
    }
}
