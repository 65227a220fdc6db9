//! Stores written in the v1 segment format (one codec stream per chunk,
//! no sub-block index) keep working: the committed fixture under
//! `tests/fixtures/v1/` was written by the v1 store from
//! `fixture_columns(10_300)` in 1,000-sample batches with
//! `chunk_samples = 5_000` — two sealed chunks plus a 300-sample WAL
//! tail. It is read through the one v2 read path, extended with v2 chunks
//! into a mixed segment, and compacted to v2, with every answer
//! `to_bits`-equal to an in-memory oracle throughout.

mod common;

use common::{blocks, corrupt_answers, Oracle, ScratchDir};
use std::path::Path;
use tgi_trace_store::chunk::{BLOCK_MAGIC, BLOCK_MAGIC_V1, SUB_BLOCK_SAMPLES};
use tgi_trace_store::{StoreConfig, TraceStore, SEGMENT_FILE, WAL_FILE};

const CHUNK: usize = 5_000;
const FIXTURE_SAMPLES: usize = 10_300;

/// The fixture's sample stream: a 1 s cadence with 5% jittered and 2%
/// repeated timestamps, and 0.1 W-quantized levels with occasional
/// unquantized readings. Plain IEEE arithmetic, so every platform
/// regenerates it bit-for-bit.
fn fixture_columns(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut state = 0x7431_7631_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (mut t, mut level) = (1_000.0f64, 180.0f64);
    let mut times = Vec::with_capacity(n);
    let mut watts = Vec::with_capacity(n);
    for i in 0..n {
        let u = next();
        if i > 0 {
            t += if u < 0.02 {
                0.0
            } else if u < 0.07 {
                1.0 + (next() - 0.5) * 0.5
            } else {
                1.0
            };
        }
        let v = next();
        if v < 0.03 {
            level = (800.0 + 3000.0 * next()).round() / 10.0;
        }
        times.push(t);
        watts.push(if v > 0.99 { level + next() * 5.0 } else { level });
    }
    (times, watts)
}

fn block_magics(dir: &Path) -> Vec<u32> {
    blocks(&std::fs::read(dir.join(SEGMENT_FILE)).unwrap()).iter().map(|b| b.magic).collect()
}

/// Every answer over `oracle`'s samples, with no corrupt ones.
fn assert_matches(store: &TraceStore, oracle: &Oracle) {
    assert_eq!(store.len(), oracle.times.len() as u64);
    let edges = (0..oracle.times.len()).step_by(CHUNK).flat_map(|c| [c, c + SUB_BLOCK_SAMPLES]);
    let probes = oracle.probes(edges.flat_map(|i| [i.saturating_sub(1), i]));
    assert_eq!(corrupt_answers(store, oracle, &probes), 0);
}

/// The most samples one cold lookup decodes, over lookups inside every
/// sealed chunk.
fn max_decoded_per_lookup(store: &TraceStore, oracle: &Oracle) -> u64 {
    let sealed = store.len() as usize - store.active_samples();
    (0..sealed)
        .step_by(997)
        .map(|i| {
            store.reset_decompressions();
            store.power_at(oracle.times[i] + 0.1).unwrap();
            store.decoded_samples()
        })
        .max()
        .unwrap()
}

#[test]
fn v1_store_reads_appends_and_compacts_to_v2() {
    let scratch = ScratchDir::new("v1_fixture");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1");
    std::fs::create_dir_all(&scratch.0).unwrap();
    for file in [SEGMENT_FILE, WAL_FILE] {
        std::fs::copy(fixture.join(file), scratch.0.join(file)).unwrap();
    }
    assert_eq!(block_magics(&scratch.0), [BLOCK_MAGIC_V1; 2]);
    let config = StoreConfig { chunk_samples: CHUNK, retain_seconds: None };
    let (times, watts) = fixture_columns(4 * CHUNK + 1_000);

    // The v1 store opens, recovers its WAL tail, and answers exactly; a
    // whole v1 chunk is one decoded unit.
    let mut store = TraceStore::open(&scratch.0, config.clone()).unwrap();
    assert_eq!((store.sealed_chunks(), store.active_samples()), (2, 300));
    let v1 = Oracle::new(&times[..FIXTURE_SAMPLES], &watts[..FIXTURE_SAMPLES]);
    assert_matches(&store, &v1);
    assert_eq!(max_decoded_per_lookup(&store, &v1), CHUNK as u64);

    // Appends seal v2 chunks after the v1 ones: a mixed segment.
    store.append_batch(&times[FIXTURE_SAMPLES..], &watts[FIXTURE_SAMPLES..]).unwrap();
    drop(store);
    let all = Oracle::new(&times, &watts);
    let mut store = TraceStore::open(&scratch.0, config.clone()).unwrap();
    assert_eq!(
        block_magics(&scratch.0),
        [BLOCK_MAGIC_V1, BLOCK_MAGIC_V1, BLOCK_MAGIC, BLOCK_MAGIC]
    );
    assert_matches(&store, &all);

    // Compaction rewrites every chunk as v2; answers do not move and no
    // lookup decodes more than one sub-block's worth.
    store.compact().unwrap();
    drop(store);
    let store = TraceStore::open(&scratch.0, config).unwrap();
    assert_eq!(block_magics(&scratch.0), [BLOCK_MAGIC; 5]);
    assert_matches(&store, &all);
    assert!(max_decoded_per_lookup(&store, &all) <= SUB_BLOCK_SAMPLES as u64);
}
