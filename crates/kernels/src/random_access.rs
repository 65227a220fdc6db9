//! RandomAccess (GUPS) — the HPCC random-update kernel.
//!
//! Giga-UPdates per Second measures the memory system's tolerance for
//! dependent, cache-hostile random accesses: `Table[ai mod size] ^= ai` for
//! a pseudo-random stream `ai`. The reference uses an x^63-polynomial LFSR
//! stream; the kernel here keeps the same structure (XOR updates driven by a
//! deterministic random stream) with a SplitMix-style generator.
//!
//! Parallelization follows HPCC's relaxed rule: threads update disjoint
//! *chunks of the update stream* concurrently and races on the table are
//! tolerated up to a bounded error fraction — verification re-applies the
//! same stream and counts mismatches (HPCC allows ≤ 1%).

use crate::simd::{self, Isa};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Update-stream values generated per batch: the vector paths fill the
/// batch 4 lanes at a time (bit-identical to the scalar stream), then the
/// table XORs apply scalar-atomically — the updates themselves are
/// dependent random accesses and cannot be vectorized.
const STREAM_BATCH: usize = 128;

/// Configuration for a GUPS run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GupsConfig {
    /// log₂ of the table size in 64-bit words.
    pub log2_table_size: u32,
    /// Number of random updates (HPCC default: 4× table size).
    pub updates: u64,
    /// Stream seed.
    pub seed: u64,
}

impl GupsConfig {
    /// HPCC-style config: table of `2^log2` words, 4× updates.
    ///
    /// # Panics
    /// Panics unless [`GupsConfig::fits`] holds for `log2_table_size`.
    pub fn new(log2_table_size: u32) -> Self {
        assert!(Self::fits(log2_table_size), "a 2^{log2_table_size}-word GUPS table overflows");
        GupsConfig { log2_table_size, updates: 4 << log2_table_size, seed: 0x2545_F491_4F6C_DD1D }
    }

    /// Whether a `2^log2`-word table's byte size fits `usize` and its
    /// `4 << log2` update count fits `u64`: the largest size is 2^60 words
    /// on a 64-bit target, far beyond any real memory.
    pub fn fits(log2_table_size: u32) -> bool {
        table_bytes(log2_table_size).is_some()
            && 1u64.checked_shl(log2_table_size).and_then(|n| n.checked_mul(4)).is_some()
    }

    /// Table size in words.
    pub fn table_size(&self) -> usize {
        1usize << self.log2_table_size
    }
}

/// Result of a GUPS run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GupsResult {
    /// Giga-updates per second.
    pub gups: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Fraction of table words that failed verification (HPCC allows ≤ 0.01).
    pub error_fraction: f64,
    /// Whether verification passed.
    pub passed: bool,
}

/// A GUPS table the process cannot allocate: its byte size overflows
/// `usize`, or the allocator refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableAllocError {
    /// log₂ of the requested table size in 64-bit words.
    pub log2_table_size: u32,
}

impl std::fmt::Display for TableAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot allocate a 2^{}-word GUPS table", self.log2_table_size)
    }
}

impl std::error::Error for TableAllocError {}

/// Bytes of a `2^log2`-word table, `None` when that overflows `usize`.
fn table_bytes(log2_table_size: u32) -> Option<usize> {
    1usize.checked_shl(log2_table_size)?.checked_mul(std::mem::size_of::<u64>())
}

/// A table of `2^log2` words initialised by `init(index)`, reserved with
/// `try_reserve_exact` so a table too large for the address space is an
/// error, not an abort.
fn try_table<T>(config: &GupsConfig, init: impl Fn(u64) -> T) -> Result<Vec<T>, TableAllocError> {
    let error = TableAllocError { log2_table_size: config.log2_table_size };
    table_bytes(config.log2_table_size).ok_or(error)?;
    let len = config.table_size();
    let mut table = Vec::new();
    table.try_reserve_exact(len).map_err(|_| error)?;
    table.extend((0..len as u64).map(init));
    Ok(table)
}

/// HPCC's allowed error fraction for the racy parallel variant.
pub const MAX_ERROR_FRACTION: f64 = 0.01;

/// Per-chunk seed for the partitioned update stream.
#[inline]
fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    seed.wrapping_add(chunk.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Runs the GUPS benchmark with the process-wide dispatched ISA.
pub fn run(config: GupsConfig) -> Result<GupsResult, TableAllocError> {
    run_with_isa(simd::active(), config)
}

/// Runs the GUPS benchmark: timed racy-parallel update phase, then an
/// untimed sequential verification phase. The update stream is generated in
/// 128-value batches by the `isa` path's SplitMix64 — every ISA produces the
/// identical bit stream, so verification replays it exactly.
///
/// Errors, before any update runs, if the table or its verification copy
/// cannot be allocated.
pub fn run_with_isa(isa: Isa, config: GupsConfig) -> Result<GupsResult, TableAllocError> {
    assert!(config.log2_table_size >= 4, "table must have at least 16 words");
    assert!(config.updates > 0, "update count must be positive");
    // Atomic table lets threads race safely (Relaxed ordering: HPCC permits
    // lost updates; we only need the *final values* to be well-defined).
    let table: Vec<AtomicU64> = try_table(&config, AtomicU64::new)?;
    let size = table.len();
    let mask = (size - 1) as u64;

    // Partition the update stream into per-thread chunks, each with its own
    // deterministic sub-seed.
    let chunks = rayon::current_num_threads().max(1) as u64;
    let per_chunk = config.updates / chunks;
    let remainder = config.updates % chunks;

    let start = Instant::now();
    (0..chunks).into_par_iter().for_each(|c| {
        let mut state = chunk_seed(config.seed, c);
        let mut left = per_chunk + if c < remainder { 1 } else { 0 };
        let mut batch = [0u64; STREAM_BATCH];
        while left > 0 {
            let take = (left as usize).min(STREAM_BATCH);
            simd::splitmix_fill(isa, &mut state, &mut batch[..take]);
            for &ai in &batch[..take] {
                let idx = (ai & mask) as usize;
                // fetch_xor is a single atomic RMW: no torn updates, and the
                // commutativity of XOR makes the final table order-independent.
                table[idx].fetch_xor(ai, Ordering::Relaxed);
            }
            left -= take as u64;
        }
    });
    let seconds = start.elapsed().as_secs_f64().max(1e-9);

    // Verification: replay the same stream sequentially on a fresh table;
    // with atomic XOR updates the result must match exactly, so the error
    // fraction doubles as a determinism check.
    let mut check: Vec<u64> = try_table(&config, |i| i)?;
    for c in 0..chunks {
        let mut state = chunk_seed(config.seed, c);
        let mut left = per_chunk + if c < remainder { 1 } else { 0 };
        let mut batch = [0u64; STREAM_BATCH];
        while left > 0 {
            let take = (left as usize).min(STREAM_BATCH);
            simd::splitmix_fill(isa, &mut state, &mut batch[..take]);
            for &ai in &batch[..take] {
                let idx = (ai & mask) as usize;
                check[idx] ^= ai;
            }
            left -= take as u64;
        }
    }
    let errors = table.iter().zip(&check).filter(|(t, c)| t.load(Ordering::Relaxed) != **c).count();
    let error_fraction = errors as f64 / size as f64;

    Ok(GupsResult {
        gups: config.updates as f64 / seconds / 1e9,
        seconds,
        error_fraction,
        passed: error_fraction <= MAX_ERROR_FRACTION,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_passes_verification() {
        let r = run(GupsConfig::new(12)).unwrap();
        assert!(r.passed, "error fraction {}", r.error_fraction);
        // Atomic XOR updates are exact, not just within the 1% budget.
        assert_eq!(r.error_fraction, 0.0);
        assert!(r.gups > 0.0);
        assert!(r.seconds > 0.0);
    }

    #[test]
    fn config_follows_hpcc_defaults() {
        let c = GupsConfig::new(20);
        assert_eq!(c.table_size(), 1 << 20);
        assert_eq!(c.updates, 4 << 20);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(GupsConfig::new(10)).unwrap();
        let b = run(GupsConfig::new(10)).unwrap();
        // Timing differs but verification state is identical.
        assert_eq!(a.error_fraction, b.error_fraction);
        assert!(a.passed && b.passed);
    }

    #[test]
    fn splitmix_sequence_is_deterministic_and_nondegenerate() {
        let mut s1 = 42u64;
        let mut s2 = 42u64;
        let mut seq1 = [0u64; 8];
        let mut seq2 = [0u64; 8];
        simd::splitmix_fill(Isa::Scalar, &mut s1, &mut seq1);
        simd::splitmix_fill(Isa::Scalar, &mut s2, &mut seq2);
        assert_eq!(seq1, seq2);
        let unique: std::collections::BTreeSet<_> = seq1.iter().collect();
        assert_eq!(unique.len(), 8, "values must not repeat immediately");
    }

    #[test]
    fn every_supported_isa_verifies_exactly() {
        let mut c = GupsConfig::new(10);
        // Not a multiple of the batch size, so the partial-batch path runs.
        c.updates = 3 * STREAM_BATCH as u64 + 17;
        for isa in simd::supported() {
            let r = run_with_isa(isa, c).unwrap();
            assert!(r.passed, "{isa}: error fraction {}", r.error_fraction);
            assert_eq!(r.error_fraction, 0.0, "{isa}: atomic XOR replay must be exact");
        }
    }

    #[test]
    fn custom_update_count_respected() {
        let mut c = GupsConfig::new(10);
        c.updates = 1000;
        let r = run(c).unwrap();
        assert!(r.passed);
    }

    #[test]
    #[should_panic(expected = "at least 16")]
    fn tiny_table_panics() {
        let _ = run(GupsConfig::new(2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_updates_panics() {
        let mut c = GupsConfig::new(10);
        c.updates = 0;
        let _ = run(c);
    }

    #[test]
    fn sizes_fit_until_the_table_bytes_or_update_count_overflow() {
        assert!(GupsConfig::fits(4) && GupsConfig::fits(59));
        for log2 in [61, 62, 64, 200] {
            assert!(!GupsConfig::fits(log2), "log2 {log2}");
        }
    }

    #[test]
    fn unallocatable_table_is_an_error_not_an_abort() {
        // 2^59 words are 2^62 bytes: larger than any address space, so the
        // reservation fails without touching memory.
        let mut c = GupsConfig::new(59);
        c.updates = 1;
        assert_eq!(run(c), Err(TableAllocError { log2_table_size: 59 }));
        // A hand-built config past `fits` is refused the same way.
        c.log2_table_size = 64;
        assert_eq!(run(c), Err(TableAllocError { log2_table_size: 64 }));
    }
}
