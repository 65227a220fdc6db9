//! Persistent power traces: the bridge between [`PowerTrace`] and the
//! on-disk [`tgi_trace_store::TraceStore`].
//!
//! Three integration points:
//!
//! * [`PowerTrace::to_store`] persists an in-memory trace into a store
//!   directory; [`StoreBackedTrace::to_trace`] materializes one back. The
//!   round trip is `to_bits`-identical sample-for-sample (the codec is
//!   lossless at the bit-pattern level).
//! * [`StoreBackedTrace`] implements [`TraceQuery`] over an open store —
//!   `energy`, `energy_between`, `energy_and_average_between`, `window`,
//!   the provided `average_power` and `scan_anomalies` — answering from
//!   chunk footers and sub-block indexes, decoding at most the window's
//!   two boundary sub-blocks (`window` decodes the sub-blocks it covers),
//!   bit-identical to the in-memory prefix index over the same samples.
//!   Point and extreme reads (`power_at`, peak, min) live on the
//!   underlying [`TraceStore`].
//! * `BackgroundSampler::start_into` (in [`crate::sampler`]) records
//!   straight into a `StoreBackedTrace`, so long captures never hold the
//!   full trace in memory.
//!
//! Every [`TraceQuery`] read returns [`StoreError`] because a stored trace
//! may touch disk and hit torn or corrupt payloads; the in-memory
//! implementation is always `Ok`.

use crate::trace::{PowerTrace, TraceQuery};
use std::path::Path;
use tgi_core::{Joules, Watts};
use tgi_trace_store::{clamp_window, StoreConfig, StoreError, TraceStore};

impl PowerTrace {
    /// Persists every sample into a (fresh or existing) store at `dir` and
    /// syncs it to disk. Appending to a non-empty store requires this
    /// trace's first timestamp to not precede the store's last.
    pub fn to_store(
        &self,
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<TraceStore, StoreError> {
        let mut store = TraceStore::open(dir, config)?;
        store.append_batch(self.times(), self.watts())?;
        store.sync()?;
        Ok(store)
    }
}

/// A [`TraceQuery`] handle over an on-disk [`TraceStore`].
///
/// Queries have the same semantics (clamping, interpolation, duplicate
/// handling, NaN panics) as their `PowerTrace` counterparts and return
/// bit-identical values over the same samples; they differ only in being
/// fallible, since cold chunks live on disk.
#[derive(Debug)]
pub struct StoreBackedTrace {
    store: TraceStore,
}

impl StoreBackedTrace {
    /// Opens (or creates) the store at `dir`.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> Result<Self, StoreError> {
        Ok(StoreBackedTrace { store: TraceStore::open(dir, config)? })
    }

    /// Wraps an already open store.
    pub fn new(store: TraceStore) -> Self {
        StoreBackedTrace { store }
    }

    /// The underlying store (chunk/disk introspection, compaction stats).
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Mutable access to the underlying store (compaction, sync).
    pub fn store_mut(&mut self) -> &mut TraceStore {
        &mut self.store
    }

    /// Appends one sample, WAL-first. Invalid samples are rejected as
    /// [`StoreError::InvalidSample`] (the store boundary reports errors
    /// where the in-memory trace panics).
    pub fn push(&mut self, t: f64, watts: Watts) -> Result<(), StoreError> {
        self.store.append(t, watts.value())
    }

    /// Appends parallel sample columns as one WAL record.
    pub fn extend_from_slices(&mut self, times: &[f64], watts: &[f64]) -> Result<(), StoreError> {
        self.store.append_batch(times, watts)
    }

    /// Number of samples (sealed + active).
    pub fn len(&self) -> u64 {
        self.store.len()
    }

    /// True when the store holds no samples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// First and last sample timestamps, when non-empty.
    pub fn time_bounds(&self) -> Option<(f64, f64)> {
        self.store.time_bounds()
    }

    /// Total trapezoidal energy — O(1) from the footer chain snapshots.
    pub fn energy(&self) -> Joules {
        Joules::new(self.store.energy_total())
    }

    /// Trapezoidal energy over `[t0, t1]` clamped to the stored span —
    /// footer and sub-block index binary search, decoding at most the two
    /// boundary sub-blocks.
    ///
    /// # Panics
    /// Panics if either bound is NaN, mirroring
    /// [`PowerTrace::energy_between`].
    pub fn energy_between(&self, t0: f64, t1: f64) -> Result<Joules, StoreError> {
        Ok(Joules::new(self.store.energy_between(t0, t1)?))
    }

    /// Time-weighted average power over `[t0, t1]` clamped to the stored
    /// span.
    ///
    /// # Panics
    /// Panics if either bound is NaN.
    pub fn average_power_between(&self, t0: f64, t1: f64) -> Result<Watts, StoreError> {
        Ok(Watts::new(self.store.average_power_between(t0, t1)?))
    }

    /// The sub-trace covering `[t0, t1]` (clamped), with interpolated
    /// boundary samples — the same construction as [`PowerTrace::window`],
    /// materialized into memory.
    ///
    /// # Panics
    /// Panics if either bound is NaN.
    pub fn window(&self, t0: f64, t1: f64) -> Result<PowerTrace, StoreError> {
        let Some((a, b)) = clamp_window(self.time_bounds(), t0, t1) else {
            return Ok(PowerTrace::new());
        };
        let (times, watts) = self.store.samples_in(a, b)?;
        PowerTrace::clipped(a, b, &times, &watts, |t| {
            Ok(self.store.power_at(t)?.expect("t is in the span"))
        })
    }

    /// Materializes the full trace into memory — sample columns and the
    /// rebuilt prefix index are `to_bits`-identical to the trace that was
    /// stored.
    pub fn to_trace(&self) -> Result<PowerTrace, StoreError> {
        self.window(f64::NEG_INFINITY, f64::INFINITY)
    }
}

impl TraceQuery for StoreBackedTrace {
    fn len(&self) -> Result<usize, StoreError> {
        Ok(StoreBackedTrace::len(self) as usize)
    }

    fn time_bounds(&self) -> Result<Option<(f64, f64)>, StoreError> {
        Ok(StoreBackedTrace::time_bounds(self))
    }

    fn energy(&self) -> Result<Joules, StoreError> {
        Ok(StoreBackedTrace::energy(self))
    }

    fn energy_between(&self, t0: f64, t1: f64) -> Result<Joules, StoreError> {
        StoreBackedTrace::energy_between(self, t0, t1)
    }

    fn average_power_between(&self, t0: f64, t1: f64) -> Result<Watts, StoreError> {
        StoreBackedTrace::average_power_between(self, t0, t1)
    }

    fn energy_and_average_between(&self, t0: f64, t1: f64) -> Result<(Joules, Watts), StoreError> {
        let (energy, average) = self.store.energy_and_average_between(t0, t1)?;
        Ok((Joules::new(energy), Watts::new(average)))
    }

    fn window(&self, t0: f64, t1: f64) -> Result<PowerTrace, StoreError> {
        StoreBackedTrace::window(self, t0, t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("tgi_persist_{tag}_{}_{seq}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn empty_store_behaves_like_empty_trace() {
        let scratch = ScratchDir::new("empty");
        let backed = StoreBackedTrace::open(&scratch.0, StoreConfig::default()).unwrap();
        assert!(backed.is_empty());
        assert_eq!(backed.energy().value(), 0.0);
        assert_eq!(TraceQuery::average_power(&backed).unwrap().value(), 0.0);
        assert_eq!(backed.store().peak_watts(), 0.0);
        assert_eq!(backed.store().min_watts(), 0.0);
        assert_eq!(backed.energy_between(0.0, 10.0).unwrap().value(), 0.0);
        let (energy, average) = TraceQuery::energy_and_average_between(&backed, 0.0, 10.0).unwrap();
        assert_eq!((energy.value(), average.value()), (0.0, 0.0));
        assert!(backed.store().power_at(0.0).unwrap().is_none());
        assert!(backed.window(0.0, 1.0).unwrap().is_empty());
    }

    #[test]
    fn push_appends_across_reopen() {
        let scratch = ScratchDir::new("reopen");
        let config = StoreConfig { chunk_samples: 8, retain_seconds: None };
        {
            let mut backed = StoreBackedTrace::open(&scratch.0, config.clone()).unwrap();
            for i in 0..20 {
                backed.push(i as f64, Watts::new(100.0 + i as f64)).unwrap();
            }
            backed.store_mut().sync().unwrap();
        }
        let mut backed = StoreBackedTrace::open(&scratch.0, config).unwrap();
        assert_eq!(backed.len(), 20);
        backed.push(20.0, Watts::new(120.0)).unwrap();
        assert_eq!(backed.len(), 21);
        assert!(backed.push(5.0, Watts::new(100.0)).is_err(), "backwards time must fail");
    }
}
