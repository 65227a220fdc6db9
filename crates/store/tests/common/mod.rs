//! Shared by the store's integration tests: scratch directories, the
//! in-memory oracle every stored answer must equal bit-for-bit, and a
//! walker over a segment file's block layout.

#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use tgi_trace_store::chunk::{BLOCK_HEADER_LEN, FOOTER_LEN, INDEX_ENTRY_LEN};
use tgi_trace_store::{clamp_window, StoreError, TraceStore};

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A unique scratch directory, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tgi_store_prop_{tag}_{}_{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The in-memory answers over a sample sequence: the running trapezoid
/// chain the in-memory prefix index keeps, and queries built on it with
/// the same arithmetic.
pub struct Oracle {
    pub times: Vec<f64>,
    pub watts: Vec<f64>,
    cum: Vec<f64>,
}

impl Oracle {
    pub fn new(times: &[f64], watts: &[f64]) -> Self {
        let mut cum: Vec<f64> = Vec::with_capacity(times.len());
        for i in 0..times.len() {
            cum.push(match i {
                0 => 0.0,
                _ => cum[i - 1] + 0.5 * (watts[i - 1] + watts[i]) * (times[i] - times[i - 1]),
            });
        }
        Oracle { times: times.to_vec(), watts: watts.to_vec(), cum }
    }

    fn bounds(&self) -> Option<(f64, f64)> {
        Some((*self.times.first()?, *self.times.last()?))
    }

    /// `(chain value, power)` at `t`, which must lie in the span.
    fn at(&self, t: f64) -> (f64, f64) {
        let i = self.times.partition_point(|&x| x <= t) - 1;
        if t <= self.times[i] {
            return (self.cum[i], self.watts[i]);
        }
        let dt = t - self.times[i];
        let w_t = self.watts[i]
            + (self.watts[i + 1] - self.watts[i]) * (dt / (self.times[i + 1] - self.times[i]));
        (self.cum[i] + 0.5 * (self.watts[i] + w_t) * dt, w_t)
    }

    pub fn energy_total(&self) -> f64 {
        self.cum.last().copied().unwrap_or(0.0)
    }

    /// `(energy, average power)` over `[t0, t1]`, clamped to the span.
    pub fn energy_and_average_between(&self, t0: f64, t1: f64) -> (f64, f64) {
        match clamp_window(self.bounds(), t0, t1) {
            Some((a, b)) if a < b => {
                let energy = self.at(b).0 - self.at(a).0;
                (energy, energy / (b - a))
            }
            Some((a, _)) => (0.0, self.at(a).1),
            None => (0.0, 0.0),
        }
    }

    pub fn energy_between(&self, t0: f64, t1: f64) -> f64 {
        self.energy_and_average_between(t0, t1).0
    }

    pub fn power_at(&self, t: f64) -> Option<f64> {
        let (first, last) = self.bounds()?;
        (first <= t && t <= last).then(|| self.at(t).1)
    }

    pub fn samples_in(&self, a: f64, b: f64) -> (Vec<f64>, Vec<f64>) {
        let lo = self.times.partition_point(|&x| x < a);
        let hi = self.times.partition_point(|&x| x <= b).max(lo);
        (self.times[lo..hi].to_vec(), self.watts[lo..hi].to_vec())
    }

    /// Probe times: the samples at `edges` (and around them), evenly
    /// spread interior times, and points outside the span.
    pub fn probes(&self, edges: impl IntoIterator<Item = usize>) -> Vec<f64> {
        let Some((first, last)) = self.bounds() else { return vec![0.0, 1.0] };
        let mut probes = vec![first - 1.0, last + 1.0];
        for i in edges.into_iter().filter(|&i| i < self.times.len()) {
            let t = self.times[i];
            probes.extend([t, t + 0.3, (t - 0.3).max(0.0)]);
        }
        probes.extend((1..10).map(|k| first + (last - first) * k as f64 / 10.0));
        probes
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Asks `store` every query over `probes` — each point; the energy, the
/// fused energy-and-average read and the samples between near
/// neighbours; the energy and the fused read between probes mirrored
/// about the middle (nested windows up to the whole span) — and asserts
/// each answer equals `oracle` bit-for-bit. A query may instead fail as
/// [`StoreError::Corrupt`]; returns how many did. Any other error fails
/// the test.
pub fn corrupt_answers(store: &TraceStore, oracle: &Oracle, probes: &[f64]) -> usize {
    let mut probes = probes.to_vec();
    probes.sort_by(f64::total_cmp);
    let mut corrupt = 0usize;
    let mut tally = |err: StoreError| match err {
        StoreError::Corrupt { .. } => corrupt += 1,
        other => panic!("expected a Corrupt error, got {other:?}"),
    };
    assert_eq!(store.energy_total().to_bits(), oracle.energy_total().to_bits(), "energy_total");
    match store.to_columns() {
        Ok((t, w)) => assert!(bits_equal(&t, &oracle.times) && bits_equal(&w, &oracle.watts)),
        Err(e) => tally(e),
    }
    for &t in &probes {
        match store.power_at(t) {
            Ok(got) => assert_eq!(got.map(f64::to_bits), oracle.power_at(t).map(f64::to_bits)),
            Err(e) => tally(e),
        }
    }
    let n = probes.len();
    let near = (0..n).flat_map(|i| (i..n.min(i + 3)).map(move |j| (i, j)));
    let nested = (0..n / 2).map(|i| (i, n - 1 - i));
    for (i, j) in near.clone().chain(nested) {
        let (a, b) = (probes[i], probes[j]);
        match store.energy_between(a, b) {
            Ok(got) => assert_eq!(
                got.to_bits(),
                oracle.energy_between(a, b).to_bits(),
                "energy_between({a}, {b})"
            ),
            Err(e) => tally(e),
        }
        match store.energy_and_average_between(a, b) {
            Ok((energy, average)) => {
                let (want_e, want_w) = oracle.energy_and_average_between(a, b);
                assert_eq!(
                    (energy.to_bits(), average.to_bits()),
                    (want_e.to_bits(), want_w.to_bits()),
                    "energy_and_average_between({a}, {b})"
                );
            }
            Err(e) => tally(e),
        }
    }
    for (i, j) in near {
        let (a, b) = (probes[i], probes[j]);
        match store.samples_in(a, b) {
            Ok((t, w)) => {
                let (want_t, want_w) = oracle.samples_in(a, b);
                assert!(bits_equal(&t, &want_t) && bits_equal(&w, &want_w), "samples_in({a}, {b})");
            }
            Err(e) => tally(e),
        }
    }
    corrupt
}

/// Byte ranges of one block in a segment file.
pub struct BlockLayout {
    pub magic: u32,
    pub start: usize,
    pub payload: std::ops::Range<usize>,
    pub footer: std::ops::Range<usize>,
    pub index: std::ops::Range<usize>,
}

/// Walks an intact segment's blocks (v1 blocks have an empty index).
pub fn blocks(segment: &[u8]) -> Vec<BlockLayout> {
    let u32_at = |at: usize| u32::from_le_bytes(segment[at..at + 4].try_into().unwrap());
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < segment.len() {
        let magic = u32_at(at);
        let payload = at + BLOCK_HEADER_LEN..at + BLOCK_HEADER_LEN + u32_at(at + 4) as usize;
        let footer = payload.end..payload.end + FOOTER_LEN;
        let n_sub = match magic {
            tgi_trace_store::chunk::BLOCK_MAGIC => u64::from_le_bytes(
                segment[footer.start + 12..footer.start + 20].try_into().unwrap(),
            ) as usize,
            _ => 0,
        };
        let index = footer.end..footer.end + n_sub * INDEX_ENTRY_LEN;
        let next = index.end;
        out.push(BlockLayout { magic, start: at, payload, footer, index });
        at = next;
    }
    assert_eq!(at, segment.len(), "segment does not end on a block boundary");
    out
}
