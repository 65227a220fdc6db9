//! The bench ledger: one record schema for every JSON-writing bench.
//!
//! A ledger file is a header — the bench target, the [`Scale`] it ran at
//! and the [`Machine`] it ran on — and a flat list of [`Record`]s
//! `{layer, metric, unit, better, value, bound, deterministic}`. A bench
//! builds one with [`Ledger::new`], adds records, and calls
//! [`Ledger::finish`], which is the one place that:
//!
//! * checks every record against its bound (a floor when higher is
//!   better, a ceiling when lower is), panicking with the record's name;
//! * compares the run with the previous ledger at the output path: a
//!   deterministic record that got worse fails the run, noisy records are
//!   printed as ratios against the previous values;
//! * writes the file — `BENCH_<stem>.json` at the repository root for a
//!   full-size run, the same name under
//!   `std::env::temp_dir()/tgi-bench-smoke/` for a smoke run, so a smoke
//!   run can never overwrite a committed baseline.
//!
//! The one knob is `TGI_BENCH_SMOKE`: set to anything but `0`, every bench
//! runs at its CI smoke size (each bench's `(full, smoke)` const pairs,
//! read with [`Ledger::pick`]).

use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// The environment switch that selects [`Scale::Smoke`].
const SMOKE_ENV: &str = "TGI_BENCH_SMOKE";

/// Every bench target that writes a ledger, with the stem of its file
/// (`BENCH_<stem>.json`).
pub const LEDGERS: [(&str, &str); 9] = [
    ("fleet", "fleet"),
    ("frontier", "frontier"),
    ("kernel_throughput", "kernels"),
    ("obs", "obs"),
    ("server_load", "server"),
    ("telemetry_overhead", "telemetry"),
    ("tgi_throughput", "tgi"),
    ("trace_analytics", "trace"),
    ("trace_store", "store"),
];

/// The size a bench ran at.
#[derive(Serialize, Deserialize, Clone, Copy, Debug, PartialEq, Eq)]
#[serde(rename_all = "snake_case")]
pub enum Scale {
    /// The committed size; writes to the repository root.
    Full,
    /// The CI smoke size; writes to the temp directory.
    Smoke,
}

/// Which direction of a record's value is an improvement.
#[derive(Serialize, Deserialize, Clone, Copy, Debug, PartialEq, Eq)]
#[serde(rename_all = "snake_case")]
pub enum Better {
    /// Larger is better; a bound is a floor.
    Higher,
    /// Smaller is better; a bound is a ceiling.
    Lower,
}

/// The host a ledger was measured on.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq)]
pub struct Machine {
    /// `std::thread::available_parallelism` (1 if unknown).
    pub available_parallelism: usize,
    /// The SIMD path the native kernels dispatched to.
    pub isa: String,
}

impl Machine {
    /// The machine this process runs on.
    fn this() -> Self {
        Machine {
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            isa: hpc_kernels::timing::active_isa_name().to_string(),
        }
    }
}

/// One measured number.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq)]
pub struct Record {
    /// The part of the system measured, e.g. `cold_query`.
    pub layer: String,
    /// What was measured, e.g. `energy_between_us`.
    pub metric: String,
    /// Unit of `value`.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// `None` (`null`) when this host cannot measure it: an N-over-1
    /// thread speedup on a 1-core host.
    pub value: Option<f64>,
    /// A floor ([`Better::Higher`]) or ceiling ([`Better::Lower`]) the
    /// value must meet, checked by [`Ledger::finish`].
    pub bound: Option<f64>,
    /// Whether the value repeats exactly at the same scale on any host;
    /// a deterministic record that gets worse fails the run.
    pub deterministic: bool,
}

impl Record {
    /// Sets the floor or ceiling the value must meet.
    pub fn bound(&mut self, bound: f64) -> &mut Self {
        self.bound = Some(bound);
        self
    }

    /// Marks the value as repeating exactly at the same scale.
    pub fn deterministic(&mut self) -> &mut Self {
        self.deterministic = true;
        self
    }

    /// `layer.metric`.
    pub fn name(&self) -> String {
        format!("{}.{}", self.layer, self.metric)
    }

    /// Whether the value meets the bound (an unmeasured or unbounded
    /// record always does).
    pub fn meets_bound(&self) -> bool {
        match (self.value, self.bound) {
            (Some(v), Some(b)) => match self.better {
                Better::Higher => v >= b,
                Better::Lower => v <= b,
            },
            _ => true,
        }
    }

    fn worse_than(&self, before: f64, now: f64) -> bool {
        match self.better {
            Better::Higher => now < before,
            Better::Lower => now > before,
        }
    }
}

/// What [`Ledger::compare`] found against a previous ledger.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Report lines: noisy records as ratios, deterministic changes.
    pub lines: Vec<String>,
    /// Deterministic records that got worse; any one fails the run.
    pub regressions: Vec<String>,
}

/// A bench run's header and records; see the [module docs](self).
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq)]
pub struct Ledger {
    /// The bench target, one of [`LEDGERS`].
    pub bench: String,
    /// The size it ran at.
    pub scale: Scale,
    /// The host it ran on.
    pub machine: Machine,
    /// The measured numbers; each `(layer, metric)` appears once.
    pub records: Vec<Record>,
}

impl Ledger {
    /// Starts the ledger of bench target `bench` on this machine, at the
    /// scale `TGI_BENCH_SMOKE` selects.
    ///
    /// # Panics
    /// If `bench` is not listed in [`LEDGERS`].
    pub fn new(bench: &str) -> Self {
        assert!(LEDGERS.iter().any(|&(b, _)| b == bench), "{bench} is not listed in LEDGERS");
        let smoke = std::env::var_os(SMOKE_ENV).is_some_and(|v| !v.is_empty() && v != "0");
        Ledger {
            bench: bench.to_string(),
            scale: if smoke { Scale::Smoke } else { Scale::Full },
            machine: Machine::this(),
            records: Vec::new(),
        }
    }

    /// The full or the smoke value of a `(full, smoke)` pair.
    pub fn pick<T>(&self, (full, smoke): (T, T)) -> T {
        match self.scale {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }

    /// Records a value where larger is better.
    pub fn higher(
        &mut self,
        layer: impl Into<String>,
        metric: impl Into<String>,
        unit: &str,
        value: f64,
    ) -> &mut Record {
        self.push(layer.into(), metric.into(), unit, Better::Higher, Some(value))
    }

    /// Records a value where smaller is better.
    pub fn lower(
        &mut self,
        layer: impl Into<String>,
        metric: impl Into<String>,
        unit: &str,
        value: f64,
    ) -> &mut Record {
        self.push(layer.into(), metric.into(), unit, Better::Lower, Some(value))
    }

    /// Records `layer.speedup_n_over_1`, the N-thread over 1-thread
    /// speedup `ratio()` where N is the machine's available parallelism.
    /// On a 1-core host there is no N-thread run to compare, so `ratio` is
    /// not called and the record is written unmeasured (`value: null`).
    pub fn speedup_n_over_1(
        &mut self,
        layer: impl Into<String>,
        ratio: impl FnOnce() -> f64,
    ) -> &mut Record {
        let value = (self.machine.available_parallelism > 1).then(ratio);
        self.push(layer.into(), "speedup_n_over_1".into(), "x", Better::Higher, value)
    }

    fn push(
        &mut self,
        layer: String,
        metric: String,
        unit: &str,
        better: Better,
        value: Option<f64>,
    ) -> &mut Record {
        self.records.push(Record {
            layer,
            metric,
            unit: unit.to_string(),
            better,
            value,
            bound: None,
            deterministic: false,
        });
        self.records.last_mut().expect("just pushed")
    }

    /// Where this ledger is written: the repository root at full size, the
    /// temp directory's `tgi-bench-smoke/` at smoke size.
    pub fn path(&self) -> PathBuf {
        let stem = LEDGERS.iter().find(|&&(b, _)| b == self.bench).map_or("unknown", |&(_, s)| s);
        let dir = match self.scale {
            // crates/bench/ → repository root.
            Scale::Full => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
            Scale::Smoke => std::env::temp_dir().join("tgi-bench-smoke"),
        };
        dir.join(format!("BENCH_{stem}.json"))
    }

    /// Bound violations and repeated `(layer, metric)` pairs.
    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, r) in self.records.iter().enumerate() {
            if !r.meets_bound() {
                let op = if r.better == Better::Higher { ">=" } else { "<=" };
                failures.push(format!(
                    "{} = {} {} misses its bound {op} {}",
                    r.name(),
                    r.value.unwrap_or(f64::NAN),
                    r.unit,
                    r.bound.unwrap_or(f64::NAN)
                ));
            }
            if self.records[..i].iter().any(|p| p.layer == r.layer && p.metric == r.metric) {
                failures.push(format!("{} is recorded twice", r.name()));
            }
        }
        failures
    }

    /// Compares this run with `previous`, the text of the ledger it
    /// replaces. Text that is not a ledger of the same bench and scale
    /// yields one "no comparable ledger" line and no regressions.
    pub fn compare(&self, previous: &str) -> Comparison {
        let mut out = Comparison::default();
        let before = match serde_json::from_str::<Ledger>(previous) {
            Ok(l) if l.bench == self.bench && l.scale == self.scale => l,
            Ok(l) => {
                out.lines.push(format!(
                    "no comparable ledger: previous file is {} at {:?} scale",
                    l.bench, l.scale
                ));
                return out;
            }
            Err(e) => {
                out.lines.push(format!("no comparable ledger: {e}"));
                return out;
            }
        };
        if before.machine != self.machine {
            out.lines.push(format!(
                "machine differs (was {} thread(s), {}): noisy ratios compare two hosts",
                before.machine.available_parallelism, before.machine.isa
            ));
        }
        for r in &self.records {
            let Some(old) =
                before.records.iter().find(|p| p.layer == r.layer && p.metric == r.metric)
            else {
                continue;
            };
            let (Some(was), Some(now)) = (old.value, r.value) else { continue };
            let change = format!("{}: {was} -> {now} {}", r.name(), r.unit);
            if r.deterministic {
                if r.worse_than(was, now) {
                    out.regressions.push(format!("{change} (deterministic, got worse)"));
                } else if now != was {
                    out.lines.push(format!("{change} (deterministic, improved)"));
                }
            } else if was != 0.0 {
                out.lines.push(format!("{change} ({:.2}x)", now / was));
            } else {
                out.lines.push(change);
            }
        }
        out
    }

    /// Checks the bounds, compares with the previous ledger at
    /// [`path`](Self::path), and writes the file.
    ///
    /// # Panics
    /// Naming every failing record, without writing, if a record misses
    /// its bound, a `(layer, metric)` pair repeats, or a deterministic
    /// record got worse than in the previous ledger.
    pub fn finish(self) {
        for r in &self.records {
            let value = r.value.map_or("unmeasured".to_string(), |v| format!("{v}"));
            eprintln!("  {} = {value} {}", r.name(), r.unit);
        }
        let mut failures = self.failures();
        let path = self.path();
        match std::fs::read_to_string(&path) {
            Ok(previous) => {
                let comparison = self.compare(&previous);
                eprintln!("  vs {}:", path.display());
                for line in &comparison.lines {
                    eprintln!("    {line}");
                }
                failures.extend(comparison.regressions);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => eprintln!("  no comparable ledger at {}: {e}", path.display()),
        }
        assert!(failures.is_empty(), "{} failed:\n  {}", self.bench, failures.join("\n  "));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("ledger directory creatable");
        }
        let json = serde_json::to_string_pretty(&self).expect("ledger serializes");
        std::fs::write(&path, json + "\n").expect("ledger file writable");
        eprintln!("{}: wrote {}", self.bench, path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(threads: usize) -> Ledger {
        Ledger {
            bench: "trace_store".into(),
            scale: Scale::Full,
            machine: Machine { available_parallelism: threads, isa: "scalar".into() },
            records: Vec::new(),
        }
    }

    fn json(l: &Ledger) -> String {
        serde_json::to_string_pretty(l).unwrap()
    }

    #[test]
    fn deterministic_regression_fails_and_improvement_does_not() {
        let mut before = ledger(2);
        before.lower("storage", "bytes_per_sample", "B", 0.30).deterministic();
        before.higher("parity", "windows_bitwise_equal", "count", 2000.0).deterministic();
        let mut now = ledger(2);
        now.lower("storage", "bytes_per_sample", "B", 0.35).deterministic();
        now.higher("parity", "windows_bitwise_equal", "count", 2000.0).deterministic();
        let c = now.compare(&json(&before));
        assert_eq!(c.regressions.len(), 1, "{c:?}");
        assert!(c.regressions[0].starts_with("storage.bytes_per_sample: 0.3 -> 0.35"));

        let c = before.compare(&json(&now));
        assert!(c.regressions.is_empty(), "an improvement is not a regression: {c:?}");
        assert!(c.lines.iter().any(|l| l.contains("improved")));
    }

    #[test]
    fn noisy_change_is_reported_as_a_ratio() {
        let mut before = ledger(2);
        before.lower("cold_query", "energy_between_us", "us", 100.0);
        let mut now = ledger(2);
        now.lower("cold_query", "energy_between_us", "us", 150.0);
        let c = now.compare(&json(&before));
        assert!(c.regressions.is_empty());
        assert_eq!(c.lines, ["cold_query.energy_between_us: 100 -> 150 us (1.50x)"]);
    }

    #[test]
    fn a_previous_file_that_is_not_a_ledger_is_not_compared() {
        let mut now = ledger(1);
        now.lower("storage", "bytes_per_sample", "B", 0.35).deterministic();
        let old_schema = r#"{"machine": {"available_parallelism": 1}, "samples": 100}"#;
        for previous in
            [old_schema, "not json", &json(&Ledger { scale: Scale::Smoke, ..ledger(1) })]
        {
            let c = now.compare(previous);
            assert!(c.regressions.is_empty());
            assert_eq!(c.lines.len(), 1);
            assert!(c.lines[0].starts_with("no comparable ledger"), "{:?}", c.lines);
        }
    }

    #[test]
    fn speedup_is_unmeasured_on_one_core() {
        let mut one = ledger(1);
        one.speedup_n_over_1("fleet", || unreachable!("no N-thread run on one core"));
        assert_eq!(one.records[0].value, None);
        assert!(json(&one).contains("\"value\": null"));
        assert!(one.failures().is_empty());

        let mut four = ledger(4);
        four.speedup_n_over_1("fleet", || 3.5);
        assert_eq!(four.records[0].value, Some(3.5));
        assert_eq!(four.records[0].metric, "speedup_n_over_1");
    }

    #[test]
    fn bounds_and_repeats_fail_by_name() {
        let mut l = ledger(2);
        l.higher("detector", "samples_per_s", "1/s", 5e5).bound(1e6);
        l.lower("recorder", "recorder_vs_collector_x", "x", 2.0).bound(2.0);
        l.lower("recorder", "recorder_vs_collector_x", "x", 1.0);
        let failures = l.failures();
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0]
            .starts_with("detector.samples_per_s = 500000 1/s misses its bound >= 1000000"));
        assert_eq!(failures[1], "recorder.recorder_vs_collector_x is recorded twice");
    }

    #[test]
    fn ledger_round_trips_and_smoke_writes_outside_the_repository() {
        let mut l = ledger(2);
        l.higher("ingest", "samples_per_s", "1/s", 8.5e6);
        l.speedup_n_over_1("fleet", || 1.9).bound(1.0);
        assert_eq!(serde_json::from_str::<Ledger>(&json(&l)).unwrap(), l);
        assert!(l.path().ends_with("BENCH_store.json"));
        let smoke = Ledger { scale: Scale::Smoke, ..l };
        assert_eq!(smoke.path(), std::env::temp_dir().join("tgi-bench-smoke/BENCH_store.json"));
        assert_eq!(smoke.pick((100, 1)), 1);
    }
}
