//! The metric catalogue, the machine record, and the result lines.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` exactly (a test
//! checks it). An untraced run prints every end-to-end metric; a traced
//! run prints every per-layer metric, reading 0 for a layer the workload
//! does not touch. The write-path figures only the ungated `ingest`
//! workload produces are in its record, not in the catalogue.

use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that compares the catalogue with `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_tail_ms", "ms", "lower"),
    m("throughput_per_s", "1/s", "higher"),
    m("peak_heap_mb", "MiB", "lower"),
];

pub const PER_LAYER: &[MetricDef] = &[
    m("server.read_request_us_p50", "us", "lower"),
    m("server.read_request_us_p99", "us", "lower"),
    m("server.handle_energy_us_p50", "us", "lower"),
    m("server.handle_energy_us_p99", "us", "lower"),
    m("server.handle_anomalies_us_p50", "us", "lower"),
    m("server.handle_anomalies_us_p99", "us", "lower"),
    m("server.handle_evaluate_us_p50", "us", "lower"),
    m("server.handle_evaluate_us_p99", "us", "lower"),
    m("server.write_response_us_p50", "us", "lower"),
    m("server.write_response_us_p99", "us", "lower"),
    m("server.wait_us_p50", "us", "lower"),
    m("server.wait_us_p99", "us", "lower"),
    m("json.evaluate_body_us", "us", "lower"),
    m("store.energy_between_us", "us", "lower"),
    m("store.decompressions_per_query", "count", "lower"),
    m("store.open_s", "s", "lower"),
    m("store.disk_bytes_per_sample", "B", "lower"),
    m("power.scan_stored_us", "us", "lower"),
    m("power.anomaly_events", "count", "lower"),
    m("power.meter_record_s", "s", "lower"),
    m("core.evaluate_into_ns", "ns", "lower"),
    m("core.ns_per_cell", "ns", "lower"),
    m("core.ranking_s", "s", "lower"),
    m("cluster.fleet_generate_s", "s", "lower"),
    m("cluster.simulations", "count", "lower"),
    m("cluster.duplicate_simulations", "count", "lower"),
    m("cluster.memo_hit_ratio", "share", "higher"),
    m("harness.fleet_run_s", "s", "lower"),
    m("harness.cell_latency_p50_us", "us", "lower"),
    m("harness.cell_latency_p99_us", "us", "lower"),
    m("harness.csv_s", "s", "lower"),
    m("harness.experiments_all_s", "s", "lower"),
    m("kernels.hpl_gflops", "GFLOP/s", "higher"),
    m("kernels.stream_triad_mbps", "MB/s", "higher"),
    m("kernels.iozone_write_mbps", "MB/s", "higher"),
    m("kernels.hpl_flops_computed", "flop", "lower"),
    m("kernels.stream_bytes_computed", "B", "lower"),
    m("suite.runner_overhead_s", "s", "lower"),
    m("server.self_ms_per_op", "ms", "lower"),
    m("json.self_ms_per_op", "ms", "lower"),
    m("store.self_ms_per_op", "ms", "lower"),
    m("power.self_ms_per_op", "ms", "lower"),
    m("core.self_ms_per_op", "ms", "lower"),
    m("cluster.self_ms_per_op", "ms", "lower"),
    m("harness.self_ms_per_op", "ms", "lower"),
    m("kernels.self_ms_per_op", "ms", "lower"),
    m("suite.self_ms_per_op", "ms", "lower"),
    m("server.self_share", "share", "lower"),
    m("json.self_share", "share", "lower"),
    m("store.self_share", "share", "lower"),
    m("power.self_share", "share", "lower"),
    m("core.self_share", "share", "lower"),
    m("cluster.self_share", "share", "lower"),
    m("harness.self_share", "share", "lower"),
    m("kernels.self_share", "share", "lower"),
    m("suite.self_share", "share", "lower"),
    m("trace.coverage", "share", "higher"),
    m("trace.overhead_ratio", "share", "lower"),
    m("trace.ops", "count", "higher"),
];

/// Smallest share of the traced operation time the layer spans must
/// cover, per workload (checked in traced runs; see `RATIONALE.md`).
pub fn coverage_tolerance(workload: &str) -> f64 {
    match workload {
        "ingest" | "query" => 0.5,
        _ => 0.95,
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    facts: Vec<(String, Value)>,
    failures: Vec<String>,
    /// When the timed phase started, and the CPU steal time then.
    timed_from: Option<(std::time::Instant, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records one fact about the run (inputs, machine, diagnostics).
    pub fn fact(&mut self, key: &str, value: impl serde::Serialize) {
        self.facts.push((key.to_string(), value.to_value()));
    }

    /// Counts one failed or wrong answer, keeping the first few messages.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    /// Tallies one oracle comparison.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Adds self time and coverage from a traced run's spans.
    pub fn attribute(&mut self, spans: &[crate::spans::Span], ops: usize, op_wall_s: f64) {
        let by_layer = crate::spans::self_time_by_layer(spans);
        let traced: f64 = by_layer.values().sum();
        let per_op = |s: f64| if ops == 0 { 0.0 } else { s * 1e3 / ops as f64 };
        let share = |s: f64| if traced > 0.0 { s / traced } else { 0.0 };
        for def in PER_LAYER {
            if let Some(layer) = def.name.strip_suffix(".self_ms_per_op") {
                self.set(def.name, per_op(by_layer[layer]));
            } else if let Some(layer) = def.name.strip_suffix(".self_share") {
                self.set(def.name, share(by_layer[layer]));
            }
        }
        self.set("trace.coverage", if op_wall_s > 0.0 { traced / op_wall_s } else { 0.0 });
        self.set("trace.ops", ops as f64);
    }

    /// Prints the record line and the result line; returns whether every
    /// answer was correct.
    pub fn emit(mut self, workload: &str, trace: bool) -> bool {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for def in defs {
            let value = self.metrics.get(def.name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.fail(format!("metric {} is not finite", def.name));
                continue;
            }
            metrics.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(def.name),
                json_num(value),
                json_str(def.unit)
            ));
        }
        if trace {
            let coverage = self.metrics.get("trace.coverage").copied().unwrap_or(0.0);
            let tolerance = coverage_tolerance(workload);
            self.fact("coverage_tolerance", tolerance);
            self.fact("coverage_met", coverage >= tolerance);
        }
        self.fact("failures", self.failures.clone());
        let record = Value::Object(self.facts);
        println!(
            "{}",
            serde_json::to_string(&Value::Object(vec![("record".into(), record)]))
                .expect("record serializes")
        );
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
        correct
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serializes")
}

/// Rust's shortest round-trip form, which is valid JSON for finite values.
fn json_num(v: f64) -> String {
    format!("{v:?}")
}

/// Starts the timed phase. Restarts the counted heap's high-water mark
/// and resets this process's peak resident set size (`VmHWM`) to its
/// current size, recording whether the kernel allowed that, so the peaks
/// read at the end are the phase's, not set-up's. Notes the CPU time the
/// hypervisor has stolen so far.
pub fn start_timed_phase(out: &mut Outcome) {
    crate::heap::reset_peak();
    let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    out.fact("peak_rss_scope", if reset { "timed phase" } else { "whole run (reset refused)" });
    out.timed_from = Some((std::time::Instant::now(), cpu_steal_s()));
}

/// Ends the timed phase: `peak_heap_mb`, and for the record the peak
/// resident set size and the share of the machine's CPU time the
/// hypervisor stole meanwhile, which slows every timing of the run.
pub fn end_timed_phase(out: &mut Outcome) {
    out.set("peak_heap_mb", crate::heap::peak_mb());
    out.fact("peak_rss_mb", peak_rss_mb());
    if let Some((started, steal)) = out.timed_from.take() {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let cpu_s = started.elapsed().as_secs_f64() * nproc as f64;
        out.fact("cpu_steal_share", (cpu_steal_s() - steal) / cpu_s);
    }
}

/// CPU time stolen by the hypervisor since boot, summed over CPUs, in
/// seconds (the eighth field of `/proc/stat`'s `cpu` line, in the usual
/// 100 ticks per second); 0 where it is not reported.
fn cpu_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The machine facts every result carries.
pub fn machine(out: &mut Outcome, work_dir: &Path, threads: usize, connections: usize) {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    out.fact("nproc", nproc);
    out.fact("kernel_isa", hpc_kernels::simd::active().name());
    out.fact("data_dir_fs", filesystem_of(work_dir));
    out.fact("load_threads", threads);
    out.fact("load_connections", connections);
    out.fact(
        "parallel_speedup",
        if nproc == 1 { "unmeasured (nproc = 1)" } else { "not measured by this benchmark" },
    );
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    out.fact("cpu", cpu);
}

/// The filesystem type of the longest mount point containing `path`.
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and `BENCHMARK.json` must name the same metrics
    /// with the same units and directions.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key}: count");
            for (entry, def) in listed.iter().zip(defs) {
                let field = |f: &str| entry.get(f).and_then(|v| v.as_str()).unwrap_or("");
                assert_eq!(field("name"), def.name, "{key}");
                assert_eq!(field("unit"), def.unit, "{key}: {}", def.name);
                assert_eq!(field("better"), def.better, "{key}: {}", def.name);
            }
        }
    }

    #[test]
    fn every_layer_has_self_time_metrics() {
        for layer in crate::spans::LAYERS {
            for suffix in [".self_ms_per_op", ".self_share"] {
                let name = format!("{layer}{suffix}");
                assert!(PER_LAYER.iter().any(|d| d.name == name), "missing {name}");
            }
        }
    }
}
