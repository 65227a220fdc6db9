//! The execution engine: run a workload on a simulated cluster.
//!
//! For a given workload and process count the engine derives
//!
//! 1. aggregate performance from the scaling models ([`crate::scaling`]);
//! 2. wall time from `work / performance` (fixed-work framing);
//! 3. a per-node utilization assignment (compute jobs spread round-robin
//!    across all nodes, I/O clients packed) — idle nodes stay powered, as
//!    they would behind the paper's single wall meter;
//! 4. cluster ground-truth power from the node power models, observed
//!    through a simulated Watts Up? PRO at the PDU (1 Hz, quantized, with
//!    calibration error) — the measured average power and energy come from
//!    its readings, exactly like the physical setup of Figure 1. The
//!    readings stream into a running trapezoid
//!    ([`power_model::trace::Trapezoid`]) as they are taken, so a run keeps
//!    no samples; [`ExecutionEngine::trace`] re-meters the same readings
//!    into a [`PowerTrace`] for callers that want them.
//!
//! The result carries a ready-made [`tgi_core::Measurement`].

use crate::scaling;
use crate::spec::ClusterSpec;
use crate::workload::Workload;
use power_model::meter::{PowerMeter, WattsUpPro};
use power_model::trace::{PowerTrace, Trapezoid};
use power_model::utilization::UtilizationSample;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use tgi_core::{Measurement, Perf, Seconds, Watts};

/// Outcome of one simulated benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimulatedRun {
    /// Benchmark id (`"hpl"`, `"stream"`, `"iozone"`).
    pub benchmark: &'static str,
    /// Process count (HPL/STREAM) or client-node count × cores (IOzone).
    pub processes: usize,
    /// Aggregate performance.
    pub performance: Perf,
    /// Wall time, seconds.
    pub seconds: f64,
    /// Average wall power the meter read over the run.
    pub average_power: Watts,
    /// Metered average power × wall time.
    pub energy_joules: f64,
}

impl SimulatedRun {
    /// Converts to a `tgi-core` measurement (energy = metered average power
    /// × wall time).
    pub fn measurement(&self) -> Measurement {
        Measurement::new(
            self.benchmark,
            self.performance.clone(),
            self.average_power,
            Seconds::new(self.seconds),
        )
        .expect("simulated runs produce valid quantities")
        .with_energy(tgi_core::Joules::new(self.energy_joules))
        .expect("trace energy is positive")
    }

    /// Energy efficiency (performance per watt, canonical units).
    pub fn energy_efficiency(&self) -> f64 {
        self.performance.value() / self.average_power.value()
    }
}

/// Cap on metered samples per run; runs longer than this are sampled at a
/// coarser, even stride (a logging meter's memory is finite too).
const MAX_TRACE_SAMPLES: usize = 8192;

/// Executes workloads on one cluster.
#[derive(Debug, Clone)]
pub struct ExecutionEngine {
    cluster: ClusterSpec,
    meter_serial: u64,
    /// DVFS setting: CPU clock as a fraction of nominal (1.0 = full clock).
    freq_ratio: f64,
    /// Optional run-to-run performance noise: (relative σ, stream seed).
    noise: Option<(f64, u64)>,
    /// Optional node thermal model: adds warm-up transients and fan power
    /// to the metered traces.
    thermal: Option<power_model::ThermalModel>,
}

impl ExecutionEngine {
    /// Creates an engine for a cluster with a deterministic meter device.
    pub fn new(cluster: ClusterSpec) -> Self {
        ExecutionEngine {
            cluster,
            meter_serial: 0xF17E,
            freq_ratio: 1.0,
            noise: None,
            thermal: None,
        }
    }

    /// Adds per-node thermal dynamics: cluster power then includes fan
    /// spin-up and the warm-up transient instead of being flat over a run.
    pub fn with_thermal(mut self, model: power_model::ThermalModel) -> Self {
        self.thermal = Some(model);
        self
    }

    /// Adds run-to-run performance noise: each run's achieved performance
    /// is perturbed by a deterministic ≈N(0, σ·perf) draw keyed on
    /// `(seed, workload, processes)` — OS jitter, cache luck, and thermal
    /// variation, reproducibly. σ is relative (0.01 = 1%).
    ///
    /// # Panics
    /// Panics on a negative or non-finite σ.
    pub fn with_run_noise(mut self, sigma: f64, seed: u64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "noise sigma must be non-negative");
        self.noise = Some((sigma, seed));
        self
    }

    /// The multiplicative noise factor for a run (1.0 when noise is off).
    fn noise_factor(&self, workload: &Workload, processes: usize) -> f64 {
        let Some((sigma, seed)) = self.noise else {
            return 1.0;
        };
        // SplitMix over a key of (seed, benchmark, processes); a 12-uniform
        // sum gives an approximately normal z in [-6, 6].
        let mut state = seed
            ^ (processes as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (workload.benchmark_id().len() as u64) << 32
            ^ workload
                .benchmark_id()
                .bytes()
                .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64));
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let z: f64 = (0..12).map(|_| next()).sum::<f64>() - 6.0;
        (1.0 + sigma * z).max(0.5)
    }

    /// Overrides the meter serial (distinct instruments differ slightly).
    pub fn with_meter_serial(mut self, serial: u64) -> Self {
        self.meter_serial = serial;
        self
    }

    /// Runs the cluster at a reduced CPU clock (DVFS). Compute-bound
    /// performance (HPL) scales linearly with the clock; memory- and
    /// I/O-bound benchmarks are unaffected; CPU dynamic power follows the
    /// cubic law.
    ///
    /// # Panics
    /// Panics unless `ratio ∈ [0.1, 1.5]`.
    pub fn with_frequency_ratio(mut self, ratio: f64) -> Self {
        assert!(
            (0.1..=1.5).contains(&ratio),
            "frequency ratio {ratio} outside the supported DVFS range"
        );
        self.freq_ratio = ratio;
        self
    }

    /// The cluster this engine runs on.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Runs a workload with `processes` MPI ranks. The meter's readings
    /// stream into a running [`Trapezoid`]; the run keeps its average power
    /// and energy, not the samples ([`ExecutionEngine::trace`] re-meters
    /// them).
    ///
    /// # Panics
    /// Panics if `processes` is 0 or exceeds the cluster's core count.
    pub fn run(&self, workload: Workload, processes: usize) -> SimulatedRun {
        let _span = tgi_telemetry::span_cat("sim.run", "cluster")
            .field("benchmark", workload.benchmark_id())
            .field("processes", processes);
        if tgi_telemetry::enabled() {
            tgi_telemetry::counter!("tgi_sim_runs_total").inc();
        }
        let mut sum = Trapezoid::default();
        let into = &mut sum;
        let (performance, seconds) =
            self.meter(workload, processes, move |_| move |t, w| into.push(t, w));

        // Energy = metered average power × stopwatch wall time: readings
        // fall on whole sample intervals, so integrating them directly
        // would truncate short runs at the last sample boundary.
        let average_power = sum.average_power();
        SimulatedRun {
            benchmark: workload.benchmark_id(),
            processes,
            performance,
            seconds,
            average_power,
            energy_joules: average_power.value() * seconds,
        }
    }

    /// The metered power trace of [`ExecutionEngine::run`]`(workload,
    /// processes)`: each run meters with a freshly seeded device, so this
    /// re-metering reads the same samples, and the trace's
    /// [`PowerTrace::average_power`] equals the run's bit for bit. The
    /// trace is allocated once at its final length.
    ///
    /// # Panics
    /// As [`ExecutionEngine::run`].
    pub fn trace(&self, workload: Workload, processes: usize) -> PowerTrace {
        let mut trace = PowerTrace::new();
        let into = &mut trace;
        self.meter(workload, processes, move |readings| {
            into.reserve(readings);
            move |t, w| into.push(t, Watts::new(w))
        });
        trace
    }

    /// Simulates one run and meters it: `sink(readings)` makes the sink
    /// for that many readings, which then receives each `(t, watts)` in
    /// time order. Returns the run's performance and wall time.
    fn meter<S: FnMut(f64, f64)>(
        &self,
        workload: Workload,
        processes: usize,
        sink: impl FnOnce(usize) -> S,
    ) -> (Perf, f64) {
        let spec = &self.cluster;
        assert!(processes > 0, "need at least one process");
        assert!(
            processes <= spec.total_cores(),
            "cannot run {processes} processes on {} cores",
            spec.total_cores()
        );
        let cores_per_node = spec.node.cores() as f64;

        // Performance, time, and per-node utilization by workload type.
        let (performance, seconds, active, active_util) = match workload {
            Workload::Hpl { .. } => {
                let gflops = scaling::hpl_gflops(spec, processes) * self.freq_ratio;
                let seconds = workload.flops() / (gflops * 1e9);
                let ppn = processes as f64 / spec.nodes as f64;
                let cpu = (ppn / cores_per_node).min(1.0);
                let mut util = UtilizationSample::new(cpu, 0.5 * cpu, 0.02, 0.3 * cpu);
                if spec.scaling.hpl_accelerator_factor > 1.0 {
                    // Accelerated HPL: GPUs run the DGEMM, scaled by how much
                    // of the machine the job occupies.
                    util = util.with_accelerator(cpu);
                }
                (Perf::gflops(gflops), seconds, spec.nodes, util)
            }
            Workload::Stream { total_bytes } => {
                let mbps = scaling::stream_mbps(spec, processes);
                let seconds = total_bytes / (mbps * 1e6);
                let ppn = processes as f64 / spec.nodes as f64;
                // STREAM threads are memory-stalled: their effective CPU
                // draw is a fraction of an FPU-saturated HPL process's.
                let cpu = (spec.scaling.stream_cpu_factor * ppn / cores_per_node).min(1.0);
                let mem = scaling::saturation(ppn, spec.scaling.stream_k);
                let util = UtilizationSample::new(cpu, mem, 0.0, 0.05);
                (Perf::mbps(mbps), seconds, spec.nodes, util)
            }
            Workload::Iozone { total_bytes } => {
                // Clients are packed: one node per `cores()` processes.
                let clients =
                    ((processes as f64 / cores_per_node).ceil() as usize).clamp(1, spec.nodes);
                let mbps = scaling::io_mbps(spec, clients);
                let seconds = total_bytes / (mbps * 1e6);
                let per_client = mbps / clients as f64 / spec.shared_fs.per_client_mbps;
                let util = UtilizationSample::io_bound(per_client.min(1.0));
                (Perf::mbps(mbps), seconds, clients, util)
            }
        };

        // Run-to-run noise: the achieved rate wobbles; with fixed work the
        // wall time moves inversely.
        let noise = self.noise_factor(&workload, processes);
        let (performance, seconds) = if noise != 1.0 {
            let perturbed = Perf::new(performance.value() * noise, performance.unit().clone())
                .expect("noise factor keeps performance positive");
            (perturbed, seconds / noise)
        } else {
            (performance, seconds)
        };

        // Ground-truth cluster power: active nodes at `active_util`, the
        // rest idle but powered (all behind the same meter).
        let node_model = &spec.power;
        let active_w = node_model.wall_power_scaled(active_util, self.freq_ratio).value();
        let idle_w = node_model.idle_wall_power().value();
        let idle_nodes = (spec.nodes - active) as f64;
        // With a thermal model, active nodes start at warm-idle temperature
        // and follow the RC warm-up toward the run's steady state; fans add
        // the temperature-dependent term. Idle nodes sit at their steady
        // point throughout.
        let thermal = self.thermal.as_ref();
        let (idle_fan_w, active_steady_c, idle_steady_c) = match thermal {
            Some(m) => {
                let idle_dc = node_model.dc_power(power_model::UtilizationSample::IDLE);
                let active_dc = node_model.dc_power_scaled(active_util, self.freq_ratio);
                let idle_c = m.steady_temp(idle_dc);
                (m.fan_power(idle_c).value(), m.steady_temp(active_dc), idle_c)
            }
            None => (0.0, 0.0, 0.0),
        };
        let active_f = active as f64;
        // Facility overhead: the meter sits behind cooling/distribution, so
        // it reads IT power × PUE (`pue * x` is exact for the default 1.0).
        let pue = spec.pue;
        let truth = move |t: f64| {
            let active_fan = match thermal {
                Some(m) => {
                    let temp =
                        active_steady_c + (idle_steady_c - active_steady_c) * (-t / m.tau_s).exp();
                    m.fan_power(temp).value()
                }
                None => 0.0,
            };
            Watts::new(
                pue * (active_f * (active_w + active_fan) + idle_nodes * (idle_w + idle_fan_w)),
            )
        };

        // Meter the run. For very long runs, stretch the sampling interval
        // to bound trace memory (and scale timestamps back as they stream).
        // Fleet-scale clusters can draw more than a 60 kW PDU measures, so
        // the ceiling grows with the cluster's theoretical envelope (plus
        // fan headroom); clusters under the PDU ceiling meter identically.
        let envelope = spec.pue * spec.nodes as f64 * (node_model.peak_wall_power().value() + 64.0);
        let mut meter = WattsUpPro::pdu(self.meter_serial).with_ceiling(1.5 * envelope);
        let native_interval = meter.spec().sample_interval_s;
        let stride = ((seconds / native_interval) / MAX_TRACE_SAMPLES as f64).ceil().max(1.0);
        let mut sink = sink(meter.readings(seconds / stride));
        meter.stream(truth, seconds / stride, |t, w| sink(t * stride, w));
        (performance, seconds)
    }

    /// Runs the full three-benchmark suite at one process count.
    pub fn run_suite(&self, workloads: &[Workload], processes: usize) -> Vec<SimulatedRun> {
        workloads.iter().map(|w| self.run(*w, processes)).collect()
    }
}

/// Cache key for one `run_suite` invocation: the process count plus each
/// workload's benchmark id and exact problem size. Fractional sizes are
/// keyed by their IEEE bit pattern (`f64::to_bits`), so equal workloads hit
/// and nearly-equal ones don't — no tolerance surprises in `Eq`/`Hash`.
///
/// Suites of up to [`KEY_INLINE`] workloads are stored inline, so building
/// a key for a cache *lookup* allocates nothing — warm sweeps stay
/// allocation-free end to end. Longer suites spill to a `Vec`; equality and
/// hashing see one uniform item sequence either way.
const KEY_INLINE: usize = 12;

#[derive(Debug, Clone)]
struct SuiteKey {
    processes: usize,
    len: usize,
    inline: [(u8, u64); KEY_INLINE],
    spill: Vec<(u8, u64)>,
}

impl SuiteKey {
    fn new(workloads: &[Workload], processes: usize) -> Self {
        let encode = |w: &Workload| {
            let size = match w {
                Workload::Hpl { n } => *n as u64,
                Workload::Stream { total_bytes } | Workload::Iozone { total_bytes } => {
                    total_bytes.to_bits()
                }
            };
            let tag = match w {
                Workload::Hpl { .. } => 0u8,
                Workload::Stream { .. } => 1,
                Workload::Iozone { .. } => 2,
            };
            (tag, size)
        };
        let mut inline = [(0u8, 0u64); KEY_INLINE];
        for (slot, w) in inline.iter_mut().zip(workloads) {
            *slot = encode(w);
        }
        let spill = if workloads.len() > KEY_INLINE {
            workloads[KEY_INLINE..].iter().map(encode).collect()
        } else {
            Vec::new()
        };
        SuiteKey { processes, len: workloads.len(), inline, spill }
    }

    fn items(&self) -> impl Iterator<Item = &(u8, u64)> {
        self.inline[..self.len.min(KEY_INLINE)].iter().chain(self.spill.iter())
    }
}

impl PartialEq for SuiteKey {
    fn eq(&self, other: &Self) -> bool {
        self.processes == other.processes && self.len == other.len && self.items().eq(other.items())
    }
}

impl Eq for SuiteKey {}

impl std::hash::Hash for SuiteKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.processes.hash(state);
        self.len.hash(state);
        for item in self.items() {
            item.hash(state);
        }
    }
}

/// One cached simulation: the runs plus their ready-made measurements, so
/// sweeps that only need [`tgi_core::Measurement`]s (the TGI hot path)
/// never re-derive them — warm lookups are allocation-free.
#[derive(Debug, Clone)]
struct CachedSuite {
    runs: Arc<Vec<SimulatedRun>>,
    measurements: Arc<Vec<Measurement>>,
}

/// Per-key cache slot: either being simulated by exactly one thread
/// (single-flight), ready, or poisoned by a panicking simulation.
#[derive(Debug)]
enum SuiteState {
    InFlight,
    Ready(CachedSuite),
    Poisoned,
}

#[derive(Debug)]
struct SuiteEntry {
    state: Mutex<SuiteState>,
    ready: Condvar,
}

/// An [`ExecutionEngine`] that memoizes [`ExecutionEngine::run_suite`] per
/// (workload set, process count).
///
/// Grid and fleet sweeps evaluate many (weighting × mean) cells over the
/// *same* simulated measurements; the simulation is by far the expensive
/// part, so caching it lets those axes reuse runs instead of re-running
/// cluster-sim. Results are shared via `Arc` and one `MemoizedEngine` can
/// serve many threads (`&self` everywhere).
///
/// Internally the cache is one map behind one mutex, held only to find or
/// insert a key's slot, and **single-flight**: a missed key is simulated
/// exactly once — the first thread to miss installs an in-flight slot and
/// simulates *outside* the map lock, while later threads for the same key
/// block on that slot's own condvar (counted by
/// [`MemoizedEngine::inflight_waits`]) instead of re-simulating or holding
/// the map. A panicking simulation poisons its slot, wakes all waiters
/// (which propagate a panic), and removes the key so later calls can
/// retry.
///
/// Statistics are relaxed atomics read without touching the map lock, so
/// stats scraping (telemetry, benches) never contends with simulation.
#[derive(Debug)]
pub struct MemoizedEngine {
    engine: ExecutionEngine,
    cache: Mutex<HashMap<SuiteKey, Arc<SuiteEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_waits: AtomicU64,
    simulations: AtomicU64,
    completed: AtomicU64,
}

impl MemoizedEngine {
    /// Wraps an engine with an empty cache.
    pub fn new(engine: ExecutionEngine) -> Self {
        MemoizedEngine {
            engine,
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
            simulations: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        }
    }

    /// The wrapped engine (uncached access, cluster spec, …).
    pub fn engine(&self) -> &ExecutionEngine {
        &self.engine
    }

    /// Looks up (or simulates, single-flight) the suite for `key`.
    fn lookup(&self, workloads: &[Workload], processes: usize) -> CachedSuite {
        let key = SuiteKey::new(workloads, processes);
        let (entry, owner) = {
            let mut map = self.cache.lock().expect("suite cache poisoned");
            match map.get(&key) {
                Some(entry) => (Arc::clone(entry), false),
                None => {
                    let entry = Arc::new(SuiteEntry {
                        state: Mutex::new(SuiteState::InFlight),
                        ready: Condvar::new(),
                    });
                    map.insert(key.clone(), Arc::clone(&entry));
                    (entry, true)
                }
            }
        };

        if owner {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if tgi_telemetry::enabled() {
                tgi_telemetry::counter!("tgi_memo_misses_total").inc();
            }
            return self.simulate_into(&key, &entry, workloads, processes);
        }

        let mut state = entry.state.lock().expect("suite entry poisoned");
        if matches!(*state, SuiteState::InFlight) {
            self.inflight_waits.fetch_add(1, Ordering::Relaxed);
            if tgi_telemetry::enabled() {
                tgi_telemetry::counter!("tgi_memo_inflight_waits_total").inc();
            }
            state = entry
                .ready
                .wait_while(state, |s| matches!(s, SuiteState::InFlight))
                .expect("suite entry poisoned");
        }
        match &*state {
            // Cached, or served by the in-flight simulation this thread
            // waited on: a hit either way — this thread never simulated.
            SuiteState::Ready(cached) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if tgi_telemetry::enabled() {
                    tgi_telemetry::counter!("tgi_memo_hits_total").inc();
                }
                cached.clone()
            }
            _ => panic!("suite simulation panicked in another thread"),
        }
    }

    /// Simulates `key` as the single in-flight owner, publishing the result
    /// (or poisoning the slot on panic) and waking all waiters.
    fn simulate_into(
        &self,
        key: &SuiteKey,
        entry: &Arc<SuiteEntry>,
        workloads: &[Workload],
        processes: usize,
    ) -> CachedSuite {
        /// Unwind guard: if the simulation panics, poison the slot, wake
        /// every waiter, and drop the key so later calls can retry.
        struct Unpoison<'a> {
            key: &'a SuiteKey,
            cache: &'a Mutex<HashMap<SuiteKey, Arc<SuiteEntry>>>,
            entry: &'a Arc<SuiteEntry>,
            armed: bool,
        }
        impl Drop for Unpoison<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                if let Ok(mut state) = self.entry.state.lock() {
                    *state = SuiteState::Poisoned;
                }
                self.entry.ready.notify_all();
                if let Ok(mut map) = self.cache.lock() {
                    map.remove(self.key);
                }
            }
        }

        let mut guard = Unpoison { key, cache: &self.cache, entry, armed: true };
        self.simulations.fetch_add(1, Ordering::Relaxed);
        let sim_span = tgi_telemetry::span_cat("sim.run_suite", "cluster")
            .field("workloads", workloads.len())
            .field("processes", processes);
        let runs = Arc::new(self.engine.run_suite(workloads, processes));
        let measurements = Arc::new(runs.iter().map(|r| r.measurement()).collect::<Vec<_>>());
        sim_span.end();
        guard.armed = false;

        let cached = CachedSuite { runs, measurements };
        *entry.state.lock().expect("suite entry poisoned") = SuiteState::Ready(cached.clone());
        self.completed.fetch_add(1, Ordering::Relaxed);
        entry.ready.notify_all();
        cached
    }

    /// Runs the suite at one process count, returning the cached runs when
    /// this (workload set, process count) has been simulated before. Under
    /// concurrency, a missed key is simulated exactly once (single-flight).
    ///
    /// # Panics
    /// As [`ExecutionEngine::run`]: `processes` must be in
    /// `1..=total_cores`. Panics also if the in-flight simulation of the
    /// same key panicked in another thread.
    pub fn run_suite(&self, workloads: &[Workload], processes: usize) -> Arc<Vec<SimulatedRun>> {
        self.lookup(workloads, processes).runs
    }

    /// The suite's measurements at one process count — the same cache entry
    /// as [`MemoizedEngine::run_suite`], with the `Measurement` conversion
    /// done once at simulation time. Warm calls are allocation-free, which
    /// is what keeps sweep hot loops zero-allocation per point.
    ///
    /// # Panics
    /// As [`MemoizedEngine::run_suite`].
    pub fn suite_measurements(
        &self,
        workloads: &[Workload],
        processes: usize,
    ) -> Arc<Vec<Measurement>> {
        self.lookup(workloads, processes).measurements
    }

    /// Number of `run_suite`/`suite_measurements` calls served from the
    /// cache (including calls that waited on an in-flight simulation).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed) as usize
    }

    /// Number of calls that had to simulate.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed) as usize
    }

    /// Number of calls that found their key in flight and blocked on its
    /// completion instead of re-simulating.
    pub fn inflight_waits(&self) -> usize {
        self.inflight_waits.load(Ordering::Relaxed) as usize
    }

    /// Number of simulations actually executed.
    pub fn simulations(&self) -> usize {
        self.simulations.load(Ordering::Relaxed) as usize
    }

    /// Simulations that re-computed a key another simulation also computed
    /// — always 0 under single-flight (the invariant the fleet bench
    /// hard-asserts). Transiently counts in-flight simulations.
    pub fn duplicate_simulations(&self) -> usize {
        self.simulations
            .load(Ordering::Relaxed)
            .saturating_sub(self.completed.load(Ordering::Relaxed)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire_engine() -> ExecutionEngine {
        ExecutionEngine::new(ClusterSpec::fire())
    }

    #[test]
    fn hpl_run_matches_scaling_model() {
        let engine = fire_engine();
        let run = engine.run(Workload::Hpl { n: 40_960 }, 128);
        let expected = scaling::hpl_gflops(engine.cluster(), 128);
        assert!((run.performance.as_gflops() - expected).abs() < 1e-9);
        assert_eq!(run.benchmark, "hpl");
        // Fixed work: time = flops / rate.
        let flops = Workload::Hpl { n: 40_960 }.flops();
        assert!((run.seconds - flops / (expected * 1e9)).abs() < 1e-6 * run.seconds);
    }

    #[test]
    fn measured_power_is_within_cluster_envelope() {
        let engine = fire_engine();
        let node = &engine.cluster().power;
        let lo = 8.0 * node.idle_wall_power().value();
        let hi = 8.0 * node.peak_wall_power().value();
        for (w, p) in [
            (Workload::Hpl { n: 20_000 }, 64),
            (Workload::Stream { total_bytes: 1e12 }, 64),
            (Workload::Iozone { total_bytes: 1e10 }, 64),
        ] {
            let run = engine.run(w, p);
            let pw = run.average_power.value();
            // Allow the meter's 1.5% gain error beyond the envelope.
            assert!(pw > lo * 0.98 && pw < hi * 1.02, "{:?}: {pw} W", run.benchmark);
        }
    }

    #[test]
    fn more_processes_draw_more_power_for_hpl() {
        let engine = fire_engine();
        let low = engine.run(Workload::Hpl { n: 20_000 }, 16);
        let high = engine.run(Workload::Hpl { n: 20_000 }, 128);
        assert!(high.average_power.value() > low.average_power.value());
        // And finish faster.
        assert!(high.seconds < low.seconds);
    }

    #[test]
    fn hpl_energy_efficiency_rises_then_dips_at_full_load() {
        // The Fig. 2 shape: idle power amortizes over more performance up to
        // mid-scale; past ~64 processes the convex CPU power curve and the
        // Amdahl overhead term erode efficiency slightly.
        let engine = fire_engine();
        let ees: Vec<f64> = [16, 32, 48, 64, 128]
            .iter()
            .map(|&p| engine.run(Workload::Hpl { n: 20_000 }, p).energy_efficiency())
            .collect();
        assert!(ees[1] > ees[0] && ees[2] > ees[1] && ees[3] > ees[2], "rising: {ees:?}");
        let peak = ees.iter().cloned().fold(0.0, f64::max);
        assert!(ees[4] < peak, "full load dips below the peak: {ees:?}");
        assert!(ees[4] > 0.7 * peak, "the dip is mild: {ees:?}");
    }

    #[test]
    fn iozone_efficiency_peaks_then_declines() {
        // The Fig. 4 tail: aggregate throughput saturates near 6 clients;
        // beyond that, contention erodes throughput while active-node power
        // keeps rising, so EE dips from its peak.
        let engine = fire_engine();
        let ee6 = engine.run(Workload::Iozone { total_bytes: 6e10 }, 96).energy_efficiency();
        let ee8 = engine.run(Workload::Iozone { total_bytes: 6e10 }, 128).energy_efficiency();
        let ee2 = engine.run(Workload::Iozone { total_bytes: 6e10 }, 32).energy_efficiency();
        assert!(ee6 > ee2, "EE rises toward saturation: {ee2} vs {ee6}");
        assert!(ee8 < ee6, "IOzone EE should dip past saturation: {ee6} vs {ee8}");
    }

    #[test]
    fn energy_consistent_with_power_and_time() {
        let engine = fire_engine();
        let run = engine.run(Workload::Stream { total_bytes: 1e12 }, 64);
        let derived = run.average_power.value() * run.seconds;
        assert!(
            (run.energy_joules - derived).abs() < 1e-9 * derived,
            "energy {} vs derived {derived}",
            run.energy_joules
        );
        // And the trace's own integral agrees within the sample-boundary
        // truncation error (one 1 Hz interval on a ~7 s run).
        let integrated = engine.trace(Workload::Stream { total_bytes: 1e12 }, 64).energy().value();
        assert!(
            (run.energy_joules - integrated).abs() < 0.2 * run.energy_joules,
            "trace integral {integrated} far from {}",
            run.energy_joules
        );
    }

    #[test]
    fn measurement_conversion_round_trips() {
        let engine = fire_engine();
        let run = engine.run(Workload::Hpl { n: 20_000 }, 64);
        let m = run.measurement();
        assert_eq!(m.id(), "hpl");
        assert!((m.power().value() - run.average_power.value()).abs() < 1e-9);
        assert!((m.energy().value() - run.energy_joules).abs() < 1e-9);
    }

    #[test]
    fn long_runs_capped_trace_preserves_duration() {
        let engine = fire_engine();
        // A slow IOzone run: 60 GB at ~70 MB/s ≈ 857 s… make it much longer.
        let run = engine.run(Workload::Iozone { total_bytes: 2e12 }, 16);
        let trace = engine.trace(Workload::Iozone { total_bytes: 2e12 }, 16);
        assert!(trace.len() <= 8192 + 2);
        let dur = trace.duration().value();
        assert!(
            (dur - run.seconds).abs() < 0.02 * run.seconds + 2.0,
            "trace duration {dur} vs run {            }",
            run.seconds
        );
    }

    #[test]
    fn streamed_power_matches_the_retraced_samples_bit_for_bit() {
        // The oracle: a run's streamed average power and energy equal, to
        // the bit, what the re-metered trace of the same run reports, on
        // every engine axis that shapes the samples.
        let mut fleet_scale = ClusterSpec::system_g();
        fleet_scale.nodes = 2000;
        let cases = [
            ("plain", fire_engine(), Workload::Hpl { n: 40_000 }, 128),
            // Under a second: one sample, whose average is the plain mean.
            ("one sample", fire_engine(), Workload::Hpl { n: 1_000 }, 128),
            ("strided", fire_engine(), Workload::Iozone { total_bytes: 2e12 }, 16),
            (
                "thermal",
                fire_engine().with_thermal(power_model::ThermalModel::typical_server()),
                Workload::Hpl { n: 40_000 },
                128,
            ),
            (
                "run noise",
                fire_engine().with_run_noise(0.02, 7),
                Workload::Stream { total_bytes: 1e12 },
                64,
            ),
            ("dvfs", fire_engine().with_frequency_ratio(0.7), Workload::Hpl { n: 40_000 }, 128),
            (
                "pue",
                ExecutionEngine::new(ClusterSpec::fire().with_pue(1.5)),
                Workload::Iozone { total_bytes: 1e10 },
                64,
            ),
            (
                "fleet-scale ceiling",
                ExecutionEngine::new(fleet_scale),
                Workload::Hpl { n: 60_000 },
                1024,
            ),
        ];
        for (name, engine, w, p) in cases {
            let run = engine.run(w, p);
            let trace = engine.trace(w, p);
            let traced = trace.average_power().value();
            assert_eq!(run.average_power.value().to_bits(), traced.to_bits(), "{name}");
            assert_eq!(run.energy_joules.to_bits(), (traced * run.seconds).to_bits(), "{name}");
            match name {
                "strided" => assert!(trace.len() <= 8192 + 2 && trace.duration().value() > 8192.0),
                "one sample" => assert_eq!(trace.len(), 1),
                _ => {}
            }
        }
    }

    #[test]
    fn suite_runs_all_workloads() {
        let engine = fire_engine();
        let runs = engine.run_suite(&Workload::fire_suite(), 64);
        let ids: Vec<&str> = runs.iter().map(|r| r.benchmark).collect();
        assert_eq!(ids, vec!["hpl", "stream", "iozone"]);
    }

    #[test]
    fn memoized_engine_caches_per_workloads_and_processes() {
        let memo = MemoizedEngine::new(fire_engine());
        let suite = Workload::fire_suite();
        let a = memo.run_suite(&suite, 64);
        assert_eq!((memo.hits(), memo.misses()), (0, 1));
        let b = memo.run_suite(&suite, 64);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // Cached result is the same allocation, and equals a fresh run.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, fire_engine().run_suite(&suite, 64));
        // A different process count is a distinct key…
        let c = memo.run_suite(&suite, 32);
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
        assert!(!Arc::ptr_eq(&a, &c));
        // …and so is a different workload size at the same count.
        let resized = vec![Workload::Hpl { n: 20_000 }];
        memo.run_suite(&resized, 64);
        assert_eq!((memo.hits(), memo.misses()), (1, 3));
        memo.run_suite(&resized, 64);
        assert_eq!((memo.hits(), memo.misses()), (2, 3));
    }

    #[test]
    fn memoized_engine_exposes_wrapped_engine() {
        let memo = MemoizedEngine::new(fire_engine());
        assert_eq!(memo.engine().cluster().total_cores(), 128);
    }

    #[test]
    fn suite_measurements_share_the_cache_entry() {
        let memo = MemoizedEngine::new(fire_engine());
        let suite = Workload::fire_suite();
        let runs = memo.run_suite(&suite, 64);
        // Same key: the measurements were derived during that simulation.
        let m1 = memo.suite_measurements(&suite, 64);
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        let expected: Vec<Measurement> = runs.iter().map(|r| r.measurement()).collect();
        assert_eq!(*m1, expected);
        // Warm calls return the same allocation.
        let m2 = memo.suite_measurements(&suite, 64);
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!((memo.hits(), memo.misses()), (2, 1));
    }

    #[test]
    fn concurrent_misses_on_one_key_simulate_once() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let memo = Arc::new(MemoizedEngine::new(fire_engine()));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let memo = Arc::clone(&memo);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    memo.run_suite(&Workload::fire_suite(), 64)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Single-flight: exactly one thread simulated; everyone else hit
        // (waiting on the in-flight entry counts as a hit).
        assert_eq!(memo.simulations(), 1, "single-flight must simulate once");
        assert_eq!(memo.duplicate_simulations(), 0);
        assert_eq!(memo.misses(), 1);
        assert_eq!(memo.hits(), THREADS - 1);
        assert!(memo.inflight_waits() < THREADS);
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r), "all threads share one allocation");
        }
    }

    #[test]
    fn concurrent_misses_on_many_keys_simulate_each_once() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let cores: Vec<usize> = (1..=16).map(|i| 8 * i).collect();
        let memo = Arc::new(MemoizedEngine::new(fire_engine()));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (memo, barrier, cores) =
                    (Arc::clone(&memo), Arc::clone(&barrier), cores.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    // Each thread starts at a different key, so misses on
                    // distinct keys and waits on in-flight ones interleave.
                    for &c in cores.iter().cycle().skip(2 * t).take(cores.len()) {
                        memo.run_suite(&Workload::fire_suite(), c);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(memo.simulations(), cores.len());
        assert_eq!(memo.duplicate_simulations(), 0);
        assert_eq!(memo.misses(), cores.len());
        assert_eq!(memo.hits() + memo.misses(), THREADS * cores.len());
    }

    #[test]
    fn panicking_simulation_clears_its_slot_for_retry() {
        let memo = MemoizedEngine::new(fire_engine());
        let suite = Workload::fire_suite();
        // Oversubscribed process count: the wrapped engine panics mid-flight.
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.run_suite(&suite, 100_000)
        }));
        assert!(attempt.is_err());
        assert_eq!((memo.misses(), memo.simulations()), (1, 1));
        // The failed key was removed, not left poisoned forever: retrying
        // the same key misses again (and panics again, same reason).
        let retry = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.run_suite(&suite, 100_000)
        }));
        assert!(retry.is_err());
        assert_eq!((memo.misses(), memo.simulations()), (2, 2));
        // A valid key on the same engine still works.
        let runs = memo.run_suite(&suite, 64);
        assert_eq!(runs.len(), 3);
    }

    #[test]
    fn long_suites_spill_but_key_uniformly() {
        use std::hash::BuildHasher;
        // More workloads than the inline key capacity: lookups still match.
        let suite: Vec<Workload> =
            (0..KEY_INLINE + 3).map(|i| Workload::Hpl { n: 10_000 + 1_000 * i }).collect();
        let a = SuiteKey::new(&suite, 64);
        let b = SuiteKey::new(&suite, 64);
        assert_eq!(a, b);
        let state = std::collections::hash_map::RandomState::new();
        assert_eq!(state.hash_one(&a), state.hash_one(&b));
        // Differing only in a spilled slot is a different key.
        let mut other = suite.clone();
        other[KEY_INLINE + 1] = Workload::Hpl { n: 99_999 };
        assert_ne!(a, SuiteKey::new(&other, 64));
    }

    #[test]
    fn pue_multiplies_metered_power() {
        let base = fire_engine().run(Workload::Hpl { n: 20_000 }, 64);
        let dc = ExecutionEngine::new(ClusterSpec::fire().with_pue(1.5))
            .run(Workload::Hpl { n: 20_000 }, 64);
        let ratio = dc.average_power.value() / base.average_power.value();
        assert!((ratio - 1.5).abs() < 0.01, "PUE 1.5 should read ~1.5× power, got {ratio}");
        // Performance and time are untouched — PUE is facility overhead.
        assert_eq!(base.seconds, dc.seconds);
        assert_eq!(base.performance, dc.performance);
    }

    #[test]
    fn fleet_scale_cluster_meters_above_pdu_ceiling() {
        // 2000 SystemG-class nodes idle near half a megawatt — far above the
        // 60 kW PDU ceiling. The engine raises the meter ceiling with the
        // cluster envelope, so fleet-scale readings aren't clamped.
        let mut spec = ClusterSpec::system_g();
        spec.nodes = 2000;
        let run = ExecutionEngine::new(spec).run(Workload::Hpl { n: 60_000 }, 1024);
        assert!(
            run.average_power.value() > 60_000.0,
            "megawatt cluster must not clamp at the PDU ceiling: {} W",
            run.average_power.value()
        );
    }

    #[test]
    fn deterministic_given_same_engine_config() {
        let a = fire_engine().run(Workload::Hpl { n: 20_000 }, 64);
        let b = fire_engine().run(Workload::Hpl { n: 20_000 }, 64);
        assert_eq!(a.average_power, b.average_power);
        assert_eq!(a.energy_joules, b.energy_joules);
    }

    #[test]
    fn different_meters_disagree_slightly() {
        let a = ExecutionEngine::new(ClusterSpec::fire())
            .with_meter_serial(1)
            .run(Workload::Hpl { n: 20_000 }, 64);
        let b = ExecutionEngine::new(ClusterSpec::fire())
            .with_meter_serial(2)
            .run(Workload::Hpl { n: 20_000 }, 64);
        let rel =
            (a.average_power.value() - b.average_power.value()).abs() / a.average_power.value();
        assert!(rel < 0.035, "meters should agree within twice the gain spec");
        assert!(rel > 0.0, "distinct devices should not agree exactly");
    }

    #[test]
    #[should_panic(expected = "cannot run")]
    fn oversubscription_panics() {
        fire_engine().run(Workload::Hpl { n: 1000 }, 1000);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// For any combination of engine knobs (DVFS, noise, thermal) and
        /// any valid process count, every run stays physically sane: power
        /// within the cluster envelope (+fans), positive performance, and
        /// energy ≈ power × time.
        #[test]
        fn prop_engine_runs_physically_sane(
            procs in 1usize..=128,
            dvfs in 0.5..1.0f64,
            sigma in 0.0..0.03f64,
            seed in 0u64..50,
            thermal in proptest::bool::ANY,
            widx in 0usize..3,
        ) {
            let spec = ClusterSpec::fire();
            let mut engine = ExecutionEngine::new(spec.clone())
                .with_frequency_ratio(dvfs)
                .with_run_noise(sigma, seed);
            if thermal {
                engine = engine.with_thermal(power_model::ThermalModel::typical_server());
            }
            let w = Workload::fire_suite()[widx];
            let run = engine.run(w, procs);

            let node = &spec.power;
            let lo = spec.nodes as f64 * node.idle_wall_power().value();
            let fan_headroom = if thermal { spec.nodes as f64 * 48.0 } else { 0.0 };
            let hi = spec.nodes as f64 * node.peak_wall_power().value() + fan_headroom;
            let p = run.average_power.value();
            proptest::prop_assert!(p > lo * 0.97 && p < hi * 1.03, "power {p} outside [{lo}, {hi}]");
            proptest::prop_assert!(run.performance.value() > 0.0);
            proptest::prop_assert!(run.seconds > 0.0);
            let derived = run.average_power.value() * run.seconds;
            proptest::prop_assert!((run.energy_joules - derived).abs() < 1e-6 * derived);
        }
    }

    #[test]
    fn thermal_model_adds_warmup_ramp_and_fan_energy() {
        let hpl = Workload::Hpl { n: 40_000 };
        let flat_engine = fire_engine();
        let thermal_engine = ExecutionEngine::new(ClusterSpec::fire())
            .with_thermal(power_model::ThermalModel::typical_server());
        let flat = flat_engine.run(hpl, 128);
        let thermal = thermal_engine.run(hpl, 128);
        // Fans add power overall.
        assert!(
            thermal.average_power.value() > flat.average_power.value(),
            "thermal {} vs flat {}",
            thermal.average_power,
            flat.average_power
        );
        // And the trace ramps up early (warm-up) instead of being flat.
        let samples = thermal_engine.trace(hpl, 128).samples();
        let early = samples[1].watts;
        let late = samples[samples.len() / 2].watts;
        // 8 nodes' fans ramping from idle-cool to HPL-steady adds tens of
        // watts — far above the meter's ±0.05% sample jitter.
        assert!(late > early + 25.0, "warm-up ramp: {early} -> {late}");
        // The flat engine's trace varies only by meter jitter (< 1%).
        let f = flat_engine.trace(hpl, 128).samples();
        let spread = (f[f.len() / 2].watts - f[1].watts).abs();
        assert!(spread < 0.01 * f[1].watts, "flat trace spread {spread}");
    }

    #[test]
    fn run_noise_perturbs_reproducibly() {
        let quiet = fire_engine().run(Workload::Hpl { n: 20_000 }, 64);
        let noisy1 = ExecutionEngine::new(ClusterSpec::fire())
            .with_run_noise(0.02, 7)
            .run(Workload::Hpl { n: 20_000 }, 64);
        let noisy2 = ExecutionEngine::new(ClusterSpec::fire())
            .with_run_noise(0.02, 7)
            .run(Workload::Hpl { n: 20_000 }, 64);
        let noisy3 = ExecutionEngine::new(ClusterSpec::fire())
            .with_run_noise(0.02, 8)
            .run(Workload::Hpl { n: 20_000 }, 64);
        // Same seed reproduces; different seed differs; deviation is small.
        assert_eq!(noisy1.performance, noisy2.performance);
        assert_ne!(noisy1.performance, noisy3.performance);
        let rel = (noisy1.performance.as_gflops() / quiet.performance.as_gflops() - 1.0).abs();
        assert!(rel > 0.0 && rel < 0.15, "relative perturbation {rel}");
        // Work is fixed: perf × time is invariant.
        let work_quiet = quiet.performance.as_gflops() * quiet.seconds;
        let work_noisy = noisy1.performance.as_gflops() * noisy1.seconds;
        assert!((work_quiet - work_noisy).abs() < 1e-6 * work_quiet);
    }

    #[test]
    fn zero_sigma_noise_is_identity() {
        let a = fire_engine().run(Workload::Stream { total_bytes: 1e12 }, 32);
        let b = ExecutionEngine::new(ClusterSpec::fire())
            .with_run_noise(0.0, 1)
            .run(Workload::Stream { total_bytes: 1e12 }, 32);
        assert_eq!(a.performance, b.performance);
    }

    #[test]
    fn dvfs_slows_hpl_but_can_improve_its_energy() {
        let full = fire_engine().run(Workload::Hpl { n: 40_000 }, 128);
        let slow = ExecutionEngine::new(ClusterSpec::fire())
            .with_frequency_ratio(0.7)
            .run(Workload::Hpl { n: 40_000 }, 128);
        // Linear performance loss…
        assert!((slow.performance.as_gflops() / full.performance.as_gflops() - 0.7).abs() < 1e-9);
        // …cubic dynamic-power saving.
        assert!(slow.average_power.value() < full.average_power.value());
        // Energy per fixed job: runtime grew 1/0.7x but power dropped more
        // at the dynamic margin — the classic DVFS trade-off is visible
        // either way; just require both energies to be positive and within
        // 2x of each other (the sweep bench maps the actual optimum).
        let ratio = slow.energy_joules / full.energy_joules;
        assert!(ratio > 0.5 && ratio < 2.0, "energy ratio {ratio}");
    }

    #[test]
    fn dvfs_leaves_memory_and_io_performance_alone() {
        let full = fire_engine();
        let slow = ExecutionEngine::new(ClusterSpec::fire()).with_frequency_ratio(0.6);
        for w in [Workload::Stream { total_bytes: 1e12 }, Workload::Iozone { total_bytes: 1e10 }] {
            let a = full.run(w, 64);
            let b = slow.run(w, 64);
            assert_eq!(a.performance, b.performance);
            assert!(b.average_power.value() <= a.average_power.value() + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "DVFS range")]
    fn absurd_frequency_ratio_panics() {
        let _ = ExecutionEngine::new(ClusterSpec::fire()).with_frequency_ratio(3.0);
    }

    #[test]
    fn gpu_cluster_speeds_up_hpl_at_higher_power() {
        let cpu_run = fire_engine().run(Workload::Hpl { n: 40_000 }, 128);
        let gpu_run =
            ExecutionEngine::new(ClusterSpec::fire_gpu()).run(Workload::Hpl { n: 40_000 }, 128);
        // ~6× the performance…
        assert!(gpu_run.performance.as_gflops() > 5.0 * cpu_run.performance.as_gflops());
        // …at clearly higher wall power (16 Fermi boards at full tilt)…
        assert!(
            gpu_run.average_power.value() > cpu_run.average_power.value() + 2_000.0,
            "gpu {} vs cpu {}",
            gpu_run.average_power,
            cpu_run.average_power
        );
        // …which still nets out to better HPL energy efficiency.
        assert!(gpu_run.energy_efficiency() > cpu_run.energy_efficiency());
    }

    #[test]
    fn gpu_cluster_does_not_change_stream_or_iozone_performance() {
        let fire = fire_engine();
        let gpu = ExecutionEngine::new(ClusterSpec::fire_gpu());
        for w in [Workload::Stream { total_bytes: 1e12 }, Workload::Iozone { total_bytes: 1e10 }] {
            let a = fire.run(w, 64);
            let b = gpu.run(w, 64);
            assert_eq!(a.performance, b.performance, "{:?}", a.benchmark);
            // But the GPU hosts idle hotter, so the same work costs more.
            assert!(b.average_power.value() > a.average_power.value());
        }
    }
}
