//! Background power sampling for *native* benchmark runs.
//!
//! When a kernel executes for real on the local machine, nothing knows its
//! power draw a priori: a sampler thread polls a [`PowerSource`] while the
//! workload runs — exactly how a logging wall meter is used in practice —
//! and the resulting [`PowerTrace`] is integrated into energy.
//!
//! [`ModeledSource`] implements the source by reading this process's actual
//! CPU utilization from `/proc` (falling back to a constant on other
//! platforms) and evaluating a [`NodePowerModel`] at it.

use crate::anomaly::{AnomalyConfig, AnomalyDetector, AnomalyEvent};
use crate::node::NodePowerModel;
use crate::trace::PowerTrace;
use crate::utilization::UtilizationSample;
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tgi_core::Watts;
use tgi_trace_store::{check_sample, StoreError};

/// Inline anomaly watching for a sampler thread: every sample flows
/// through an [`AnomalyDetector`], closed events become telemetry
/// instants (`power.anomaly`) plus the `tgi_power_anomalies_total`
/// counter, and the full event list rides back on `stop`.
struct SampleWatch {
    detector: AnomalyDetector,
    events: Vec<AnomalyEvent>,
}

impl SampleWatch {
    fn new(config: Option<AnomalyConfig>) -> Option<Self> {
        config.map(|c| SampleWatch { detector: AnomalyDetector::new(c), events: Vec::new() })
    }

    fn push(&mut self, t: f64, watts: f64) {
        let seen = self.events.len();
        self.detector.push(t, watts, &mut self.events);
        self.publish(seen);
    }

    fn finish(mut self) -> Vec<AnomalyEvent> {
        let seen = self.events.len();
        self.detector.finish(&mut self.events);
        self.publish(seen);
        self.events
    }

    /// Publishes the events closed since the first `seen`.
    fn publish(&self, seen: usize) {
        for event in &self.events[seen..] {
            if tgi_telemetry::enabled() {
                tgi_telemetry::counter!("tgi_power_anomalies_total").inc();
            }
            tgi_telemetry::instant("power.anomaly")
                .field("kind", event.kind.label())
                .field("start", event.start)
                .field("end", event.end)
                .field("severity", event.severity)
                .end();
        }
    }
}

/// Something whose instantaneous power can be polled.
pub trait PowerSource: Send + Sync {
    /// The current wall power.
    fn power_now(&self) -> Watts;
}

/// A constant-power source (tests, idle baselines).
#[derive(Debug, Clone, Copy)]
pub struct ConstantSource(pub f64);

impl PowerSource for ConstantSource {
    fn power_now(&self) -> Watts {
        Watts::new(self.0)
    }
}

/// Evaluates a node power model at the *measured* CPU utilization of this
/// process (Linux: `/proc/self/stat` utime+stime deltas against wall time).
pub struct ModeledSource {
    model: NodePowerModel,
    state: Mutex<CpuTimeState>,
    /// Utilization assumed for non-CPU subsystems while a kernel runs.
    pub assumed: UtilizationSample,
}

struct CpuTimeState {
    last_cpu: f64,
    last_wall: Instant,
    cores: f64,
}

impl ModeledSource {
    /// Creates a source for the given node model.
    pub fn new(model: NodePowerModel) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get() as f64).unwrap_or(1.0);
        ModeledSource {
            model,
            state: Mutex::new(CpuTimeState {
                last_cpu: process_cpu_seconds().unwrap_or(0.0),
                last_wall: Instant::now(),
                cores,
            }),
            assumed: UtilizationSample::IDLE,
        }
    }

    /// Sets the assumed non-CPU utilization (e.g. memory-bound kernels).
    pub fn with_assumed(mut self, assumed: UtilizationSample) -> Self {
        self.assumed = assumed;
        self
    }

    /// Measures CPU utilization since the previous call, in `[0, 1]` of the
    /// whole machine.
    pub fn cpu_utilization(&self) -> f64 {
        // Every update below leaves the state valid, so a poisoned lock is
        // still usable.
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let now_cpu = match process_cpu_seconds() {
            Some(v) => v,
            None => return 0.5, // non-Linux fallback: assume half load
        };
        let now_wall = Instant::now();
        let wall_dt = now_wall.duration_since(st.last_wall).as_secs_f64();
        let cpu_dt = now_cpu - st.last_cpu;
        st.last_cpu = now_cpu;
        st.last_wall = now_wall;
        if wall_dt <= 0.0 {
            return 0.0;
        }
        (cpu_dt / wall_dt / st.cores).clamp(0.0, 1.0)
    }
}

impl PowerSource for ModeledSource {
    fn power_now(&self) -> Watts {
        let cpu = self.cpu_utilization();
        let u = UtilizationSample::new(
            cpu.max(self.assumed.cpu),
            self.assumed.memory,
            self.assumed.disk,
            self.assumed.network,
        );
        self.model.wall_power(u)
    }
}

/// Reads this process's cumulative CPU time (user+system) in seconds.
fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14 and 15 (utime, stime) in clock ticks; the command name can
    // contain spaces but is parenthesized, so split after the last ')'.
    let after = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // CLK_TCK is effectively always 100 on Linux.
    Some((utime + stime) / 100.0)
}

/// Where a sampler thread records. Sealed: the sinks are [`PowerTrace`]
/// (in memory) and [`StoreBackedTrace`](crate::persist::StoreBackedTrace)
/// (on disk, every sample write-ahead logged).
mod sink {
    use crate::persist::StoreBackedTrace;
    use crate::trace::{PowerTrace, TraceQuery};
    use tgi_core::Watts;
    use tgi_trace_store::StoreError;

    pub trait SampleSink: TraceQuery + Send + 'static {
        /// Appends one validated sample whose time continues the sink.
        fn record(&mut self, t: f64, w: f64) -> Result<(), StoreError>;

        /// Makes every recorded sample durable.
        fn sync(&mut self) -> Result<(), StoreError> {
            Ok(())
        }
    }

    impl SampleSink for PowerTrace {
        fn record(&mut self, t: f64, w: f64) -> Result<(), StoreError> {
            self.push_unvalidated(t, w);
            Ok(())
        }
    }

    impl SampleSink for StoreBackedTrace {
        fn record(&mut self, t: f64, w: f64) -> Result<(), StoreError> {
            self.push(t, Watts::new(w))
        }

        fn sync(&mut self) -> Result<(), StoreError> {
            self.store_mut().sync()
        }
    }
}

/// A sampler thread recording a [`PowerSource`] at a fixed interval into
/// a sink: a [`PowerTrace`] by default, or a
/// [`StoreBackedTrace`](crate::persist::StoreBackedTrace) for captures too
/// long to hold in memory.
pub struct BackgroundSampler<S = PowerTrace> {
    stop: SyncSender<()>,
    handle: JoinHandle<Result<(S, Vec<AnomalyEvent>), StoreError>>,
}

impl BackgroundSampler {
    /// Starts sampling `source` every `interval` into a fresh in-memory
    /// trace.
    pub fn start(source: Arc<dyn PowerSource>, interval: Duration) -> Self {
        // Typical native runs take a few seconds at millisecond intervals.
        Self::start_into(PowerTrace::with_capacity(256), source, interval, None)
    }

    /// Stops sampling and returns the recorded trace.
    ///
    /// # Panics
    /// If the source produced an invalid reading (see
    /// [`BackgroundSampler::start_into`]).
    pub fn stop(self) -> PowerTrace {
        self.stop_with_anomalies().expect("power source produced an invalid reading").0
    }
}

impl<S: sink::SampleSink> BackgroundSampler<S> {
    /// Starts sampling `source` every `interval` into `sink`, a
    /// [`PowerTrace`] or a [`StoreBackedTrace`](crate::persist::StoreBackedTrace).
    /// Timestamps continue from the sink's last sample, so a resumed
    /// capture stays monotone. The thread records a first sample at once
    /// and a final one on stop, then syncs the sink before
    /// [`Self::stop_with_anomalies`] returns.
    ///
    /// Every reading must be a finite, non-negative wattage: the first
    /// that is not ends the capture with [`StoreError::InvalidSample`]
    /// (its `index` counts this capture's readings), in either sink.
    ///
    /// With `watch` set, every sample also flows through an inline
    /// [`AnomalyDetector`]: closed anomalies are emitted as
    /// `power.anomaly` telemetry instants at once, and
    /// [`Self::stop_with_anomalies`] returns the full list.
    pub fn start_into(
        mut sink: S,
        source: Arc<dyn PowerSource>,
        interval: Duration,
        watch: Option<AnomalyConfig>,
    ) -> Self {
        assert!(interval > Duration::ZERO, "sampling interval must be positive");
        let (stop_tx, stop_rx) = sync_channel::<()>(1);
        let handle = std::thread::spawn(move || {
            let session_span = tgi_telemetry::span_cat("sampler.session", "power")
                .field("interval_secs", interval.as_secs_f64());
            let offset = sink.time_bounds()?.map_or(0.0, |(_, last)| last);
            let mut watch = SampleWatch::new(watch);
            let mut readings = 0usize;
            let mut sample = |sink: &mut S, t: f64| {
                let w = source.power_now().value();
                check_sample(offset + t, w, f64::NEG_INFINITY)
                    .map_err(|detail| StoreError::InvalidSample { index: readings, detail })?;
                sink.record(offset + t, w)?;
                readings += 1;
                if let Some(watch) = &mut watch {
                    watch.push(offset + t, w);
                }
                if tgi_telemetry::enabled() {
                    tgi_telemetry::counter!("tgi_sampler_samples_total").inc();
                }
                Ok(())
            };
            let start = Instant::now();
            let mut last_sample = start;
            let mut result = sample(&mut sink, 0.0);
            while result.is_ok() {
                // Wait for the interval or a stop signal, whichever first;
                // a sampler dropped without `stop` ends the capture too.
                if !matches!(stop_rx.recv_timeout(interval), Err(RecvTimeoutError::Timeout)) {
                    break;
                }
                result = sample(&mut sink, start.elapsed().as_secs_f64());
                if tgi_telemetry::enabled() {
                    // An overrun means the cadence slipped: the gap since the
                    // previous sample spans what should have been 2+ samples,
                    // so the trace under-resolves the power curve there.
                    let gap = last_sample.elapsed();
                    if gap > interval * 2 {
                        tgi_telemetry::counter!("tgi_sampler_overruns_total").inc();
                        tgi_telemetry::instant("sampler.overrun")
                            .field("gap_secs", gap.as_secs_f64())
                            .end();
                    }
                }
                last_sample = Instant::now();
            }
            if result.is_ok() {
                // Final sample so the trace covers the full duration, then
                // force it to disk.
                result =
                    sample(&mut sink, start.elapsed().as_secs_f64()).and_then(|()| sink.sync());
            }
            session_span.field("samples", readings).end();
            let anomalies = watch.map(SampleWatch::finish).unwrap_or_default();
            result.map(|()| (sink, anomalies))
        });
        BackgroundSampler { stop: stop_tx, handle }
    }

    /// Stops sampling and returns the sink, synced through the last
    /// sample, plus the anomalies the inline detector flagged (always
    /// empty without a `watch` config) — or the error that ended the
    /// capture.
    pub fn stop_with_anomalies(self) -> Result<(S, Vec<AnomalyEvent>), StoreError> {
        let _ = self.stop.send(());
        self.handle.join().expect("sampler thread must not panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::StoreBackedTrace;
    use crate::trace::TraceQuery;

    #[test]
    fn constant_source_sampled() {
        let sampler =
            BackgroundSampler::start(Arc::new(ConstantSource(250.0)), Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(80));
        let trace = sampler.stop();
        assert!(trace.len() >= 3, "expected several samples, got {}", trace.len());
        assert!((trace.average_power().value() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn trace_covers_elapsed_time() {
        let sampler =
            BackgroundSampler::start(Arc::new(ConstantSource(100.0)), Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(50));
        let trace = sampler.stop();
        assert!(trace.duration().value() >= 0.045);
    }

    #[test]
    fn dropped_sampler_thread_exits() {
        let source = Arc::new(ConstantSource(100.0));
        drop(BackgroundSampler::start(Arc::clone(&source) as _, Duration::from_millis(1)));
        // The thread holds the other reference until it returns.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&source) > 1 {
            assert!(Instant::now() < deadline, "sampler thread outlived its handle");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn immediate_stop_still_yields_trace() {
        let sampler =
            BackgroundSampler::start(Arc::new(ConstantSource(100.0)), Duration::from_millis(500));
        let trace = sampler.stop();
        assert!(trace.len() >= 2); // initial + final sample
    }

    #[test]
    fn streaming_sampler_records_into_store() {
        use tgi_trace_store::StoreConfig;
        let dir = std::env::temp_dir().join(format!("tgi_stream_sampler_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig { chunk_samples: 16, retain_seconds: None };
        let store = StoreBackedTrace::open(&dir, config.clone()).unwrap();
        let sampler = BackgroundSampler::start_into(
            store,
            Arc::new(ConstantSource(250.0)),
            Duration::from_millis(5),
            None,
        );
        std::thread::sleep(Duration::from_millis(60));
        let (store, _) = sampler.stop_with_anomalies().unwrap();
        assert!(store.len() >= 3, "expected several samples, got {}", store.len());
        let avg = TraceQuery::average_power(&store).unwrap().value();
        assert!((avg - 250.0).abs() < 1e-9, "streamed average {avg}");
        // The store is durable: a reopen (fresh process) sees the samples.
        let n = store.len();
        let (_, last) = store.time_bounds().unwrap();
        drop(store);
        let store = StoreBackedTrace::open(&dir, config).unwrap();
        assert_eq!(store.len(), n);
        // A second capture into the reopened store resumes its timeline
        // (a timestamp restarting at 0 would be rejected as backwards).
        let sampler = BackgroundSampler::start_into(
            store,
            Arc::new(ConstantSource(250.0)),
            Duration::from_millis(5),
            None,
        );
        let (store, _) = sampler.stop_with_anomalies().unwrap();
        assert!(store.len() >= n + 2);
        assert!(store.time_bounds().unwrap().1 >= last);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reads 100 W, except -5 W on its third poll.
    struct NegativeBlip(std::sync::atomic::AtomicUsize);

    impl PowerSource for NegativeBlip {
        fn power_now(&self) -> Watts {
            let n = self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Watts::new(if n == 2 { -5.0 } else { 100.0 })
        }
    }

    /// Captures into `sink` until the blip has been read; the error that
    /// ended the capture.
    fn blip_error<S: sink::SampleSink>(sink: S) -> StoreError {
        let source = Arc::new(NegativeBlip(Default::default()));
        let interval = Duration::from_millis(1);
        let sampler = BackgroundSampler::start_into(sink, Arc::clone(&source) as _, interval, None);
        while source.0.load(std::sync::atomic::Ordering::Relaxed) < 3 {
            std::thread::sleep(interval);
        }
        sampler.stop_with_anomalies().err().expect("a negative reading ends the capture")
    }

    #[test]
    fn invalid_reading_ends_the_capture_in_either_sink() {
        // (`Watts::new` already rejects non-finite readings in debug
        // builds; the sampler's check covers those in release.)
        let err = blip_error(PowerTrace::new());
        assert!(matches!(err, StoreError::InvalidSample { index: 2, .. }), "memory sink: {err}");
        let dir = std::env::temp_dir().join(format!("tgi_faulty_sampler_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let err = blip_error(StoreBackedTrace::open(&dir, Default::default()).unwrap());
        assert!(matches!(err, StoreError::InvalidSample { index: 2, .. }), "store sink: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A source whose output is a pure function of how many times it has
    /// been polled: noisy 200 W base with a 900 W burst at polls
    /// 300..=302. Timing-independent, so anomaly assertions are exact.
    struct ScriptedSource(std::sync::atomic::AtomicUsize);

    impl ScriptedSource {
        fn polls(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl PowerSource for ScriptedSource {
        fn power_now(&self) -> Watts {
            let n = self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if (300..=302).contains(&n) {
                return Watts::new(900.0);
            }
            // Deterministic quantized noise, ±2 W around 200 W.
            let mut z = (n as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let u = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
            Watts::new(200.0 + ((u * 4.0 - 2.0) * 10.0).round() / 10.0)
        }
    }

    #[test]
    fn watched_sampler_flags_injected_spike_and_nothing_else() {
        let source = Arc::new(ScriptedSource(std::sync::atomic::AtomicUsize::new(0)));
        let sampler = BackgroundSampler::start_into(
            PowerTrace::new(),
            Arc::clone(&source) as Arc<dyn PowerSource>,
            Duration::from_micros(200),
            Some(crate::anomaly::AnomalyConfig::default()),
        );
        while source.polls() < 500 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let (trace, anomalies) = sampler.stop_with_anomalies().unwrap();
        assert!(trace.len() >= 500);
        let spikes: Vec<_> =
            anomalies.iter().filter(|e| e.kind == crate::anomaly::AnomalyKind::Spike).collect();
        assert_eq!(spikes.len(), 1, "exactly the injected burst: {anomalies:?}");
        assert!((spikes[0].value - 900.0).abs() < 1e-9);
        assert!(
            anomalies.iter().all(|e| e.kind != crate::anomaly::AnomalyKind::Drift),
            "a level spike must not read as drift: {anomalies:?}"
        );
        // Gap dropouts are tolerated here: wall-clock scheduling jitter
        // on a loaded machine can legitimately stretch the cadence.
        assert!(
            anomalies
                .iter()
                .all(|e| e.kind == crate::anomaly::AnomalyKind::Spike || e.samples == 0),
            "only timing gaps may accompany the spike: {anomalies:?}"
        );
        // The unwatched API still works and reports nothing.
        let sampler =
            BackgroundSampler::start(Arc::new(ConstantSource(100.0)), Duration::from_millis(5));
        let (_, anomalies) = sampler.stop_with_anomalies().unwrap();
        assert!(anomalies.is_empty());
    }

    #[test]
    fn process_cpu_time_is_monotone_on_linux() {
        if let Some(a) = process_cpu_seconds() {
            // Burn a little CPU.
            let mut x = 0u64;
            for i in 0..5_000_000u64 {
                x = x.wrapping_add(i).rotate_left(7);
            }
            assert!(x != 0);
            let b = process_cpu_seconds().unwrap();
            assert!(b >= a);
        }
    }

    #[test]
    fn modeled_source_produces_plausible_power() {
        let src = ModeledSource::new(NodePowerModel::fire_node());
        let p = src.power_now().value();
        let node = NodePowerModel::fire_node();
        assert!(p >= node.idle_wall_power().value() - 1e-9);
        assert!(p <= node.peak_wall_power().value() + 1e-9);
    }

    #[test]
    fn modeled_source_rises_under_load() {
        let src = Arc::new(
            ModeledSource::new(NodePowerModel::fire_node()).with_assumed(UtilizationSample::IDLE),
        );
        // First reading establishes a baseline window.
        let _ = src.power_now();
        // Burn CPU on all threads for a bit.
        let burn_until = Instant::now() + Duration::from_millis(120);
        let workers: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut x = 1u64;
                    while Instant::now() < burn_until {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    x
                })
            })
            .collect();
        for w in workers {
            let _ = w.join();
        }
        let loaded = src.power_now().value();
        let idle_model = NodePowerModel::fire_node().idle_wall_power().value();
        assert!(
            loaded >= idle_model,
            "loaded power {loaded} should be at or above idle {idle_model}"
        );
    }

    #[test]
    fn cpu_utilization_bounded() {
        let src = ModeledSource::new(NodePowerModel::fire_node());
        for _ in 0..3 {
            let u = src.cpu_utilization();
            assert!((0.0..=1.0).contains(&u));
        }
    }
}
