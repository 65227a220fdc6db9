//! Shared server state and the request router.
//!
//! [`ServerState`] owns the data plane: node traces sharded across
//! independently locked maps (ingest for node A never contends with a
//! query for node B on another shard), one cached [`TgiEvaluator`] bound
//! to the reference system for the process lifetime, and a pool of
//! [`EvalScratch`] buffers so concurrent `/evaluate` requests reuse warm
//! allocations instead of building fresh ones.
//!
//! Every request body crosses a *validated* deserialization boundary
//! before touching state: power samples go through `PowerTrace`'s
//! validating `Deserialize` (NaN/negative/backwards samples are a 400,
//! never a poisoned prefix index), and measurement suites go through
//! [`Measurement::new`]'s typed checks. Handlers return typed JSON errors;
//! nothing in this module panics on user input.

use crate::http::{Request, Response};
use crate::slo::{Endpoint, SloTracker};
use power_model::fleet::TraceSet;
use power_model::{
    AnomalyConfig, AnomalyCounts, AnomalyDetector, AnomalyEvent, PowerTrace, StoreBackedTrace,
    TraceQuery,
};
use serde::{Serialize, Value};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use tgi_core::evaluator::{EvalScratch, TgiEvaluator};
use tgi_core::{MeanKind, Measurement, Perf, PerfUnit, ReferenceSystem, Seconds, Watts, Weighting};
use tgi_trace_store::{StoreConfig, StoreError};

/// Tunables for a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads serving connections. Defaults to the rayon shim's
    /// pool width, so the service and the compute pool are sized together.
    pub workers: usize,
    /// Trace shards (independently locked). More shards, less contention.
    pub shards: usize,
    /// Accepted-connection queue capacity — the backpressure bound; beyond
    /// it the acceptor answers `429` instead of queueing.
    pub queue_capacity: usize,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
    /// When set, traces persist to compressed `tgi-trace-store` stores
    /// under this directory (one subdirectory per node) instead of living
    /// only in memory; existing stores are recovered on startup.
    pub data_dir: Option<PathBuf>,
    /// Samples per sealed store chunk in `--data-dir` mode.
    pub store_chunk_samples: usize,
    /// When set, the tgi-telemetry flight recorder is enabled at startup
    /// with this per-thread ring capacity, and `GET /debug/flight` dumps
    /// it. `None` leaves the process-global recorder untouched (tests
    /// sharing a process must not fight over it; the `tgi-server` binary
    /// turns it on).
    pub flight_recorder_capacity: Option<usize>,
    /// Detector tuning for the per-node online anomaly watch and the
    /// post-hoc `GET /traces/{node}/anomalies` scans.
    pub anomaly: AnomalyConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: rayon::current_num_threads().max(2),
            shards: 16,
            queue_capacity: 1024,
            max_body_bytes: 4 * 1024 * 1024,
            data_dir: None,
            store_chunk_samples: StoreConfig::default().chunk_samples,
            flight_recorder_capacity: None,
            anomaly: AnomalyConfig::default(),
        }
    }
}

/// One node's trace: a [`PowerTrace`] in memory (the default) or a
/// [`StoreBackedTrace`] on disk (`--data-dir` mode). Handlers read it
/// through [`TraceQuery`]; only ingest durability and the `/healthz`
/// disk stats differ between the two.
trait NodeTrace: TraceQuery + Send {
    /// Appends a pre-validated, timeline-continuing batch and (in stored
    /// mode) makes it durable before the caller acknowledges it.
    fn append_batch(&mut self, times: &[f64], watts: &[f64]) -> Result<(), StoreError>;

    /// `(sealed chunks, disk bytes)` of a stored trace; `None` in memory.
    fn disk_usage(&self) -> Option<(u64, u64)> {
        None
    }
}

impl NodeTrace for PowerTrace {
    fn append_batch(&mut self, times: &[f64], watts: &[f64]) -> Result<(), StoreError> {
        self.extend_from_slices(times, watts);
        Ok(())
    }
}

impl NodeTrace for StoreBackedTrace {
    fn append_batch(&mut self, times: &[f64], watts: &[f64]) -> Result<(), StoreError> {
        self.extend_from_slices(times, watts)?;
        // A 200 promises the batch survives a crash: fsync the WAL tail
        // (sealed chunks were already synced by the append).
        self.store_mut().sync()
    }

    fn disk_usage(&self) -> Option<(u64, u64)> {
        Some((self.store().sealed_chunks() as u64, self.store().disk_bytes()))
    }
}

/// The whole trace, materialized in memory.
fn materialize(trace: &dyn TraceQuery) -> Result<PowerTrace, StoreError> {
    trace.window(f64::NEG_INFINITY, f64::INFINITY)
}

/// Recent anomaly events kept live per node (older ones stay queryable
/// post-hoc through the trace scan; this bound only caps hot memory).
const RECENT_ANOMALIES: usize = 256;

/// The online anomaly watch riding along a node's trace: one O(1)-state
/// detector fed at ingest, plus a bounded deque of the most recent
/// events for the health/anomaly endpoints.
struct NodeWatch {
    detector: AnomalyDetector,
    recent: VecDeque<AnomalyEvent>,
}

impl NodeWatch {
    fn new(config: AnomalyConfig) -> Self {
        NodeWatch { detector: AnomalyDetector::new(config), recent: VecDeque::new() }
    }

    /// Feeds one validated batch through the detector; returns how many
    /// anomaly events the batch closed.
    fn observe_batch(&mut self, times: &[f64], watts: &[f64]) -> usize {
        let mut events = Vec::new();
        for (&t, &w) in times.iter().zip(watts) {
            self.detector.push(t, w, &mut events);
        }
        let closed = events.len();
        for event in events {
            if self.recent.len() == RECENT_ANOMALIES {
                self.recent.pop_front();
            }
            self.recent.push_back(event);
        }
        closed
    }
}

/// One node's full server-side state: the trace plus its anomaly watch.
struct NodeEntry {
    trace: Box<dyn NodeTrace>,
    watch: NodeWatch,
}

/// Where `--data-dir` mode keeps its per-node stores.
struct StoreRoot {
    dir: PathBuf,
    config: StoreConfig,
}

/// The shared, thread-safe data plane behind every worker.
pub struct ServerState {
    shards: Vec<Mutex<HashMap<String, NodeEntry>>>,
    store: Option<StoreRoot>,
    evaluator: TgiEvaluator<'static>,
    scratch_pool: Mutex<Vec<EvalScratch>>,
    max_body_bytes: usize,
    draining: AtomicBool,
    anomaly_config: AnomalyConfig,
    /// Anomaly events closed by online detection since startup, across
    /// every node (cheap aggregate for `/healthz`).
    anomalies_detected: AtomicU64,
    slo: SloTracker,
}

#[derive(Serialize)]
struct IngestResponse {
    node: String,
    appended: usize,
    samples: usize,
    energy_j: f64,
}

#[derive(Serialize)]
struct EnergyResponse {
    node: String,
    from: f64,
    to: f64,
    energy_j: f64,
    average_w: f64,
    samples: usize,
}

#[derive(Serialize)]
struct NodeInfo {
    node: String,
    samples: usize,
    duration_s: f64,
    energy_j: f64,
}

#[derive(Serialize)]
struct ListResponse {
    nodes: Vec<NodeInfo>,
    total_samples: usize,
    total_energy_j: f64,
}

#[derive(Serialize)]
struct AnomaliesResponse {
    node: String,
    from: f64,
    to: f64,
    /// Events from the post-hoc scan over the requested window.
    events: Vec<AnomalyEvent>,
    /// Per-kind totals of `events`.
    counts: AnomalyCounts,
    /// Lifetime counts from the node's online detector (this process).
    live: AnomalyCounts,
    /// Most recent events the online detector closed (bounded buffer).
    recent: Vec<AnomalyEvent>,
}

#[derive(Serialize)]
struct EvaluateResponse {
    tgi: f64,
    reference: String,
    weighting: String,
    mean: String,
    benchmarks: Vec<String>,
    rees: Vec<f64>,
    weights: Vec<f64>,
}

/// The optional `from`/`to` query bounds of a trace query; a 400 for a
/// bound that is not a number `accept` allows.
fn query_bounds(
    request: &Request,
    accept: fn(f64) -> bool,
) -> Result<(Option<f64>, Option<f64>), Response> {
    let bound = |key: &str| match request.query_value(key) {
        None => Ok(None),
        Some(raw) => match raw.parse::<f64>() {
            Ok(v) if accept(v) => Ok(Some(v)),
            _ => Err(Response::error(
                400,
                &format!("query parameter `{key}` must be a finite number, got `{raw}`"),
            )),
        },
    };
    Ok((bound("from")?, bound("to")?))
}

/// The 500 for a stored trace that failed a read.
fn store_failure(node: &str, e: StoreError) -> Response {
    Response::error(500, &format!("store query for `{node}` failed: {e}"))
}

fn json_response<T: Serialize>(status: u16, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(status, body),
        Err(e) => Response::error(500, &format!("response serialization failed: {e}")),
    }
}

/// A node label usable as a path segment, shard key, and (in `--data-dir`
/// mode) directory name: non-empty, ≤ 128 bytes, `[A-Za-z0-9._-]` only.
/// `.` and `..` are excluded explicitly — the character set admits them,
/// but as directory names they would escape the per-node layout.
fn valid_node_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name != "."
        && name != ".."
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// Maps a node name to its shard slot (stable across restarts within one
/// build; persistence does not depend on it — recovery re-hashes names).
fn shard_index(node: &str, shards: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    node.hash(&mut hasher);
    (hasher.finish() as usize) % shards
}

impl ServerState {
    /// Builds the state, caching one evaluator over `reference` for the
    /// process lifetime (the reference is intentionally leaked: the
    /// evaluator borrows it, and a server's reference lives as long as the
    /// process serves `/evaluate`).
    ///
    /// With `config.data_dir` set, the directory is created if needed and
    /// every existing per-node store under it is recovered (WAL replay,
    /// torn-tail truncation) before the server accepts traffic; a store
    /// that cannot be opened fails startup instead of silently serving a
    /// partial fleet.
    pub fn new(config: &ServerConfig, reference: ReferenceSystem) -> io::Result<Self> {
        let reference: &'static ReferenceSystem = Box::leak(Box::new(reference));
        if let Some(capacity) = config.flight_recorder_capacity {
            tgi_telemetry::recorder::enable(capacity);
        }
        let shard_count = config.shards.max(1);
        let mut shards: Vec<Mutex<HashMap<String, NodeEntry>>> =
            (0..shard_count).map(|_| Mutex::new(HashMap::new())).collect();
        let store = match &config.data_dir {
            None => None,
            Some(dir) => {
                let store_config = StoreConfig {
                    chunk_samples: config.store_chunk_samples.max(2),
                    ..StoreConfig::default()
                };
                std::fs::create_dir_all(dir)?;
                for entry in std::fs::read_dir(dir)? {
                    let entry = entry?;
                    if !entry.file_type()?.is_dir() {
                        continue;
                    }
                    let name = match entry.file_name().into_string() {
                        Ok(n) if valid_node_name(&n) => n,
                        _ => continue,
                    };
                    let backed = StoreBackedTrace::open(entry.path(), store_config.clone())
                        .map_err(|e| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("recovering store for node `{name}`: {e}"),
                            )
                        })?;
                    // Recovered nodes restart their online detector from
                    // a clean slate; history stays queryable through the
                    // post-hoc scan over the store.
                    shards[shard_index(&name, shard_count)]
                        .get_mut()
                        .expect("shard poisoned")
                        .insert(
                            name,
                            NodeEntry {
                                trace: Box::new(backed),
                                watch: NodeWatch::new(config.anomaly),
                            },
                        );
                }
                Some(StoreRoot { dir: dir.clone(), config: store_config })
            }
        };
        Ok(ServerState {
            shards,
            store,
            evaluator: TgiEvaluator::new(reference),
            scratch_pool: Mutex::new(Vec::new()),
            max_body_bytes: config.max_body_bytes,
            draining: AtomicBool::new(false),
            anomaly_config: config.anomaly,
            anomalies_detected: AtomicU64::new(0),
            slo: SloTracker::default(),
        })
    }

    /// The per-endpoint latency SLO tracker (workers record into it;
    /// `/metrics` and `/healthz` report from it).
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Largest accepted request body, bytes.
    pub fn max_body_bytes(&self) -> usize {
        self.max_body_bytes
    }

    /// Flags the state as draining: keep-alive sessions close after the
    /// in-flight request finishes.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn shard(&self, node: &str) -> &Mutex<HashMap<String, NodeEntry>> {
        &self.shards[shard_index(node, self.shards.len())]
    }

    /// Routes one parsed request to its handler.
    pub fn handle(&self, request: &Request) -> Response {
        self.route(request).1
    }

    /// Routes one parsed request to its handler, and names the endpoint
    /// class the SLO tracker records it under. Whatever the router answers
    /// with a 404 or 405 is [`Endpoint::Other`].
    pub(crate) fn route(&self, request: &Request) -> (Endpoint, Response) {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => (Endpoint::Healthz, self.healthz()),
            ("GET", ["metrics"]) => (Endpoint::Metrics, self.metrics()),
            ("GET", ["traces"]) => (Endpoint::ListTraces, self.list_traces()),
            ("POST", ["traces", node]) => (Endpoint::Ingest, self.ingest(node, &request.body)),
            ("GET", ["traces", node, "energy"]) => (Endpoint::Energy, self.energy(node, request)),
            ("GET", ["traces", node, "anomalies"]) => {
                (Endpoint::Anomalies, self.anomalies(node, request))
            }
            ("GET", ["fleet", "summary"]) => (Endpoint::FleetSummary, self.fleet_summary()),
            ("POST", ["evaluate"]) => (Endpoint::Evaluate, self.evaluate(&request.body)),
            ("GET", ["debug", "flight"]) => (Endpoint::DebugFlight, self.debug_flight()),
            // Known paths with the wrong verb get a 405, not a 404.
            (_, ["healthz"] | ["metrics"] | ["traces"] | ["evaluate"] | ["fleet", "summary"])
            | (_, ["traces", _] | ["traces", _, "energy"] | ["traces", _, "anomalies"])
            | (_, ["debug", "flight"]) => (
                Endpoint::Other,
                Response::error(405, &format!("method {} not allowed here", request.method)),
            ),
            _ => (Endpoint::Other, Response::error(404, &format!("no route for {}", request.path))),
        }
    }

    fn healthz(&self) -> Response {
        let mut nodes = 0usize;
        let mut chunks = 0u64;
        let mut disk_bytes = 0u64;
        let mut anomaly_counts = AnomalyCounts::default();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            nodes += shard.len();
            for entry in shard.values() {
                anomaly_counts.absorb(entry.watch.detector.counts());
                if let Some((c, bytes)) = entry.trace.disk_usage() {
                    chunks += c;
                    disk_bytes += bytes;
                }
            }
        }
        let store = match &self.store {
            Some(_) => {
                format!("{{\"enabled\":true,\"chunks\":{chunks},\"disk_bytes\":{disk_bytes}}}")
            }
            None => "{\"enabled\":false}".to_string(),
        };
        // Observability riders: online anomaly totals, SLO burn state,
        // and the telemetry plane's own loss/retention counters.
        let anomalies = format!(
            "{{\"events\":{},\"spikes\":{},\"drifts\":{},\"dropouts\":{}}}",
            self.anomalies_detected.load(Ordering::Relaxed),
            anomaly_counts.spikes,
            anomaly_counts.drifts,
            anomaly_counts.dropouts,
        );
        let slo_status = self.slo.status();
        let slo = format!(
            "{{\"endpoints\":{},\"breaching\":{}}}",
            slo_status.len(),
            slo_status.iter().filter(|s| s.breaching).count(),
        );
        let recorder = tgi_telemetry::recorder::stats();
        let telemetry = format!(
            "{{\"dropped_events\":{},\"recorder\":{{\"active\":{},\"threads\":{},\
             \"buffered\":{},\"skipped_writes\":{},\"dumps\":{}}}}}",
            tgi_telemetry::metrics::snapshot()
                .counter("tgi_telemetry_dropped_events_total")
                .unwrap_or(0),
            recorder.active,
            recorder.threads,
            recorder.buffered,
            recorder.skipped_writes,
            recorder.dumps,
        );
        Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"nodes\":{nodes},\"store\":{store},\
                 \"anomalies\":{anomalies},\"slo\":{slo},\"telemetry\":{telemetry}}}"
            ),
        )
    }

    fn metrics(&self) -> Response {
        let snapshot = tgi_telemetry::metrics::snapshot();
        let mut body = tgi_telemetry::export::prometheus(&snapshot);
        self.slo.prometheus_append(&mut body);
        Response::text(200, body)
    }

    /// `GET /debug/flight`: dumps the flight recorder's retained spans as
    /// Chrome trace JSON (loadable in `chrome://tracing` / Perfetto).
    /// Served even while the recorder is inactive — the dump is then the
    /// events retained from when it last ran, or empty.
    fn debug_flight(&self) -> Response {
        Response::json(200, tgi_telemetry::recorder::dump_chrome())
    }

    /// `POST /traces/{node}`: appends a validated batch of samples to the
    /// node's trace. The batch must continue the node's timeline — its
    /// first timestamp may not precede the last already-ingested one
    /// (409 otherwise, so replayed or reordered batches cannot corrupt
    /// the prefix index).
    fn ingest(&self, node: &str, body: &[u8]) -> Response {
        if !valid_node_name(node) {
            return Response::error(400, "node name must be 1-128 chars of [A-Za-z0-9._-]");
        }
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Response::error(400, "body must be UTF-8 JSON"),
        };
        // The validated deserialization boundary: NaN/negative/backwards
        // samples are rejected here with the sample index, before any
        // shared state is touched.
        let batch: PowerTrace = match serde_json::from_str(text) {
            Ok(t) => t,
            Err(e) => return Response::error(400, &format!("invalid trace batch: {e}")),
        };
        let mut shard = self.shard(node).lock().expect("shard poisoned");
        if !shard.contains_key(node) {
            // First batch for this node: open (or create) its store in
            // `--data-dir` mode, otherwise start an in-memory trace.
            let fresh: Box<dyn NodeTrace> = match &self.store {
                None => Box::new(PowerTrace::new()),
                Some(root) => {
                    match StoreBackedTrace::open(root.dir.join(node), root.config.clone()) {
                        Ok(backed) => Box::new(backed),
                        Err(e) => {
                            return Response::error(
                                500,
                                &format!("opening store for node `{node}`: {e}"),
                            )
                        }
                    }
                }
            };
            shard.insert(
                node.to_string(),
                NodeEntry { trace: fresh, watch: NodeWatch::new(self.anomaly_config) },
            );
        }
        let entry = shard.get_mut(node).expect("just inserted");
        let bounds = match entry.trace.time_bounds() {
            Ok(b) => b,
            Err(e) => return store_failure(node, e),
        };
        if let (Some((_, last)), Some((first, _))) = (bounds, batch.time_bounds()) {
            if first < last {
                return Response::error(
                    409,
                    &format!(
                        "batch starts at t={first} but node `{node}` has samples through t={last}"
                    ),
                );
            }
        }
        // Safe: the batch is validated, and its first timestamp does not
        // precede the trace's last, so the append invariants hold. In
        // stored mode the batch is durable (WAL fsynced) before the 200.
        if let Err(e) = entry.trace.append_batch(batch.times(), batch.watts()) {
            return Response::error(500, &format!("persisting batch for node `{node}`: {e}"));
        }
        // The acknowledged batch streams through the node's online
        // detector; closed events become health/metrics markers.
        let closed = entry.watch.observe_batch(batch.times(), batch.watts());
        if closed > 0 {
            self.anomalies_detected.fetch_add(closed as u64, Ordering::Relaxed);
            if tgi_telemetry::enabled() {
                tgi_telemetry::counter!("server_power_anomalies_total").add(closed as u64);
            }
        }
        let trace = &entry.trace;
        let response = match (trace.len(), trace.energy()) {
            (Ok(samples), Ok(energy)) => IngestResponse {
                node: node.to_string(),
                appended: batch.len(),
                samples,
                energy_j: energy.value(),
            },
            (Err(e), _) | (_, Err(e)) => return store_failure(node, e),
        };
        if tgi_telemetry::enabled() {
            tgi_telemetry::counter!("server_samples_ingested_total").add(batch.len() as u64);
        }
        json_response(200, &response)
    }

    /// `GET /traces/{node}/energy?from=&to=`: energy and average power
    /// over the window from one indexed lookup per window end.
    fn energy(&self, node: &str, request: &Request) -> Response {
        let (from, to) = match query_bounds(request, |v| !v.is_nan()) {
            Ok((from, to)) => (from.unwrap_or(f64::NEG_INFINITY), to.unwrap_or(f64::INFINITY)),
            Err(r) => return r,
        };
        let shard = self.shard(node).lock().expect("shard poisoned");
        let trace = match shard.get(node) {
            Some(entry) => &entry.trace,
            None => return Response::error(404, &format!("unknown node `{node}`")),
        };
        let answer = || -> Result<EnergyResponse, StoreError> {
            let (first, last) = trace.time_bounds()?.unwrap_or((0.0, 0.0));
            let (energy, average) = trace.energy_and_average_between(from, to)?;
            Ok(EnergyResponse {
                node: node.to_string(),
                from: from.max(first),
                to: to.min(last),
                energy_j: energy.value(),
                average_w: average.value(),
                samples: trace.len()?,
            })
        };
        match answer() {
            Ok(response) => json_response(200, &response),
            Err(e) => store_failure(node, e),
        }
    }

    /// `GET /traces/{node}/anomalies?from=&to=`: a post-hoc detector scan
    /// over the node's stored samples in `[from, to]` (the whole trace by
    /// default), plus the live online counts. The scan replays a fresh
    /// detector over the window, so anomalies are queryable long after
    /// the online watch saw them — including over traces recovered from
    /// disk by a later process.
    fn anomalies(&self, node: &str, request: &Request) -> Response {
        let (from, to) = match query_bounds(request, f64::is_finite) {
            Ok(bounds) => bounds,
            Err(r) => return r,
        };
        let shard = self.shard(node).lock().expect("shard poisoned");
        let entry = match shard.get(node) {
            Some(e) => e,
            None => return Response::error(404, &format!("unknown node `{node}`")),
        };
        let trace = &entry.trace;
        let answer = || -> Result<AnomaliesResponse, StoreError> {
            let events = trace.scan_anomalies(self.anomaly_config, from, to)?;
            let (first, last) = trace.time_bounds()?.unwrap_or((0.0, 0.0));
            Ok(AnomaliesResponse {
                node: node.to_string(),
                from: from.unwrap_or(first),
                to: to.unwrap_or(last),
                counts: AnomalyCounts::from_events(&events),
                events,
                live: entry.watch.detector.counts(),
                recent: entry.watch.recent.iter().copied().collect(),
            })
        };
        match answer() {
            Ok(response) => json_response(200, &response),
            Err(e) => store_failure(node, e),
        }
    }

    fn list_traces(&self) -> Response {
        let nodes = match self.each_node(|t| Ok((t.len()?, t.duration()?, t.energy()?))) {
            Ok(nodes) => nodes,
            Err(r) => return r,
        };
        let nodes: Vec<NodeInfo> = nodes
            .into_iter()
            .map(|(node, (samples, duration, energy))| NodeInfo {
                node,
                samples,
                duration_s: duration.value(),
                energy_j: energy.value(),
            })
            .collect();
        let response = ListResponse {
            total_samples: nodes.iter().map(|n| n.samples).sum(),
            total_energy_j: nodes.iter().map(|n| n.energy_j).sum(),
            nodes,
        };
        json_response(200, &response)
    }

    /// `GET /fleet/summary`: snapshots every node into a [`TraceSet`] and
    /// summarizes it on the rayon shim pool (per-node percentile caches in
    /// parallel). Clones the traces — this is the reporting endpoint, not
    /// the hot path.
    fn fleet_summary(&self) -> Response {
        match self.each_node(materialize) {
            Ok(entries) => json_response(200, &TraceSet::from_entries(entries).summarize()),
            Err(r) => r,
        }
    }

    /// Reads every node's trace (one shard lock at a time), in node-name
    /// order; a 500 names the first node whose store failed.
    fn each_node<T>(
        &self,
        read: impl Fn(&dyn TraceQuery) -> Result<T, StoreError>,
    ) -> Result<Vec<(String, T)>, Response> {
        let mut nodes = Vec::new();
        for shard in &self.shards {
            for (name, entry) in shard.lock().expect("shard poisoned").iter() {
                let value = read(entry.trace.as_ref()).map_err(|e| store_failure(name, e))?;
                nodes.push((name.clone(), value));
            }
        }
        nodes.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(nodes)
    }

    /// `POST /evaluate`: scores a measurement suite against the cached
    /// reference through the zero-alloc evaluator, with a pooled scratch.
    fn evaluate(&self, body: &[u8]) -> Response {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Response::error(400, "body must be UTF-8 JSON"),
        };
        let value: Value = match serde_json::from_str(text) {
            Ok(v) => v,
            Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
        };
        let (measurements, weighting, mean) = match parse_evaluate_request(&value) {
            Ok(parts) => parts,
            Err(msg) => return Response::error(400, &msg),
        };

        let mut scratch =
            self.scratch_pool.lock().expect("scratch poisoned").pop().unwrap_or_default();
        let result = self.evaluator.evaluate_into(&measurements, &weighting, mean, &mut scratch);
        let response = match result {
            Ok(tgi) => {
                let response = EvaluateResponse {
                    tgi,
                    reference: self.evaluator.reference().name().to_string(),
                    weighting: weighting.label().to_string(),
                    mean: mean.label().to_string(),
                    benchmarks: measurements.iter().map(|m| m.id().to_string()).collect(),
                    rees: scratch.rees().to_vec(),
                    weights: scratch.weights().to_vec(),
                };
                json_response(200, &response)
            }
            Err(e) => Response::error(400, &format!("evaluation rejected: {e}")),
        };
        self.scratch_pool.lock().expect("scratch poisoned").push(scratch);
        response
    }

    /// Test/oracle accessor: a materialized copy of one node's trace
    /// (cloned from memory, or decoded from the store in `--data-dir`
    /// mode).
    pub fn trace_snapshot(&self, node: &str) -> Option<PowerTrace> {
        self.shard(node)
            .lock()
            .expect("shard poisoned")
            .get(node)
            .and_then(|entry| materialize(entry.trace.as_ref()).ok())
    }

    /// Test/oracle accessor: the lifetime online anomaly counts for one
    /// node's detector.
    pub fn anomaly_counts(&self, node: &str) -> Option<AnomalyCounts> {
        self.shard(node)
            .lock()
            .expect("shard poisoned")
            .get(node)
            .map(|entry| entry.watch.detector.counts())
    }
}

/// Parses the `/evaluate` request body:
///
/// ```json
/// {"measurements": [{"id": "hpl", "gflops": 90.0, "watts": 2900.0, "seconds": 1800.0}],
///  "weighting": "arithmetic|time|energy|power",
///  "mean": "arithmetic|geometric|harmonic"}
/// ```
///
/// `weighting` and `mean` default to `arithmetic`. Every measurement is
/// validated through [`Measurement::new`]'s typed checks; performance is
/// additionally checked here because `Perf::gflops` is a raw constructor.
fn parse_evaluate_request(
    value: &Value,
) -> Result<(Vec<Measurement>, Weighting, MeanKind), String> {
    let list = value
        .get("measurements")
        .ok_or("missing field `measurements`")?
        .as_array()
        .ok_or("`measurements` must be an array")?;
    let mut measurements = Vec::with_capacity(list.len());
    for (i, entry) in list.iter().enumerate() {
        let field = |name: &str| -> Result<f64, String> {
            entry
                .get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("measurement {i}: missing numeric field `{name}`"))
        };
        let id = entry
            .get("id")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("measurement {i}: missing string field `id`"))?;
        // Performance comes as the `gflops` shorthand or as a generic
        // `perf` + `unit` pair (the reference suite mixes FLOPS and B/s).
        // `Perf::new` (unlike `Perf::gflops`) validates, so every wire
        // value funnels through the checked constructor.
        let perf = match (entry.get("gflops"), entry.get("perf")) {
            (Some(_), Some(_)) => {
                return Err(format!("measurement {i}: give `gflops` or `perf`+`unit`, not both"))
            }
            (Some(_), None) => Perf::new(field("gflops")? * 1e9, PerfUnit::Flops)
                .map_err(|e| format!("measurement {i}: `gflops`: {e}"))?,
            (None, Some(_)) => {
                let unit = match entry.get("unit").map(|u| u.as_str()) {
                    Some(Some("flops")) => PerfUnit::Flops,
                    Some(Some("bytes_per_sec")) => PerfUnit::BytesPerSecond,
                    Some(Some("gups")) => PerfUnit::Gups,
                    Some(Some(other)) => PerfUnit::Custom(other.to_string()),
                    _ => {
                        return Err(format!(
                            "measurement {i}: `perf` needs a string `unit` \
                             (flops|bytes_per_sec|gups|<custom label>)"
                        ))
                    }
                };
                Perf::new(field("perf")?, unit)
                    .map_err(|e| format!("measurement {i}: `perf`: {e}"))?
            }
            (None, None) => {
                return Err(format!("measurement {i}: missing `gflops` or `perf`+`unit`"))
            }
        };
        // `Watts::try_new`/`Seconds::try_new` here rather than the raw
        // constructors: these values are straight off the wire.
        let watts = Watts::try_new(field("watts")?)
            .map_err(|e| format!("measurement {i}: `watts`: {e}"))?;
        let seconds = Seconds::try_new(field("seconds")?)
            .map_err(|e| format!("measurement {i}: `seconds`: {e}"))?;
        let m = Measurement::new(id, perf, watts, seconds)
            .map_err(|e| format!("measurement {i}: {e}"))?;
        measurements.push(m);
    }

    let weighting = match value.get("weighting").map(|v| v.as_str()) {
        None => Weighting::Arithmetic,
        Some(Some("arithmetic")) => Weighting::Arithmetic,
        Some(Some("time")) => Weighting::Time,
        Some(Some("energy")) => Weighting::Energy,
        Some(Some("power")) => Weighting::Power,
        Some(other) => {
            return Err(format!(
                "`weighting` must be one of arithmetic|time|energy|power, got {other:?}"
            ))
        }
    };
    let mean = match value.get("mean").map(|v| v.as_str()) {
        None => MeanKind::Arithmetic,
        Some(Some("arithmetic")) => MeanKind::Arithmetic,
        Some(Some("geometric")) => MeanKind::Geometric,
        Some(Some("harmonic")) => MeanKind::Harmonic,
        Some(other) => {
            return Err(format!(
                "`mean` must be one of arithmetic|geometric|harmonic, got {other:?}"
            ))
        }
    };
    Ok((measurements, weighting, mean))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_names_the_endpoint_of_every_route() {
        let state = ServerState::new(
            &ServerConfig::default(),
            tgi_harness::experiments::system_g_reference(),
        )
        .expect("in-memory state");
        let route = |method: &str, path: &str| {
            let request = Request {
                method: method.to_string(),
                path: path.to_string(),
                query: Vec::new(),
                headers: Vec::new(),
                body: Vec::new(),
            };
            let (endpoint, response) = state.route(&request);
            (endpoint, response.status)
        };
        assert_eq!(route("GET", "/healthz").0, Endpoint::Healthz);
        assert_eq!(route("GET", "/metrics").0, Endpoint::Metrics);
        assert_eq!(route("GET", "/traces").0, Endpoint::ListTraces);
        assert_eq!(route("POST", "/traces/node-7").0, Endpoint::Ingest);
        assert_eq!(route("GET", "/traces/node-7/energy").0, Endpoint::Energy);
        assert_eq!(route("GET", "/traces/node-7/anomalies").0, Endpoint::Anomalies);
        assert_eq!(route("GET", "/fleet/summary").0, Endpoint::FleetSummary);
        assert_eq!(route("POST", "/evaluate").0, Endpoint::Evaluate);
        assert_eq!(route("GET", "/debug/flight").0, Endpoint::DebugFlight);
        assert_eq!(route("DELETE", "/traces/node-7"), (Endpoint::Other, 405));
        assert_eq!(route("GET", "/nope"), (Endpoint::Other, 404));
    }
}
