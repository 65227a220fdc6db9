//! The observability plane end-to-end: anomalies injected at the power
//! source travel through the background sampler, the on-disk trace
//! store, and a server recovering that store, and come out of
//! `GET /traces/{node}/anomalies` over a real socket — while a clean
//! synthetic trace produces zero events through the same pipeline.
//! Also covers the flight-recorder dump endpoint and the healthz/metrics
//! observability riders.

use power_model::sampler::PowerSource;
use power_model::{AnomalyConfig, BackgroundSampler, PowerTrace, StoreBackedTrace};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tgi_core::Watts;
use tgi_server::{Client, Server, ServerConfig};
use tgi_trace_store::StoreConfig;

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tgi_server_obs_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string(), Duration::from_secs(5)).expect("connect")
}

/// Deterministic splitmix-style generator (same construction as the
/// detector's own unit tests, so "clean" means the same thing here).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Meter-like noise: ±2 W, quantized to 0.1 W.
    fn noise(&mut self) -> f64 {
        let uniform = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((uniform * 4.0 - 2.0) * 10.0).round() / 10.0
    }
}

fn clean_trace(n: usize, seed: u64) -> PowerTrace {
    let mut rng = Rng(seed);
    let mut trace = PowerTrace::with_capacity(n);
    for i in 0..n {
        trace.push(i as f64, Watts::new(200.0 + rng.noise()));
    }
    trace
}

/// A live source that burns steady ~200 W but spikes to 900 W for three
/// polls partway in — the injected fault for the sampler leg.
struct SpikingSource {
    polls: AtomicUsize,
}

impl PowerSource for SpikingSource {
    fn power_now(&self) -> Watts {
        let i = self.polls.fetch_add(1, Ordering::Relaxed);
        if (300..303).contains(&i) {
            return Watts::new(900.0);
        }
        // Deterministic quantized jitter so the baseline is noisy enough
        // not to read as a flatline.
        let mut rng = Rng(i as u64);
        Watts::new(200.0 + rng.noise())
    }
}

#[test]
fn anomalies_flow_from_sampler_through_store_to_the_wire() {
    let scratch = ScratchDir::new("pipeline");
    let store_config = StoreConfig { chunk_samples: 64, ..StoreConfig::default() };

    // Leg 1 — live capture: a watched streaming sampler polls the spiking
    // source straight into the on-disk store the server will later serve.
    let source = Arc::new(SpikingSource { polls: AtomicUsize::new(0) });
    let store = StoreBackedTrace::open(scratch.0.join("node-live"), store_config.clone())
        .expect("open live store");
    let sampler = BackgroundSampler::start_into(
        store,
        Arc::clone(&source) as Arc<dyn PowerSource>,
        Duration::from_micros(200),
        Some(AnomalyConfig::default()),
    );
    // Run until the spike window (polls 300..303) is comfortably past.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while source.polls.load(Ordering::Relaxed) < 600 {
        assert!(std::time::Instant::now() < deadline, "sampler made no progress");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (store, online_events) = sampler.stop_with_anomalies().expect("streaming capture");
    assert!(
        online_events.iter().any(|e| e.kind == power_model::AnomalyKind::Spike),
        "online watch saw the injected spike: {online_events:?}"
    );
    drop(store);

    // Leg 2 — synthetic faults written through the same store format.
    let mut drift = clean_trace(3_000, 9);
    let mut drifted = PowerTrace::with_capacity(3_000);
    for (i, (&t, &w)) in drift.times().iter().zip(drift.watts()).enumerate() {
        let creep = if i >= 1_000 { 0.2 * ((i - 1_000).min(400)) as f64 } else { 0.0 };
        drifted.push(t, Watts::new(w + creep));
    }
    drift = drifted;
    drop(drift.to_store(scratch.0.join("node-drift"), store_config.clone()).expect("drift store"));

    let flat_src = clean_trace(2_000, 11);
    let mut flat = PowerTrace::with_capacity(2_000);
    for (i, (&t, &w)) in flat_src.times().iter().zip(flat_src.watts()).enumerate() {
        let w = if (800..880).contains(&i) { 203.4 } else { w };
        flat.push(t, Watts::new(w));
    }
    drop(flat.to_store(scratch.0.join("node-flat"), store_config.clone()).expect("flat store"));

    let clean = clean_trace(5_000, 42);
    drop(clean.to_store(scratch.0.join("node-clean"), store_config.clone()).expect("clean store"));

    // Leg 3 — a fresh server recovers all four stores and answers the
    // post-hoc scans over the wire.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        shards: 4,
        queue_capacity: 64,
        data_dir: Some(scratch.0.clone()),
        store_chunk_samples: 64,
        ..ServerConfig::default()
    };
    let server =
        Server::start(config, tgi_harness::experiments::system_g_reference()).expect("start");
    let mut client = connect(&server);

    let r = client.request("GET", "/traces/node-live/anomalies", "").expect("live scan");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"kind\":\"Spike\""), "spike survived the store: {}", r.body);
    assert!(r.body.contains("\"value\":900"), "{}", r.body);

    let r = client.request("GET", "/traces/node-drift/anomalies", "").expect("drift scan");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"kind\":\"Drift\""), "{}", r.body);
    assert!(!r.body.contains("\"kind\":\"Spike\""), "ramp must not read as spikes: {}", r.body);

    let r = client.request("GET", "/traces/node-flat/anomalies", "").expect("flat scan");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"kind\":\"Dropout\""), "{}", r.body);

    // Zero false positives on the clean trace through the full pipeline.
    let r = client.request("GET", "/traces/node-clean/anomalies", "").expect("clean scan");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"events\":[]"), "clean trace flagged events: {}", r.body);

    // A window that excludes the ramp is also clean; parameters validate.
    let r = client
        .request("GET", "/traces/node-drift/anomalies?from=0&to=900", "")
        .expect("windowed scan");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"events\":[]"), "pre-ramp window is clean: {}", r.body);
    let r = client.request("GET", "/traces/node-drift/anomalies?from=banana", "").expect("bad");
    assert_eq!(r.status, 400, "{}", r.body);
    let r = client.request("GET", "/traces/nope/anomalies", "").expect("missing");
    assert_eq!(r.status, 404, "{}", r.body);
}

#[test]
fn online_ingest_watch_counts_anomalies_and_healthz_reports_them() {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        shards: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let server =
        Server::start(config, tgi_harness::experiments::system_g_reference()).expect("start");
    let mut client = connect(&server);

    // Ingest a clean stretch, then a batch with a huge spike, then enough
    // clean samples for the detector to close the spike event.
    let trace = clean_trace(2_000, 3);
    let mut body = String::from("{\"samples\":[");
    for (i, (&t, &w)) in trace.times().iter().zip(trace.watts()).enumerate() {
        let w = if (700..703).contains(&i) { 900.0 } else { w };
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("{{\"t\":{t},\"watts\":{w}}}"));
    }
    body.push_str("]}");
    let r = client.request("POST", "/traces/live0", &body).expect("ingest");
    assert_eq!(r.status, 200, "{}", r.body);

    let counts = server.state().anomaly_counts("live0").expect("node exists");
    assert_eq!(counts.spikes, 1, "online watch closed the injected spike: {counts:?}");
    assert_eq!(counts.drifts, 0, "{counts:?}");

    // The live counts ride along the anomalies endpoint…
    let r = client.request("GET", "/traces/live0/anomalies", "").expect("scan");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"live\":{\"spikes\":1"), "{}", r.body);
    assert!(r.body.contains("\"kind\":\"Spike\""), "post-hoc scan agrees: {}", r.body);

    // …and aggregate into /healthz along with SLO + telemetry state.
    let r = client.request("GET", "/healthz", "").expect("healthz");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"status\":\"ok\""), "{}", r.body);
    assert!(r.body.contains("\"anomalies\":{\"events\":1,\"spikes\":1"), "{}", r.body);
    assert!(r.body.contains("\"slo\":{\"endpoints\":"), "{}", r.body);
    assert!(r.body.contains("\"dropped_events\":"), "{}", r.body);
    assert!(r.body.contains("\"recorder\":"), "{}", r.body);

    // The SLO families appear on /metrics with endpoint labels.
    let r = client.request("GET", "/metrics", "").expect("metrics");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(
        r.body.contains("tgi_server_request_latency_seconds{endpoint=\"ingest\""),
        "{}",
        r.body
    );
    assert!(r.body.contains("tgi_server_slo_requests_total{endpoint=\"ingest\"}"), "{}", r.body);
    assert!(
        r.body.contains("tgi_server_slo_burn_rate{endpoint=\"ingest\",window=\"1m\"}"),
        "{}",
        r.body
    );

    // The flight-recorder dump endpoint always answers (an empty Chrome
    // trace when the recorder never ran in this process).
    let r = client.request("GET", "/debug/flight", "").expect("flight");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"traceEvents\""), "{}", r.body);
    let r = client.request("POST", "/debug/flight", "").expect("flight verb");
    assert_eq!(r.status, 405, "{}", r.body);
}
