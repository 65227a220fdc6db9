//! `ingest`: open-loop meter replay into a live `--data-dir` server.
//!
//! Each node's simulated meter sends 60-sample `POST /traces/{node}`
//! batches. The offered rate climbs a fixed geometric ladder whose top
//! step is above the server's capacity. Every batch has a due time and is
//! timed from it, so a stalled server also charges the wait it imposes on
//! the batches queued behind it. The traced run sends every batch of its
//! schedule, so the seal and anomaly counts it reports are a pure
//! function of the seed; the untraced run cuts its top step off at the
//! end of the run.

use crate::heap;
use crate::meter::{batch_body, meter_log};
use crate::report::{self, Outcome};
use crate::serve::{self, TracedServer};
use crate::spans::{self, Tracer};
use crate::stats::{self, Dist};
use crate::Ctx;
use power_model::{AnomalyConfig, AnomalyCounts, AnomalyDetector, PowerTrace, StoreBackedTrace};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tgi_server::{Client, Server, ServerConfig, ServerState};
use tgi_trace_store::StoreConfig;

pub const NODES: usize = 4;
pub const CONNECTIONS: usize = 2;
pub const BATCH: usize = 60;
/// Offered batches per second, one step after another. The top step
/// (300k samples/s) is above the 100k–300k samples/s a 2-core VM with a
/// virtio disk sustained, and it is cut off at its end: what it achieves
/// is the sustained ingest rate.
pub const LADDER: [f64; 4] = [625.0, 1250.0, 2500.0, 5000.0];
/// The step whose latency is the headline figure.
pub const NOMINAL: usize = 1;
/// A step is sustained when its p99 stays within this limit (and the
/// generator does not fall further and further behind).
pub const P99_LIMIT_MS: f64 = 20.0;
/// The latency percentile reported as `latency_tail_ms`. The p99 is in
/// the record; on a shared virtual disk its spread between runs is too
/// wide to bound (see `RATIONALE.md`).
pub const TAIL_Q: f64 = 0.9;
/// Windows per step for the end-to-end figures: each is the median over
/// these windows of the per-window statistic.
pub const WINDOWS: usize = 5;
/// Generator lag growth across a step that counts as a growing backlog.
const LAG_GROWTH_S: f64 = 0.005;
const SETUP_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due_s: f64,
    pub step: usize,
    pub node: usize,
    /// Index of this batch among its node's batches.
    pub k: usize,
}

/// The send schedule: `rates[i]` batches/s for `step_s` seconds each,
/// nodes taking turns.
pub fn plan(step_s: f64, rates: &[f64]) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut per_node = [0usize; NODES];
    for (step, &rate) in rates.iter().enumerate() {
        let n = (rate * step_s).round() as usize;
        for i in 0..n {
            let node = out.len() % NODES;
            out.push(Planned {
                due_s: step as f64 * step_s + i as f64 / rate,
                step,
                node,
                k: per_node[node],
            });
            per_node[node] += 1;
        }
    }
    out
}

pub struct Inputs {
    pub logs: Vec<PowerTrace>,
    /// One request body per planned batch.
    pub bodies: Vec<String>,
}

pub fn inputs(seed: u64, plan: &[Planned]) -> Inputs {
    let mut batches = [0usize; NODES];
    for p in plan {
        batches[p.node] = batches[p.node].max(p.k + 1);
    }
    let logs: Vec<PowerTrace> =
        (0..NODES).map(|n| meter_log(seed, n, batches[n].max(1) * BATCH)).collect();
    let bodies =
        plan.iter().map(|p| batch_body(&logs[p.node], p.k * BATCH, (p.k + 1) * BATCH)).collect();
    Inputs { logs, bodies }
}

/// One batch as sent: times in seconds from the schedule origin.
#[derive(Debug, Clone)]
pub struct Sent {
    pub idx: usize,
    pub sent_s: f64,
    pub done_s: f64,
    pub status: u16,
    pub body: String,
}

impl Sent {
    pub fn latency_s(&self, plan: &[Planned]) -> f64 {
        self.done_s - plan[self.idx].due_s
    }
    pub fn lag_s(&self, plan: &[Planned]) -> f64 {
        self.sent_s - plan[self.idx].due_s
    }
}

fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Sends the schedule over `CONNECTIONS` keep-alive connections, node `n`
/// on connection `n % CONNECTIONS`, so each node's batches stay in order.
/// A connection stops at `cutoff_s` (from the schedule origin) if it is
/// still behind then; each node's batches sent are a prefix of its own.
pub fn drive(addr: &str, plan: &[Planned], bodies: &[String], cutoff_s: f64) -> Vec<Sent> {
    let origin = Instant::now() + Duration::from_millis(50);
    let mut all: Vec<Sent> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    heap::uncounted(|| {
                        let mut client = Client::connect(addr, Duration::from_secs(60))
                            .expect("connect to server");
                        let mut sent = Vec::new();
                        for (idx, p) in
                            plan.iter().enumerate().filter(|(_, p)| p.node % CONNECTIONS == c)
                        {
                            wait_until(origin + Duration::from_secs_f64(p.due_s));
                            let sent_s = origin.elapsed().as_secs_f64();
                            if sent_s >= cutoff_s {
                                break;
                            }
                            let path = format!("/traces/node{}?op={idx}", p.node);
                            let (status, body) = match client.request("POST", &path, &bodies[idx]) {
                                Ok(r) => (r.status, r.body),
                                Err(e) => (0, e.to_string()),
                            };
                            let done_s = origin.elapsed().as_secs_f64();
                            sent.push(Sent { idx, sent_s, done_s, status, body });
                            if status == 0 {
                                break;
                            }
                        }
                        sent
                    })
                })
            })
            .collect();
        heap::uncounted(|| {
            handles.into_iter().flat_map(|h| h.join().expect("load thread panicked")).collect()
        })
    });
    all.sort_by_key(|s| s.idx);
    all
}

/// Whether the generator fell further behind over a step: the median lag
/// of its last quarter exceeds that of its first quarter by more than
/// `LAG_GROWTH_S`.
pub fn lag_grows(lags_s: &[f64]) -> bool {
    let quarter = lags_s.len() / 4;
    if quarter < 2 {
        return false;
    }
    let first = Dist::new(lags_s[..quarter].to_vec()).median();
    let last = Dist::new(lags_s[lags_s.len() - quarter..].to_vec()).median();
    last - first > LAG_GROWTH_S
}

fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: CONNECTIONS,
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

fn store_config() -> StoreConfig {
    StoreConfig {
        chunk_samples: ServerConfig::default().store_chunk_samples,
        ..StoreConfig::default()
    }
}

/// Checks every response, then the stores on disk and the online anomaly
/// counts, against in-memory oracles built from the same batches.
pub fn verify(
    out: &mut Outcome,
    plan: &[Planned],
    inputs: &Inputs,
    sent: &[Sent],
    data_dir: &Path,
    online: Option<&[AnomalyCounts]>,
) {
    let mut oracle: Vec<PowerTrace> = (0..NODES).map(|_| PowerTrace::new()).collect();
    let mut acked = [0usize; NODES];
    for s in sent {
        let p = plan[s.idx];
        let log = &inputs.logs[p.node];
        let (lo, hi) = (p.k * BATCH, (p.k + 1) * BATCH);
        oracle[p.node].extend_from_slices(&log.times()[lo..hi], &log.watts()[lo..hi]);
        let ok = s.status == 200 && ingest_answer_ok(&s.body, &oracle[p.node]);
        if ok {
            acked[p.node] += 1;
        }
        out.check(ok, || format!("ingest batch {}: status {} body {}", s.idx, s.status, s.body));
    }
    for node in 0..NODES {
        let dir = data_dir.join(format!("node{node}"));
        let reopened = StoreBackedTrace::open(&dir, store_config())
            .and_then(|s| s.to_trace().map(|t| (t, s.energy().value())));
        let want = &oracle[node];
        let ok = match &reopened {
            Ok((trace, energy)) => {
                trace.times() == want.times()
                    && trace.watts() == want.watts()
                    && energy.to_bits() == want.energy().value().to_bits()
                    && trace.len() == acked[node] * BATCH
            }
            Err(_) => false,
        };
        out.check(ok, || {
            format!("node{node}: reopened store differs from the acknowledged batches")
        });
        if let Some(online) = online {
            let offline = replay_counts(want);
            out.check(online[node] == offline, || {
                format!(
                    "node{node}: online anomaly counts {:?} != replay {:?}",
                    online[node], offline
                )
            });
        }
    }
}

/// Whether one ingest answer matches the oracle holding every batch of
/// that node up to and including this one.
pub fn ingest_answer_ok(body: &str, oracle: &PowerTrace) -> bool {
    let Ok(v) = serde_json::from_str::<serde::Value>(body) else { return false };
    let num = |k: &str| v.get(k).and_then(|x| x.as_f64());
    num("appended") == Some(BATCH as f64)
        && num("samples") == Some(oracle.len() as f64)
        && num("energy_j").map(f64::to_bits) == Some(oracle.energy().value().to_bits())
}

/// Anomaly counts of a fresh detector fed the same samples.
fn replay_counts(trace: &PowerTrace) -> AnomalyCounts {
    let mut detector = AnomalyDetector::new(AnomalyConfig::default());
    let mut events = Vec::new();
    for (&t, &w) in trace.times().iter().zip(trace.watts()) {
        detector.push(t, w, &mut events);
    }
    detector.counts()
}

struct Setup {
    inputs: Inputs,
    server: Server,
    dir: PathBuf,
}

fn setup(ctx: &Ctx, plan: &[Planned], attempt: usize, out: &mut Outcome) -> (Setup, f64) {
    let started = Instant::now();
    let inputs = inputs(ctx.seed, plan);
    let meter_s = started.elapsed().as_secs_f64();
    let dir = ctx.work_dir.join(format!("ingest{attempt}"));
    let server = Server::start(server_config(&dir), tgi_harness::system_g_reference())
        .expect("server starts");
    let total = started.elapsed().as_secs_f64();
    if attempt == 0 {
        out.set("power.meter_record_s", meter_s);
    }
    (Setup { inputs, server, dir }, total)
}

fn online_counts(state: &ServerState) -> Vec<AnomalyCounts> {
    (0..NODES).map(|n| state.anomaly_counts(&format!("node{n}")).unwrap_or_default()).collect()
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    report::machine(out, &ctx.work_dir, CONNECTIONS, CONNECTIONS);
    if ctx.trace {
        return run_traced(ctx, out);
    }
    let step_s = ctx.seconds / LADDER.len() as f64;
    let plan = plan(step_s, &LADDER);
    let mut times = Vec::new();
    let mut last: Option<Setup> = None;
    for attempt in 0..SETUP_REPEATS {
        // Only the last set-up is kept; the earlier ones are measured and
        // released first, so the peak memory is one set-up's.
        drop(last.take());
        let (s, t) = setup(ctx, &plan, attempt, out);
        times.push(t);
        last = Some(s);
    }
    out.set("setup_s", Dist::new(times).median());
    let Setup { inputs, mut server, dir } = last.expect("one setup");

    let addr = server.addr().to_string();
    report::start_timed_phase(out);
    let sent = drive(&addr, &plan, &inputs.bodies, ctx.seconds);
    report::end_timed_phase(out);
    let online = online_counts(server.state());
    let rejected = server.stats().rejected.load(std::sync::atomic::Ordering::Relaxed);
    server.shutdown();
    drop(server);

    // Per-step latency from due time, and whether the backlog grew.
    let mut sustained = 0.0;
    let mut steps = Vec::new();
    for (step, &rate) in LADDER.iter().enumerate() {
        let in_step: Vec<&Sent> = sent.iter().filter(|s| plan[s.idx].step == step).collect();
        let lat = Dist::new(in_step.iter().map(|s| s.latency_s(&plan) * 1e3).collect());
        let lags: Vec<f64> = in_step.iter().map(|s| s.lag_s(&plan)).collect();
        let growing = lag_grows(&lags);
        let start = step as f64 * step_s;
        let end = in_step.iter().map(|s| s.done_s).fold(start + step_s, f64::max);
        let ok = in_step.iter().filter(|s| s.status == 200).count();
        let achieved = (ok * BATCH) as f64 / (end - start);
        let p99 = lat.q(0.99);
        let planned = plan.iter().filter(|p| p.step == step).count();
        if ok == planned && p99 <= P99_LIMIT_MS && !growing {
            sustained = rate * BATCH as f64;
        }
        let by_due: Vec<(f64, f64)> =
            in_step.iter().map(|s| (plan[s.idx].due_s, s.latency_s(&plan) * 1e3)).collect();
        if step == NOMINAL {
            let window = |stat: &dyn Fn(&Dist) -> f64| {
                stats::window_median(&by_due, start, step_s, WINDOWS, stat)
            };
            out.set("latency_p50_ms", window(&|d| d.median()));
            out.set("latency_tail_ms", window(&|d| d.q(TAIL_Q)));
            out.fact("nominal_p50_ms", lat.median());
            out.fact("nominal_p90_ms", lat.q(0.9));
            out.fact("nominal_samples", lat.len());
            out.fact("nominal_tail_quantile", TAIL_Q);
            out.fact("nominal_p99_ms", p99);
            out.fact("nominal_p999_ms", lat.q(0.999));
            out.fact("nominal_supported_quantile", stats::highest_supported_quantile(lat.len()));
        }
        if step == LADDER.len() - 1 {
            // The top step is above capacity: what it achieves is the
            // server's sustained ingest rate.
            let by_done: Vec<(f64, f64)> =
                in_step.iter().filter(|s| s.status == 200).map(|s| (s.done_s, 1.0)).collect();
            let width = step_s / WINDOWS as f64;
            out.set(
                "throughput_per_s",
                stats::window_median(&by_done, start, step_s, WINDOWS, |d| {
                    d.len() as f64 * BATCH as f64 / width
                }),
            );
            out.fact("top_step_backlog_grows", growing);
            out.fact("top_step_unsent_batches", planned - in_step.len());
        }
        steps.push(serde::Value::Object(vec![
            ("offered_samples_per_s".into(), serde::Value::Num(rate * BATCH as f64)),
            ("achieved_samples_per_s".into(), serde::Value::Num(achieved)),
            ("p50_ms".into(), serde::Value::Num(lat.median())),
            ("p99_ms".into(), serde::Value::Num(p99)),
            (
                "max_lag_ms".into(),
                serde::Value::Num(lags.iter().fold(0.0, |a: f64, &b| a.max(b)) * 1e3),
            ),
            ("lag_grows".into(), serde::Value::Bool(growing)),
            ("batches".into(), serde::Value::Num(in_step.len() as f64)),
        ]));
    }
    out.fact("ladder", serde::Value::Array(steps));
    out.fact("p99_limit_ms", P99_LIMIT_MS);
    out.fact("sustained_samples_per_s", sustained);
    out.fact("rejected_429", rejected);
    input_facts(out, &inputs, &sent, &dir);
    verify(out, &plan, &inputs, &sent, &dir, Some(&online));
}

/// Recorded properties of the inputs sent and what they cost on disk.
fn input_facts(out: &mut Outcome, inputs: &Inputs, sent: &[Sent], dir: &Path) {
    let samples = sent.len() * BATCH;
    let wire: usize = sent.iter().map(|s| inputs.bodies[s.idx].len()).sum();
    let mut disk = 0u64;
    let mut chunks = Vec::new();
    for node in 0..NODES {
        if let Ok(s) = StoreBackedTrace::open(dir.join(format!("node{node}")), store_config()) {
            disk += s.store().disk_bytes();
            chunks.push(s.store().sealed_chunks());
        }
    }
    out.fact("nodes", NODES);
    out.fact("samples_per_node", samples / NODES);
    out.fact("sealed_chunks_per_node", chunks);
    out.fact("chunk_samples", store_config().chunk_samples);
    out.fact("disk_bytes_per_sample", disk as f64 / samples as f64);
    out.fact("wire_bytes_per_sample", wire as f64 / samples as f64);
}

/// Sends every batch of `plan` through the benchmark's connection loop
/// over a fresh server state in `dir`; returns what was sent and the
/// state's open time.
fn drive_loop(
    plan: &[Planned],
    inputs: &Inputs,
    dir: &Path,
    tracer: &Arc<Tracer>,
) -> (Vec<Sent>, f64) {
    let opened = Instant::now();
    let state = Arc::new(
        ServerState::new(&server_config(dir), tgi_harness::system_g_reference())
            .expect("server state opens"),
    );
    let open_s = opened.elapsed().as_secs_f64();
    let server = TracedServer::start(state, Arc::clone(tracer), CONNECTIONS)
        .expect("connection loop starts");
    let sent = drive(&server.addr.to_string(), plan, &inputs.bodies, f64::INFINITY);
    server.join();
    (sent, open_s)
}

/// The traced run: the nominal step through the benchmark's connection
/// loop with spans off, then the same batches with spans on, then a
/// mirror store replaying them call by call for the inner layers. The
/// write-path figures no gated workload produces (handler, batch decode,
/// append, sync, seals, detector) go into the record.
fn run_traced(ctx: &Ctx, out: &mut Outcome) {
    let phase_s = ctx.seconds / 3.0;
    let plan = plan(phase_s, &[LADDER[NOMINAL]]);
    let started = Instant::now();
    let inputs = inputs(ctx.seed, &plan);
    out.set("power.meter_record_s", started.elapsed().as_secs_f64());

    let dir_a = ctx.work_dir.join("untraced");
    let (sent_a, _) = drive_loop(&plan, &inputs, &dir_a, &Arc::new(Tracer::off()));
    verify(out, &plan, &inputs, &sent_a, &dir_a, None);

    let dir_b = ctx.work_dir.join("traced");
    let tracer = Arc::new(Tracer::default());
    let (sent_b, open_s) = drive_loop(&plan, &inputs, &dir_b, &tracer);
    out.set("store.open_s", open_s);
    verify(out, &plan, &inputs, &sent_b, &dir_b, None);

    // Mirror: the handler's inner calls, replayed batch by batch.
    let handlers = serve::handler_ids(&tracer.snapshot());
    let dir_c = ctx.work_dir.join("mirror");
    let mut stores: Vec<StoreBackedTrace> = (0..NODES)
        .map(|n| {
            StoreBackedTrace::open(dir_c.join(format!("node{n}")), store_config())
                .expect("mirror store opens")
        })
        .collect();
    let mut detectors: Vec<AnomalyDetector> =
        (0..NODES).map(|_| AnomalyDetector::new(AnomalyConfig::default())).collect();
    let mut events = Vec::new();
    let (mut detector_s, mut samples) = (0.0, 0usize);
    for s in sent_b.iter().filter(|s| s.status == 200) {
        let op = s.idx as u64;
        let parent = handlers.get(&op).copied();
        let node = plan[s.idx].node;
        let (batch, _) = tracer.span(op, parent, "json", "json.trace_batch", || {
            serde_json::from_str::<PowerTrace>(&inputs.bodies[s.idx]).expect("batch parses")
        });
        let store = &mut stores[node];
        tracer.span(op, parent, "store", "store.append", || {
            store.extend_from_slices(batch.times(), batch.watts()).expect("mirror append")
        });
        tracer.span(op, parent, "store", "store.sync", || {
            store.store_mut().sync().expect("mirror sync")
        });
        let detector = &mut detectors[node];
        tracer.span(op, parent, "power", "power.detector", || {
            for (&t, &w) in batch.times().iter().zip(batch.watts()) {
                detector.push(t, w, &mut events);
            }
        });
        samples += batch.len();
    }
    let spans = Arc::try_unwrap(tracer).ok().expect("tracer released").into_spans();
    for s in spans.iter().filter(|s| s.name == "power.detector") {
        detector_s += s.dur_s;
    }

    let us = |name: &str, q: f64| Dist::new(spans::durations(&spans, name)).q(q) * 1e6;
    for (metric, name, q) in [
        ("server.read_request_us_p50", "server.read_request", 0.5),
        ("server.read_request_us_p99", "server.read_request", 0.99),
        ("server.write_response_us_p50", "server.write_response", 0.5),
        ("server.write_response_us_p99", "server.write_response", 0.99),
    ] {
        out.set(metric, us(name, q));
    }
    for (fact, name, q) in [
        ("server.handle_ingest_us_p50", "server.handle_ingest", 0.5),
        ("server.handle_ingest_us_p99", "server.handle_ingest", 0.99),
        ("json.trace_batch_us", "json.trace_batch", 0.5),
        ("store.append_us_p50", "store.append", 0.5),
        ("store.append_us_p99", "store.append", 0.99),
        ("store.sync_us_p50", "store.sync", 0.5),
        ("store.sync_us_p99", "store.sync", 0.99),
    ] {
        out.fact(fact, us(name, q));
    }
    let server_time = serve::server_time_by_op(&spans);
    let waits: Vec<f64> = sent_b
        .iter()
        .map(|s| (s.done_s - s.sent_s) - server_time.get(&(s.idx as u64)).copied().unwrap_or(0.0))
        .collect();
    let waits = Dist::new(waits);
    out.set("server.wait_us_p50", waits.median() * 1e6);
    out.set("server.wait_us_p99", waits.q(0.99) * 1e6);
    let wire: usize = inputs.bodies.iter().map(String::len).sum();
    out.fact("json.wire_bytes_per_sample", wire as f64 / (plan.len() * BATCH) as f64);
    out.fact("store.seals", stores.iter().map(|s| s.store().sealed_chunks()).sum::<usize>());
    let disk: u64 = stores.iter().map(|s| s.store().disk_bytes()).sum();
    out.set("store.disk_bytes_per_sample", disk as f64 / samples.max(1) as f64);
    out.fact("power.detector_ns_per_sample", detector_s * 1e9 / samples.max(1) as f64);
    out.set("power.anomaly_events", detectors.iter().map(|d| d.counts().total() as f64).sum());

    let client_s: f64 = sent_b.iter().map(|s| s.done_s - s.sent_s).sum();
    out.attribute(&spans, sent_b.len(), client_s);
    let p50 = |sent: &[Sent]| Dist::new(sent.iter().map(|s| s.latency_s(&plan)).collect()).median();
    out.set("trace.overhead_ratio", p50(&sent_b) / p50(&sent_a) - 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lags of one connection sending `n` batches at `rate` to a server
    /// that needs `service_s` per batch.
    fn simulated_lags(rate: f64, service_s: f64, n: usize) -> Vec<f64> {
        let mut free_at = 0.0f64;
        (0..n)
            .map(|i| {
                let due = i as f64 / rate;
                let sent = due.max(free_at);
                free_at = sent + service_s;
                sent - due
            })
            .collect()
    }

    #[test]
    fn a_step_above_capacity_is_flagged_as_a_growing_backlog() {
        // Capacity 1000 batches/s: 1500/s offered must be flagged, 500/s not.
        assert!(lag_grows(&simulated_lags(1500.0, 0.001, 2000)));
        assert!(!lag_grows(&simulated_lags(500.0, 0.001, 2000)));
        // A single stall that the generator recovers from is not a backlog.
        let mut lags = simulated_lags(500.0, 0.001, 2000);
        lags[1000] = 0.05;
        assert!(!lag_grows(&lags));
    }

    #[test]
    fn the_schedule_keeps_each_node_in_order_and_is_deterministic() {
        let p = plan(0.5, &LADDER);
        assert_eq!(p.len(), LADDER.iter().map(|r| (r * 0.5).round() as usize).sum::<usize>());
        for node in 0..NODES {
            let ks: Vec<usize> = p.iter().filter(|q| q.node == node).map(|q| q.k).collect();
            assert!(ks.iter().enumerate().all(|(i, &k)| i == k));
        }
        let small = plan(0.02, &[500.0, 1000.0]);
        let (a, b) = (inputs(11, &small), inputs(11, &small));
        assert_eq!(a.bodies, b.bodies);
        assert_ne!(a.bodies, inputs(12, &small).bodies);
    }

    #[test]
    fn a_flipped_bit_in_an_ingest_answer_is_a_failure() {
        let mut oracle = PowerTrace::new();
        let log = meter_log(5, 0, 120);
        oracle.extend_from_slices(&log.times()[..60], &log.watts()[..60]);
        let energy = oracle.energy().value();
        let good = format!(
            "{{\"node\":\"node0\",\"appended\":60,\"samples\":60,\"energy_j\":{energy:?}}}"
        );
        assert!(ingest_answer_ok(&good, &oracle));
        let flipped = f64::from_bits(energy.to_bits() ^ 1);
        let bad = good.replace(&format!("{energy:?}"), &format!("{flipped:?}"));
        assert_ne!(good, bad);
        assert!(!ingest_answer_ok(&bad, &oracle));
    }
}
