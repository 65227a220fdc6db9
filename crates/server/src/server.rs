//! The connection engine: one acceptor thread, N worker threads, a
//! bounded hand-off queue between them, and graceful shutdown.
//!
//! The acceptor never blocks on a slow client — it only accepts and
//! `try_push`es. When the queue is full it answers `429 Too Many
//! Requests` inline (a one-line write on a fresh socket) and closes; that
//! is the whole backpressure story, no unbounded buffering anywhere.
//!
//! Each worker owns a full keep-alive session: it parses requests off the
//! connection, dispatches into [`ServerState::handle`], and writes
//! responses until the client closes, errors, or the server drains. An
//! idle session checks for a drain every `IDLE_POLL`, so shutdown does
//! not wait out a quiet keep-alive peer.
//! Shutdown flips the drain flag, closes the queue, pokes the acceptor
//! awake with a loopback connect, and joins every thread — every request
//! accepted before the signal completes.

use crate::http::{read_request, HttpError, Response};
use crate::queue::{BoundedQueue, PushError};
use crate::state::{ServerConfig, ServerState};
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection socket timeout: a stalled peer cannot pin a worker
/// forever, it surfaces as an I/O error and the session closes.
/// It also caps how long a keep-alive session may sit idle.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// How often an idle keep-alive session checks whether the server is
/// draining while it waits for the next request.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// A running server. Dropping it (or calling [`Server::shutdown`]) drains
/// in-flight connections and joins every thread.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    queue: Arc<BoundedQueue<TcpStream>>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ServerStats>,
}

/// Process-lifetime counters, readable while the server runs.
#[derive(Default)]
pub struct ServerStats {
    /// Connections accepted and queued for a worker.
    pub accepted: AtomicU64,
    /// Connections refused with `429` because the queue was full.
    pub rejected: AtomicU64,
    /// Requests fully served (any status).
    pub served: AtomicU64,
}

impl Server {
    /// Binds, spawns the acceptor and `config.workers` workers, and
    /// returns once the listener is live.
    pub fn start(
        config: ServerConfig,
        reference: tgi_core::ReferenceSystem,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(&config, reference)?);
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                let queue = Arc::clone(&queue);
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("tgi-server-worker-{i}"))
                    .spawn(move || worker_loop(&state, &queue, &stats))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("tgi-server-acceptor".to_string())
                .spawn(move || acceptor_loop(&listener, &queue, &stop, &stats))
                .expect("spawn acceptor")
        };

        Ok(Server { addr, state, queue, stop, acceptor: Some(acceptor), workers, stats })
    }

    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (test oracles read trace snapshots through this).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Graceful shutdown: stop accepting, finish everything already
    /// accepted, join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Keep-alive sessions close after their in-flight request…
        self.state.begin_drain();
        // …no new connections are queued…
        self.queue.close();
        // …and a loopback connect un-blocks `accept()` so the acceptor
        // observes the flag without waiting for outside traffic.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Detects a 429 storm on the acceptor thread: when rejections exceed
/// [`StormTrigger::THRESHOLD`] within one second, the flight recorder
/// dumps itself so the moments *leading into* the overload are captured
/// while they are still in the rings. Dumps are rate-limited and written
/// off-thread — the acceptor never blocks on disk.
struct StormTrigger {
    window_start: Instant,
    rejections: u32,
    last_dump: Option<Instant>,
}

impl StormTrigger {
    /// Rejections within one second that count as a storm.
    const THRESHOLD: u32 = 100;
    /// Minimum spacing between automatic dumps.
    const COOLDOWN: Duration = Duration::from_secs(60);

    fn new() -> Self {
        StormTrigger { window_start: Instant::now(), rejections: 0, last_dump: None }
    }

    /// Notes one rejected connection; fires a dump when a storm is on.
    fn note_rejection(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.window_start) > Duration::from_secs(1) {
            self.window_start = now;
            self.rejections = 0;
        }
        self.rejections += 1;
        if self.rejections < Self::THRESHOLD || !tgi_telemetry::recorder::active() {
            return;
        }
        if let Some(last) = self.last_dump {
            if now.duration_since(last) < Self::COOLDOWN {
                return;
            }
        }
        self.last_dump = Some(now);
        self.rejections = 0;
        let path =
            std::env::temp_dir().join(format!("tgi_server_flight_429_{}.json", std::process::id()));
        std::thread::Builder::new()
            .name("tgi-flight-dump".to_string())
            .spawn(move || match tgi_telemetry::recorder::write_dump(&path) {
                Ok(()) => {
                    eprintln!("tgi-server: 429 storm, flight recorder dumped to {}", path.display())
                }
                Err(e) => eprintln!("tgi-server: 429 storm, flight dump failed: {e}"),
            })
            .ok();
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    queue: &BoundedQueue<TcpStream>,
    stop: &AtomicBool,
    stats: &ServerStats,
) {
    let mut storm = StormTrigger::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match queue.try_push(stream) {
            Ok(()) => {
                stats.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(PushError::Full(stream)) | Err(PushError::Closed(stream)) => {
                stats.rejected.fetch_add(1, Ordering::Relaxed);
                if tgi_telemetry::enabled() {
                    tgi_telemetry::counter!("server_connections_rejected_total").inc();
                }
                storm.note_rejection();
                reject_overloaded(stream);
            }
        }
    }
}

/// Answers `429` on a connection there is no room to serve. Best-effort:
/// the socket gets a short write timeout so a dead peer cannot stall the
/// acceptor. The `Retry-After` hint tells well-behaved clients how long to
/// back off before reconnecting.
fn reject_overloaded(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let response = Response::error(429, "server overloaded, retry later").with_retry_after(1);
    let _ = response.write_to(&mut stream);
}

fn worker_loop(state: &ServerState, queue: &BoundedQueue<TcpStream>, stats: &ServerStats) {
    while let Some(stream) = queue.pop() {
        serve_connection(state, stream, stats);
    }
}

/// Runs one keep-alive session to completion.
fn serve_connection(state: &ServerState, stream: TcpStream, stats: &ServerStats) {
    // `await_request` sets the read timeout.
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    // Request/response ping-pong with small frames: Nagle + delayed ACK
    // would add ~40ms to every exchange.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    while await_request(&mut reader, state) {
        let request = match read_request(&mut reader, state.max_body_bytes()) {
            Ok(r) => r,
            Err(HttpError::Closed) => return,
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                // Malformed framing: answer with the mapped status and
                // close — the stream position is no longer trustworthy.
                let _ = e.to_response().write_to(&mut writer);
                return;
            }
        };
        let started = Instant::now();
        // `recording()` covers the flight recorder too: request spans land
        // in its ring even when no collector is installed.
        let (endpoint, mut response) = if tgi_telemetry::recording() {
            let span = tgi_telemetry::span_cat("server.request", "server")
                .field("method", request.method.as_str())
                .field("path", request.path.as_str());
            let routed = state.route(&request);
            span.field("status", i64::from(routed.1.status)).end();
            routed
        } else {
            state.route(&request)
        };
        // Latency lands in the per-endpoint SLO tracker (a log-linear
        // quantile sketch — this replaced the old fixed-bucket
        // `server_request_seconds` histogram, whose widest bucket hid
        // everything between 100ms and 1s).
        state.slo().record(endpoint, started.elapsed().as_secs_f64());
        if tgi_telemetry::enabled() {
            tgi_telemetry::counter!("server_requests_total").inc();
        }
        // Drain: finish this response, then close the session.
        let close = request.wants_close() || state.draining();
        response.close = close;
        stats.served.fetch_add(1, Ordering::Relaxed);
        if response.write_to(&mut writer).is_err() || close {
            return;
        }
    }
}

/// Waits for the next request's first byte in [`IDLE_POLL`] slices.
/// Returns `false` when the session should end instead: the peer closed
/// or failed, the server is draining, or the peer sent nothing for
/// [`SOCKET_TIMEOUT`]. A request already begun reads under the full
/// `SOCKET_TIMEOUT` again.
fn await_request(reader: &mut BufReader<TcpStream>, state: &ServerState) -> bool {
    if !reader.buffer().is_empty() {
        return true;
    }
    let _ = reader.get_ref().set_read_timeout(Some(IDLE_POLL));
    let idle_since = Instant::now();
    let ready = loop {
        match reader.fill_buf() {
            Ok(bytes) => break !bytes.is_empty(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if state.draining() || idle_since.elapsed() >= SOCKET_TIMEOUT {
                    break false;
                }
            }
            Err(_) => break false,
        }
    };
    let _ = reader.get_ref().set_read_timeout(Some(SOCKET_TIMEOUT));
    ready
}
