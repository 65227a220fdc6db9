//! The traced connection loop: the same calls the server's workers make
//! (`http::read_request`, `ServerState::handle`, `Response::write_to`),
//! driven from the benchmark so each can carry a span. One thread serves
//! one keep-alive connection, as a worker of `tgi_server::Server` does.
//!
//! Requests name their operation in an `op` query parameter, which the
//! handlers ignore; the spans of one request share it. With
//! [`Tracer::off`] the same loop runs without spans, so a traced run's
//! untraced reference phase differs from its traced phase by the spans
//! alone.

use crate::spans::Tracer;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use tgi_server::http::read_request;
use tgi_server::ServerState;

pub struct TracedServer {
    pub addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl TracedServer {
    /// Serves exactly `connections` connections, one thread each.
    pub fn start(
        state: Arc<ServerState>,
        tracer: Arc<Tracer>,
        connections: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mut threads = Vec::new();
        for _ in 0..connections {
            let listener = listener.try_clone()?;
            let (state, tracer) = (Arc::clone(&state), Arc::clone(&tracer));
            threads.push(std::thread::spawn(move || {
                if let Ok((stream, _)) = listener.accept() {
                    serve(&state, &tracer, stream);
                }
            }));
        }
        Ok(TracedServer { addr, threads })
    }

    /// Waits for every connection to close.
    pub fn join(self) {
        for t in self.threads {
            t.join().expect("traced server thread panicked");
        }
    }
}

fn handler_span(method: &str, path: &str) -> &'static str {
    match (method, path.rsplit('/').next().unwrap_or("")) {
        ("POST", "evaluate") => "server.handle_evaluate",
        ("POST", _) => "server.handle_ingest",
        (_, "energy") => "server.handle_energy",
        (_, "anomalies") => "server.handle_anomalies",
        _ => "server.handle_other",
    }
}

fn serve(state: &ServerState, tracer: &Tracer, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    loop {
        // Wait for the next request outside the span: an idle keep-alive
        // connection is not time spent reading.
        match reader.fill_buf() {
            Ok(buf) if !buf.is_empty() => {}
            _ => return,
        }
        let started = Instant::now();
        let Ok(request) = read_request(&mut reader, state.max_body_bytes()) else { return };
        let read_s = started.elapsed().as_secs_f64();
        let op = request.query_value("op").and_then(|v| v.parse().ok()).unwrap_or(u64::MAX);
        tracer.record(op, None, "server", "server.read_request", read_s);
        let name = handler_span(&request.method, &request.path);
        let (response, _) = tracer.span(op, None, "server", name, || state.handle(&request));
        let (written, _) = tracer
            .span(op, None, "server", "server.write_response", || response.write_to(&mut writer));
        if written.is_err() {
            return;
        }
    }
}

/// The span id of each operation's handler span.
pub fn handler_ids(spans: &[crate::spans::Span]) -> std::collections::HashMap<u64, usize> {
    spans.iter().filter(|s| s.name.starts_with("server.handle_")).map(|s| (s.op, s.id)).collect()
}

/// Traced server time per operation (read + handle + write), seconds.
pub fn server_time_by_op(spans: &[crate::spans::Span]) -> std::collections::HashMap<u64, f64> {
    let mut out = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none() && s.layer == "server") {
        *out.entry(s.op).or_insert(0.0) += s.dur_s;
    }
    out
}
