//! End-to-end tests over real sockets: a server instance per test, a
//! [`tgi_server::Client`] driving it, and in-memory oracles checking that
//! what went over the wire matches what the library computes directly.

use std::time::{Duration, Instant};
use tgi_server::{Client, Server, ServerConfig};

fn start_server() -> Server {
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        shards: 4,
        queue_capacity: 256,
        max_body_bytes: 1024 * 1024,
        ..ServerConfig::default()
    };
    Server::start(config, tgi_harness::experiments::system_g_reference()).expect("server starts")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string(), Duration::from_secs(5)).expect("connect")
}

fn batch_json(samples: &[(f64, f64)]) -> String {
    let entries: Vec<String> =
        samples.iter().map(|(t, w)| format!("{{\"t\":{t},\"watts\":{w}}}")).collect();
    format!("{{\"samples\":[{}]}}", entries.join(","))
}

#[test]
fn ingest_then_query_matches_in_memory_oracle() {
    let server = start_server();
    let mut client = connect(&server);

    let samples = [(0.0, 100.0), (1.0, 150.0), (2.0, 120.0), (4.0, 90.0)];
    let response = client.request("POST", "/traces/node0", &batch_json(&samples)).expect("ingest");
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains("\"appended\":4"), "{}", response.body);

    // The oracle: the same samples in a local PowerTrace.
    let mut oracle = power_model::PowerTrace::new();
    for (t, w) in samples {
        oracle.push(t, tgi_core::Watts::new(w));
    }

    let response =
        client.request("GET", "/traces/node0/energy?from=0.5&to=3.5", "").expect("query");
    assert_eq!(response.status, 200, "{}", response.body);
    let expected = oracle.energy_between(0.5, 3.5).value();
    let energy: f64 = extract_f64(&response.body, "energy_j");
    assert!((energy - expected).abs() < 1e-9, "wire {energy} vs oracle {expected}");

    // Unbounded query = whole-trace energy.
    let response = client.request("GET", "/traces/node0/energy", "").expect("query");
    let energy: f64 = extract_f64(&response.body, "energy_j");
    assert!((energy - oracle.energy().value()).abs() < 1e-9);
}

#[test]
fn evaluate_matches_library_tgi_bit_for_bit() {
    let server = start_server();
    let mut client = connect(&server);
    let body = r#"{"measurements":[
        {"id":"hpl","gflops":82.0,"watts":3000.0,"seconds":3600.0},
        {"id":"stream","perf":2.5e9,"unit":"bytes_per_sec","watts":2500.0,"seconds":600.0}],
        "weighting":"energy","mean":"geometric"}"#;
    let response = client.request("POST", "/evaluate", body).expect("evaluate");
    assert_eq!(response.status, 200, "{}", response.body);
    let wire_tgi = extract_f64(&response.body, "tgi");

    let reference = tgi_harness::experiments::system_g_reference();
    let expected = tgi_core::Tgi::builder()
        .reference(reference)
        .weighting(tgi_core::Weighting::Energy)
        .mean(tgi_core::MeanKind::Geometric)
        .measurement(
            tgi_core::Measurement::new(
                "hpl",
                tgi_core::Perf::gflops(82.0),
                tgi_core::Watts::new(3000.0),
                tgi_core::Seconds::new(3600.0),
            )
            .unwrap(),
        )
        .measurement(
            tgi_core::Measurement::new(
                "stream",
                tgi_core::Perf::new(2.5e9, tgi_core::PerfUnit::BytesPerSecond).unwrap(),
                tgi_core::Watts::new(2500.0),
                tgi_core::Seconds::new(600.0),
            )
            .unwrap(),
        )
        .compute()
        .unwrap();
    assert_eq!(wire_tgi, expected.value(), "wire and library TGI must agree exactly");
}

#[test]
fn malformed_bodies_are_rejected_with_typed_errors() {
    let server = start_server();
    let mut client = connect(&server);

    // Broken JSON.
    let r = client.request("POST", "/traces/n0", "{not json").expect("send");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("error"), "{}", r.body);

    // Valid JSON, invalid samples: negative watts.
    let r = client
        .request("POST", "/traces/n0", &batch_json(&[(0.0, 100.0), (1.0, -5.0)]))
        .expect("send");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("sample 1"), "error must name the sample: {}", r.body);

    // Backwards timestamps.
    let r = client
        .request("POST", "/traces/n0", &batch_json(&[(5.0, 100.0), (1.0, 100.0)]))
        .expect("send");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("non-decreasing"), "{}", r.body);

    // Non-finite watts (JSON can't carry NaN; 1e999 parses to +inf).
    let r = client
        .request("POST", "/traces/n0", "{\"samples\":[{\"t\":0.0,\"watts\":1e999}]}")
        .expect("send");
    assert_eq!(r.status, 400, "{}", r.body);

    // Nothing was stored by any of the rejected batches.
    let r = client.request("GET", "/traces/n0/energy", "").expect("send");
    assert_eq!(r.status, 404, "rejected batches must not create the node: {}", r.body);

    // Invalid node names.
    let r = client.request("POST", "/traces/bad%20name", "{\"samples\":[]}").expect("send");
    assert_eq!(r.status, 400, "{}", r.body);

    // Evaluate: NaN-free but non-positive performance.
    let r = client
        .request(
            "POST",
            "/evaluate",
            r#"{"measurements":[{"id":"hpl","gflops":-3.0,"watts":100.0,"seconds":10.0}]}"#,
        )
        .expect("send");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("gflops"), "{}", r.body);

    // Evaluate: unknown weighting.
    let r = client
        .request(
            "POST",
            "/evaluate",
            r#"{"measurements":[{"id":"hpl","gflops":3.0,"watts":100.0,"seconds":10.0}],"weighting":"vibes"}"#,
        )
        .expect("send");
    assert_eq!(r.status, 400, "{}", r.body);

    // Evaluate: benchmark missing from the reference → typed core error.
    let r = client
        .request(
            "POST",
            "/evaluate",
            r#"{"measurements":[{"id":"no-such-benchmark","gflops":3.0,"watts":100.0,"seconds":10.0}]}"#,
        )
        .expect("send");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("evaluation rejected"), "{}", r.body);
}

#[test]
fn out_of_order_batches_conflict_instead_of_corrupting() {
    let server = start_server();
    let mut client = connect(&server);
    let r = client
        .request("POST", "/traces/n0", &batch_json(&[(0.0, 100.0), (10.0, 100.0)]))
        .expect("send");
    assert_eq!(r.status, 200);
    // A replayed/overlapping batch must not splice into the timeline.
    let r = client.request("POST", "/traces/n0", &batch_json(&[(5.0, 100.0)])).expect("send");
    assert_eq!(r.status, 409, "{}", r.body);
    // The stored trace still has exactly the first batch.
    let snapshot = server.state().trace_snapshot("n0").expect("trace exists");
    assert_eq!(snapshot.len(), 2);
    // A batch continuing the timeline is fine (equal boundary allowed).
    let r = client
        .request("POST", "/traces/n0", &batch_json(&[(10.0, 50.0), (11.0, 50.0)]))
        .expect("send");
    assert_eq!(r.status, 200, "{}", r.body);
}

#[test]
fn routing_errors_are_distinguished() {
    let server = start_server();
    let mut client = connect(&server);

    let r = client.request("GET", "/nope", "").expect("send");
    assert_eq!(r.status, 404);

    let r = client.request("DELETE", "/traces/n0", "").expect("send");
    assert_eq!(r.status, 405, "wrong verb on a known path is 405: {}", r.body);

    let r = client.request("GET", "/traces/unknown-node/energy", "").expect("send");
    assert_eq!(r.status, 404);

    let r = client.request("GET", "/traces/n0/energy?from=banana", "").expect("send");
    // Unknown node would 404, but the parameter is validated first.
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("from"), "{}", r.body);

    let r = client.request("GET", "/healthz", "").expect("send");
    assert_eq!(r.status, 200);
    assert!(r.body.contains("ok"));
}

#[test]
fn oversized_and_malformed_framing_close_with_an_error() {
    use std::io::{Read, Write};
    let server = start_server();

    // Declared body over the configured cap → 413 before the body uploads.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "POST /traces/n0 HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");

    // Garbage request line → 400, connection closed.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "??? ???\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // Chunked upload → 501.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "POST /evaluate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 501"), "{response}");
}

#[test]
fn deeply_nested_json_is_a_400_and_the_server_survives() {
    let server = start_server();
    let mut client = connect(&server);
    let r = client.request("POST", "/evaluate", &"[".repeat(10_000)).expect("send");
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("nesting"), "{}", r.body);
    let r = client.request("GET", "/healthz", "").expect("send");
    assert_eq!(r.status, 200, "{}", r.body);
}

#[test]
fn list_and_fleet_summary_cover_all_nodes() {
    let server = start_server();
    let mut client = connect(&server);
    for node in ["alpha", "beta", "gamma"] {
        let r = client
            .request("POST", &format!("/traces/{node}"), &batch_json(&[(0.0, 100.0), (2.0, 200.0)]))
            .expect("send");
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let r = client.request("GET", "/traces", "").expect("send");
    assert_eq!(r.status, 200);
    for node in ["alpha", "beta", "gamma"] {
        assert!(r.body.contains(node), "{}", r.body);
    }
    assert!(r.body.contains("\"total_samples\":6"), "{}", r.body);

    let r = client.request("GET", "/fleet/summary", "").expect("send");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("alpha"), "{}", r.body);
}

#[cfg(feature = "telemetry")]
#[test]
fn metrics_expose_request_counters() {
    // Counters record only while the global collector is installed (the
    // tgi-server binary installs it at startup; here the test does).
    tgi_telemetry::install();
    let server = start_server();
    let mut client = connect(&server);
    client.request("GET", "/healthz", "").expect("send");
    let r = client.request("GET", "/metrics", "").expect("send");
    assert_eq!(r.status, 200);
    assert!(r.body.contains("server_requests_total"), "{}", r.body);
    let _ = tgi_telemetry::uninstall();
}

#[test]
fn graceful_shutdown_completes_in_flight_sessions() {
    let mut server = start_server();
    let addr = server.addr();
    let mut client = connect(&server);
    let r = client.request("POST", "/traces/n0", &batch_json(&[(0.0, 100.0)])).expect("send");
    assert_eq!(r.status, 200);

    server.shutdown();

    // The stored data survived the drain (read through the state handle).
    assert_eq!(server.state().trace_snapshot("n0").expect("trace kept").len(), 1);
    // New connections are refused once the listener is gone (or answered
    // with a close by a racing drain) — either way, no hang.
    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(stream) = refused {
        // The acceptor may still hold the socket open briefly; reads end.
        let mut stream = stream;
        stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut buffer = Vec::new();
        let _ = std::io::Read::read_to_end(&mut stream, &mut buffer);
    }
}

#[test]
fn shutdown_does_not_wait_out_an_idle_keep_alive_client() {
    let mut server = start_server();
    let mut client = connect(&server);
    assert_eq!(client.request("GET", "/healthz", "").expect("healthz").status, 200);
    // The client keeps its connection open and sends nothing more.
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown waited {took:?} on an idle client");
    drop(client);
}

/// Pulls `"key":<number>` out of a flat JSON body (enough for tests).
fn extract_f64(body: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let start =
        body.find(&needle).unwrap_or_else(|| panic!("`{key}` not in {body}")) + needle.len();
    let rest = &body[start..];
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or_else(|_| panic!("`{key}` not numeric in {body}"))
}
