//! End-to-end load benchmark for `tgi-server`, written to the
//! `BENCH_server.json` ledger (100 clients × 10 requests under
//! `TGI_BENCH_SMOKE`).
//!
//! Starts an in-process server on an ephemeral loopback port, then drives
//! the same [`tgi_server::load`] generator the `tgi-load` binary uses:
//! N concurrent keep-alive clients, each cycling a write-heavy
//! ingest/query/evaluate mix. Guarantees checked here, not just reported:
//!
//! * every request eventually succeeds (`429`s are retried, nothing is
//!   dropped, no non-2xx other than backpressure);
//! * no transport-level errors on loopback;
//! * the server's own served counter agrees with the clients' view of the
//!   run.

use std::sync::atomic::Ordering;
use tgi_bench::Ledger;
use tgi_server::{LoadConfig, Server, ServerConfig};

/// Concurrent clients: (full, smoke).
const CLIENTS: (usize, usize) = (1000, 100);
/// Requests per client: (full, smoke).
const REQUESTS: (usize, usize) = (20, 10);

fn main() {
    let mut ledger = Ledger::new("server_load");
    let clients = ledger.pick(CLIENTS);
    let requests_per_client = ledger.pick(REQUESTS);
    let server_config = ServerConfig::default();
    eprintln!(
        "server_load: {clients} clients x {requests_per_client} requests, \
         {} workers, {} shards, queue {}",
        server_config.workers, server_config.shards, server_config.queue_capacity
    );

    let mut server = Server::start(server_config, tgi_harness::experiments::system_g_reference())
        .expect("server starts");
    let load_config = LoadConfig {
        addr: server.addr().to_string(),
        clients,
        requests_per_client,
        batch_samples: 32,
    };
    let report = tgi_server::load::run(&load_config);
    server.shutdown();

    // Contract checks — the numbers are only worth committing if the run
    // was clean.
    let expected = (clients * requests_per_client) as u64;
    assert_eq!(report.ok, expected, "every request must eventually succeed");
    let stats = server.stats();
    let served = stats.served.load(Ordering::Relaxed);
    assert!(served >= expected, "server served {served} but clients completed {expected}");
    // Non-backpressure failures and loopback transport errors: none allowed.
    ledger.lower("load", "failed", "count", report.failed as f64).bound(0.0).deterministic();
    ledger
        .lower("load", "transport_errors", "count", report.transport_errors as f64)
        .bound(0.0)
        .deterministic();
    ledger.lower("load", "rejected_429", "count", report.rejected as f64);
    ledger.higher("load", "rps", "1/s", report.rps);
    ledger.lower("load", "wall_s", "s", report.wall_s);
    ledger.lower("load", "p50_us", "us", report.p50_us);
    ledger.lower("load", "p99_us", "us", report.p99_us);
    ledger.lower("load", "p999_us", "us", report.p999_us);
    ledger.lower("load", "max_us", "us", report.max_us);
    ledger.lower(
        "server",
        "connections_rejected",
        "count",
        stats.rejected.load(Ordering::Relaxed) as f64,
    );
    ledger.finish();
}
