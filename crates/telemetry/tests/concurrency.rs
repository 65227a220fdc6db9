//! Concurrency stress: spans and counters recorded from many threads must
//! be collected exactly once, across repeated install/uninstall cycles.
//!
//! Telemetry state is process-global, so every test in this binary
//! serializes on [`lock`].

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

fn lock() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Thread count honours the CI matrix (`TGI_NUM_THREADS={1,4}`).
fn num_threads() -> usize {
    std::env::var("TGI_NUM_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(4)
}

#[test]
fn spans_from_many_threads_collected_exactly_once() {
    let _gate = lock();
    let threads = num_threads();
    const SPANS_PER_THREAD: usize = 500;

    assert!(tgi_telemetry::install(), "no collector should be installed yet");
    thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for i in 0..SPANS_PER_THREAD {
                    let _span = tgi_telemetry::span("stress.work")
                        .field("thread", t as u64)
                        .field("iter", i as u64);
                    tgi_telemetry::counter!("stress_iterations_total").inc();
                }
            });
        }
    });
    let snapshot = tgi_telemetry::metrics::snapshot();
    let events = tgi_telemetry::uninstall();

    let spans: Vec<_> = events.iter().filter(|e| e.name == "stress.work").collect();
    assert_eq!(spans.len(), threads * SPANS_PER_THREAD, "every span exactly once");
    assert_eq!(
        snapshot.counter("stress_iterations_total"),
        Some((threads * SPANS_PER_THREAD) as u64)
    );

    // Per (thread-field, iter-field) pair seen exactly once.
    let mut seen = std::collections::BTreeSet::new();
    for span in &spans {
        let t = span.fields.iter().find(|(k, _)| *k == "thread").unwrap();
        let i = span.fields.iter().find(|(k, _)| *k == "iter").unwrap();
        assert!(seen.insert((format!("{}", t.1), format!("{}", i.1))), "duplicate span");
    }

    // After uninstall the buffers are empty: a second drain yields nothing.
    assert!(tgi_telemetry::drain().is_empty(), "drain hands events out exactly once");
}

#[test]
fn counters_are_atomic_under_contention() {
    let _gate = lock();
    let threads = num_threads().max(2);
    const INCS_PER_THREAD: u64 = 10_000;

    assert!(tgi_telemetry::install());
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let counter = tgi_telemetry::metrics::counter("contention_total");
                for _ in 0..INCS_PER_THREAD {
                    counter.inc();
                }
            });
        }
    });
    let total = tgi_telemetry::metrics::counter("contention_total").get();
    tgi_telemetry::uninstall();
    assert_eq!(total, threads as u64 * INCS_PER_THREAD);
}

#[test]
fn repeated_install_uninstall_cycles_stay_clean() {
    let _gate = lock();
    for cycle in 0..20 {
        assert!(tgi_telemetry::install(), "cycle {cycle}: install should succeed");
        assert!(!tgi_telemetry::install(), "cycle {cycle}: double install must fail");
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _span = tgi_telemetry::span("cycle.work");
                });
            }
        });
        let events = tgi_telemetry::uninstall();
        let count = events.iter().filter(|e| e.name == "cycle.work").count();
        assert_eq!(count, 2, "cycle {cycle}: no leakage between sessions");
    }
}

#[test]
fn nothing_recorded_while_uninstalled() {
    let _gate = lock();
    assert!(!tgi_telemetry::installed());
    {
        let _span = tgi_telemetry::span("ghost").field("x", 1u64);
        tgi_telemetry::counter!("ghost_total").add(5);
        tgi_telemetry::gauge!("ghost_gauge").set(1.0);
        tgi_telemetry::histogram!("ghost_hist").record(0.5);
    }
    assert_eq!(tgi_telemetry::metrics::histogram("ghost_hist").count(), 0);
    assert!(tgi_telemetry::install());
    let events = tgi_telemetry::uninstall();
    assert!(events.iter().all(|e| e.name != "ghost"));
    let snap = tgi_telemetry::metrics::snapshot();
    assert_eq!(snap.counter("ghost_total"), Some(0));
}

#[test]
fn gauge_add_is_lock_free_and_consistent() {
    let _gate = lock();
    let threads = num_threads().max(2);
    const ADDS_PER_THREAD: usize = 1_000;

    assert!(tgi_telemetry::install());
    thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let gauge = tgi_telemetry::metrics::gauge("contended_gauge");
                for _ in 0..ADDS_PER_THREAD {
                    gauge.add(0.5);
                }
            });
        }
    });
    let value = tgi_telemetry::metrics::gauge("contended_gauge").get();
    tgi_telemetry::uninstall();
    assert!((value - threads as f64 * ADDS_PER_THREAD as f64 * 0.5).abs() < 1e-9);
}
