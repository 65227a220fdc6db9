//! STREAM keeps its three arrays for the life of the process, and a later
//! run of the same size uses them as the last run's results check left
//! them. These tests check that a reused set gives the same results as a
//! fresh one: across sizes and repetition counts, run after run, and when
//! concurrent runs each need their own set.
//!
//! The tests in this file share the process's one retained set, so each
//! takes `SERIAL` to keep its own sequence of sizes in order.

use hpc_kernels::stream::{self, StreamConfig, StreamResult};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn run(array_size: usize) -> StreamResult {
    run_times(array_size, 3)
}

fn run_times(array_size: usize, ntimes: usize) -> StreamResult {
    let r = stream::run(StreamConfig { array_size, ntimes }).expect("arrays allocate");
    assert!(
        r.validated,
        "n={array_size}, ntimes={ntimes}: results check error {}",
        r.max_relative_error
    );
    assert_eq!(r.array_size, array_size);
    r
}

#[test]
fn two_runs_of_one_size_give_bit_equal_errors() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A size no other test here uses, so the first run allocates and the
    // second reuses.
    let n = (1 << 16) + 3;
    let first = run(n);
    let second = run(n);
    assert_eq!(first.max_relative_error.to_bits(), second.max_relative_error.to_bits());
}

#[test]
fn smaller_then_larger_then_original_size_all_validate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 1 << 15;
    let original = run(n);
    // The last two runs are a fresh set of the original size, then its
    // reuse.
    for size in [n / 4 + 1, 4 * n - 7, n, n] {
        let r = run(size);
        if size == n {
            assert_eq!(r.max_relative_error.to_bits(), original.max_relative_error.to_bits());
        }
    }
}

#[test]
fn repetition_counts_can_change_between_runs_of_one_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The check that ends each run must leave the set ready for any
    // repetition count, not only the one it checked.
    let n = (1 << 15) + 5;
    let first = run_times(n, 2);
    run_times(n, 5);
    let last = run_times(n, 2);
    assert_eq!(first.max_relative_error.to_bits(), last.max_relative_error.to_bits());
}

#[test]
fn concurrent_runs_each_validate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let sizes = [1 << 14, (1 << 14) + 1, 1 << 15, 1 << 14];
    std::thread::scope(|s| {
        for &n in &sizes {
            s.spawn(move || {
                for _ in 0..3 {
                    run(n);
                }
            });
        }
    });
    // Whichever set was put back last is the one kept; runs after the
    // race still validate at every size.
    for n in sizes {
        run(n);
    }
}
