//! STREAM keeps its three arrays for the life of the process and refills
//! them in place on later runs of the same size. These tests check that
//! a reused set starts from the same state as a fresh one: across sizes,
//! run after run, and when concurrent runs each need their own set.
//!
//! The tests in this file share the process's one retained set, so each
//! takes `SERIAL` to keep its own sequence of sizes in order.

use hpc_kernels::stream::{self, StreamConfig, StreamResult};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn run(array_size: usize) -> StreamResult {
    let r = stream::run(StreamConfig { array_size, ntimes: 3 });
    assert!(r.validated, "n={array_size}: results check error {}", r.max_relative_error);
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
    // in-place refill.
    for size in [n / 4 + 1, 4 * n - 7, n, n] {
        let r = run(size);
        if size == n {
            assert_eq!(r.max_relative_error.to_bits(), original.max_relative_error.to_bits());
        }
    }
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
