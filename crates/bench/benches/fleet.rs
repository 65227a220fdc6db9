//! Synthetic Green500 fleet bench: Top500-scale fleet generation, the full
//! (system × weighting × mean) fleet sweep, and the single-flight
//! memoizer vs the old single-mutex design, written to the
//! `BENCH_fleet.json` ledger (50 systems under `TGI_BENCH_SMOKE`).
//!
//! Three sections, each with hard correctness gates before any number is
//! trusted:
//!
//! 1. **generation** — seeded fleet sampling in a 1-thread pool vs the
//!    default pool; the two fleets must be identical.
//! 2. **sweep** — `FleetSweep::run` over the full paper axes grid; the
//!    parallel table must be bitwise equal to `run_sequential`, and the
//!    single-flight duplicate-simulation count must be exactly 0 (a
//!    ledger bound).
//! 3. **memo** — N threads (1/4/16) race through the same cold key
//!    sequence. The old design (one mutex, simulate outside the lock) lets
//!    every racing thread re-simulate a missed key; the single-flight
//!    cache simulates each key exactly once and parks the rest. The
//!    speedup is duplicate-work avoidance, so it holds on any core count.
//!    The 16-thread speedup is bounded at ≥ 4× at the full 500-system
//!    size and ≥ 1× at smoke size. (Its `sharded_*` record names predate
//!    the one-map cache; they are kept so ledgers stay comparable.)

use cluster_sim::{
    ClusterSpec, ExecutionEngine, FleetConfig, MemoizedEngine, SimulatedRun, Workload,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;
use tgi_bench::Ledger;
use tgi_harness::{system_g_reference, FleetSweep};

/// Fleet size: (full, smoke).
const SYSTEMS: (usize, usize) = (500, 50);
/// Floor on the single-flight memo's speedup over the single mutex at 16
/// threads: (full, smoke).
const MEMO_SPEEDUP_BAR: (f64, f64) = (4.0, 1.0);

/// The pre-PR memoizer, reconstructed as the baseline: one mutex around
/// the whole map, simulation *outside* the lock, first insert wins. Two
/// threads missing on the same key both pay the full simulation — the
/// duplicate work the single-flight cache eliminates.
struct SingleMutexMemo {
    engine: ExecutionEngine,
    cache: Mutex<HashMap<usize, Arc<Vec<SimulatedRun>>>>,
    simulations: AtomicUsize,
}

impl SingleMutexMemo {
    fn new(engine: ExecutionEngine) -> Self {
        SingleMutexMemo {
            engine,
            cache: Mutex::new(HashMap::new()),
            simulations: AtomicUsize::new(0),
        }
    }

    fn run_suite(&self, workloads: &[Workload], processes: usize) -> Arc<Vec<SimulatedRun>> {
        if let Some(cached) = self.cache.lock().unwrap().get(&processes) {
            return Arc::clone(cached);
        }
        self.simulations.fetch_add(1, Ordering::Relaxed);
        let runs = Arc::new(self.engine.run_suite(workloads, processes));
        Arc::clone(self.cache.lock().unwrap().entry(processes).or_insert(runs))
    }
}

/// Drives `threads` std threads through the same cold key sequence and
/// returns (elapsed ms, simulations performed).
fn race_keys<F>(
    threads: usize,
    keys: &[usize],
    run_key: F,
    simulations: &AtomicUsize,
) -> (f64, usize)
where
    F: Fn(usize) + Sync,
{
    simulations.store(0, Ordering::Relaxed);
    let barrier = Barrier::new(threads);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                barrier.wait();
                for &key in keys {
                    run_key(key);
                }
            });
        }
    });
    (start.elapsed().as_secs_f64() * 1e3, simulations.load(Ordering::Relaxed))
}

fn main() {
    let mut ledger = Ledger::new("fleet");
    let systems = ledger.pick(SYSTEMS);
    let memo_speedup_bar = ledger.pick(MEMO_SPEEDUP_BAR);
    let n_threads = ledger.machine.available_parallelism;
    eprintln!("fleet: {systems} systems, {n_threads} thread(s) available");

    // --- 1. Generation: one thread vs the default pool, must be identical.
    let config = FleetConfig::new(42).systems(systems);
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let start = Instant::now();
    let fleet_seq = one_thread.install(|| config.generate());
    let sequential_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let fleet_par = config.generate();
    let parallel_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(fleet_seq == fleet_par, "parallel fleet generation must match sequential");
    ledger.lower("generation", "sequential_ms", "ms", sequential_ms);
    ledger.speedup_n_over_1("generation", || sequential_ms / parallel_ms);
    eprintln!("  generation: seq {sequential_ms:.2} ms, par {parallel_ms:.2} ms");

    // --- 2. Fleet sweep over the full paper axes.
    let sweep =
        FleetSweep::new().fleet(fleet_seq).suite("fire", Workload::fire_suite()).paper_axes();
    let reference = system_g_reference();
    let start = Instant::now();
    let cold = sweep.run(&reference).expect("fleet evaluates");
    let cold_parallel_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let warm = sweep.run(&reference).expect("fleet evaluates");
    let warm_parallel_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let sequential = sweep.run_sequential(&reference).expect("fleet evaluates");
    let warm_sequential_ms = start.elapsed().as_secs_f64() * 1e3;

    let bitwise_equal = cold.values().len() == sequential.values().len()
        && cold.values().iter().zip(sequential.values()).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(bitwise_equal, "parallel FleetTable must equal the sequential reference bitwise");
    assert_eq!(cold, warm, "memoized rerun must reproduce the table exactly");
    let ranking = cold.green500_ranking(0, 0, 0).expect("finite scores");
    eprintln!(
        "  sweep: {} cells cold {cold_parallel_ms:.1} ms, warm {warm_parallel_ms:.2} ms; \
         greenest {}",
        cold.len(),
        ranking.greenest().expect("non-empty fleet").name
    );
    ledger.lower("sweep", "cold_parallel_ms", "ms", cold_parallel_ms);
    ledger.lower("sweep", "warm_parallel_ms", "ms", warm_parallel_ms);
    ledger.lower("sweep", "warm_sequential_ms", "ms", warm_sequential_ms);
    // The single-flight memo never simulates a key twice.
    ledger
        .lower("sweep", "duplicate_simulations", "count", sweep.duplicate_simulations() as f64)
        .bound(0.0)
        .deterministic();
    ledger.lower("sweep", "inflight_waits", "count", sweep.inflight_waits() as f64);

    // --- 3. Single-flight vs single-mutex memo under key races.
    // Every thread walks the same cold (suite, cores) sequence — the shape
    // of concurrent clients scoring one fleet. The old design re-simulates
    // a racing key per thread; single-flight parks all but one. The suite
    // is a multi-size qualification batch (120 workloads, ~10 ms per
    // simulation) so each simulation outlives a scheduler timeslice: racing
    // threads genuinely interleave mid-simulation, on any core count.
    let keys: Vec<usize> = vec![16, 32, 64, 128];
    let suite: Vec<Workload> = (0..40u64)
        .flat_map(|i| {
            let scale = 1.0 + i as f64 * 0.25;
            [
                Workload::Hpl { n: 40_000 + i as usize * 4_000 },
                Workload::Stream { total_bytes: 4e13 * scale },
                Workload::Iozone { total_bytes: 1.5e10 * scale },
            ]
        })
        .collect();
    for threads in [1usize, 4, 16] {
        let baseline = SingleMutexMemo::new(ExecutionEngine::new(ClusterSpec::fire()));
        let (single_mutex_ms, single_mutex_simulations) = race_keys(
            threads,
            &keys,
            |cores| {
                baseline.run_suite(&suite, cores);
            },
            &baseline.simulations,
        );

        let memo = MemoizedEngine::new(ExecutionEngine::new(ClusterSpec::fire()));
        let memo_sims = AtomicUsize::new(0);
        let (memo_ms, _) = race_keys(
            threads,
            &keys,
            |cores| {
                memo.run_suite(&suite, cores);
            },
            &memo_sims,
        );
        let memo_simulations = memo.simulations();
        assert_eq!(memo_simulations, keys.len(), "one simulation per distinct key");

        let speedup = single_mutex_ms / memo_ms;
        eprintln!(
            "  memo {threads:>2} threads: single-mutex {single_mutex_ms:.1} ms \
             ({single_mutex_simulations} sims), single-flight {memo_ms:.1} ms \
             ({memo_simulations} sims) — {speedup:.1}x"
        );
        let layer = format!("memo.{threads}t");
        ledger.lower(&layer, "single_mutex_ms", "ms", single_mutex_ms);
        ledger.lower(
            &layer,
            "single_mutex_duplicates",
            "count",
            single_mutex_simulations.saturating_sub(keys.len()) as f64,
        );
        ledger.lower(&layer, "sharded_ms", "ms", memo_ms);
        ledger
            .lower(&layer, "sharded_duplicates", "count", memo.duplicate_simulations() as f64)
            .bound(0.0)
            .deterministic();
        let speedup = ledger.higher(&layer, "speedup", "x", speedup);
        if threads == 16 {
            speedup.bound(memo_speedup_bar);
        }
    }

    ledger.finish();
}
