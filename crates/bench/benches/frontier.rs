//! DVFS energy/performance frontier: frequency × thread count over GEMM
//! and STREAM, written to the `BENCH_frontier.json` ledger.
//!
//! The sweep combines **measurement** and **model**, and the record names
//! say which is which:
//!
//! * *measured* — `measured_seconds` and `measured_throughput` of the real
//!   GEMM and STREAM kernels on this machine, at each thread count, on the
//!   dispatched SIMD path (`machine.isa`);
//! * *modeled* — watts from the Sandy Bridge node power model and the
//!   frequency stretch from the governor's Amdahl split
//!   (`t(r)/t(1) = cf/r + 1 − cf`), because the container can neither
//!   meter the wall nor change the host clock. GEMM is treated as
//!   compute-bound (`cf = 0.95`), STREAM as memory-bound (`cf = 0.10`).
//!
//! Every (frequency, threads) point carries modeled `seconds@`, `watts@`,
//! `energy_j@` and `deadline_energy_j@` records; each workload × thread
//! count gets a `race_to_idle_penalty` — the sprint's deadline energy over
//! the best P-state's, against a deadline of 2× its nominal-frequency
//! runtime (1 means race-to-idle is optimal) — and the roofline records
//! place the measured throughput against the model machine's compute and
//! bandwidth ceilings.
//!
//! Problem sizes shrink under `TGI_BENCH_SMOKE` for the CI smoke leg.

use cluster_sim::ClusterSpec;
use hpc_kernels::gemm;
use hpc_kernels::stream::{self, StreamConfig};
use power_model::utilization::UtilizationSample;
use power_model::{GovernorModel, NodePowerModel};
use tgi_bench::Ledger;

/// Compute-bound fraction assumed for blocked DGEMM (packed panels keep
/// the FPU fed; runtime scales almost inversely with clock).
const GEMM_COMPUTE_FRACTION: f64 = 0.95;
/// Compute-bound fraction assumed for STREAM triad (bandwidth-bound;
/// nearly frequency-insensitive).
const STREAM_COMPUTE_FRACTION: f64 = 0.10;
/// Deadline for the race-to-idle question: 2× the nominal-frequency time.
const DEADLINE_SLACK: f64 = 2.0;
/// GEMM order: (full, smoke).
const GEMM_N: (usize, usize) = (512, 128);
/// STREAM array elements: (full, smoke).
const STREAM_ELEMS: (usize, usize) = (1 << 21, 65_536);

/// Measured (seconds, throughput) for one workload at one thread count.
fn measure(threads: usize, gemm_n: usize, stream_elems: usize) -> ((f64, f64), (f64, f64)) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    pool.install(|| {
        let g = gemm::benchmark(gemm_n, 7);
        let s = stream::run(StreamConfig { array_size: stream_elems, ntimes: 3 })
            .expect("STREAM arrays allocate");
        assert!(s.validated, "STREAM results check failed");
        let triad = s.timing(stream::StreamKernel::Triad);
        ((g.seconds, g.gflops), (triad.best_seconds, triad.best_bytes_per_sec / 1e9))
    })
}

/// One measured observation: what actually ran, for how long, how fast.
struct Measured {
    workload: &'static str,
    threads: usize,
    seconds: f64,
    throughput: f64,
    unit: &'static str,
}

/// Records the measurement, the modeled frontier over the governor's
/// P-states, and the race-to-idle verdict for one workload × thread count.
/// Returns whether race-to-idle is optimal.
fn sweep(
    ledger: &mut Ledger,
    governor: &GovernorModel,
    node: &NodePowerModel,
    u: UtilizationSample,
    compute_fraction: f64,
    m: Measured,
) -> bool {
    let deadline = m.seconds * DEADLINE_SLACK;
    let points = governor.frontier(node, u, compute_fraction, m.seconds, deadline);
    let verdict = governor
        .race_to_idle(node, u, compute_fraction, m.seconds, deadline)
        .expect("nominal frequency always meets a 2x deadline");
    assert!(points.len() >= 3, "frontier needs >= 3 frequency points");
    assert!(points.iter().all(|p| p.energy_j.is_finite() && p.energy_j > 0.0));
    let layer = format!("{}.{}t", m.workload, m.threads);
    ledger.lower(&layer, "measured_seconds", "s", m.seconds);
    ledger.higher(&layer, "measured_throughput", m.unit, m.throughput);
    for p in &points {
        let at = format!("@{}GHz", p.freq_ghz);
        ledger.lower(&layer, format!("seconds{at}"), "s", p.seconds);
        ledger.lower(&layer, format!("watts{at}"), "W", p.watts).deterministic();
        ledger.lower(&layer, format!("energy_j{at}"), "J", p.energy_j);
        // A P-state that misses the deadline has no deadline energy.
        if let Some(e) = p.deadline_energy_j {
            ledger.lower(&layer, format!("deadline_energy_j{at}"), "J", e);
        }
    }
    let penalty = verdict.sprint_deadline_energy_j / verdict.best_deadline_energy_j;
    ledger.lower(&layer, "race_to_idle_penalty", "x", penalty);
    verdict.race_to_idle_optimal
}

fn main() {
    let mut ledger = Ledger::new("frontier");
    let gemm_n = ledger.pick(GEMM_N);
    let stream_elems = ledger.pick(STREAM_ELEMS);
    let n_threads = ledger.machine.available_parallelism;
    // At least two thread counts even on a single-core machine (the
    // 2-thread point is then an oversubscription measurement — honest,
    // because the layer names record what actually ran).
    let thread_counts = if n_threads > 1 { vec![1, n_threads] } else { vec![1, 2] };
    assert!(thread_counts.len() >= 2, "need >= 2 thread counts per workload");
    eprintln!(
        "frontier: isa={}, gemm n={gemm_n}, stream elems={stream_elems}, threads {thread_counts:?}",
        ledger.machine.isa
    );

    let governor = GovernorModel::sandy_bridge();
    let node = NodePowerModel::sandy_bridge_node();
    let gemm_u = UtilizationSample::cpu_bound(1.0);
    // STREAM saturates the memory system while cores stall.
    let stream_u = UtilizationSample::new(0.4, 1.0, 0.0, 0.0);

    let (mut gemm_rti, mut stream_rti) = (true, true);
    let (mut gemm_1t, mut triad_best) = (0.0, 0.0f64);
    for &t in &thread_counts {
        let ((gs, gf), (ss, sbw)) = measure(t, gemm_n, stream_elems);
        eprintln!("  threads={t}: gemm {gs:.4}s ({gf:.2} GFLOPS), triad {ss:.5}s ({sbw:.2} GB/s)");
        if t == 1 {
            gemm_1t = gf;
        }
        triad_best = triad_best.max(sbw);
        let g =
            Measured { workload: "gemm", threads: t, seconds: gs, throughput: gf, unit: "GFLOP/s" };
        gemm_rti &= sweep(&mut ledger, &governor, &node, gemm_u, GEMM_COMPUTE_FRACTION, g);
        let s = Measured {
            workload: "stream_triad",
            threads: t,
            seconds: ss,
            throughput: sbw,
            unit: "GB/s",
        };
        stream_rti &= sweep(&mut ledger, &governor, &node, stream_u, STREAM_COMPUTE_FRACTION, s);
    }

    // Roofline context from the model machine (Sandy Bridge-EP node).
    let spec = ClusterSpec::sandy();
    let per_core_peak = spec.node.clock_ghz * spec.node.flops_per_cycle;
    let bw = spec.node.mem_bandwidth_gbps;
    ledger.higher("roofline", "gemm_fraction_of_core_peak_1t", "share", gemm_1t / per_core_peak);
    ledger.higher("roofline", "triad_fraction_of_model_bw", "share", triad_best / bw);
    // Blocked DGEMM at size n: 2n^3 FLOPs over 3·8·n^2 bytes of matrix data.
    eprintln!(
        "  roofline: ridge {:.2} flop/B, gemm n={gemm_n} at {:.1} flop/B",
        spec.node.peak_gflops() / bw,
        2.0 * gemm_n as f64 / 24.0
    );
    eprintln!(
        "  verdict: race-to-idle is {} for compute-bound GEMM and {} for memory-bound STREAM",
        if gemm_rti { "optimal" } else { "not optimal" },
        if stream_rti { "optimal" } else { "not optimal" },
    );

    ledger.finish();
}
