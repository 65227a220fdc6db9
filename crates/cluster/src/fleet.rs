//! Synthetic Green500 fleet generation.
//!
//! The paper evaluates two machines; the ROADMAP's north star is *fleet*
//! scale — hundreds of parameterized systems ranked by TGI. This module
//! samples [`ClusterSpec`]s from Top500-style distributions ("Green HPC: an
//! analysis of the domain based on Top500" gives the statistical shape):
//!
//! * **node count** — log-normal (the list is dominated by mid-size
//!   clusters with a long tail of huge ones), clamped to `[4, 4096]`;
//! * **cores per node** — categorical over socket × core-count configs of
//!   the 2008–2012 hardware generations the paper spans;
//! * **per-node idle/peak wall watts** — sampled targets realized by
//!   inverting the PSU curve and splitting the DC budget across component
//!   models, so every generated node obeys the same physics as the presets;
//! * **interconnect class** — categorical from GigE to IB-FDR, with the
//!   NIC power model matched to the link generation;
//! * **PUE** — optional facility overhead in `[1.05, 1.9]` (Wattlytics
//!   motivates carrying facility burden into efficiency metrics).
//!
//! Generation is **deterministic and order-independent**: each spec is
//! derived from a [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! stream seeded by `(fleet seed, index)` alone, so
//! [`FleetConfig::generate`], which runs over the rayon shim, produces
//! bitwise the same fleet at any thread count — the property the golden
//! test pins down.

use crate::spec::{ClusterSpec, InterconnectSpec, NodeSpec, ScalingParams, SharedFsSpec};
use power_model::components::{BaseboardPower, CpuPower, DiskPower, MemoryPower, NicPower};
use power_model::psu::PsuEfficiency;
use power_model::{AcceleratorPower, NodePowerModel};
use rayon::prelude::*;

/// SplitMix64: a tiny, high-quality, seekable PRNG. Each fleet index gets
/// its own stream, which is what makes parallel generation bit-identical
/// to sequential — no shared mutable RNG state, no draw-order coupling.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal via Box–Muller (two uniforms per draw; the second
    /// variate is discarded to keep the draw count deterministic).
    fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal with the given median and shape σ.
    fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.normal()).exp()
    }

    /// Index into `weights` with probability proportional to the weight.
    fn categorical(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

/// One interconnect generation: link characteristics plus the matching
/// host-adapter power band.
struct InterconnectClass {
    name: &'static str,
    latency_us: f64,
    bandwidth_gbps: f64,
    nic_idle_w: f64,
    nic_active_w: f64,
    /// Top500-style prevalence weight.
    weight: f64,
}

const INTERCONNECTS: [InterconnectClass; 5] = [
    InterconnectClass {
        name: "GigE",
        latency_us: 50.0,
        bandwidth_gbps: 1.0,
        nic_idle_w: 2.0,
        nic_active_w: 4.0,
        weight: 0.30,
    },
    InterconnectClass {
        name: "10GigE",
        latency_us: 12.0,
        bandwidth_gbps: 10.0,
        nic_idle_w: 4.0,
        nic_active_w: 10.0,
        weight: 0.15,
    },
    InterconnectClass {
        name: "IB-DDR",
        latency_us: 2.5,
        bandwidth_gbps: 20.0,
        nic_idle_w: 6.0,
        nic_active_w: 14.0,
        weight: 0.20,
    },
    InterconnectClass {
        name: "IB-QDR",
        latency_us: 1.5,
        bandwidth_gbps: 40.0,
        nic_idle_w: 8.0,
        nic_active_w: 18.0,
        weight: 0.25,
    },
    InterconnectClass {
        name: "IB-FDR",
        latency_us: 0.7,
        bandwidth_gbps: 56.0,
        nic_idle_w: 9.0,
        nic_active_w: 21.0,
        weight: 0.10,
    },
];

/// Socket-count × cores-per-socket configurations of the era, with
/// Top500-ish prevalence weights.
const CPU_CONFIGS: [(usize, usize, f64); 6] =
    [(2, 4, 0.30), (2, 6, 0.20), (2, 8, 0.25), (1, 8, 0.05), (4, 8, 0.10), (2, 12, 0.10)];

/// Configuration for one synthetic fleet.
///
/// `FleetConfig::new(seed)` gives the defaults the synthetic Green500 uses:
/// 500 systems with PUE sampling enabled. Every knob is builder-style.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Master seed; the entire fleet is a pure function of this (and the
    /// other fields).
    pub seed: u64,
    /// Number of systems to generate.
    pub systems: usize,
    /// Sample a facility PUE in `[1.05, 1.9]` per system; when `false`
    /// every spec keeps the default PUE of 1 (meter reads IT power).
    pub sample_pue: bool,
}

impl FleetConfig {
    /// Default fleet: 500 systems (a Top500-scale list) with PUE sampling.
    pub fn new(seed: u64) -> Self {
        FleetConfig { seed, systems: 500, sample_pue: true }
    }

    /// Sets the fleet size (builder style).
    pub fn systems(mut self, systems: usize) -> Self {
        assert!(systems > 0, "fleet must contain at least one system");
        self.systems = systems;
        self
    }

    /// Enables or disables PUE sampling (builder style).
    pub fn sample_pue(mut self, sample: bool) -> Self {
        self.sample_pue = sample;
        self
    }

    /// Generates the fleet over the rayon shim, in index order. Every spec
    /// passes [`ClusterSpec::validate`] by construction, and the fleet is
    /// bitwise the same at any thread count: each index draws from its
    /// own seeded stream, so no ordering effects exist.
    pub fn generate(&self) -> Vec<ClusterSpec> {
        (0..self.systems).into_par_iter().map(|i| self.generate_one(i)).collect()
    }

    /// Generates the `index`-th system of this fleet — a pure function of
    /// `(seed, config, index)`.
    pub fn generate_one(&self, index: usize) -> ClusterSpec {
        assert!(index < self.systems, "index {index} out of range for {} systems", self.systems);
        // Decorrelate per-index streams: mix the index into the seed with
        // the golden-gamma stride and one extra SplitMix64 scramble.
        let stream = self.seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            ^ 0x5851_F42D_4C95_7F2D;
        let mut rng = SplitMix64::new(SplitMix64::new(stream).next_u64());

        // --- Scale: node count log-normal, median 64, heavy right tail.
        let nodes = rng.log_normal(64.0, 1.1).round().clamp(4.0, 4096.0) as usize;

        // --- Node hardware.
        let cfg = rng.categorical(&CPU_CONFIGS.map(|(_, _, w)| w));
        let (sockets, cores_per_socket, _) = CPU_CONFIGS[cfg];
        let clock_ghz = (rng.uniform(1.8, 3.2) * 10.0).round() / 10.0;
        // SSE-era (4 FLOPs/cycle) vs AVX-era (8) split.
        let flops_per_cycle = if rng.next_f64() < 0.55 { 4.0 } else { 8.0 };
        let cores = sockets * cores_per_socket;
        let memory_gib = (cores as f64 * rng.uniform(1.0, 4.0)).round().max(4.0);
        // Bandwidth scales with socket count and DRAM generation.
        let mem_bandwidth_gbps = (sockets as f64 * rng.uniform(12.0, 52.0) * 10.0).round() / 10.0;

        // --- Interconnect class.
        let ic = &INTERCONNECTS[rng.categorical(&INTERCONNECTS.map(|c| c.weight))];

        // --- Optional accelerators (a minority of the list, as in the
        // early-2010s Top500): boards speed up HPL and add power draw.
        let accel_boards =
            if rng.next_f64() < 0.15 { 1 + (rng.next_u64() % 2) as usize } else { 0 };

        // --- Per-node power targets (wall watts), Top500-band log-normals.
        let idle_target = rng.log_normal(140.0, 0.30).clamp(60.0, 400.0);
        let dynamic_ratio = rng.uniform(1.8, 3.0);
        let peak_target = (idle_target * dynamic_ratio).clamp(idle_target + 50.0, 1200.0);
        let power = build_node_power(
            &mut rng,
            sockets,
            memory_gib,
            ic,
            accel_boards,
            idle_target,
            peak_target,
        );

        // --- Scaling-model parameters in the band spanned by the presets.
        let scaling = ScalingParams {
            hpl_serial_efficiency: rng.uniform(0.15, 0.9),
            hpl_kappa: rng.uniform(0.02, 0.06),
            hpl_mu: rng.uniform(0.0, 0.8),
            stream_k: rng.uniform(0.9, 1.6),
            stream_peak_fraction: rng.uniform(0.5, 0.75),
            stream_cpu_factor: rng.uniform(0.1, 1.0),
            hpl_accelerator_factor: if accel_boards > 0 {
                1.0 + accel_boards as f64 * rng.uniform(2.0, 3.0)
            } else {
                1.0
            },
        };

        // --- Shared filesystem sized to the cluster.
        let per_client_mbps = rng.uniform(60.0, 300.0);
        let shared_fs = SharedFsSpec {
            per_client_mbps,
            server_cap_mbps: per_client_mbps * rng.uniform(4.0, 16.0),
            contention_loss: rng.uniform(0.001, 0.05),
        };

        let pue =
            if self.sample_pue { (rng.uniform(1.05, 1.9) * 100.0).round() / 100.0 } else { 1.0 };

        let spec = ClusterSpec {
            name: format!("g500-{index:03}"),
            nodes,
            node: NodeSpec {
                cpu_model: format!(
                    "synthetic {sockets}x{cores_per_socket}c @ {clock_ghz:.1} GHz, {}",
                    ic.name
                ),
                sockets,
                cores_per_socket,
                clock_ghz,
                flops_per_cycle,
                memory_gib,
                mem_bandwidth_gbps,
            },
            interconnect: InterconnectSpec {
                latency_us: ic.latency_us,
                bandwidth_gbps: ic.bandwidth_gbps,
            },
            shared_fs,
            scaling,
            pue,
            power: Some(power),
        };
        debug_assert!(spec.validate().is_ok(), "generated spec must validate");
        spec
    }
}

/// Builds a [`NodePowerModel`] whose idle/peak *wall* power lands on the
/// sampled targets: fixed components (memory, disk, NIC, baseboard,
/// accelerator) are set from the hardware config, the PSU curve is
/// inverted by bisection to find the DC budgets, and the CPU model absorbs
/// the remainder.
fn build_node_power(
    rng: &mut SplitMix64,
    sockets: usize,
    memory_gib: f64,
    ic: &InterconnectClass,
    accel_boards: usize,
    idle_target_wall: f64,
    peak_target_wall: f64,
) -> NodePowerModel {
    let dimms = ((memory_gib / 4.0).round() as usize).clamp(2, 16);
    let memory = MemoryPower {
        idle_w_per_dimm: rng.uniform(2.0, 6.0),
        active_w_per_dimm: rng.uniform(6.0, 11.0),
        dimms,
    };
    let disk =
        DiskPower { idle_w: rng.uniform(3.0, 6.0), active_w: rng.uniform(8.0, 12.0), drives: 1 };
    let nic = NicPower { idle_w: ic.nic_idle_w, active_w: ic.nic_active_w };
    let accelerator = if accel_boards > 0 {
        AcceleratorPower::fermi_class(accel_boards)
    } else {
        AcceleratorPower::none()
    };
    let alpha = rng.uniform(1.1, 2.2);

    // Fixed (non-CPU) DC draw at the two anchor points.
    let accel_idle = accelerator.power(0.0).value();
    let accel_peak = accelerator.power(1.0).value();
    let baseboard_w = rng.uniform(20.0, 50.0);
    let fixed_idle = memory.power(0.0).value()
        + disk.power(0.0).value()
        + nic.power(0.0).value()
        + baseboard_w
        + accel_idle;
    let fixed_peak = memory.power(1.0).value()
        + disk.power(1.0).value()
        + nic.power(1.0).value()
        + baseboard_w
        + accel_peak;

    // Rated PSU comfortably above the peak DC draw (efficiency curves are
    // defined on load fraction of rating).
    let rated_w = (peak_target_wall * 1.3).max(500.0);
    let psu = PsuEfficiency::bronze(rated_w);

    // Invert wall → DC at both anchors, then give the CPU the remainder.
    // Clamps keep the model valid even when a low idle target collides
    // with the fixed components' floor.
    let dc_idle = invert_psu(&psu, idle_target_wall);
    let dc_peak = invert_psu(&psu, peak_target_wall);
    let s = sockets as f64;
    let cpu_idle_w = ((dc_idle - fixed_idle) / s).max(5.0);
    let cpu_max_w = ((dc_peak - fixed_peak) / s).max(cpu_idle_w + 20.0);

    NodePowerModel {
        cpu: CpuPower { idle_w: cpu_idle_w, max_w: cpu_max_w, alpha, sockets },
        memory,
        disk,
        nic,
        baseboard: BaseboardPower { w: baseboard_w },
        accelerator,
        psu,
    }
}

/// Finds the DC power whose wall reading equals `wall_target` by bisection
/// — [`PsuEfficiency::wall_power`] is strictly monotone in DC draw.
fn invert_psu(psu: &PsuEfficiency, wall_target: f64) -> f64 {
    let (mut lo, mut hi) = (0.0, wall_target);
    debug_assert!(psu.wall_power(tgi_core::Watts::new(hi)).value() >= wall_target);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if psu.wall_power(tgi_core::Watts::new(mid)).value() < wall_target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_and_valid() {
        let cfg = FleetConfig::new(42).systems(40);
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
        for spec in &a {
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn parallel_generation_matches_sequential_bitwise() {
        let cfg = FleetConfig::new(7).systems(64);
        let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let seq = one_thread.install(|| cfg.generate());
        let par = cfg.generate();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            // PartialEq on f64 fields is bitwise here: all values come from
            // the same integer PRNG stream and arithmetic.
            assert_eq!(s, p);
            assert_eq!(serde_json::to_string(s).unwrap(), serde_json::to_string(p).unwrap());
        }
    }

    #[test]
    fn seeds_give_different_fleets() {
        let a = FleetConfig::new(1).systems(10).generate();
        let b = FleetConfig::new(2).systems(10).generate();
        assert_ne!(a, b);
    }

    #[test]
    fn specs_hit_sampled_power_band_and_physics() {
        for spec in FleetConfig::new(3).systems(30).generate() {
            let model = spec.node_power_model();
            let idle = model.idle_wall_power().value();
            let peak = model.peak_wall_power().value();
            assert!(idle > 30.0 && idle < 900.0, "{}: idle {idle}", spec.name);
            assert!(peak > idle, "{}: peak {peak} <= idle {idle}", spec.name);
            assert!((4..=4096).contains(&spec.nodes), "{}", spec.name);
            assert!(spec.pue >= 1.05 && spec.pue <= 1.9, "{}: pue {}", spec.name, spec.pue);
        }
    }

    #[test]
    fn pue_sampling_can_be_disabled() {
        for spec in FleetConfig::new(5).systems(10).sample_pue(false).generate() {
            assert_eq!(spec.pue, 1.0);
        }
    }

    #[test]
    fn fleet_diversity_spans_interconnect_classes() {
        let fleet = FleetConfig::new(11).systems(200).generate();
        let mut bandwidths: Vec<u64> =
            fleet.iter().map(|s| s.interconnect.bandwidth_gbps.to_bits()).collect();
        bandwidths.sort_unstable();
        bandwidths.dedup();
        assert!(bandwidths.len() >= 4, "200 systems should span >= 4 interconnect classes");
        let accelerated = fleet.iter().filter(|s| s.scaling.hpl_accelerator_factor > 1.0).count();
        assert!(accelerated > 0, "some systems should carry accelerators");
        assert!(accelerated < fleet.len() / 2, "accelerated systems stay a minority");
    }

    #[test]
    fn psu_inversion_round_trips() {
        let psu = PsuEfficiency::bronze(800.0);
        for target in [80.0, 150.0, 400.0, 700.0] {
            let dc = invert_psu(&psu, target);
            let wall = psu.wall_power(tgi_core::Watts::new(dc)).value();
            assert!((wall - target).abs() < 1e-6, "target {target} -> wall {wall}");
        }
    }

    #[test]
    fn every_spec_is_runnable_by_the_engine() {
        // Smoke: the first few generated systems run a tiny suite without
        // panicking and produce sane measurements.
        for spec in FleetConfig::new(9).systems(4).generate() {
            let cores = spec.total_cores();
            let engine = crate::ExecutionEngine::new(spec);
            let run = engine.run(crate::Workload::Hpl { n: 8_192 }, cores.min(64));
            assert!(run.performance.as_gflops() > 0.0);
            assert!(run.average_power.value() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn generate_one_rejects_out_of_range_index() {
        let _ = FleetConfig::new(1).systems(3).generate_one(3);
    }
}
