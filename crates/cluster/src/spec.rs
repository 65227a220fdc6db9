//! Machine descriptions for the simulated clusters.
//!
//! A [`ClusterSpec`] bundles node hardware, interconnect, shared-filesystem
//! characteristics, and the scaling-model parameters that the analytic
//! performance models in [`crate::scaling`] consume, and the node power
//! model that prices each node's utilization. The presets include the
//! paper's two systems (§IV): the *Fire* system under test and the
//! *SystemG* reference.

use power_model::NodePowerModel;
use serde::{Deserialize, Serialize};

/// One node's hardware description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// CPU model string (documentation only).
    pub cpu_model: String,
    /// Sockets per node.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Peak double-precision FLOPs per core per cycle (SSE-era: 4).
    pub flops_per_cycle: f64,
    /// Memory per node, GiB.
    pub memory_gib: f64,
    /// Peak memory bandwidth per node, GB/s (decimal).
    pub mem_bandwidth_gbps: f64,
}

impl NodeSpec {
    /// Cores per node.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Theoretical peak GFLOPS per node.
    pub fn peak_gflops(&self) -> f64 {
        self.cores() as f64 * self.clock_ghz * self.flops_per_cycle
    }
}

/// Interconnect characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// One-way small-message latency, microseconds.
    pub latency_us: f64,
    /// Per-link bandwidth, Gbit/s.
    pub bandwidth_gbps: f64,
}

/// Shared (cluster-wide) filesystem characteristics — the resource IOzone
/// contends for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedFsSpec {
    /// A single client's streaming-write throughput, MB/s.
    pub per_client_mbps: f64,
    /// The file server's saturation throughput, MB/s.
    pub server_cap_mbps: f64,
    /// Fractional aggregate-throughput loss per client beyond saturation
    /// (lock/metadata contention).
    pub contention_loss: f64,
}

/// Parameters of the analytic scaling models (see [`crate::scaling`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingParams {
    /// Fraction of per-core peak a single HPL process sustains (kernel
    /// efficiency of the local GEMM).
    pub hpl_serial_efficiency: f64,
    /// Logarithmic parallel-efficiency decay κ in
    /// `e(p) = 1/(1 + κ·log₂ p + μ·(p−1)/(P−1))`.
    pub hpl_kappa: f64,
    /// Amdahl-style linear overhead μ (panel broadcast / update skew),
    /// normalized so μ is the full-machine overhead.
    pub hpl_mu: f64,
    /// STREAM saturation constant: per-node bandwidth fraction reached by
    /// `ppn` processes is `ppn / (ppn + k)`.
    pub stream_k: f64,
    /// Fraction of peak memory bandwidth STREAM triad can sustain.
    pub stream_peak_fraction: f64,
    /// CPU-utilization equivalent of a STREAM process relative to an HPL
    /// process (memory-stalled threads draw far less dynamic power).
    pub stream_cpu_factor: f64,
    /// HPL speedup factor from accelerators (1.0 on CPU-only clusters).
    pub hpl_accelerator_factor: f64,
}

/// A whole cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Display name.
    pub name: String,
    /// Node count available to jobs.
    pub nodes: usize,
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Interconnect.
    pub interconnect: InterconnectSpec,
    /// Shared filesystem.
    pub shared_fs: SharedFsSpec,
    /// Scaling-model parameters.
    pub scaling: ScalingParams,
    /// Facility power-usage effectiveness: the wall meter sits behind the
    /// datacenter's cooling and distribution overhead, so metered power is
    /// IT power × PUE. `1.0` (the default, and the paper's single-room
    /// setup) means the meter sees IT power directly.
    #[serde(default = "default_pue")]
    pub pue: f64,
    /// Per-node power model. Each preset sets its own; generated fleet
    /// specs carry their sampled idle/peak power curves here. A spec
    /// serialized before this field existed loads with Fire's model.
    #[serde(default = "NodePowerModel::fire_node")]
    pub power: NodePowerModel,
}

fn default_pue() -> f64 {
    1.0
}

/// A spec field that fails validation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidSpec {
    /// Which field is invalid.
    pub field: &'static str,
    /// Why.
    pub reason: &'static str,
}

impl std::fmt::Display for InvalidSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid cluster spec: {} {}", self.field, self.reason)
    }
}

impl std::error::Error for InvalidSpec {}

impl ClusterSpec {
    /// Total core count.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.node.cores()
    }

    /// Checks a (possibly user-assembled or deserialized) spec for values
    /// the scaling models cannot handle. The built-in presets always pass.
    pub fn validate(&self) -> Result<(), InvalidSpec> {
        let positive = |field: &'static str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(InvalidSpec { field, reason: "must be a positive, finite number" })
            }
        };
        if self.nodes == 0 {
            return Err(InvalidSpec { field: "nodes", reason: "must be at least 1" });
        }
        if self.node.cores() == 0 {
            return Err(InvalidSpec {
                field: "node.sockets/cores_per_socket",
                reason: "must give at least one core",
            });
        }
        positive("node.clock_ghz", self.node.clock_ghz)?;
        positive("node.flops_per_cycle", self.node.flops_per_cycle)?;
        positive("node.memory_gib", self.node.memory_gib)?;
        positive("node.mem_bandwidth_gbps", self.node.mem_bandwidth_gbps)?;
        positive("shared_fs.per_client_mbps", self.shared_fs.per_client_mbps)?;
        positive("shared_fs.server_cap_mbps", self.shared_fs.server_cap_mbps)?;
        if !(0.0..1.0).contains(&self.shared_fs.contention_loss) {
            return Err(InvalidSpec {
                field: "shared_fs.contention_loss",
                reason: "must be in [0, 1)",
            });
        }
        positive("scaling.hpl_serial_efficiency", self.scaling.hpl_serial_efficiency)?;
        if self.scaling.hpl_serial_efficiency > 1.0 {
            return Err(InvalidSpec {
                field: "scaling.hpl_serial_efficiency",
                reason: "cannot exceed 1 (fraction of peak)",
            });
        }
        if self.scaling.hpl_kappa < 0.0 || self.scaling.hpl_mu < 0.0 {
            return Err(InvalidSpec {
                field: "scaling.hpl_kappa/hpl_mu",
                reason: "overhead terms cannot be negative",
            });
        }
        positive("scaling.stream_k", self.scaling.stream_k)?;
        positive("scaling.stream_peak_fraction", self.scaling.stream_peak_fraction)?;
        if self.scaling.stream_peak_fraction > 1.0 {
            return Err(InvalidSpec {
                field: "scaling.stream_peak_fraction",
                reason: "cannot exceed 1 (fraction of peak)",
            });
        }
        if !(0.0..=1.0).contains(&self.scaling.stream_cpu_factor) {
            return Err(InvalidSpec {
                field: "scaling.stream_cpu_factor",
                reason: "must be in [0, 1]",
            });
        }
        if self.scaling.hpl_accelerator_factor < 1.0 {
            return Err(InvalidSpec {
                field: "scaling.hpl_accelerator_factor",
                reason: "must be at least 1 (1 = no accelerators)",
            });
        }
        if !self.pue.is_finite() || self.pue < 1.0 {
            return Err(InvalidSpec {
                field: "pue",
                reason: "must be a finite number of at least 1 (1 = no facility overhead)",
            });
        }
        let idle = self.power.idle_wall_power().value();
        let peak = self.power.peak_wall_power().value();
        if !(idle.is_finite() && idle > 0.0 && peak.is_finite() && peak >= idle) {
            return Err(InvalidSpec {
                field: "power",
                reason: "node power model must have 0 < idle <= peak wall power",
            });
        }
        Ok(())
    }

    /// Sets the facility PUE multiplier (builder style).
    ///
    /// # Panics
    /// Panics unless `pue` is finite and at least 1.
    pub fn with_pue(mut self, pue: f64) -> Self {
        assert!(pue.is_finite() && pue >= 1.0, "PUE must be finite and >= 1, got {pue}");
        self.pue = pue;
        self
    }

    /// Theoretical peak GFLOPS of the whole cluster.
    pub fn peak_gflops(&self) -> f64 {
        self.nodes as f64 * self.node.peak_gflops()
    }

    /// The *Fire* cluster (§IV): 8 nodes × 2× AMD Opteron 6134 (8 cores,
    /// 2.3 GHz), 32 GB/node, 128 cores total; "capable of delivering
    /// 90 GFLOPS on the LINPACK benchmark".
    pub fn fire() -> Self {
        ClusterSpec {
            name: "Fire".to_string(),
            nodes: 8,
            node: NodeSpec {
                cpu_model: "AMD Opteron 6134".to_string(),
                sockets: 2,
                cores_per_socket: 8,
                clock_ghz: 2.3,
                flops_per_cycle: 4.0,
                memory_gib: 32.0,
                // 4× DDR3-1333 channels/socket ≈ 42 GB/s peak; realistic
                // sustained fraction handled by stream_peak_fraction.
                mem_bandwidth_gbps: 42.0,
            },
            interconnect: InterconnectSpec { latency_us: 2.5, bandwidth_gbps: 20.0 },
            shared_fs: SharedFsSpec {
                per_client_mbps: 65.3,
                server_cap_mbps: 379.2,
                contention_loss: 0.046,
            },
            scaling: ScalingParams {
                // Calibrated to the paper's 90 GFLOPS at 128 processes:
                // 128 cores × 9.2 peak × serial_eff × e(128) ≈ 90, with
                // e(128) = 1/(1 + 0.0506·7 + 0.7322) ≈ 0.479.
                hpl_serial_efficiency: 0.1595,
                hpl_kappa: 0.0506,
                hpl_mu: 0.7322,
                stream_k: 1.5528,
                stream_peak_fraction: 0.55,
                stream_cpu_factor: 0.12,
                hpl_accelerator_factor: 1.0,
            },
            pue: 1.0,
            power: NodePowerModel::fire_node(),
        }
    }

    /// A GPU-accelerated variant of Fire for the paper's §VI platform
    /// extension ("the suitability of TGI to various kind of platforms,
    /// such as GPU based system, is of particular interest"): the same
    /// 8 hosts, each with two Fermi-class boards that take over the HPL
    /// DGEMM work. Only HPL accelerates — STREAM measures *host* memory and
    /// IOzone the shared filesystem, which is exactly why the GPU system's
    /// FLOPS/W and its TGI tell different stories.
    pub fn fire_gpu() -> Self {
        let mut spec = ClusterSpec::fire();
        spec.name = "Fire-GPU".to_string();
        // Two Fermi-class boards sustain ~6× the host's HPL throughput.
        spec.scaling.hpl_accelerator_factor = 6.0;
        spec.power = NodePowerModel::gpu_node();
        spec
    }

    /// A 2012-generation cluster ("Sandy"): 8 nodes of 2× 8-core Sandy
    /// Bridge-EP at 2.6 GHz with AVX (8 FLOPs/cycle), DDR3-1600, and a
    /// faster file server — the generation the paper's §VI "benchmark more
    /// systems" agenda would have evaluated next.
    pub fn sandy() -> Self {
        ClusterSpec {
            name: "Sandy".to_string(),
            nodes: 8,
            node: NodeSpec {
                cpu_model: "Intel Xeon E5-2670".to_string(),
                sockets: 2,
                cores_per_socket: 8,
                clock_ghz: 2.6,
                flops_per_cycle: 8.0,
                memory_gib: 64.0,
                mem_bandwidth_gbps: 102.0,
            },
            interconnect: InterconnectSpec { latency_us: 1.2, bandwidth_gbps: 56.0 },
            shared_fs: SharedFsSpec {
                per_client_mbps: 180.0,
                server_cap_mbps: 900.0,
                contention_loss: 0.02,
            },
            scaling: ScalingParams {
                // Tuned BLAS on AVX: far better serial efficiency than Fire.
                hpl_serial_efficiency: 0.62,
                hpl_kappa: 0.04,
                hpl_mu: 0.35,
                stream_k: 1.4,
                stream_peak_fraction: 0.72,
                stream_cpu_factor: 0.2,
                hpl_accelerator_factor: 1.0,
            },
            pue: 1.0,
            power: NodePowerModel::sandy_bridge_node(),
        }
    }

    /// The *SystemG* reference (§IV): Mac Pros with 2× 2.8 GHz quad-core
    /// Xeon 5462, 8 GB/node, QDR InfiniBand; 128 nodes / 1024 cores used;
    /// Table I reports 8.1 TFLOPS on HPL.
    pub fn system_g() -> Self {
        ClusterSpec {
            name: "SystemG".to_string(),
            nodes: 128,
            node: NodeSpec {
                cpu_model: "Intel Xeon 5462".to_string(),
                sockets: 2,
                cores_per_socket: 4,
                clock_ghz: 2.8,
                flops_per_cycle: 4.0,
                memory_gib: 8.0,
                // FB-DIMM platform: 256-bit DDR2-800 gives ~16 GB/s peak.
                mem_bandwidth_gbps: 16.0,
            },
            interconnect: InterconnectSpec { latency_us: 1.5, bandwidth_gbps: 40.0 },
            shared_fs: SharedFsSpec {
                // A production parallel filesystem: 128 clients sustain
                // ~2.8 GB/s aggregate against multiple OSTs.
                per_client_mbps: 270.0,
                server_cap_mbps: 3600.0,
                contention_loss: 0.002,
            },
            scaling: ScalingParams {
                // Calibrated to Table I's 8.1 TFLOPS at 1024 processes:
                // 1024 × 11.2 peak × serial_eff × e(1024) ≈ 8100.
                hpl_serial_efficiency: 0.885,
                hpl_kappa: 0.025,
                hpl_mu: 0.0,
                stream_k: 0.9,
                stream_peak_fraction: 0.60,
                // Penryn-era FSB platform: STREAM keeps the front-side bus
                // and both sockets fully busy.
                stream_cpu_factor: 1.0,
                hpl_accelerator_factor: 1.0,
            },
            pue: 1.0,
            power: NodePowerModel::system_g_node(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_matches_paper_description() {
        let f = ClusterSpec::fire();
        assert_eq!(f.nodes, 8);
        assert_eq!(f.node.cores(), 16);
        assert_eq!(f.total_cores(), 128);
        assert!((f.node.clock_ghz - 2.3).abs() < 1e-12);
        // Per-node peak: 16 × 2.3 × 4 = 147.2 GFLOPS.
        assert!((f.node.peak_gflops() - 147.2).abs() < 1e-9);
        assert!((f.peak_gflops() - 1177.6).abs() < 1e-6);
    }

    #[test]
    fn system_g_matches_paper_description() {
        let g = ClusterSpec::system_g();
        assert_eq!(g.nodes, 128);
        assert_eq!(g.node.cores(), 8);
        assert_eq!(g.total_cores(), 1024);
        // Per-node peak: 8 × 2.8 × 4 = 89.6 GFLOPS; cluster 11.47 TFLOPS.
        assert!((g.node.peak_gflops() - 89.6).abs() < 1e-9);
        assert!((g.peak_gflops() - 11_468.8).abs() < 1e-6);
    }

    #[test]
    fn power_models_are_distinct_per_cluster() {
        assert_ne!(ClusterSpec::fire().power, ClusterSpec::system_g().power);
    }

    #[test]
    fn fire_gpu_accelerates_hpl_only() {
        let gpu = ClusterSpec::fire_gpu();
        assert_eq!(gpu.nodes, 8);
        assert!(gpu.scaling.hpl_accelerator_factor > 1.0);
        // Same host platform: STREAM and I/O characteristics unchanged.
        let fire = ClusterSpec::fire();
        assert_eq!(gpu.node.mem_bandwidth_gbps, fire.node.mem_bandwidth_gbps);
        assert_eq!(gpu.shared_fs, fire.shared_fs);
        // Power model picks up the GPU boards.
        assert!(gpu.power.accelerator.is_present());
        assert!(!fire.power.accelerator.is_present());
    }

    #[test]
    fn all_presets_validate() {
        for spec in [
            ClusterSpec::fire(),
            ClusterSpec::fire_gpu(),
            ClusterSpec::sandy(),
            ClusterSpec::system_g(),
        ] {
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn validation_rejects_broken_specs() {
        let cases: Vec<(&str, Box<dyn Fn(&mut ClusterSpec)>)> = vec![
            ("zero nodes", Box::new(|s| s.nodes = 0)),
            ("zero clock", Box::new(|s| s.node.clock_ghz = 0.0)),
            ("nan bandwidth", Box::new(|s| s.node.mem_bandwidth_gbps = f64::NAN)),
            ("loss >= 1", Box::new(|s| s.shared_fs.contention_loss = 1.0)),
            ("eff > 1", Box::new(|s| s.scaling.hpl_serial_efficiency = 1.5)),
            ("negative kappa", Box::new(|s| s.scaling.hpl_kappa = -0.1)),
            ("stream frac > 1", Box::new(|s| s.scaling.stream_peak_fraction = 1.2)),
            ("cpu factor > 1", Box::new(|s| s.scaling.stream_cpu_factor = 2.0)),
            ("accel < 1", Box::new(|s| s.scaling.hpl_accelerator_factor = 0.5)),
        ];
        for (label, mutate) in cases {
            let mut s = ClusterSpec::fire();
            mutate(&mut s);
            let err = s.validate().expect_err(label);
            assert!(err.to_string().contains("invalid cluster spec"), "{label}");
        }
    }

    #[test]
    fn serde_round_trip() {
        let f = ClusterSpec::fire();
        let json = serde_json::to_string(&f).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn pre_fleet_json_defaults_pue_and_power() {
        // Specs serialized before the pue/power fields existed still load:
        // cut the trailing `"pue": …, "power": …` fields out of the JSON.
        let json = serde_json::to_string(&ClusterSpec::fire()).unwrap();
        let cut = json.find(",\"pue\"").expect("pue is serialized after the scaling params");
        let legacy = format!("{}}}", &json[..cut]);
        let back: ClusterSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.pue, 1.0);
        assert_eq!(back.power, power_model::NodePowerModel::fire_node());
        assert_eq!(back, ClusterSpec::fire());
    }

    #[test]
    fn validation_rejects_bad_pue_and_power() {
        let mut sub_unity = ClusterSpec::fire();
        sub_unity.pue = 0.9;
        assert_eq!(sub_unity.validate().unwrap_err().field, "pue");
        let mut nan = ClusterSpec::fire();
        nan.pue = f64::NAN;
        assert_eq!(nan.validate().unwrap_err().field, "pue");
        // A power model whose idle draw exceeds its peak is rejected.
        let mut model = power_model::NodePowerModel::fire_node();
        model.cpu.idle_w = model.cpu.max_w + 10_000.0;
        let mut inverted = ClusterSpec::fire();
        inverted.power = model;
        assert_eq!(inverted.validate().unwrap_err().field, "power");
    }

    #[test]
    fn with_pue_builder_sets_and_validates() {
        let spec = ClusterSpec::fire().with_pue(1.6);
        assert_eq!(spec.pue, 1.6);
        spec.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "PUE must be finite")]
    fn with_pue_rejects_sub_unity() {
        let _ = ClusterSpec::fire().with_pue(0.5);
    }

    #[test]
    fn renamed_presets_keep_their_physics() {
        // A cluster's power draw comes from its spec, not its name.
        let suite_bits = |spec: &ClusterSpec| -> Vec<[u64; 3]> {
            crate::ExecutionEngine::new(spec.clone())
                .run_suite(&crate::Workload::fire_suite(), 128)
                .iter()
                .map(|r| {
                    [
                        r.performance.value().to_bits(),
                        r.seconds.to_bits(),
                        r.average_power.value().to_bits(),
                    ]
                })
                .collect()
        };
        let rig = ClusterSpec { name: "Rig".into(), ..ClusterSpec::system_g() };
        assert_eq!(suite_bits(&rig), suite_bits(&ClusterSpec::system_g()));
        let lookalike = ClusterSpec { name: "Fire-GPU-lookalike".into(), ..ClusterSpec::fire() };
        assert_eq!(suite_bits(&lookalike), suite_bits(&ClusterSpec::fire()));
    }
}
