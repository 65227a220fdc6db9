//! Seeded meter-model inputs: each node is a simulated Watts Up? PRO
//! reading a node power model through a phased utilization profile (HPL,
//! STREAM, IOzone and idle phases). Nothing is injected on top of the
//! repository's meter model.

use power_model::{
    NodePowerModel, PowerMeter, PowerTrace, UtilizationProfile, UtilizationSample, WattsUpPro,
};

/// SplitMix64: the benchmark's only source of randomness, so every input
/// is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// Derives an independent stream seed from a base seed and a label.
pub fn sub_seed(seed: u64, label: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .next_u64()
}

/// A seeded run of benchmark and idle phases covering `duration_s`.
fn profile(rng: &mut Rng, duration_s: f64) -> UtilizationProfile {
    let mut p = UtilizationProfile::new();
    while p.duration_s() < duration_s {
        let load = match (rng.unit() * 4.0) as usize {
            0 => UtilizationSample::cpu_bound(rng.range(0.85, 1.0)),
            1 => UtilizationSample::memory_bound(rng.range(0.7, 1.0)),
            2 => UtilizationSample::io_bound(rng.range(0.6, 1.0)),
            _ => UtilizationSample::IDLE,
        };
        p.push(rng.range(600.0, 3600.0).round(), load);
    }
    p
}

/// One node's meter log of `samples` readings at the meter's 1 Hz.
pub fn meter_log(seed: u64, node: usize, samples: usize) -> PowerTrace {
    let mut rng = Rng::new(sub_seed(seed, node as u64));
    let model = match node % 3 {
        0 => NodePowerModel::fire_node(),
        1 => NodePowerModel::sandy_bridge_node(),
        _ => NodePowerModel::system_g_node(),
    };
    // The meter reads once at t = 0 and then once a second.
    let duration = samples.saturating_sub(1) as f64;
    let profile = profile(&mut rng, duration);
    let mut meter = WattsUpPro::new(rng.next_u64());
    let trace = meter.record(&|t| model.wall_power(profile.at(t)), duration);
    assert_eq!(trace.len(), samples, "meter log covers the requested samples");
    trace
}

/// Serializes samples `[lo, hi)` of `trace` as a `POST /traces` body, in
/// `PowerTrace`'s wire format (`{"samples":[{"t":…,"watts":…},…]}`).
pub fn batch_body(trace: &PowerTrace, lo: usize, hi: usize) -> String {
    use std::fmt::Write;
    let mut body = String::with_capacity(40 * (hi - lo) + 16);
    body.push_str("{\"samples\":[");
    for i in lo..hi {
        if i > lo {
            body.push(',');
        }
        let (t, w) = (trace.times()[i], trace.watts()[i]);
        write!(body, "{{\"t\":{t:?},\"watts\":{w:?}}}").expect("writing to a String");
    }
    body.push_str("]}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_logs_are_deterministic_per_seed() {
        let a = meter_log(7, 1, 5_000);
        let b = meter_log(7, 1, 5_000);
        let c = meter_log(8, 1, 5_000);
        assert_eq!(a.times(), b.times());
        assert_eq!(a.watts(), b.watts());
        assert_ne!(a.watts(), c.watts());
        assert_eq!(batch_body(&a, 0, 60), batch_body(&b, 0, 60));
    }

    #[test]
    fn meter_logs_are_valid_traces() {
        let t = meter_log(3, 0, 20_000);
        assert!(t.times().windows(2).all(|w| w[0] < w[1]));
        assert!(t.watts().iter().all(|w| w.is_finite() && *w > 0.0));
        let parsed: PowerTrace = serde_json::from_str(&batch_body(&t, 100, 160)).unwrap();
        assert_eq!(parsed.times(), &t.times()[100..160]);
        assert_eq!(parsed.watts(), &t.watts()[100..160]);
    }
}
