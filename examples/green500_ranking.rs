//! Rank a fleet of simulated clusters by TGI, Green500-style.
//!
//! ```sh
//! cargo run --example green500_ranking
//! ```
//!
//! The paper's motivation (§I) is rankability: a single number that lets a
//! list like the Green500 order systems — but one that reflects the *whole*
//! system, not just FLOPS/W under LINPACK. This example builds several
//! cluster variants, runs the three-benchmark suite on each through the
//! simulator, and prints both rankings so the difference is visible.

use tgi::cluster::{ClusterSpec, Workload};
use tgi::harness::FleetSweep;
use tgi::prelude::*;

/// Build a few plausible cluster variants from the Fire baseline.
fn fleet() -> Vec<ClusterSpec> {
    let fire = ClusterSpec::fire();

    // A memory-upgraded Fire: double the memory bandwidth.
    let mut fat_memory = fire.clone();
    fat_memory.name = "Fire-FatMem".to_string();
    fat_memory.node.mem_bandwidth_gbps *= 2.0;

    // A storage-upgraded Fire: a faster file server.
    let mut fat_io = fire.clone();
    fat_io.name = "Fire-FastIO".to_string();
    fat_io.shared_fs.server_cap_mbps *= 3.0;
    fat_io.shared_fs.per_client_mbps *= 2.0;

    // A compute-tuned Fire: better HPL kernel efficiency.
    let mut tuned = fire.clone();
    tuned.name = "Fire-TunedBLAS".to_string();
    tuned.scaling.hpl_serial_efficiency *= 2.0;

    vec![fire, fat_memory, fat_io, tuned]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Reference: SystemG at full scale (regenerates Table I's data).
    let reference = tgi::harness::system_g_reference();

    // One sweep scores the whole fleet; both lists are views over it.
    let sweep = FleetSweep::new()
        .fleet(fleet())
        .suite("fire", Workload::fire_suite())
        .weightings(&[Weighting::Arithmetic])
        .means(&[MeanKind::Arithmetic]);
    let table = sweep.run(&reference)?;
    let tgi_ranking = table.green500_ranking(0, 0, 0)?;

    // Traditional metric: MFLOPS/W under HPL only.
    let flops_per_watt_ranking =
        Ranking::try_from_scores(table.systems().iter().enumerate().map(|(s, name)| {
            let measurements = sweep.measurements(s, 0);
            let hpl = measurements.iter().find(|m| m.id() == "hpl").expect("suite has hpl");
            (name.as_str(), hpl.energy_efficiency() / 1e6)
        }))?;

    println!("== Ranked by HPL MFLOPS/W (the Green500 convention) ==");
    print!("{flops_per_watt_ranking}");
    println!("\n== Ranked by TGI (system-wide, vs {}) ==", reference.name());
    print!("{tgi_ranking}");

    println!(
        "\nNote how the I/O-upgraded system moves up under TGI while being\n\
         invisible to FLOPS/W — the paper's core argument for a system-wide metric."
    );
    Ok(())
}
