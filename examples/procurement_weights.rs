//! Weighting TGI for a procurement decision (§II, advantage 1).
//!
//! ```sh
//! cargo run --example procurement_weights
//! ```
//!
//! "Each weighting factor can be assigned a value based on the specific
//! needs of the user, e.g., assigning a higher weighting factor for the
//! memory benchmark if we are evaluating a supercomputer to execute a
//! memory-intensive application." This example evaluates two candidate
//! systems for three different application profiles and shows the purchase
//! decision flipping with the weights.

use tgi::cluster::{ClusterSpec, Workload};
use tgi::harness::FleetSweep;
use tgi::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let reference = tgi::harness::system_g_reference();

    // Candidate A: compute-tuned. Candidate B: balanced I/O + memory.
    let mut a = ClusterSpec::fire();
    a.name = "Candidate-A (compute-tuned)".into();
    a.scaling.hpl_serial_efficiency *= 2.2;

    let mut b = ClusterSpec::fire();
    b.name = "Candidate-B (balanced)".into();
    b.shared_fs.server_cap_mbps *= 2.0;
    b.node.mem_bandwidth_gbps *= 1.4;

    // Application profiles as explicit weights over (hpl, stream, iozone).
    // Note the CPU profile's extreme weight: because Fire-class machines
    // have a far smaller relative efficiency (REE) on HPL than on the other
    // benchmarks, only a strongly CPU-committed buyer weights it enough to
    // dominate the index.
    let profiles = ["CPU-bound simulation", "memory-intensive CFD", "I/O-heavy genomics"];
    let weights = [
        Weighting::Custom(vec![0.92, 0.05, 0.03]),
        Weighting::Custom(vec![0.20, 0.65, 0.15]),
        Weighting::Custom(vec![0.15, 0.15, 0.70]),
    ];

    // One sweep: the two candidates × one weighting per profile.
    let table = FleetSweep::new()
        .fleet([a, b])
        .suite("fire", Workload::fire_suite())
        .weightings(&weights)
        .means(&[MeanKind::Arithmetic])
        .run(&reference)?;

    println!("{:<24} {:>14} {:>14}", "application profile", "Candidate-A", "Candidate-B");
    for (p, profile) in profiles.iter().enumerate() {
        let scores = [table.value(0, 0, p, 0), table.value(1, 0, p, 0)];
        let winner = if scores[0] > scores[1] { "A" } else { "B" };
        println!("{:<24} {:>14.4} {:>14.4}   -> pick {winner}", profile, scores[0], scores[1]);
    }

    println!("\nSame machines, same measurements — the weights encode what the buyer runs.");
    Ok(())
}
