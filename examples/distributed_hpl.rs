//! HPL as a real distributed program: a native miniature of Figure 2.
//!
//! ```sh
//! cargo run --release --example distributed_hpl
//! ```
//!
//! The paper's Figure 2 plots HPL energy efficiency against the number of
//! MPI processes. This example runs the *actual* distributed solver — LU
//! with row partial pivoting over a `P×Q` block-cyclic distribution on the
//! mini-MPI runtime — on `1×Q` grids of increasing rank counts, with
//! modeled power sampled in the background, and prints the same
//! MFLOPS/W-vs-processes series. It then solves one problem on four grid
//! shapes, including `2×2` and `4×1`, and prints how far each answer is
//! from the `1×1` one.

use tgi::suite::native::NativeDistributedHpl;
use tgi::suite::Benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 512; // scale up for a serious run

    println!("distributed HPL, N = {n} (validated by the HPL residual test)\n");
    println!("{:>6} {:>12} {:>10} {:>14}", "ranks", "GFLOPS", "power", "MFLOPS/W");
    // Ranks are threads: sweeping past the physical core count still
    // exercises the distribution and message traffic.
    let mut ranks = 1;
    while ranks <= 4 {
        let m = NativeDistributedHpl::new(n, ranks).run()?;
        println!(
            "{:>6} {:>12.3} {:>10} {:>14.3}",
            ranks,
            m.performance().as_gflops(),
            m.power().to_string(),
            m.energy_efficiency() / 1e6,
        );
        ranks *= 2;
    }
    // Other grid shapes (the paper's exact phrasing: "distributed on a
    // two-dimensional grid using a cyclic scheme"): same problem, four grid
    // shapes, identical answers.
    use tgi::mpi::hpl2d::{run as run2d, Grid2dConfig};
    use tgi::mpi::World;
    println!("\n2D block-cyclic grids on N = 192 (same problem, same answer):");
    println!("{:>8} {:>12} {:>18}", "grid", "residual", "max |Δx| vs 1x1");
    let reference = World::run(1, move |comm| {
        run2d(comm, Grid2dConfig { n: 192, block_size: 16, p: 1, q: 1, seed: 9 })
    })
    .remove(0);
    for (p, q) in [(1usize, 1usize), (2, 2), (1, 4), (4, 1)] {
        let config = Grid2dConfig { n: 192, block_size: 16, p, q, seed: 9 };
        let out = World::run(p * q, move |comm| run2d(comm, config)).remove(0);
        let max_dx =
            out.x.iter().zip(&reference.x).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        println!("{:>5}x{:<2} {:>12.3e} {:>18.3e}", p, q, out.scaled_residual, max_dx);
        assert!(out.passed);
    }

    println!(
        "\nEvery run solved the same dense system over a block-cyclic\n\
         distribution with pivot reductions, row interchanges, and panel\n\
         broadcasts — the algorithm the paper's HPL runs execute, scaled to\n\
         one machine."
    );
    Ok(())
}
