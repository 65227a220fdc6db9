//! Golden test: the seed-42 fleet is byte-identical across runs, thread
//! counts, and — via the committed fixture — across commits. Any change to
//! the generator's draw sequence shows up here as a diff, which is the
//! point: synthetic Green500 results must be reproducible from `(seed,
//! config)` alone.
//!
//! Regenerate the fixture after an *intentional* generator change with
//! `TGI_REGEN_GOLDEN=1 cargo test -p cluster-sim --test golden_fleet`.

use cluster_sim::FleetConfig;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fleet_seed42.json");

fn render(specs: &[cluster_sim::ClusterSpec]) -> String {
    let mut out = String::new();
    for spec in specs {
        out.push_str(&serde_json::to_string(spec).expect("spec serializes"));
        out.push('\n');
    }
    out
}

#[test]
fn seed_42_fleet_matches_committed_golden_bytes() {
    let cfg = FleetConfig::new(42).systems(8);
    let rendered = render(&cfg.generate());
    if std::env::var("TGI_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden fixture");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden fixture committed");
    assert_eq!(rendered, golden, "seed-42 fleet drifted from the committed fixture");
}

#[test]
fn seed_42_fleet_is_byte_identical_across_runs_and_thread_counts() {
    let cfg = FleetConfig::new(42).systems(8);
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let sequential = one_thread.install(|| render(&cfg.generate()));
    // The default pool (whatever TGI_NUM_THREADS says — CI runs this under
    // a {1,4}-thread matrix), twice, must produce the same bytes.
    assert_eq!(sequential, render(&cfg.generate()));
    assert_eq!(sequential, render(&cfg.generate()));
    // And under explicit pools of several sizes.
    for threads in [2, 8] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let par = pool.install(|| render(&cfg.generate()));
        assert_eq!(sequential, par, "thread count {threads} changed the fleet bytes");
    }
}
