//! The committed `BENCH_*.json` files are full-size ledgers: one per
//! ledger-writing bench target, every record within its bound, no
//! `(layer, metric)` pair twice.

use std::collections::BTreeSet;
use std::path::Path;
use tgi_bench::{Ledger, Scale, LEDGERS};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn committed_bench_files_are_ledgers_within_their_bounds() {
    let mut files = BTreeSet::new();
    for entry in std::fs::read_dir(repo_root()).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(repo_root().join(&name)).unwrap();
        let ledger: Ledger =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name} is not a ledger: {e}"));
        let stem = &name["BENCH_".len()..name.len() - ".json".len()];
        assert!(
            LEDGERS.contains(&(ledger.bench.as_str(), stem)),
            "{name} holds bench {}, which LEDGERS does not map to it",
            ledger.bench
        );
        assert_eq!(ledger.scale, Scale::Full, "{name} is not a full-size run");
        assert!(ledger.machine.available_parallelism >= 1 && !ledger.machine.isa.is_empty());
        assert!(!ledger.records.is_empty(), "{name} has no records");
        let mut seen = BTreeSet::new();
        for r in &ledger.records {
            assert!(
                r.meets_bound(),
                "{name}: {} = {:?} misses bound {:?}",
                r.name(),
                r.value,
                r.bound
            );
            assert!(seen.insert((&r.layer, &r.metric)), "{name}: {} repeats", r.name());
        }
        files.insert(ledger.bench);
    }

    // Every bench target that constructs a ledger, read from the sources.
    let mut writers = BTreeSet::new();
    let benches = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");
    for entry in std::fs::read_dir(benches).unwrap() {
        let path = entry.unwrap().path();
        let source = std::fs::read_to_string(&path).unwrap();
        if let Some(at) = source.find("Ledger::new(\"") {
            let rest = &source[at + "Ledger::new(\"".len()..];
            let bench = &rest[..rest.find('"').unwrap()];
            assert_eq!(Some(bench), path.file_stem().and_then(|s| s.to_str()), "{path:?}");
            writers.insert(bench.to_string());
        }
    }
    let listed: BTreeSet<String> = LEDGERS.iter().map(|&(b, _)| b.to_string()).collect();
    assert_eq!(writers, listed, "ledger-writing bench targets vs LEDGERS");
    assert_eq!(files, listed, "committed BENCH_*.json files vs ledger-writing bench targets");
}
