//! CLI contract tests for the `calibrate` and `tgi-experiments` binaries.
//!
//! Same convention as `simulate_cli.rs`: `--help` is an answer, not an
//! error — stdout, exit 0. Parse errors keep the traditional contract:
//! usage on stderr, exit 2. Runtime failures exit 1 without panicking.

use std::process::Command;

fn calibrate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_calibrate"))
}

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tgi-experiments"))
}

#[test]
fn calibrate_help_prints_to_stdout_and_exits_zero() {
    let out = calibrate().arg("--help").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: calibrate"), "stdout was: {stdout}");
    assert!(out.stderr.is_empty(), "help must not write to stderr");
}

#[test]
fn calibrate_short_help_matches_long_form() {
    let long = calibrate().arg("--help").output().expect("binary runs");
    let short = calibrate().arg("-h").output().expect("binary runs");
    assert_eq!(short.status.code(), Some(0));
    assert_eq!(short.stdout, long.stdout);
}

#[test]
fn calibrate_unknown_argument_exits_2_with_usage_on_stderr() {
    let out = calibrate().arg("--bogus").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "stderr was: {stderr}");
    assert!(stderr.contains("usage: calibrate"), "stderr must carry usage");
    assert!(out.stdout.is_empty(), "parse errors must not write to stdout");
}

#[test]
fn experiments_help_prints_to_stdout_and_exits_zero() {
    let out = experiments().arg("--help").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: tgi-experiments"), "stdout was: {stdout}");
    assert!(stdout.contains("--csv"), "usage must document --csv");
    assert!(out.stderr.is_empty(), "help must not write to stderr");
}

#[test]
fn experiments_unknown_flag_exits_2_with_usage() {
    let out = experiments().arg("--bogus").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "stderr was: {stderr}");
    assert!(stderr.contains("usage: tgi-experiments"), "stderr must carry usage");
    assert!(out.stdout.is_empty());
}

#[test]
fn experiments_unknown_artifact_exits_2_before_running_sweeps() {
    let out = experiments().arg("fig99").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artifact"), "stderr was: {stderr}");
    // Artifact validation happens before the (slow) reference/sweep runs.
    assert!(!stderr.contains("running SystemG"), "must fail before running: {stderr}");
}

#[test]
fn experiments_missing_flag_value_exits_2_with_usage() {
    for flag in ["--csv", "--json", "--markdown"] {
        let out = experiments().arg(flag).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: tgi-experiments"), "{flag}: {stderr}");
    }
}

#[test]
fn experiments_reproduce_the_pinned_paper_artifacts_byte_for_byte() {
    // The fixtures are the stdout and `--json` bundle of
    // `tgi-experiments --json <f> all list extensions`: every figure,
    // table, list and extension must print and serialize identically.
    // Regenerate them only for an intended change of the paper output.
    let json =
        std::env::temp_dir().join(format!("tgi_paper_artifacts_{}.json", std::process::id()));
    let out = experiments()
        .arg("--json")
        .arg(&json)
        .args(["all", "list", "extensions"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let bundle = std::fs::read(&json).expect("bundle written");
    std::fs::remove_file(&json).expect("cleanup");
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let want_stdout = std::fs::read(fixtures.join("paper_artifacts.stdout")).expect("fixture");
    let want_bundle = std::fs::read(fixtures.join("paper_artifacts.json")).expect("fixture");
    assert!(out.stdout == want_stdout, "stdout differs:\n{}", String::from_utf8_lossy(&out.stdout));
    assert!(bundle == want_bundle, "bundle differs:\n{}", String::from_utf8_lossy(&bundle));
}
