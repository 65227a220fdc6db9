//! Append-only JSONL run journal.
//!
//! Every [`tgi_suite::RunReport`] the harness produces can be appended to a
//! journal file: one JSON object per line, one line per (benchmark × repeat)
//! item, in suite order. Appending (never rewriting) means the journal
//! survives crashed or aborted runs — everything that finished before the
//! abort is already on disk — and successive runs accumulate into a single
//! machine-readable history.
//!
//! Line schema (see [`tgi_suite::RunRecord`]):
//!
//! ```json
//! {"benchmark": "hpl", "subsystem": "compute", "repeat": 0, "attempts": 1,
//!  "wall_secs": 12.3, "trace_samples": 61, "status": "success",
//!  "perf": 9.1e10, "perf_unit": "FLOPS", "power_watts": 215.0,
//!  "time_secs": 12.1, "energy_joules": 2601.5, "error": null}
//! ```
//!
//! `status` is `"success"`, `"failed"` (then `error` is set and the
//! measurement fields are null), or `"skipped"` (fail-fast abort before the
//! item started).

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use tgi_suite::{RunRecord, RunReport};

/// Errors while writing or reading a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A line was not a valid journal record.
    Json {
        /// 1-based line number of the bad record.
        line: usize,
        /// Parser detail.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Json { line, detail } => {
                write!(f, "journal line {line} is not a valid record: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Appends every entry of `report` to the JSONL journal at `path`,
/// creating the file — and any missing parent directories (a fresh
/// `results/` dir must not be a setup step) — if needed. Returns the
/// number of lines written.
pub fn append(path: impl AsRef<Path>, report: &RunReport) -> Result<usize, JournalError> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let records = report.records();
    let mut buf = String::new();
    for record in &records {
        buf.push_str(
            &serde_json::to_string(record)
                .expect("journal records contain only serializable plain data"),
        );
        buf.push('\n');
    }
    file.write_all(buf.as_bytes())?;
    Ok(records.len())
}

/// Reads every record from the journal at `path`, skipping blank lines.
///
/// Strict: the first malformed line fails the whole read. Use
/// [`read_tolerant`] to recover everything that *is* parseable from a
/// journal whose writer died mid-append.
pub fn read(path: impl AsRef<Path>) -> Result<Vec<RunRecord>, JournalError> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str(line)
                .map_err(|e| JournalError::Json { line: i + 1, detail: e.to_string() })
        })
        .collect()
}

/// One journal line that [`read_tolerant`] could not parse.
#[derive(Debug, Clone)]
pub struct SkippedLine {
    /// 1-based line number of the unparseable record.
    pub line: usize,
    /// Parser detail for the failure.
    pub detail: String,
    /// The raw line content (truncated to 256 bytes so a report over a
    /// corrupt multi-megabyte line stays bounded).
    pub content: String,
}

/// The result of a tolerant journal read: everything parseable plus a
/// report of what was skipped.
#[derive(Debug, Clone)]
pub struct TolerantRead {
    /// Records recovered in journal order.
    pub records: Vec<RunRecord>,
    /// Lines that failed to parse, in order of appearance.
    pub skipped: Vec<SkippedLine>,
}

/// Reads the journal at `path`, recovering every parseable record and
/// reporting the rest instead of failing.
///
/// A run killed mid-`write_all` legitimately leaves a truncated trailing
/// record; strict [`read`] correctly refuses such a file, but replay
/// tooling usually wants the thousands of good records *and* a note about
/// the bad line. I/O errors (missing file, permissions) still fail: there
/// is nothing to recover from a file that cannot be opened.
pub fn read_tolerant(path: impl AsRef<Path>) -> Result<TolerantRead, JournalError> {
    let text = std::fs::read_to_string(path)?;
    let mut records = Vec::new();
    let mut skipped = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str(line) {
            Ok(record) => records.push(record),
            Err(e) => {
                let mut content = line.to_string();
                if content.len() > 256 {
                    let mut cut = 256;
                    while !content.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    content.truncate(cut);
                }
                skipped.push(SkippedLine { line: i + 1, detail: e.to_string(), content });
            }
        }
    }
    Ok(TolerantRead { records, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgi_core::Measurement;
    use tgi_suite::{Benchmark, BenchmarkSuite, SuiteError, SuiteRunner};

    struct Fixed(&'static str);
    impl Benchmark for Fixed {
        fn id(&self) -> &str {
            self.0
        }
        fn subsystem(&self) -> &'static str {
            "test"
        }
        fn run(&self) -> Result<Measurement, SuiteError> {
            Ok(Measurement::new(
                self.0,
                tgi_core::Perf::gflops(1.0),
                tgi_core::Watts::new(100.0),
                tgi_core::Seconds::new(1.0),
            )?)
        }
    }

    struct Failing;
    impl Benchmark for Failing {
        fn id(&self) -> &str {
            "bad"
        }
        fn subsystem(&self) -> &'static str {
            "test"
        }
        fn run(&self) -> Result<Measurement, SuiteError> {
            Err(SuiteError::Kernel("boom".into()))
        }
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tgi-journal-{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_then_read_round_trips() {
        let path = tmp_path("roundtrip");
        let suite = BenchmarkSuite::new().with(Fixed("a")).with(Fixed("b"));
        let report = SuiteRunner::new().run(&suite);
        let written = append(&path, &report).unwrap();
        assert_eq!(written, 2);

        let records = read(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].benchmark, "a");
        assert_eq!(records[0].status, "success");
        assert_eq!(records[1].benchmark, "b");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn successive_runs_accumulate() {
        let path = tmp_path("accumulate");
        let suite = BenchmarkSuite::new().with(Fixed("a"));
        let report = SuiteRunner::new().run(&suite);
        append(&path, &report).unwrap();
        append(&path, &report).unwrap();
        assert_eq!(read(&path).unwrap().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failures_carry_error_text() {
        let path = tmp_path("failure");
        let suite = BenchmarkSuite::new().with(Failing);
        let report =
            SuiteRunner::new().failure_mode(tgi_suite::FailureMode::CollectErrors).run(&suite);
        append(&path, &report).unwrap();
        let records = read(&path).unwrap();
        assert_eq!(records[0].status, "failed");
        assert!(records[0].error.as_deref().unwrap().contains("boom"));
        assert!(records[0].perf.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_creates_missing_parent_directories() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("tgi-journal-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results").join("run.jsonl");

        let suite = BenchmarkSuite::new().with(Fixed("a"));
        let report = SuiteRunner::new().run(&suite);
        let written = append(&path, &report).expect("append must create parent dirs");
        assert_eq!(written, 1);
        assert_eq!(read(&path).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_line_reports_line_number() {
        let path = tmp_path("badline");
        std::fs::write(&path, "{\"not\": \"a record\"}\n").unwrap();
        let err = read(&path).unwrap_err();
        assert!(matches!(err, JournalError::Json { line: 1, .. }), "got {err:?}");
        let _ = std::fs::remove_file(&path);
    }

    /// Writes a journal with two good records, then truncates the file
    /// mid-way through the second — the on-disk state a run killed during
    /// `write_all` leaves behind.
    fn truncated_journal(name: &str) -> std::path::PathBuf {
        let path = tmp_path(name);
        let suite = BenchmarkSuite::new().with(Fixed("a")).with(Fixed("b"));
        let report = SuiteRunner::new().run(&suite);
        append(&path, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let second_start = text.find('\n').unwrap() + 1;
        let cut = second_start + (text.len() - second_start) / 2;
        std::fs::write(&path, &text[..cut]).unwrap();
        path
    }

    #[test]
    fn strict_read_still_rejects_truncated_file() {
        let path = truncated_journal("strict-truncated");
        let err = read(&path).unwrap_err();
        assert!(matches!(err, JournalError::Json { line: 2, .. }), "got {err:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tolerant_read_recovers_good_records_and_reports_the_rest() {
        let path = truncated_journal("tolerant-truncated");
        let result = read_tolerant(&path).unwrap();
        assert_eq!(result.records.len(), 1);
        assert_eq!(result.records[0].benchmark, "a");
        assert_eq!(result.skipped.len(), 1);
        assert_eq!(result.skipped[0].line, 2);
        assert!(!result.skipped[0].detail.is_empty());
        assert!(result.skipped[0].content.starts_with('{'), "raw line preserved");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tolerant_read_matches_strict_read_on_clean_journals() {
        let path = tmp_path("tolerant-clean");
        let suite = BenchmarkSuite::new().with(Fixed("a")).with(Fixed("b"));
        let report = SuiteRunner::new().run(&suite);
        append(&path, &report).unwrap();
        let strict = read(&path).unwrap();
        let tolerant = read_tolerant(&path).unwrap();
        assert!(tolerant.skipped.is_empty());
        assert_eq!(tolerant.records.len(), strict.len());
        for (a, b) in tolerant.records.iter().zip(&strict) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.status, b.status);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tolerant_read_still_fails_on_missing_file() {
        let err = read_tolerant("/nonexistent/tgi-journal-missing.jsonl").unwrap_err();
        assert!(matches!(err, JournalError::Io(_)), "got {err:?}");
    }

    #[test]
    fn tolerant_read_bounds_reported_content() {
        let path = tmp_path("tolerant-bigline");
        let big = format!("{{\"benchmark\": \"{}\"", "x".repeat(4096));
        std::fs::write(&path, format!("{big}\n")).unwrap();
        let result = read_tolerant(&path).unwrap();
        assert_eq!(result.records.len(), 0);
        assert_eq!(result.skipped.len(), 1);
        assert!(result.skipped[0].content.len() <= 256);
        let _ = std::fs::remove_file(&path);
    }
}
