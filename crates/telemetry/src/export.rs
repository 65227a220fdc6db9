//! Exporters: JSONL event stream, Chrome `trace_event` JSON, and
//! Prometheus text exposition.
//!
//! All three are hand-rolled (the crate stays dependency-free); the Chrome
//! output loads directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev), and the Prometheus text parses with
//! any standard scraper.

use crate::collector::{Event, EventKind};
use crate::metrics::MetricsSnapshot;
use crate::quantile::QuantileSummary;
use crate::span::FieldValue;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite `f64` as JSON (non-finite values become `0`, which
/// JSON cannot represent natively).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_field(value: &FieldValue) -> String {
    match value {
        FieldValue::U64(v) => format!("{v}"),
        FieldValue::I64(v) => format!("{v}"),
        FieldValue::F64(v) => json_f64(*v),
        FieldValue::Bool(v) => format!("{v}"),
        FieldValue::Str(v) => format!("\"{}\"", json_escape(v)),
    }
}

fn json_args(fields: &[(&'static str, FieldValue)]) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(key), json_field(value));
    }
    out.push('}');
    out
}

/// Renders events as one JSON object per line (stable machine-readable log).
pub fn jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = writeln!(
            out,
            "{{\"kind\":\"{}\",\"name\":\"{}\",\"cat\":\"{}\",\"tid\":{},\"start_ns\":{},\"dur_ns\":{},\"fields\":{}}}",
            ev.kind.label(),
            json_escape(ev.name),
            json_escape(ev.cat),
            ev.tid,
            ev.start_ns,
            ev.dur_ns,
            json_args(&ev.fields),
        );
    }
    out
}

/// Renders events as Chrome `trace_event` JSON (the "JSON Object Format":
/// a top-level `traceEvents` array of `ph:"X"` complete events and
/// `ph:"i"` instants, timestamps in microseconds).
pub fn chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = ev.start_ns as f64 / 1000.0;
        match ev.kind {
            EventKind::Span => {
                let dur = ev.dur_ns as f64 / 1000.0;
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                    json_escape(ev.name),
                    json_escape(ev.cat),
                    json_f64(ts),
                    json_f64(dur),
                    ev.tid,
                    json_args(&ev.fields),
                );
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                    json_escape(ev.name),
                    json_escape(ev.cat),
                    json_f64(ts),
                    ev.tid,
                    json_args(&ev.fields),
                );
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Sanitizes a metric name to the Prometheus charset: keeps
/// `[a-zA-Z0-9_:]`, maps anything else to `_`, and prefixes `_` when the
/// name would start with a digit. Callers rendering hand-built series
/// (the server's SLO blocks) use this so arbitrary identifiers stay
/// scrapeable.
pub fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value per the text exposition format: backslash,
/// double-quote, and newline get backslash escapes; everything else
/// passes through.
pub fn prom_label_value(value: &str) -> String {
    prom_escape(value, true)
}

/// Backslash-escapes `\`, newline and (for label values, not `# HELP`
/// text) `"`.
fn prom_escape(text: &str, quotes: bool) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' if quotes => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The `# HELP` line for a metric: registered text
/// ([`crate::metrics::describe`]) or a generated fallback.
fn prom_help_line(out: &mut String, sanitized: &str, raw: &str) {
    let help =
        crate::metrics::help_for(raw).unwrap_or_else(|| "No description registered.".to_string());
    let _ = writeln!(out, "# HELP {sanitized} {}", prom_escape(&help, false));
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a metrics snapshot as Prometheus text exposition (format
/// 0.0.4): a `# HELP` line (registered via [`crate::metrics::describe`]
/// or a fallback), a `# TYPE` line, then the samples, with names and
/// label values sanitized per the format.
pub fn prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (raw, value) in &snapshot.counters {
        let name = prom_name(raw);
        prom_help_line(&mut out, &name, raw);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (raw, value) in &snapshot.gauges {
        let name = prom_name(raw);
        prom_help_line(&mut out, &name, raw);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", prom_f64(*value));
    }
    for (raw, summary) in &snapshot.histograms {
        let name = prom_name(raw);
        prom_help_line(&mut out, &name, raw);
        let _ = writeln!(out, "# TYPE {name} summary");
        prom_summary(&mut out, &name, "", summary);
    }
    out
}

/// Writes the samples of one Prometheus `summary`: p50/p99/p999 quantile
/// lines, then `_sum` and `_count`. `labels` is a comma-separated list of
/// already-escaped `key="value"` pairs (empty for none); the `# HELP` and
/// `# TYPE` lines are the caller's.
pub fn prom_summary(out: &mut String, name: &str, labels: &str, summary: &QuantileSummary) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (tag, v) in [("0.5", summary.p50), ("0.99", summary.p99), ("0.999", summary.p999)] {
        let _ = writeln!(out, "{name}{{{labels}{sep}quantile=\"{tag}\"}} {}", prom_f64(v));
    }
    let labels = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
    let _ = writeln!(out, "{name}_sum{labels} {}", prom_f64(summary.sum));
    let _ = writeln!(out, "{name}_count{labels} {}", summary.count);
}

/// Writes [`chrome_trace`] output to `path`, creating parent directories.
pub fn write_chrome_trace(path: impl AsRef<Path>, events: &[Event]) -> io::Result<()> {
    write_with_parents(path.as_ref(), &chrome_trace(events))
}

/// Writes [`prometheus`] output to `path`, creating parent directories.
pub fn write_prometheus(path: impl AsRef<Path>, snapshot: &MetricsSnapshot) -> io::Result<()> {
    write_with_parents(path.as_ref(), &prometheus(snapshot))
}

fn write_with_parents(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal exposition-format parser: returns `(helps, types, samples)`
    /// keyed by metric name, enforcing the line grammar as it goes.
    #[allow(clippy::type_complexity)]
    fn parse_exposition(
        text: &str,
    ) -> (Vec<(String, String)>, Vec<(String, String)>, Vec<(String, f64)>) {
        let mut helps = Vec::new();
        let mut types = Vec::new();
        let mut samples = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has name and text");
                helps.push((name.to_string(), help.to_string()));
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
                assert!(matches!(kind, "counter" | "gauge" | "summary"), "unknown TYPE {kind}");
                types.push((name.to_string(), kind.to_string()));
            } else if !line.is_empty() {
                let (series, value) = line.rsplit_once(' ').expect("sample has value");
                let name = series.split('{').next().unwrap().to_string();
                assert!(
                    name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                    "unsanitized name {name:?}"
                );
                assert!(
                    !name.chars().next().unwrap().is_ascii_digit(),
                    "name {name:?} starts with a digit"
                );
                let value: f64 = match value {
                    "+Inf" => f64::INFINITY,
                    "-Inf" => f64::NEG_INFINITY,
                    v => v.parse().unwrap_or_else(|_| panic!("bad value {v:?}")),
                };
                samples.push((name, value));
            }
        }
        (helps, types, samples)
    }

    #[test]
    fn prometheus_round_trips_with_help_and_sanitized_names() {
        crate::metrics::describe(
            "export.test/requests-per-sec",
            "Requests per second, with a back\\slash and\nnewline.",
        );
        let snapshot = MetricsSnapshot {
            counters: vec![("export.test/requests-per-sec".to_string(), 42)],
            gauges: vec![("9starts_with_digit".to_string(), 1.5)],
            histograms: vec![(
                "export.test.latency".to_string(),
                QuantileSummary {
                    count: 6,
                    sum: 2.25,
                    p50: 0.25,
                    p99: 1.5,
                    p999: 1.5,
                    ..Default::default()
                },
            )],
        };
        let text = prometheus(&snapshot);
        let (helps, types, samples) = parse_exposition(&text);

        // Every family has exactly one HELP and one TYPE, in the
        // sanitized namespace.
        let names = ["export_test_requests_per_sec", "_9starts_with_digit", "export_test_latency"];
        for name in names {
            assert_eq!(helps.iter().filter(|(n, _)| n == name).count(), 1, "HELP for {name}");
            assert_eq!(types.iter().filter(|(n, _)| n == name).count(), 1, "TYPE for {name}");
        }

        // Registered help survives with escapes intact (single line).
        let help = &helps.iter().find(|(n, _)| n == names[0]).unwrap().1;
        assert_eq!(help, "Requests per second, with a back\\\\slash and\\nnewline.");

        // Values round-trip.
        assert!(samples.contains(&("export_test_requests_per_sec".to_string(), 42.0)));
        assert!(samples.contains(&("_9starts_with_digit".to_string(), 1.5)));
        assert!(samples.contains(&("export_test_latency_sum".to_string(), 2.25)));
        assert!(samples.contains(&("export_test_latency_count".to_string(), 6.0)));

        // Histograms export as summaries: p50/p99/p999 in order.
        let quantiles: Vec<f64> =
            samples.iter().filter(|(n, _)| n == "export_test_latency").map(|(_, v)| *v).collect();
        assert_eq!(quantiles, vec![0.25, 1.5, 1.5]);
        assert!(text.contains("export_test_latency{quantile=\"0.99\"} 1.5\n"), "{text}");
    }

    #[test]
    fn summary_lines_carry_labels_before_the_quantile() {
        let summary =
            QuantileSummary { count: 2, sum: 0.5, p50: 0.1, p99: 0.4, ..Default::default() };
        let mut out = String::new();
        prom_summary(&mut out, "lat", "endpoint=\"energy\"", &summary);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "lat{endpoint=\"energy\",quantile=\"0.5\"} 0.1");
        assert_eq!(lines[1], "lat{endpoint=\"energy\",quantile=\"0.99\"} 0.4");
        assert_eq!(
            lines[3..],
            ["lat_sum{endpoint=\"energy\"} 0.5", "lat_count{endpoint=\"energy\"} 2"]
        );
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let raw = "node \"a\"\\b\nline";
        let escaped = prom_label_value(raw);
        assert_eq!(escaped, "node \\\"a\\\"\\\\b\\nline");
        // Unescape (the scraper's job) recovers the original.
        let mut unescaped = String::new();
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') => unescaped.push('\\'),
                    Some('"') => unescaped.push('"'),
                    Some('n') => unescaped.push('\n'),
                    other => panic!("bad escape \\{other:?}"),
                }
            } else {
                unescaped.push(c);
            }
        }
        assert_eq!(unescaped, raw);
    }
}
