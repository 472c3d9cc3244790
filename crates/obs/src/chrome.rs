//! Chrome-trace (`chrome://tracing` / Perfetto) JSON rendering.
//!
//! Produces the object form of the trace event format:
//!
//! ```json
//! {"traceEvents": [ {"ph":"M", ...process names...},
//!                   {"ph":"X", ...complete events...} ],
//!  "displayTimeUnit": "ms"}
//! ```
//!
//! Every number and key is written in a fixed order from the sorted
//! [`TraceSnapshot`], so rendering the same snapshot always yields the
//! same bytes — the property the `--trace` determinism tests pin down.

use crate::span::{SpanRecord, TraceSnapshot};
use std::fmt::Write as _;

/// Escape a string for embedding in a JSON string literal. Control
/// characters are replaced by spaces (span names never need them).
#[must_use]
pub fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

fn write_event(out: &mut String, s: &SpanRecord) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}",
        escape_json(&s.name),
        escape_json(&s.cat),
        s.start_us,
        s.dur_us,
        s.pid,
        s.tid
    );
    if !s.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in s.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        out.push('}');
    }
    out.push('}');
}

fn write_process_name(out: &mut String, pid: u64, name: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    );
}

/// Render a snapshot as a complete Chrome-trace JSON document.
#[must_use]
pub fn render(snapshot: &TraceSnapshot) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, name) in &snapshot.process_names {
        if !first {
            out.push(',');
        }
        first = false;
        write_process_name(&mut out, *pid, name);
    }
    for s in &snapshot.spans {
        if !first {
            out.push(',');
        }
        first = false;
        write_event(&mut out, s);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Render bare complete-events as a JSON array (the legacy shape the
/// simulator's `Timeline::to_chrome_trace` emits and `chrome://tracing`
/// also accepts).
#[must_use]
pub fn render_events_array(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, s);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeMap;

    fn sample_snapshot() -> TraceSnapshot {
        TraceSnapshot {
            spans: vec![
                SpanRecord {
                    name: "table2".into(),
                    cat: "task".into(),
                    pid: 0,
                    tid: 0,
                    start_us: 1_000_000.0,
                    dur_us: 1_000_000.0,
                    args: vec![("worker".into(), "3".into())],
                },
                SpanRecord {
                    name: "l0.\"fc1\"\\gemm".into(),
                    cat: "gemm".into(),
                    pid: 2,
                    tid: 1,
                    start_us: 0.5,
                    dur_us: 12.25,
                    args: Vec::new(),
                },
            ],
            process_names: [(0, "sweep-pool".to_owned()), (2, "table2 · sim".to_owned())]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn render_is_valid_json_with_metadata() {
        let doc = render(&sample_snapshot());
        json::validate(&doc).expect("chrome trace must be valid JSON");
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"M\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("sweep-pool"));
        assert!(doc.contains("\"args\":{\"worker\":\"3\"}"));
        assert!(doc.ends_with("\"displayTimeUnit\":\"ms\"}\n"));
    }

    #[test]
    fn escaping_survives_quotes_and_backslashes() {
        let doc = render(&sample_snapshot());
        json::validate(&doc).unwrap();
        assert!(doc.contains("l0.\\\"fc1\\\"\\\\gemm"));
    }

    #[test]
    fn events_array_form_is_valid() {
        let arr = render_events_array(&sample_snapshot().spans);
        json::validate(&arr).unwrap();
        assert!(arr.starts_with('['));
        assert!(arr.ends_with(']'));
    }

    #[test]
    fn empty_snapshot_renders_empty_document() {
        let doc = render(&TraceSnapshot {
            spans: Vec::new(),
            process_names: BTreeMap::new(),
        });
        json::validate(&doc).unwrap();
        assert_eq!(doc, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}\n");
    }

    #[test]
    fn rendering_is_deterministic() {
        let snap = sample_snapshot();
        assert_eq!(render(&snap), render(&snap));
    }
}
