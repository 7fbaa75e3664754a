//! Views over span records: Chrome `trace_event` JSON, a human text
//! summary, and the per-name aggregate ([`span_stats`]) that the summary
//! and `%health`'s latencies share.
//!
//! All three are pure functions over the span records, so the byte
//! format is golden-testable without clocks (mirroring the
//! CheckpointGraph blob-format golden test). The Chrome output follows
//! the JSON Object Format of the Trace Event spec — an object with a
//! `traceEvents` array — and loads directly in `chrome://tracing` and
//! Perfetto: `"M"` metadata events name the threads (`session`,
//! `worker-N`), `"X"` complete events carry each span with microsecond
//! `ts`/`dur`; nesting is rendered from timestamp containment per `tid`,
//! which our LIFO span discipline guarantees.

use std::collections::BTreeMap;

use kishu_testkit::json::Json;

use crate::{RingStats, SpanRecord};

/// Display name for a `tid` (0 = session thread, `w+1` = pool worker w).
pub fn thread_name(tid: u32) -> String {
    if tid == 0 {
        "session".to_string()
    } else {
        format!("worker-{}", tid - 1)
    }
}

/// Build the Chrome `trace_event` document.
/// Deterministic: events appear as metadata (ascending tid) then spans in
/// input order; `ts`/`dur` are microseconds (`ns / 1000`).
pub fn chrome_json(spans: &[SpanRecord]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        events.push(Json::obj(vec![
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid as i64)),
            (
                "args",
                Json::obj(vec![("name", Json::Str(thread_name(tid)))]),
            ),
        ]));
    }
    for s in spans {
        let mut args: Vec<(String, Json)> = vec![("id".to_string(), Json::Int(s.id as i64))];
        if let Some(p) = s.parent {
            args.push(("parent".to_string(), Json::Int(p as i64)));
        }
        for (k, v) in &s.args {
            args.push((k.clone(), Json::Str(v.clone())));
        }
        events.push(Json::obj(vec![
            ("name", Json::Str(s.name.clone())),
            ("cat", Json::Str("kishu".into())),
            ("ph", Json::Str("X".into())),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(s.tid as i64)),
            ("ts", Json::Float(s.start_ns as f64 / 1000.0)),
            ("dur", Json::Float(s.dur_ns as f64 / 1000.0)),
            ("args", Json::Object(args)),
        ]));
    }
    Json::obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Array(events)),
    ])
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// One span name's aggregate over a set of span records ([`span_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Span name (`cell.exec`, `store.put`, ...).
    pub name: String,
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Shortest duration, nanoseconds.
    pub min_ns: u64,
    /// Longest duration, nanoseconds.
    pub max_ns: u64,
    /// Nearest-rank median, nanoseconds.
    pub p50_ns: u64,
    /// Nearest-rank 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// Nearest-rank 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

/// Per-span-name aggregates in name order. Percentiles are nearest-rank:
/// the p-th percentile is the smallest duration with at least p% of the
/// name's spans at or below it.
pub fn span_stats(spans: &[SpanRecord]) -> Vec<SpanStats> {
    let mut durations: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        durations.entry(&s.name).or_default().push(s.dur_ns);
    }
    durations
        .into_iter()
        .map(|(name, mut d)| {
            d.sort_unstable();
            let rank = |p: usize| d[(p * d.len()).div_ceil(100).max(1) - 1];
            SpanStats {
                name: name.to_string(),
                count: d.len() as u64,
                total_ns: d.iter().sum(),
                min_ns: d[0],
                max_ns: d[d.len() - 1],
                p50_ns: rank(50),
                p95_ns: rank(95),
                p99_ns: rank(99),
            }
        })
        .collect()
}

/// Human-readable summary: the ring's accounting, then per-span-name
/// aggregates over the spans it still holds (sorted by total time,
/// descending; name breaks ties).
pub fn text_summary(spans: &[SpanRecord], ring: &RingStats) -> String {
    let mut rows = span_stats(spans);
    // Stable: equal totals keep `span_stats`' name order.
    rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    let mut out = String::new();
    out.push_str(&format!(
        "spans: {} recorded, {} retained, {} dropped\n",
        ring.recorded, ring.retained, ring.dropped
    ));
    out.push_str(&format!(
        "{:<24} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
        "name", "count", "total", "mean", "min", "max"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            r.name,
            r.count,
            fmt_ns(r.total_ns),
            fmt_ns(r.total_ns / r.count),
            fmt_ns(r.min_ns),
            fmt_ns(r.max_ns)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spans() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "ckpt".into(),
                start_ns: 1_000,
                dur_ns: 8_000,
                tid: 0,
                args: vec![],
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "ckpt.seal".into(),
                start_ns: 2_500,
                dur_ns: 4_000,
                tid: 1,
                args: vec![("bytes".into(), "64".into())],
            },
        ]
    }

    /// Golden bytes: the exporter's output format is an interchange
    /// format (Perfetto reads it), so pin it exactly — any change to
    /// field order, float formatting, or event shape must be deliberate.
    #[test]
    fn golden_bytes_pin_the_chrome_trace_format() {
        let doc = chrome_json(&sample_spans());
        let expected = concat!(
            r#"{"displayTimeUnit":"ms","#,
            r#""traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"session"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker-0"}},"#,
            r#"{"name":"ckpt","cat":"kishu","ph":"X","pid":1,"tid":0,"ts":1.0,"dur":8.0,"#,
            r#""args":{"id":1}},"#,
            r#"{"name":"ckpt.seal","cat":"kishu","ph":"X","pid":1,"tid":1,"ts":2.5,"dur":4.0,"#,
            r#""args":{"id":2,"parent":1,"bytes":"64"}}"#,
            r#"]}"#,
        );
        assert_eq!(doc.dump(), expected);
        // And the document round-trips through the parser.
        let back = Json::parse(&doc.dump()).expect("chrome json parses");
        let Some(Json::Array(ev)) = back.get("traceEvents") else {
            panic!("traceEvents array");
        };
        assert_eq!(ev.len(), 4);
    }

    #[test]
    fn span_stats_percentiles_use_nearest_rank() {
        let span = |id: u64, name: &str, dur_ns: u64| SpanRecord {
            id,
            parent: None,
            name: name.into(),
            start_ns: 0,
            dur_ns,
            tid: 0,
            args: vec![],
        };
        // Durations 100 down to 1 (input order must not matter), plus one
        // span of a name that sorts first.
        let mut spans: Vec<SpanRecord> = (1..=100u64).map(|i| span(i, "op", 101 - i)).collect();
        spans.push(span(101, "cell", 7));
        let rows = span_stats(&spans);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["cell", "op"], "name order");
        let r = &rows[1];
        assert_eq!(
            (r.count, r.total_ns, r.min_ns, r.max_ns),
            (100, 5050, 1, 100)
        );
        assert_eq!((r.p50_ns, r.p95_ns, r.p99_ns), (50, 95, 99));
        assert_eq!((rows[0].count, rows[0].p50_ns, rows[0].p99_ns), (1, 7, 7));
        assert!(span_stats(&[]).is_empty());
    }

    #[test]
    fn text_summary_aggregates_by_name() {
        let mut ring = crate::SpanRing::new(1 << 20);
        for s in sample_spans() {
            ring.push(s);
        }
        let text = text_summary(&ring.snapshot(), &ring.stats());
        assert!(
            text.contains("spans: 2 recorded, 2 retained, 0 dropped"),
            "{text}"
        );
        assert!(text.contains("ckpt.seal"), "{text}");
        assert!(text.contains("4.0us"), "{text}");
        // After eviction the header still counts every recorded span,
        // while the rows cover only the spans the ring holds.
        let mut ring = crate::SpanRing::new(1024);
        for id in 1..=100 {
            let mut s = sample_spans().remove(1);
            (s.id, s.parent) = (id, None);
            ring.push(s);
        }
        let st = ring.stats();
        assert!(st.dropped > 0 && st.retained > 0, "{st:?}");
        let text = text_summary(&ring.snapshot(), &st);
        let header = format!(
            "spans: 100 recorded, {} retained, {} dropped",
            st.retained, st.dropped
        );
        assert!(text.contains(&header), "{text}");
        let row = text
            .lines()
            .find(|l| l.starts_with("ckpt.seal"))
            .expect("a ckpt.seal row");
        assert_eq!(
            row.split_whitespace().nth(1),
            Some(st.retained.to_string().as_str()),
            "{text}"
        );
    }
}
