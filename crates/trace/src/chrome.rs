//! Exporters: Chrome `trace_event` JSON and a human text summary.
//!
//! Both are pure functions over the span records (the Chrome document
//! also carries a latency-window snapshot), so the byte format is
//! golden-testable without clocks (mirroring the CheckpointGraph
//! blob-format golden test). The Chrome output follows
//! the JSON Object Format of the Trace Event spec — an object with a
//! `traceEvents` array — and loads directly in `chrome://tracing` and
//! Perfetto: `"M"` metadata events name the threads (`session`,
//! `worker-N`), `"X"` complete events carry each span with microsecond
//! `ts`/`dur`; nesting is rendered from timestamp containment per `tid`,
//! which our LIFO span discipline guarantees.

use kishu_testkit::json::Json;

use crate::SpanRecord;

/// Display name for a `tid` (0 = session thread, `w+1` = pool worker w).
pub fn thread_name(tid: u32) -> String {
    if tid == 0 {
        "session".to_string()
    } else {
        format!("worker-{}", tid - 1)
    }
}

/// Build the Chrome `trace_event` document. `metrics` (a
/// [`crate::MetricsRegistry::to_json`] snapshot of the rolling latency
/// windows) rides along under `otherData`.
/// Deterministic: events appear as metadata (ascending tid) then spans in
/// input order; `ts`/`dur` are microseconds (`ns / 1000`).
pub fn chrome_json(spans: &[SpanRecord], metrics: &Json) -> Json {
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
        ("otherData", metrics.clone()),
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

/// Human-readable summary: per-span-name aggregates (sorted by total
/// time, descending; name breaks ties).
pub fn text_summary(spans: &[SpanRecord]) -> String {
    use std::collections::BTreeMap;
    // name -> (count, total, min, max)
    let mut agg: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = agg.entry(&s.name).or_insert((0, 0, u64::MAX, 0));
        e.0 += 1;
        e.1 += s.dur_ns;
        e.2 = e.2.min(s.dur_ns);
        e.3 = e.3.max(s.dur_ns);
    }
    let mut rows: Vec<_> = agg.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
    let mut out = String::new();
    out.push_str(&format!("spans: {} recorded\n", spans.len()));
    out.push_str(&format!(
        "{:<24} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
        "name", "count", "total", "mean", "min", "max"
    ));
    for (name, (count, total, min, max)) in rows {
        out.push_str(&format!(
            "{:<24} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            name,
            count,
            fmt_ns(total),
            fmt_ns(total / count.max(1)),
            fmt_ns(min),
            fmt_ns(max)
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
        // The latency windows a flush of these spans would fill.
        let mut windows = crate::MetricsRegistry::default();
        for s in sample_spans() {
            windows.observe_latency(&s.name, s.dur_ns);
        }
        let doc = chrome_json(&sample_spans(), &windows.to_json());
        let expected = concat!(
            r#"{"displayTimeUnit":"ms","#,
            r#""otherData":{"latencies":{"#,
            r#""ckpt":{"count":1,"p50":8000,"p95":8000,"p99":8000},"#,
            r#""ckpt.seal":{"count":1,"p50":4000,"p95":4000,"p99":4000}}},"#,
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
    fn text_summary_aggregates_by_name() {
        let text = text_summary(&sample_spans());
        assert!(text.contains("spans: 2 recorded"), "{text}");
        assert!(text.contains("ckpt.seal"), "{text}");
        assert!(text.contains("4.0us"), "{text}");
    }
}
