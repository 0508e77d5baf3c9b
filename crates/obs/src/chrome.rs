//! Chrome `trace_event` JSON export.
//!
//! Emits the "JSON object format" (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one complete
//! (`"ph":"X"`) event per span with microsecond `ts`/`dur`, thread-name
//! metadata (`"ph":"M"`) per logical thread, and one counter (`"ph":"C"`)
//! sample per recorder counter. Span `args` carry the typed span
//! arguments plus the span `id`/`parent` links so tooling (and our own
//! checker) can rebuild the tree exactly.

use crate::json::JsonWriter;
use crate::{ArgValue, Trace};

/// Process id used for every event (a trace covers one process).
pub const PID: u64 = 1;

fn fmt_us(ns: u64) -> String {
    // Exact µs with nanosecond fraction; avoids f64 rounding entirely.
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn write_arg(w: &mut JsonWriter, value: &ArgValue) {
    match value {
        ArgValue::U64(v) => w.u64(*v),
        ArgValue::I64(v) => w.i64(*v),
        // JsonWriter stringifies NaN/Inf, keeping the document valid.
        ArgValue::F64(v) => w.f64(*v),
        ArgValue::Bool(v) => w.bool(*v),
        ArgValue::Str(s) => w.string(s),
    }
}

fn write_counter_event(w: &mut JsonWriter, name: &str, value: u64, ts_us: &str) {
    w.newline();
    w.begin_object();
    w.key("name");
    w.string(name);
    w.key("ph");
    w.string("C");
    w.key("ts");
    w.raw(ts_us);
    w.key("pid");
    w.u64(PID);
    w.key("args");
    w.begin_object();
    w.key("value");
    w.u64(value);
    w.end_object();
    w.end_object();
}

/// Render `trace` as a Chrome `trace_event` JSON document.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut w = JsonWriter::with_capacity(64 + trace.events.len() * 160);
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();

    // Thread-name metadata so Perfetto labels tracks "worker-<tid>".
    let mut tids: Vec<u64> = trace.events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        w.newline();
        w.begin_object();
        w.key("name");
        w.string("thread_name");
        w.key("ph");
        w.string("M");
        w.key("pid");
        w.u64(PID);
        w.key("tid");
        w.u64(*tid);
        w.key("args");
        w.begin_object();
        w.key("name");
        w.string(&format!("worker-{tid}"));
        w.end_object();
        w.end_object();
    }

    for e in &trace.events {
        w.newline();
        w.begin_object();
        w.key("name");
        w.string(&e.name);
        w.key("cat");
        w.string("obs");
        w.key("ph");
        w.string("X");
        w.key("ts");
        w.raw(&fmt_us(e.begin_ns));
        w.key("dur");
        w.raw(&fmt_us(e.duration_ns()));
        w.key("pid");
        w.u64(PID);
        w.key("tid");
        w.u64(e.tid);
        w.key("args");
        w.begin_object();
        w.key("id");
        w.u64(e.id);
        if let Some(parent) = e.parent {
            w.key("parent");
            w.u64(parent);
        }
        for (key, value) in &e.args {
            w.key(key);
            write_arg(&mut w, value);
        }
        w.end_object();
        w.end_object();
    }

    // Counters as single counter samples at the trace end.
    let end_ns = trace.events.iter().map(|e| e.end_ns).max().unwrap_or(0);
    let end_us = fmt_us(end_ns);
    for (name, value) in &trace.counters {
        write_counter_event(&mut w, name, *value, &end_us);
    }

    w.newline();
    w.end_array();
    w.key("displayTimeUnit");
    w.string("ms");
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::Recorder;

    #[test]
    fn exported_trace_is_valid_json_with_expected_shape() {
        let rec = Recorder::enabled();
        {
            let _a = rec.span("outer").arg("llm", "Llama-2-7b").arg("users", 8u32);
            let _b = rec.span("inner").arg("ratio", 0.5f64).arg("ok", true);
        }
        rec.counter_add("steps", 11);
        let doc = to_chrome_json(&rec.snapshot());
        let v = parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 1 metadata + 2 spans + 1 counter.
        assert_eq!(events.len(), 4);
        let spans: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(spans.len(), 2);
        for s in &spans {
            assert!(s.get("ts").unwrap().as_f64().is_some());
            assert!(s.get("dur").unwrap().as_f64().is_some());
            assert_eq!(s.get("pid").unwrap().as_u64(), Some(PID));
            assert!(s.get("args").unwrap().get("id").unwrap().as_u64().is_some());
        }
        let inner =
            spans.iter().find(|s| s.get("name").and_then(Json::as_str) == Some("inner")).unwrap();
        assert!(inner.get("args").unwrap().get("parent").unwrap().as_u64().is_some());
        assert_eq!(inner.get("args").unwrap().get("ok"), Some(&Json::Bool(true)));
        let counters: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("C")).collect();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("args").unwrap().get("value").unwrap().as_u64(), Some(11));
    }

    #[test]
    fn timestamps_are_exact_microseconds() {
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(1), "0.001");
        assert_eq!(fmt_us(1_234_567), "1234.567");
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let doc = to_chrome_json(&Trace::default());
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn names_with_quotes_survive_export() {
        let rec = Recorder::enabled();
        {
            let _s = rec.span("weird \"name\"\n").arg("k\"ey", "v\\al");
        }
        let doc = to_chrome_json(&rec.snapshot());
        let v = parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("weird \"name\"\n")));
    }
}
