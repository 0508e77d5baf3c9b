//! Property-based round-trip of the observability pipeline: arbitrary
//! span trees recorded on a [`Recorder`] must export to Chrome trace JSON
//! that (a) passes the structural checker — valid JSON, unique ids, no
//! orphan parents, children enclosed by parents, strict per-thread
//! nesting — and (b) parses back to exactly the recorded tree: same
//! names, ids, parent links, timestamps, and argument values.

use proptest::prelude::*;

use llm_pilot::obs::check::check_chrome_trace;
use llm_pilot::obs::chrome::to_chrome_json;
use llm_pilot::obs::json::{parse, Json};
use llm_pilot::obs::{ArgValue, Recorder, Span};

const NAMES: [&str; 7] = [
    "sweep.cell",
    "cell.load_test",
    "tuner.ramp",
    "gbdt.fit",
    "serve.request",
    "µs.escapes \"quoted\"\n",
    "a",
];

/// One recording instruction: `(name index, action, value)`. Action 0
/// opens a nested span, 1 closes the innermost open span, 2 records a
/// leaf span, 3 bumps a counter.
type Op = (u8, u8, u64);

/// Replay `ops` on a fresh recorder; returns it with every span closed.
fn record(ops: &[Op]) -> Recorder {
    let rec = Recorder::enabled();
    let mut open: Vec<Span> = Vec::new();
    for &(name_i, action, value) in ops {
        let name = NAMES[name_i as usize % NAMES.len()];
        match action % 4 {
            0 => open.push(rec.span(name).arg("value", value)),
            1 => drop(open.pop()),
            2 => drop(
                rec.span(name)
                    .arg("value", value)
                    .arg("even", value % 2 == 0)
                    .arg("label", format!("v{value}")),
            ),
            _ => rec.counter_add("ops.counted", 1),
        }
    }
    // Close the innermost spans first, as RAII guards would.
    while let Some(span) = open.pop() {
        drop(span);
    }
    rec
}

/// The `(ts, dur)` strings of the chrome export are exact decimal µs with
/// a 3-digit ns fraction, so scaling back by 1000 and rounding recovers
/// the nanosecond value exactly (well below 2^53).
fn ns(event: &Json, key: &str) -> Option<u64> {
    event.get(key).and_then(Json::as_f64).map(|us| (us * 1_000.0).round() as u64)
}

proptest! {
    /// Export → parse recovers the recorded span tree exactly, and the
    /// structural checker accepts every generated trace.
    #[test]
    fn chrome_export_round_trips_arbitrary_span_trees(
        ops in prop::collection::vec((0u8..8, 0u8..4, 0u64..1_000_000), 1..80)
    ) {
        let rec = record(&ops);
        let snapshot = rec.snapshot();
        let document = to_chrome_json(&snapshot);

        // (a) Structural validity, including parent/nesting invariants.
        let stats = check_chrome_trace(&document, &[]);
        prop_assert!(stats.is_ok(), "checker rejected the export: {}", stats.unwrap_err());
        let stats = stats.unwrap();
        prop_assert_eq!(stats.span_events, snapshot.events.len());
        prop_assert_eq!(stats.span_events as u64, rec.spans_recorded());

        // (b) Exact round trip of every span the recorder captured.
        let root = parse(&document);
        prop_assert!(root.is_ok(), "export is not valid JSON: {}", root.unwrap_err());
        let root = root.unwrap();
        let events = root.get("traceEvents").and_then(Json::as_array).unwrap();
        let mut by_id = std::collections::HashMap::new();
        for event in events {
            if event.get("ph").and_then(Json::as_str) == Some("X") {
                let id = event.get("args").and_then(|a| a.get("id")).and_then(Json::as_u64);
                prop_assert!(id.is_some(), "span event without args.id");
                by_id.insert(id.unwrap(), event);
            }
        }
        prop_assert_eq!(by_id.len(), snapshot.events.len());
        for recorded in &snapshot.events {
            let exported = by_id.get(&recorded.id);
            prop_assert!(exported.is_some(), "span {} missing from export", recorded.id);
            let exported = *exported.unwrap();
            prop_assert_eq!(
                exported.get("name").and_then(Json::as_str),
                Some(recorded.name.as_ref())
            );
            prop_assert_eq!(exported.get("tid").and_then(Json::as_u64), Some(recorded.tid));
            prop_assert_eq!(ns(exported, "ts"), Some(recorded.begin_ns));
            prop_assert_eq!(ns(exported, "dur"), Some(recorded.duration_ns()));
            let args = exported.get("args").unwrap();
            prop_assert_eq!(
                args.get("parent").and_then(Json::as_u64),
                recorded.parent,
                "span {} parent link corrupted", recorded.id
            );
            // Typed arguments survive: u64 and bool exactly, strings
            // (incl. escapes) byte-for-byte.
            for (key, value) in &recorded.args {
                let got = args.get(key.as_ref());
                prop_assert!(got.is_some(), "span {} lost arg {:?}", recorded.id, key);
                let got = got.unwrap();
                match value {
                    ArgValue::U64(v) => prop_assert_eq!(got.as_u64(), Some(*v)),
                    ArgValue::Bool(v) => prop_assert_eq!(got, &Json::Bool(*v)),
                    ArgValue::Str(v) => prop_assert_eq!(got.as_str(), Some(v.as_str())),
                    _ => {}
                }
            }
        }

        // Counters survive as "C" events.
        let counted = ops.iter().filter(|(_, action, _)| action % 4 == 3).count() as u64;
        if counted > 0 {
            prop_assert_eq!(
                snapshot.counters.iter().find(|(n, _)| n == "ops.counted").map(|(_, v)| *v),
                Some(counted)
            );
            prop_assert!(stats.counter_events >= 1);
        }
    }
}
