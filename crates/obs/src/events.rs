//! Versioned JSONL telemetry stream.
//!
//! A characterization sweep can run for hours; this module gives it a
//! live, append-only event stream (`--events-out <path|->`) that other
//! processes can tail. Each line is one self-contained JSON object:
//!
//! ```json
//! {"v":1,"ts_ms":1234.567,"event":"cell.finished","llm":"Llama-2-7b",...}
//! ```
//!
//! * `v` — the schema version ([`SCHEMA_VERSION`]). Readers accept any
//!   stream with `v <=` their own version and must ignore unknown fields
//!   and unknown event types; writers bump `v` only when a field changes
//!   meaning or a required field is removed.
//! * `ts_ms` — milliseconds since the sink was opened, monotone
//!   non-decreasing (timestamps are taken under the writer lock).
//! * `event` — the event type. The sweep emits `sweep.started`,
//!   `cell.started`, `cell.attempt`, `cell.retried`, `cell.finished`
//!   (with completeness %, retry budget, ETA, and the cell's histogram
//!   snapshot), and `sweep.finished`.
//!
//! [`EventSink`] mirrors [`crate::Recorder`]: cloning is cheap, the
//! disabled sink is a true no-op, and emission never fails the run. The
//! first failed write ends the stream, so a torn line can only be its
//! last; that event and every later one are counted in
//! [`EventSink::events_dropped`]. [`WatchState`] is the line-per-cell progress
//! renderer behind `llm-pilot watch`; the structural validator lives in
//! [`crate::check::check_events`].

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::hist::HistSummary;
use crate::json::{parse, Json, JsonWriter};
use crate::ArgValue;

/// Current event schema version (the `v` field of every line).
pub const SCHEMA_VERSION: u64 = 1;

struct SinkInner {
    start: Instant,
    out: Mutex<SinkOut>,
}

/// The stream and how many events failed to reach it.
struct SinkOut {
    writer: Box<dyn Write + Send>,
    /// Events not written: the one whose write failed and all after it.
    dropped: u64,
}

impl std::fmt::Debug for SinkInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkInner").field("start", &self.start).finish_non_exhaustive()
    }
}

/// A shared handle to a JSONL telemetry stream.
///
/// Cloning is cheap (an `Arc`); all clones append to the same stream.
/// [`EventSink::disabled`] short-circuits everything.
#[derive(Debug, Clone, Default)]
pub struct EventSink {
    inner: Option<Arc<SinkInner>>,
}

/// The writer behind [`EventSink::to_buffer`], for tests.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl EventSink {
    /// The no-op sink: emission does not read the clock or take a lock.
    pub fn disabled() -> Self {
        EventSink { inner: None }
    }

    /// A sink that appends JSONL lines to `out`, flushing after each line
    /// so external tails see events promptly.
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        EventSink {
            inner: Some(Arc::new(SinkInner {
                start: Instant::now(),
                out: Mutex::new(SinkOut { writer: out, dropped: 0 }),
            })),
        }
    }

    /// A sink writing to `path`, or to stdout when `path` is `"-"`.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let out: Box<dyn Write + Send> = if path == "-" {
            Box::new(std::io::stdout())
        } else {
            Box::new(std::fs::File::create(path)?)
        };
        Ok(EventSink::to_writer(out))
    }

    /// A sink writing into a shared in-memory buffer (for tests).
    pub fn to_buffer() -> (Self, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (EventSink::to_writer(Box::new(SharedBuf(Arc::clone(&buf)))), buf)
    }

    /// Whether this sink writes anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Events that could not be written: after the first failed write
    /// (which may have left a partial line) the sink writes nothing more
    /// and counts every event instead. Always 0 for the disabled sink.
    pub fn events_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.out.lock().unwrap_or_else(PoisonError::into_inner).dropped)
    }

    /// Append one event line. `fields` follow the envelope (`v`, `ts_ms`,
    /// `event`). Telemetry never fails a run: an I/O error stops the
    /// stream and is counted in [`EventSink::events_dropped`].
    pub fn emit(&self, event: &str, fields: &[(&str, ArgValue)]) {
        let Some(inner) = &self.inner else { return };
        let mut out = inner.out.lock().unwrap_or_else(PoisonError::into_inner);
        if out.dropped > 0 {
            out.dropped += 1;
            return;
        }
        // Timestamp under the lock: lines are monotone by construction.
        let ts_ms = inner.start.elapsed().as_nanos() as f64 / 1e6;
        let mut w = JsonWriter::with_capacity(160);
        w.begin_object();
        w.key("v");
        w.u64(SCHEMA_VERSION);
        w.key("ts_ms");
        w.f64((ts_ms * 1000.0).round() / 1000.0);
        w.key("event");
        w.string(event);
        for (key, value) in fields {
            w.key(key);
            match value {
                ArgValue::U64(v) => w.u64(*v),
                ArgValue::I64(v) => w.i64(*v),
                ArgValue::F64(v) => w.f64(*v),
                ArgValue::Bool(v) => w.bool(*v),
                ArgValue::Str(v) => w.string(v),
            }
        }
        w.end_object();
        let mut line = w.finish();
        line.push('\n');
        if out.writer.write_all(line.as_bytes()).and_then(|()| out.writer.flush()).is_err() {
            out.dropped = 1;
        }
    }

    /// `sweep.started`: the grid size, how many cells the journal already
    /// covered, and the per-cell retry budget.
    pub fn sweep_started(&self, grid_cells: u64, resumed: u64, max_attempts: u64) {
        self.emit(
            "sweep.started",
            &[
                ("grid_cells", grid_cells.into()),
                ("resumed", resumed.into()),
                ("max_attempts", max_attempts.into()),
            ],
        );
    }

    /// `cell.started`: work on one grid cell began.
    pub fn cell_started(&self, llm: &str, profile: &str, grid_cells: u64) {
        self.emit(
            "cell.started",
            &[("llm", llm.into()), ("profile", profile.into()), ("grid_cells", grid_cells.into())],
        );
    }

    /// `cell.attempt`: one attempt (1-based) out of the retry budget.
    pub fn cell_attempt(&self, llm: &str, profile: &str, attempt: u64, max_attempts: u64) {
        self.emit(
            "cell.attempt",
            &[
                ("llm", llm.into()),
                ("profile", profile.into()),
                ("attempt", attempt.into()),
                ("max_attempts", max_attempts.into()),
            ],
        );
    }

    /// `cell.retried`: an attempt failed and the cell will be retried
    /// after `backoff_s` of virtual time.
    pub fn cell_retried(
        &self,
        llm: &str,
        profile: &str,
        attempt: u64,
        max_attempts: u64,
        backoff_s: f64,
        error: &str,
    ) {
        self.emit(
            "cell.retried",
            &[
                ("llm", llm.into()),
                ("profile", profile.into()),
                ("attempt", attempt.into()),
                ("max_attempts", max_attempts.into()),
                ("backoff_s", backoff_s.into()),
                ("error", error.into()),
            ],
        );
    }

    /// `cell.finished`: terminal status for one cell, with sweep-level
    /// progress and the cell's latency histogram snapshot.
    #[allow(clippy::too_many_arguments)]
    pub fn cell_finished(
        &self,
        llm: &str,
        profile: &str,
        status: &str,
        attempts: u64,
        done_cells: u64,
        grid_cells: u64,
        eta_s: f64,
        nttft: Option<&HistSummary>,
        itl: Option<&HistSummary>,
    ) {
        let completeness =
            if grid_cells == 0 { 100.0 } else { done_cells as f64 * 100.0 / grid_cells as f64 };
        let mut fields: Vec<(&str, ArgValue)> = vec![
            ("llm", llm.into()),
            ("profile", profile.into()),
            ("status", status.into()),
            ("attempts", attempts.into()),
            ("done_cells", done_cells.into()),
            ("grid_cells", grid_cells.into()),
            ("completeness_pct", ((completeness * 10.0).round() / 10.0).into()),
            ("eta_s", ((eta_s * 10.0).round() / 10.0).into()),
        ];
        let ms = |ns: u64| (ns as f64 / 1e6 * 1000.0).round() / 1000.0;
        if let Some(h) = nttft {
            fields.push(("nttft_samples", h.count.into()));
            fields.push(("nttft_p50_ms", ms(h.p50).into()));
            fields.push(("nttft_p95_ms", ms(h.p95).into()));
            fields.push(("nttft_p99_ms", ms(h.p99).into()));
        }
        if let Some(h) = itl {
            fields.push(("itl_p50_ms", ms(h.p50).into()));
            fields.push(("itl_p95_ms", ms(h.p95).into()));
            fields.push(("itl_p99_ms", ms(h.p99).into()));
        }
        self.emit("cell.finished", &fields);
    }

    /// `sweep.finished`: the run completed (possibly with failed cells).
    pub fn sweep_finished(
        &self,
        grid_cells: u64,
        done_cells: u64,
        measured: u64,
        infeasible: u64,
        failed: u64,
        wall_s: f64,
    ) {
        let completeness =
            if grid_cells == 0 { 100.0 } else { done_cells as f64 * 100.0 / grid_cells as f64 };
        self.emit(
            "sweep.finished",
            &[
                ("grid_cells", grid_cells.into()),
                ("done_cells", done_cells.into()),
                ("measured", measured.into()),
                ("infeasible", infeasible.into()),
                ("failed", failed.into()),
                ("completeness_pct", ((completeness * 10.0).round() / 10.0).into()),
                ("wall_s", ((wall_s * 100.0).round() / 100.0).into()),
            ],
        );
    }
}

/// Required (beyond-envelope) fields per known event type; the
/// [`crate::check::check_events`] validator enforces these. Unknown event
/// types only need a valid envelope (forward compatibility).
pub fn required_fields(event: &str) -> Option<&'static [&'static str]> {
    match event {
        "sweep.started" => Some(&["grid_cells", "resumed", "max_attempts"]),
        "cell.started" => Some(&["llm", "profile", "grid_cells"]),
        "cell.attempt" => Some(&["llm", "profile", "attempt", "max_attempts"]),
        "cell.retried" => {
            Some(&["llm", "profile", "attempt", "max_attempts", "backoff_s", "error"])
        }
        "cell.finished" => Some(&[
            "llm",
            "profile",
            "status",
            "attempts",
            "done_cells",
            "grid_cells",
            "completeness_pct",
            "eta_s",
        ]),
        "sweep.finished" => Some(&[
            "grid_cells",
            "done_cells",
            "measured",
            "infeasible",
            "failed",
            "completeness_pct",
        ]),
        _ => None,
    }
}

#[derive(Debug, Clone, Default)]
struct CellRow {
    status: String,
    attempts: u64,
    detail: String,
}

/// Incremental consumer of an event stream that renders the live
/// single-line-per-cell progress view behind `llm-pilot watch`.
///
/// Ingestion is tolerant: unparseable lines (e.g. a torn tail while the
/// writer is mid-line) are counted and skipped, never fatal.
#[derive(Debug, Clone, Default)]
pub struct WatchState {
    grid_cells: u64,
    done_cells: u64,
    completeness_pct: f64,
    eta_s: Option<f64>,
    finished: bool,
    cells: BTreeMap<String, CellRow>,
    events: usize,
    bad_lines: usize,
}

fn num(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

impl WatchState {
    /// An empty watcher.
    pub fn new() -> Self {
        WatchState::default()
    }

    /// Whether a `sweep.finished` event has been seen.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Number of events ingested so far.
    pub fn events(&self) -> usize {
        self.events
    }

    /// Consume one JSONL line (tolerant of garbage).
    pub fn ingest(&mut self, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        let Ok(v) = parse(line) else {
            self.bad_lines += 1;
            return;
        };
        let Some(event) = v.get("event").and_then(Json::as_str) else {
            self.bad_lines += 1;
            return;
        };
        self.events += 1;
        let cell_key = || -> Option<String> {
            let llm = v.get("llm").and_then(Json::as_str)?;
            let profile = v.get("profile").and_then(Json::as_str)?;
            Some(format!("{llm}/{profile}"))
        };
        match event {
            "sweep.started" => {
                if let Some(g) = num(&v, "grid_cells") {
                    self.grid_cells = g as u64;
                }
                if let Some(r) = num(&v, "resumed") {
                    self.done_cells = self.done_cells.max(r as u64);
                }
            }
            "cell.started" => {
                if let Some(key) = cell_key() {
                    let row = self.cells.entry(key).or_default();
                    row.status = "running".to_string();
                }
            }
            "cell.attempt" => {
                if let Some(key) = cell_key() {
                    let row = self.cells.entry(key).or_default();
                    row.status = "running".to_string();
                    row.attempts = num(&v, "attempt").map_or(row.attempts, |a| a as u64);
                }
            }
            "cell.retried" => {
                if let Some(key) = cell_key() {
                    let row = self.cells.entry(key).or_default();
                    row.status = "retrying".to_string();
                    if let Some(err) = v.get("error").and_then(Json::as_str) {
                        row.detail = err.chars().take(40).collect();
                    }
                }
            }
            "cell.finished" => {
                if let Some(key) = cell_key() {
                    let row = self.cells.entry(key).or_default();
                    row.status =
                        v.get("status").and_then(Json::as_str).unwrap_or("finished").to_string();
                    row.attempts = num(&v, "attempts").map_or(row.attempts, |a| a as u64);
                    let mut parts = Vec::new();
                    if let Some(p99) = num(&v, "nttft_p99_ms") {
                        parts.push(format!("nttft_p99={p99:.1}ms"));
                    }
                    if let Some(p99) = num(&v, "itl_p99_ms") {
                        parts.push(format!("itl_p99={p99:.1}ms"));
                    }
                    row.detail = parts.join(" ");
                }
                if let Some(d) = num(&v, "done_cells") {
                    self.done_cells = self.done_cells.max(d as u64);
                }
                if let Some(g) = num(&v, "grid_cells") {
                    self.grid_cells = g as u64;
                }
                if let Some(c) = num(&v, "completeness_pct") {
                    self.completeness_pct = self.completeness_pct.max(c);
                }
                self.eta_s = num(&v, "eta_s").or(self.eta_s);
            }
            "sweep.finished" => {
                self.finished = true;
                if let Some(c) = num(&v, "completeness_pct") {
                    self.completeness_pct = c;
                }
                if let Some(d) = num(&v, "done_cells") {
                    self.done_cells = d as u64;
                }
                if let Some(g) = num(&v, "grid_cells") {
                    self.grid_cells = g as u64;
                }
                self.eta_s = None;
            }
            _ => {}
        }
    }

    /// Consume a whole document (every line of `text`).
    pub fn ingest_document(&mut self, text: &str) {
        for line in text.lines() {
            self.ingest(line);
        }
    }

    /// Render the current progress view: a sweep header, one line per
    /// cell, and a final status line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = if self.grid_cells > 0 && self.completeness_pct == 0.0 {
            self.done_cells as f64 * 100.0 / self.grid_cells as f64
        } else {
            self.completeness_pct
        };
        out.push_str(&format!(
            "sweep: {}/{} cells done ({pct:.1}% complete)",
            self.done_cells, self.grid_cells
        ));
        if let Some(eta) = self.eta_s {
            out.push_str(&format!(", eta {eta:.1}s"));
        }
        out.push('\n');
        for (key, row) in &self.cells {
            out.push_str(&format!(
                "  {:<44} {:<10} attempts={} {}\n",
                key,
                if row.status.is_empty() { "pending" } else { &row.status },
                row.attempts.max(1),
                row.detail
            ));
        }
        if self.finished {
            out.push_str("sweep finished\n");
        }
        if self.bad_lines > 0 {
            out.push_str(&format!("({} unparseable line(s) skipped)\n", self.bad_lines));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(buf: &Arc<Mutex<Vec<u8>>>) -> String {
        String::from_utf8(buf.lock().unwrap().clone()).unwrap()
    }

    #[test]
    fn disabled_sink_is_a_noop() {
        let sink = EventSink::disabled();
        assert!(!sink.is_enabled());
        sink.emit("x", &[("k", 1u64.into())]);
        sink.sweep_started(1, 0, 3);
    }

    #[test]
    fn emitted_lines_are_valid_json_with_envelope() {
        let (sink, buf) = EventSink::to_buffer();
        sink.sweep_started(4, 1, 3);
        sink.cell_started("Llama-2-7b", "gx2-16x1", 4);
        sink.cell_attempt("Llama-2-7b", "gx2-16x1", 1, 3);
        sink.cell_retried("Llama-2-7b", "gx2-16x1", 1, 3, 0.5, "injected \"oom\"");
        let text = drain(&buf);
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            let v = parse(line).unwrap();
            assert_eq!(v.get("v").and_then(Json::as_u64), Some(SCHEMA_VERSION));
            assert!(v.get("ts_ms").and_then(Json::as_f64).unwrap() >= 0.0);
            let event = v.get("event").and_then(Json::as_str).unwrap();
            for field in required_fields(event).unwrap() {
                assert!(v.get(field).is_some(), "{event} missing {field}");
            }
        }
    }

    /// A writer that accepts `budget` bytes, then fails every write.
    struct FailAfter {
        budget: usize,
        written: Arc<Mutex<Vec<u8>>>,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            self.written.lock().unwrap().extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_write_stops_the_stream_and_counts_the_dropped_events() {
        let (probe, probe_buf) = EventSink::to_buffer();
        probe.sweep_started(4, 0, 3);
        let line_len = drain(&probe_buf).len();
        // Room for one whole line and half of the next.
        let written = Arc::new(Mutex::new(Vec::new()));
        let sink = EventSink::to_writer(Box::new(FailAfter {
            budget: line_len + line_len / 2,
            written: Arc::clone(&written),
        }));
        for _ in 0..5 {
            sink.sweep_started(4, 0, 3);
        }
        assert_eq!(sink.events_dropped(), 4);
        assert_eq!(sink.clone().events_dropped(), 4, "clones share the count");
        let text = drain(&written);
        assert_eq!(text.len(), line_len + line_len / 2, "nothing written after the failure");
        assert_eq!(text.lines().count(), 2);
        // The torn line is the stream's last, which the validator accepts.
        let stats = crate::check::check_events(&text).unwrap();
        assert!(stats.truncated_tail);
        assert_eq!(EventSink::disabled().events_dropped(), 0);
    }

    #[test]
    fn timestamps_are_monotone() {
        let (sink, buf) = EventSink::to_buffer();
        for i in 0..50u64 {
            sink.emit("tick", &[("i", i.into())]);
        }
        let text = drain(&buf);
        let mut last = -1.0f64;
        for line in text.lines() {
            let ts = parse(line).unwrap().get("ts_ms").and_then(Json::as_f64).unwrap();
            assert!(ts >= last, "ts went backwards: {ts} < {last}");
            last = ts;
        }
    }

    #[test]
    fn watch_renders_completeness_and_cells() {
        let (sink, buf) = EventSink::to_buffer();
        sink.sweep_started(2, 0, 3);
        sink.cell_started("m1", "p1", 2);
        sink.cell_finished("m1", "p1", "measured", 1, 1, 2, 4.2, None, None);
        sink.cell_started("m2", "p2", 2);
        sink.cell_finished("m2", "p2", "failed", 3, 2, 2, 0.0, None, None);
        sink.sweep_finished(2, 2, 1, 0, 1, 1.25);
        let mut watch = WatchState::new();
        watch.ingest_document(&drain(&buf));
        assert!(watch.finished());
        let view = watch.render();
        assert!(view.contains("2/2 cells"), "{view}");
        assert!(view.contains("100.0% complete"), "{view}");
        assert!(view.contains("m1/p1"), "{view}");
        assert!(view.contains("failed"), "{view}");
        assert!(view.contains("sweep finished"), "{view}");
    }

    #[test]
    fn watch_tolerates_garbage_lines() {
        let mut watch = WatchState::new();
        watch.ingest("{torn json");
        watch.ingest("");
        watch.ingest("[1,2,3]");
        let view = watch.render();
        assert!(view.contains("unparseable"), "{view}");
        assert_eq!(watch.events(), 0);
    }
}
