#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Structured tracing and metrics for the LLM-Pilot reproduction.
//!
//! The build environment is fully offline, so this crate implements a
//! minimal `tracing`-like substrate on `std` alone:
//!
//! * [`Recorder`] — a lock-light event sink. Each thread that opens a span
//!   registers a private buffer once (one uncontended mutex per thread);
//!   parent links come from a thread-local span stack, so nesting needs no
//!   shared state at all. [`Recorder::disabled`] is a true no-op: opening a
//!   span does not even read the clock.
//! * [`Span`] — an RAII guard. The span is recorded when the guard drops;
//!   typed arguments ([`ArgValue`]) attach via [`Span::arg`].
//! * [`Counter`] / [`Recorder::counter_add`] — atomic counters, exported
//!   as Chrome `"C"` events.
//! * [`chrome`] — Chrome `trace_event` JSON export (loadable in
//!   `chrome://tracing` and Perfetto), [`summary`] — a plain-text
//!   hierarchical profile, [`json`] — a tiny JSON parser plus the shared
//!   [`json::JsonWriter`] emitter, and [`check`] — the structural
//!   validators behind the `trace-check` binary.
//! * [`hist`] — a log-linear HDR histogram (lock-free `AtomicU64`
//!   buckets, ≤1% relative quantile error at the default resolution),
//!   the single histogram type across the workspace, plus its non-atomic
//!   single-owner recording buffer.
//! * [`events`] — a versioned JSONL telemetry stream ([`events::EventSink`])
//!   plus the `llm-pilot watch` progress renderer.
//! * [`flight`] — a bounded ring-buffer flight recorder for post-mortem
//!   dumps of failed sweep cells.
//!
//! Recording from several threads is safe by construction: each thread
//! registers its own buffer on first use, and [`Recorder::snapshot`]
//! merges all buffers into one time-ordered [`Trace`]. The offline path
//! records from one thread; the daemon's workers and the tests' spawned
//! `std::thread`s record from several.

pub mod check;
pub mod chrome;
pub mod events;
pub mod flight;
pub mod hist;
pub mod json;
pub mod summary;

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// A typed span/counter argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One completed span, as recorded when its guard dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (e.g. `"cell.load_test"`).
    pub name: Cow<'static, str>,
    /// Unique span id within the recorder (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Logical thread id (dense, assigned in registration order).
    pub tid: u64,
    /// Begin timestamp, nanoseconds since the recorder was created.
    pub begin_ns: u64,
    /// End timestamp, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Typed key/value arguments attached via [`Span::arg`].
    pub args: Vec<(Cow<'static, str>, ArgValue)>,
}

impl SpanEvent {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }
}

/// A merged, time-ordered view of everything a [`Recorder`] captured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All completed spans, sorted by `(begin_ns, id)`.
    pub events: Vec<SpanEvent>,
    /// Final counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl Trace {
    /// Whether the trace holds no spans or counters.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty()
    }
}

#[derive(Debug)]
struct ThreadBuf {
    tid: u64,
    events: Mutex<VecDeque<SpanEvent>>,
}

#[derive(Debug)]
struct Inner {
    /// Globally unique recorder id; keys the thread-local registry.
    id: u64,
    start: Instant,
    next_span: AtomicU64,
    next_tid: AtomicU64,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    spans_recorded: AtomicU64,
    /// `Some(n)`: each thread buffer keeps only the most recent `n`
    /// completed spans (ring-buffer mode, used by [`flight`]).
    per_thread_capacity: Option<usize>,
}

struct LocalState {
    buf: Arc<ThreadBuf>,
    stack: Vec<u64>,
}

thread_local! {
    /// Per-thread state, keyed by recorder id: this thread's event buffer
    /// and its stack of open span ids (the parent chain).
    static LOCAL: RefCell<HashMap<u64, LocalState>> = RefCell::new(HashMap::new());
}

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

impl Inner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Register the calling thread: allocate a dense tid and a buffer.
    fn register_thread(&self) -> LocalState {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
        let buf = Arc::new(ThreadBuf { tid, events: Mutex::new(VecDeque::new()) });
        self.threads.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&buf));
        LocalState { buf, stack: Vec::new() }
    }

    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cell) = map.get(name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.insert(name.to_string(), Arc::clone(&cell));
        cell
    }
}

/// A lock-light structured trace recorder.
///
/// Cloning is cheap (an `Arc`); all clones feed the same trace. The
/// [`Recorder::disabled`] recorder never touches the clock or any shared
/// state — instrumented hot loops cost a branch on `Option`.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder that captures spans and counters.
    pub fn enabled() -> Self {
        Recorder::build(None)
    }

    /// A bounded recorder: each thread's buffer keeps only the most
    /// recent `capacity` completed spans, older spans are evicted FIFO.
    /// This is the storage behind [`flight::FlightRecorder`]; counters
    /// are unaffected by the bound.
    pub(crate) fn ring(capacity: usize) -> Self {
        Recorder::build(Some(capacity.max(1)))
    }

    fn build(per_thread_capacity: Option<usize>) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                next_span: AtomicU64::new(1),
                next_tid: AtomicU64::new(1),
                threads: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                spans_recorded: AtomicU64::new(0),
                per_thread_capacity,
            })),
        }
    }

    /// The no-op recorder. Spans and counters short-circuit;
    /// opening a span does not read the clock.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this recorder captures anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span. The span is recorded when the returned guard drops;
    /// spans opened while the guard is live (on the same thread) become its
    /// children.
    #[must_use = "a span is recorded when its guard drops; binding to _ drops it immediately"]
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let begin_ns = inner.now_ns();
        let parent = LOCAL.with(|local| {
            let mut map = local.borrow_mut();
            let state = map.entry(inner.id).or_insert_with(|| inner.register_thread());
            let parent = state.stack.last().copied();
            state.stack.push(id);
            parent
        });
        Span {
            state: Some(SpanState {
                inner: Arc::clone(inner),
                name: name.into(),
                id,
                parent,
                begin_ns,
                args: Vec::new(),
            }),
        }
    }

    /// A reusable handle to a named counter (no map lookup per add).
    pub fn counter(&self, name: &str) -> Counter {
        Counter { cell: self.inner.as_ref().map(|inner| inner.counter_cell(name)) }
    }

    /// Add `delta` to the named counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.counter_cell(name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Number of spans recorded so far (completed guards).
    pub fn spans_recorded(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.spans_recorded.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Merge every thread's buffer into one time-ordered [`Trace`].
    ///
    /// Non-destructive: buffers keep their events, so a long-lived service
    /// can snapshot periodically. Spans whose guards are still open are not
    /// included.
    pub fn snapshot(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let mut events = Vec::new();
        let bufs: Vec<Arc<ThreadBuf>> =
            inner.threads.lock().unwrap_or_else(PoisonError::into_inner).clone();
        for buf in bufs {
            events
                .extend(buf.events.lock().unwrap_or_else(PoisonError::into_inner).iter().cloned());
        }
        events.sort_by_key(|e| (e.begin_ns, e.id));
        let counters = inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        Trace { events, counters }
    }
}

struct SpanState {
    inner: Arc<Inner>,
    name: Cow<'static, str>,
    id: u64,
    parent: Option<u64>,
    begin_ns: u64,
    args: Vec<(Cow<'static, str>, ArgValue)>,
}

/// RAII guard for an open span; records the span when dropped.
#[must_use = "a span is recorded when its guard drops; binding to _ drops it immediately"]
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// Attach a typed argument (no-op on a disabled recorder's span).
    pub fn arg(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<ArgValue>) -> Self {
        if let Some(state) = &mut self.state {
            state.args.push((key.into(), value.into()));
        }
        self
    }

    /// Attach a typed argument through a mutable reference.
    pub fn set_arg(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<ArgValue>) {
        if let Some(state) = &mut self.state {
            state.args.push((key.into(), value.into()));
        }
    }

    /// The span id, if recording (useful as an external correlation id).
    pub fn id(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else { return };
        let end_ns = state.inner.now_ns();
        let event = SpanEvent {
            name: state.name,
            id: state.id,
            parent: state.parent,
            tid: 0, // patched below from the thread buffer
            begin_ns: state.begin_ns,
            end_ns,
            args: state.args,
        };
        LOCAL.with(|local| {
            let mut map = local.borrow_mut();
            let thread_state =
                map.entry(state.inner.id).or_insert_with(|| state.inner.register_thread());
            // Guards normally drop LIFO; tolerate out-of-order drops by
            // removing this id wherever it sits in the stack.
            if let Some(pos) = thread_state.stack.iter().rposition(|&id| id == state.id) {
                thread_state.stack.remove(pos);
            }
            let mut event = event;
            event.tid = thread_state.buf.tid;
            let mut events = thread_state.buf.events.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(cap) = state.inner.per_thread_capacity {
                while events.len() >= cap {
                    events.pop_front();
                }
            }
            events.push_back(event);
        });
        state.inner.spans_recorded.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            Some(s) => write!(f, "Span({} #{})", s.name, s.id),
            None => write!(f, "Span(disabled)"),
        }
    }
}

/// A cached handle to one named counter of a [`Recorder`].
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Add `delta` to the counter (no-op for a disabled recorder).
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current counter value (0 for a disabled recorder).
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        {
            let _root = rec.span("root").arg("k", 1u64);
            rec.counter_add("c", 5);
        }
        assert!(!rec.is_enabled());
        assert_eq!(rec.spans_recorded(), 0);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let rec = Recorder::enabled();
        {
            let _a = rec.span("a");
            {
                let _b = rec.span("b");
                let _c = rec.span("c");
            }
            let _d = rec.span("d");
        }
        let trace = rec.snapshot();
        assert_eq!(trace.events.len(), 4);
        let by_name: HashMap<&str, &SpanEvent> =
            trace.events.iter().map(|e| (e.name.as_ref(), e)).collect();
        let a = by_name["a"];
        assert_eq!(a.parent, None);
        assert_eq!(by_name["b"].parent, Some(a.id));
        assert_eq!(by_name["c"].parent, Some(by_name["b"].id));
        assert_eq!(by_name["d"].parent, Some(a.id));
        for e in &trace.events {
            assert!(e.end_ns >= e.begin_ns);
        }
        // Children begin no earlier than their parent and end no later.
        assert!(by_name["b"].begin_ns >= a.begin_ns);
        assert!(by_name["b"].end_ns <= a.end_ns);
    }

    #[test]
    fn out_of_order_drop_does_not_corrupt_the_stack() {
        let rec = Recorder::enabled();
        let a = rec.span("a");
        let b = rec.span("b");
        drop(a); // non-LIFO: a dropped while b still open
        let c = rec.span("c");
        drop(c);
        drop(b);
        let trace = rec.snapshot();
        let by_name: HashMap<&str, &SpanEvent> =
            trace.events.iter().map(|e| (e.name.as_ref(), e)).collect();
        // c opened while b was the top of the stack.
        assert_eq!(by_name["c"].parent, Some(by_name["b"].id));
        assert_eq!(by_name["b"].parent, Some(by_name["a"].id));
    }

    #[test]
    fn counters_snapshot() {
        let rec = Recorder::enabled();
        let c = rec.counter("steps");
        c.add(3);
        c.add(4);
        rec.counter_add("steps", 1);
        let trace = rec.snapshot();
        assert_eq!(trace.counters, vec![("steps".to_string(), 8)]);
        assert_eq!(c.get(), 8);
    }

    #[test]
    fn threads_merge_into_one_trace() {
        let rec = Recorder::enabled();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                let _outer = rec.span("worker").arg("t", t);
                let _inner = rec.span("inner");
                rec.counter_add("work", 1);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let trace = rec.snapshot();
        assert_eq!(trace.events.len(), 8);
        assert_eq!(trace.counters, vec![("work".to_string(), 4)]);
        // Each worker's inner span is parented to that worker's own span.
        for e in trace.events.iter().filter(|e| e.name == "inner") {
            let parent = trace.events.iter().find(|p| Some(p.id) == e.parent).unwrap();
            assert_eq!(parent.name, "worker");
            assert_eq!(parent.tid, e.tid);
        }
        // Distinct threads got distinct tids.
        let tids: std::collections::BTreeSet<u64> = trace.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn ring_recorder_keeps_only_the_most_recent_spans() {
        let rec = Recorder::ring(3);
        for i in 0..10u64 {
            let _s = rec.span("s").arg("i", i);
        }
        let trace = rec.snapshot();
        assert_eq!(trace.events.len(), 3);
        let kept: Vec<u64> = trace
            .events
            .iter()
            .map(|e| match &e.args[0].1 {
                ArgValue::U64(v) => *v,
                other => panic!("unexpected arg {other:?}"),
            })
            .collect();
        assert_eq!(kept, vec![7, 8, 9], "eviction must be FIFO");
        // All ten drops were still counted.
        assert_eq!(rec.spans_recorded(), 10);
    }

    #[test]
    fn snapshot_is_time_ordered_and_non_destructive() {
        let rec = Recorder::enabled();
        for i in 0..10u64 {
            let _s = rec.span("s").arg("i", i);
        }
        let first = rec.snapshot();
        let second = rec.snapshot();
        assert_eq!(first, second);
        assert!(first.events.windows(2).all(|w| w[0].begin_ns <= w[1].begin_ns));
        assert_eq!(rec.spans_recorded(), 10);
    }
}
