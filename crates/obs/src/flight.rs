//! Bounded ring-buffer flight recorder for crash forensics.
//!
//! Injected faults make sweep cells fail on purpose, and a span trace is
//! only written at clean shutdown, so without a flight recorder the
//! evidence of *why* a cell failed dies with the run. A [`FlightRecorder`]
//! is a [`Recorder`] in ring-buffer mode: every thread keeps only its
//! most recent [`DEFAULT_CAPACITY`] completed spans, so memory stays bounded no
//! matter how long a cell runs, and the *latest* spans — the ones leading
//! up to the failure — are always retained.
//!
//! `SweepDriver` arms one flight recorder per cell and dumps it to
//! `<flight-dir>/flight-<llm>-<profile>.json` (a Chrome `trace_event` document
//! that `trace-check` accepts) when:
//!
//! 1. the cell exhausts its retry budget and escalates to
//!    `CellStatus::Failed`, or
//! 2. a panic unwinds through the sweep — [`install_panic_hook`] chains a
//!    process-wide hook that dumps whatever recorder the panicking thread
//!    had [`arm`]ed.
//!
//! Because eviction can drop a retained span's parent (or the parent may
//! still be open at dump time), [`FlightRecorder::dump_chrome_json`]
//! detaches dangling parent links so the dump always validates.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once, OnceLock, PoisonError};
use std::thread::ThreadId;

use crate::chrome::to_chrome_json;
use crate::{Recorder, Trace};

/// Default per-thread span capacity for a cell's flight ring.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A bounded recorder whose snapshot is always a small, valid
/// Chrome-trace document of the most recent activity. Each thread keeps
/// its most recent [`DEFAULT_CAPACITY`] spans.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    recorder: Recorder,
    capacity: usize,
}

impl FlightRecorder {
    /// A ring of `capacity` spans per thread, small enough for a test to
    /// fill.
    #[cfg(test)]
    fn with_capacity(capacity: usize) -> Self {
        FlightRecorder { recorder: Recorder::ring(capacity), capacity }
    }

    /// The underlying recorder; hand clones of this to instrumented code.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Snapshot the ring with dangling parent links detached (eviction or
    /// still-open parents would otherwise leave orphans).
    pub fn sanitized_trace(&self) -> Trace {
        let mut trace = self.recorder.snapshot();
        let ids: HashSet<u64> = trace.events.iter().map(|e| e.id).collect();
        for event in &mut trace.events {
            if let Some(parent) = event.parent {
                if !ids.contains(&parent) {
                    event.parent = None;
                }
            }
        }
        trace
    }

    /// Render the ring as a Chrome `trace_event` JSON document that
    /// [`crate::check::check_chrome_trace`] accepts.
    pub fn dump_chrome_json(&self) -> String {
        to_chrome_json(&self.sanitized_trace())
    }

    /// Write the dump to `path` (parent directories are created).
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.dump_chrome_json())
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder { recorder: Recorder::ring(DEFAULT_CAPACITY), capacity: DEFAULT_CAPACITY }
    }
}

/// The flight dump file name for one sweep cell: `flight-<llm>-<profile>.json`
/// with path-hostile characters replaced by `_`.
pub fn dump_file_name(llm: &str, profile: &str) -> String {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
            .collect()
    };
    format!("flight-{}-{}.json", sanitize(llm), sanitize(profile))
}

struct ArmedEntry {
    flight: FlightRecorder,
    dump_path: PathBuf,
}

fn armed_registry() -> &'static Mutex<HashMap<ThreadId, ArmedEntry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<ThreadId, ArmedEntry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Disarms the calling thread's flight recorder on drop.
#[must_use = "dropping the guard disarms the flight recorder"]
pub struct ArmedGuard {
    thread: ThreadId,
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        armed_registry().lock().unwrap_or_else(PoisonError::into_inner).remove(&self.thread);
    }
}

/// Arm `flight` for the calling thread: if a panic unwinds through this
/// thread while the returned guard is live (and [`install_panic_hook`]
/// was called), the ring is dumped to `dump_path` before unwinding.
pub fn arm(flight: &FlightRecorder, dump_path: PathBuf) -> ArmedGuard {
    let thread = std::thread::current().id();
    armed_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(thread, ArmedEntry { flight: flight.clone(), dump_path });
    ArmedGuard { thread }
}

/// Install the process-wide panic hook (idempotent; chains the previous
/// hook, so normal panic reporting is preserved).
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let thread = std::thread::current().id();
            let entry = {
                let registry = armed_registry().lock().unwrap_or_else(PoisonError::into_inner);
                registry.get(&thread).map(|e| (e.flight.clone(), e.dump_path.clone()))
            };
            if let Some((flight, path)) = entry {
                if flight.dump_to(&path).is_ok() {
                    eprintln!(
                        "flight recorder: dumped {} spans to {}",
                        flight.recorder().spans_recorded().min(flight.capacity as u64),
                        path.display()
                    );
                }
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_chrome_trace;

    #[test]
    fn ring_dump_is_bounded_and_valid() {
        let flight = FlightRecorder::with_capacity(16);
        let rec = flight.recorder().clone();
        {
            let _outer = rec.span("cell");
            for i in 0..100u64 {
                let _s = rec.span("attempt").arg("i", i);
            }
        }
        rec.counter_add("retries", 3);
        let doc = flight.dump_chrome_json();
        let stats = check_chrome_trace(&doc, &["attempt"]).unwrap();
        assert!(stats.span_events <= 16, "ring must bound the dump: {}", stats.span_events);
        assert_eq!(stats.counter_events, 1);
    }

    #[test]
    fn dangling_parents_are_detached_not_fatal() {
        let flight = FlightRecorder::with_capacity(2);
        let rec = flight.recorder().clone();
        let outer = rec.span("outer");
        {
            // Children overflow the ring while the parent is still open.
            for _ in 0..5 {
                let _inner = rec.span("inner");
            }
        }
        // Dump while `outer` is open: retained children have no parent in
        // the snapshot.
        let doc = flight.dump_chrome_json();
        check_chrome_trace(&doc, &["inner"]).unwrap();
        drop(outer);
    }

    #[test]
    fn panic_hook_dumps_the_armed_ring() {
        install_panic_hook();
        let dir = std::env::temp_dir().join(format!("llmpilot-flight-test-{}", std::process::id()));
        let path = dir.join(dump_file_name("Llama-2-7b", "weird profile/x"));
        let flight = FlightRecorder::with_capacity(32);
        let rec = flight.recorder().clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = arm(&flight, path.clone());
            let _span = rec.span("doomed.work");
            {
                let _prep = rec.span("doomed.prep");
            }
            panic!("injected test panic");
        }));
        assert!(result.is_err());
        let doc = std::fs::read_to_string(&path).expect("panic hook should have dumped");
        let stats = check_chrome_trace(&doc, &["doomed.prep"]).unwrap();
        assert!(stats.span_events >= 1);
        // Disarmed after unwinding: a fresh panic elsewhere won't rewrite.
        assert!(armed_registry().lock().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_file_names_are_path_safe() {
        assert_eq!(dump_file_name("Llama-2-7b", "gx2-16x1"), "flight-Llama-2-7b-gx2-16x1.json");
        assert_eq!(dump_file_name("a/b", "c d"), "flight-a_b-c_d.json");
    }
}
