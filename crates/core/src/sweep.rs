//! Fault-tolerant, resumable characterization sweeps — the one way to run
//! the characterization over an `LLM × GPU profile` grid.
//!
//! On real hardware a full characterization sweep (Sec. V-B: hours of GPU
//! time) is exactly the kind of job that dies halfway: pods crash, deploys
//! fail transiently, a cell OOMs at the batch-weight boundary. The
//! [`SweepDriver`] runs [`characterize_cell`] on every cell with per-cell
//! retry (exponential *virtual* backoff — no wall-clock sleeping in a
//! simulator), a per-cell step budget, and a CSV journal so an
//! interrupted sweep resumes where it left off without recomputing finished
//! cells. Each cell's journal lines are appended and synced the moment the
//! cell finishes, so a killed sweep loses at most the cells still running.
//!
//! Determinism guarantees, pinned by proptests in `tests/`:
//!
//! * a sweep with transient faults and enough retries produces a dataset
//!   **bit-identical** to a fault-free sweep (measurement seeds are
//!   attempt-independent; fault decisions are not);
//! * an interrupted sweep resumed from its journal produces a dataset
//!   **bit-identical** to a one-shot sweep (rows round-trip through the
//!   journal via shortest-round-trip float formatting).

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use llmpilot_obs::events::EventSink;
use llmpilot_obs::flight::{self, FlightRecorder};
use llmpilot_obs::hist::{HistSummary, Histogram};
use llmpilot_obs::Recorder;
use llmpilot_sim::fault::FaultPlan;
use llmpilot_sim::gpu::GpuProfile;
use llmpilot_sim::llm::LlmSpec;
use llmpilot_sim::load::SampleHists;
use llmpilot_workload::WorkloadSampler;

use crate::characterize::{characterize_cell, CellContext, CellOutcome, CharacterizeConfig};
use crate::dataset::{CharacterizationDataset, PerfRow};
use crate::error::CoreError;

/// Base of the exponential retry backoff, virtual seconds: retry `k`
/// (1-based) waits `BACKOFF_BASE_S * 2^(k-1)`. Purely virtual —
/// accumulated in the report, never slept.
const BACKOFF_BASE_S: f64 = 10.0;

/// Options of a fault-tolerant sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Faults to inject ([`FaultPlan::none`] by default).
    pub plan: FaultPlan,
    /// Maximum attempts per cell (≥ 1); a cell failing this many times is
    /// recorded as failed.
    pub max_attempts: u32,
    /// Per-attempt engine-step budget across one cell's load tests.
    pub max_steps_per_cell: Option<u64>,
    /// Journal file: completed cells are appended here and skipped on the
    /// next run. `None` disables journaling.
    pub journal_path: Option<PathBuf>,
    /// Process at most this many *new* cells, then stop (simulates an
    /// interrupted sweep; used by the resume tests). `None` = all.
    pub max_cells_per_run: Option<usize>,
    /// Observability sink: per-cell/attempt/backoff spans are recorded
    /// here, and each cell records its tuner and load-test spans and the
    /// per-load-test `engine.*` counters under them. Disabled by default;
    /// tracing never changes the measured dataset.
    pub recorder: Recorder,
    /// Telemetry event stream (JSONL, see [`llmpilot_obs::events`]):
    /// `sweep.started` / `cell.*` / `sweep.finished` events with
    /// completeness and ETA. Disabled by default; events never change the
    /// measured dataset.
    pub events: EventSink,
    /// Flight recorder: when set, each cell's most recent
    /// [`flight::DEFAULT_CAPACITY`] spans are kept in a ring and dumped to
    /// `<dir>/flight-<llm>-<profile>.json` when the cell exhausts its
    /// retries (or a panic unwinds mid-cell).
    pub flight_dir: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            plan: FaultPlan::none(),
            max_attempts: 3,
            max_steps_per_cell: None,
            journal_path: None,
            max_cells_per_run: None,
            recorder: Recorder::disabled(),
            events: EventSink::disabled(),
            flight_dir: None,
        }
    }
}

/// Final status of one cell, as recorded in the report and journal.
#[derive(Debug, Clone, PartialEq)]
pub enum CellStatus {
    /// Measured; `retries` is the number of failed attempts before success.
    Measured {
        /// Tuned maximum batch weight.
        max_batch_weight: u64,
        /// Measurement rows of the cell.
        rows: Vec<PerfRow>,
        /// Attempts consumed (1 = first try succeeded).
        attempts: u32,
    },
    /// Permanently infeasible (Table III × / − cell).
    Infeasible(String),
    /// All attempts errored; the last error, stringified.
    Failed {
        /// Display form of the final error.
        error: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

/// Tail-latency summaries of one measured cell: true quantiles over every
/// individual sample of the cell's load tests (all values nanoseconds).
/// Deterministic — derived from virtual time, so repeat sweeps agree
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellTails {
    /// Normalized TTFT per tracked request.
    pub nttft: HistSummary,
    /// Inter-token latency per emitted token gap.
    pub itl: HistSummary,
}

/// Aggregated result of a sweep: per-cell statuses in grid order plus
/// counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// `(llm, profile, status)` in grid order, for every cell processed so
    /// far (including cells restored from the journal).
    pub cells: Vec<(String, String, CellStatus)>,
    /// Cells of the grid not yet processed (interrupted run).
    pub pending: usize,
    /// Cells restored from the journal instead of recomputed.
    pub resumed: usize,
    /// Total virtual seconds of retry backoff accrued.
    pub backoff_virtual_s: f64,
    /// Tail quantiles per cell *measured in this run* (resumed cells carry
    /// no samples — histograms are not journaled), keyed by
    /// `(llm, profile)`.
    pub tails: BTreeMap<(String, String), CellTails>,
}

impl SweepReport {
    /// Number of measured cells.
    pub fn measured(&self) -> usize {
        self.cells.iter().filter(|(_, _, s)| matches!(s, CellStatus::Measured { .. })).count()
    }

    /// Number of infeasible cells.
    pub fn infeasible(&self) -> usize {
        self.cells.iter().filter(|(_, _, s)| matches!(s, CellStatus::Infeasible(_))).count()
    }

    /// Number of failed cells.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|(_, _, s)| matches!(s, CellStatus::Failed { .. })).count()
    }

    /// Number of cells that needed more than one attempt.
    pub fn retried(&self) -> usize {
        self.cells
            .iter()
            .filter(|(_, _, s)| match s {
                CellStatus::Measured { attempts, .. } | CellStatus::Failed { attempts, .. } => {
                    *attempts > 1
                }
                CellStatus::Infeasible(_) => false,
            })
            .count()
    }

    /// Whether every cell of the grid has been processed.
    pub fn is_complete(&self) -> bool {
        self.pending == 0
    }

    /// Fraction of *feasible* cells that were measured, in `[0, 1]`
    /// (1.0 when there are no feasible cells).
    pub fn completeness(&self) -> f64 {
        let feasible = self.cells.len() - self.infeasible();
        if feasible == 0 {
            return 1.0;
        }
        self.measured() as f64 / feasible as f64
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sweep: {} cells ({} measured, {} infeasible, {} failed, {} pending)",
            self.cells.len() + self.pending,
            self.measured(),
            self.infeasible(),
            self.failed(),
            self.pending,
        )?;
        writeln!(
            f,
            "       {} retried, {} resumed from journal, {:.0}s virtual backoff",
            self.retried(),
            self.resumed,
            self.backoff_virtual_s,
        )?;
        for (llm, profile, status) in &self.cells {
            match status {
                CellStatus::Measured { max_batch_weight, rows, attempts } => {
                    if *attempts > 1 {
                        writeln!(
                            f,
                            "  [ok]        {llm} on {profile}: {} rows, weight {max_batch_weight} \
                             (after {attempts} attempts)",
                            rows.len()
                        )?;
                    }
                    if let Some(t) = self.tails.get(&(llm.clone(), profile.clone())) {
                        let ms = |ns: u64| ns as f64 / 1e6;
                        writeln!(
                            f,
                            "  [tails]     {llm} on {profile}: nttft p50/p95/p99 = \
                             {:.3}/{:.3}/{:.3} ms, itl p50/p95/p99 = {:.3}/{:.3}/{:.3} ms",
                            ms(t.nttft.p50),
                            ms(t.nttft.p95),
                            ms(t.nttft.p99),
                            ms(t.itl.p50),
                            ms(t.itl.p95),
                            ms(t.itl.p99),
                        )?;
                    }
                }
                CellStatus::Infeasible(reason) => {
                    writeln!(f, "  [infeasible] {llm} on {profile}: {reason}")?;
                }
                CellStatus::Failed { error, attempts } => {
                    writeln!(
                        f,
                        "  [FAILED]     {llm} on {profile} after {attempts} attempts: {error}"
                    )?;
                }
            }
        }
        Ok(())
    }
}

/// One-line sanitization for journal text fields: the journal is
/// line-oriented, so embedded newlines must go.
fn sanitize(text: &str) -> String {
    text.replace(['\n', '\r'], " ")
}

/// Serialize one cell status as journal lines. Format (line-oriented CSV,
/// append-only):
///
/// ```csv
/// cell,<llm>,<profile>,measured,<weight>,<attempts>,<num_rows>
/// <llm>,<profile>,<users>,<ttft>,<nttft>,<itl>,<throughput>   # dataset rows
/// cell,<llm>,<profile>,infeasible,<reason>
/// cell,<llm>,<profile>,failed,<attempts>,<error>
/// ```
///
/// The measured marker carries its own row count so a reader can tell a
/// complete cell from one whose trailing rows were lost to a truncated
/// write — short windows legitimately yield fewer rows than user levels,
/// so the count cannot be inferred from the sweep config.
///
/// Row lines are written and parsed by the row codec of
/// [`CharacterizationDataset::to_csv`] and
/// [`CharacterizationDataset::from_csv`], so floats round-trip bit-exactly
/// (shortest round-trip `Display`).
fn journal_lines(llm: &str, profile: &str, status: &CellStatus) -> String {
    let mut out = String::new();
    match status {
        CellStatus::Measured { max_batch_weight, rows, attempts } => {
            out.push_str(&format!(
                "cell,{llm},{profile},measured,{max_batch_weight},{attempts},{}\n",
                rows.len()
            ));
            for r in rows {
                r.write_csv(&mut out);
            }
        }
        CellStatus::Infeasible(reason) => {
            out.push_str(&format!("cell,{llm},{profile},infeasible,{}\n", sanitize(reason)));
        }
        CellStatus::Failed { error, attempts } => {
            out.push_str(&format!("cell,{llm},{profile},failed,{attempts},{}\n", sanitize(error)));
        }
    }
    out
}

/// Parse a journal back into per-cell statuses. Tolerates a truncated final
/// record (a crash mid-append): a malformed *last* line is treated as the
/// torn tail of an interrupted write, and it — together with the cell it
/// belongs to — is dropped and recomputed. Malformed lines anywhere else in
/// the journal remain hard errors (the file is corrupt, not truncated).
/// Cell statuses keyed by `(llm, profile)`.
type CellMap = BTreeMap<(String, String), CellStatus>;

/// The second element is `true` when torn-tail tolerance had to discard
/// anything — the file on disk does not round-trip and must be rewritten,
/// not appended to (appending after a line without a trailing newline would
/// glue the next marker onto the torn fragment).
fn parse_journal(text: &str) -> Result<(CellMap, bool), CoreError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut cells = BTreeMap::new();
    let mut current: Option<JournalCell> = None;
    let mut dirty = false;
    for (lineno, raw) in lines.iter().enumerate() {
        match parse_journal_line(raw, lineno, &mut cells, &mut current) {
            Ok(()) => {}
            Err(_) if lineno + 1 == lines.len() => {
                // Torn tail: forget the partial line and the cell it was
                // part of; the driver recomputes that cell.
                current = None;
                dirty = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    if let Some(cell) = current.take() {
        // A measured cell short of its declared row count at end-of-file is
        // the other truncation shape (cut exactly at a line boundary):
        // drop it for recomputation.
        if cell.is_complete() {
            cells.insert(cell.key, cell.status);
        } else {
            dirty = true;
        }
    }
    Ok((cells, dirty))
}

/// A cell being accumulated during journal parsing, together with the row
/// count its marker declared.
struct JournalCell {
    key: (String, String),
    status: CellStatus,
    declared_rows: usize,
}

impl JournalCell {
    fn is_complete(&self) -> bool {
        match &self.status {
            CellStatus::Measured { rows, .. } => rows.len() == self.declared_rows,
            _ => true,
        }
    }
}

/// Parse one journal line into the accumulating state; an `Err` means the
/// line is malformed (the caller decides whether that is fatal).
fn parse_journal_line(
    line: &str,
    lineno: usize,
    cells: &mut CellMap,
    current: &mut Option<JournalCell>,
) -> Result<(), CoreError> {
    let line = line.trim_end();
    if line.is_empty() {
        return Ok(());
    }
    let bad =
        |what: &str| CoreError::Parse(format!("journal line {}: {what}: {line:?}", lineno + 1));
    {
        if let Some(rest) = line.strip_prefix("cell,") {
            if let Some(cell) = current.take() {
                // Rows missing although the file kept going: corruption,
                // not truncation.
                if !cell.is_complete() {
                    return Err(bad("previous measured cell is missing rows"));
                }
                cells.insert(cell.key, cell.status);
            }
            let fields: Vec<&str> = rest.split(',').collect();
            if fields.len() < 3 {
                return Err(bad("short cell marker"));
            }
            let key = (fields[0].to_string(), fields[1].to_string());
            let (status, declared_rows) = match fields[2] {
                "measured" => {
                    if fields.len() < 6 {
                        return Err(bad("short measured marker"));
                    }
                    let status = CellStatus::Measured {
                        max_batch_weight: fields[3].parse().map_err(|_| bad("bad batch weight"))?,
                        rows: Vec::new(),
                        attempts: fields[4].parse().map_err(|_| bad("bad attempts"))?,
                    };
                    (status, fields[5].parse().map_err(|_| bad("bad row count"))?)
                }
                "infeasible" => (CellStatus::Infeasible(fields[3..].join(",")), 0),
                "failed" => {
                    if fields.len() < 5 {
                        return Err(bad("short failed marker"));
                    }
                    let status = CellStatus::Failed {
                        attempts: fields[3].parse().map_err(|_| bad("bad attempts"))?,
                        error: fields[4..].join(","),
                    };
                    (status, 0)
                }
                other => return Err(bad(&format!("unknown status {other:?}"))),
            };
            *current = Some(JournalCell { key, status, declared_rows });
        } else {
            // A dataset row belonging to the current measured cell.
            let Some(JournalCell { status: CellStatus::Measured { rows, .. }, .. }) =
                current.as_mut()
            else {
                return Err(bad("dataset row outside a measured cell"));
            };
            rows.push(PerfRow::parse_csv(line).map_err(|e| bad(&e))?);
        }
    }
    Ok(())
}

/// Write `contents` to `path` so that a crash leaves either the old file or
/// the new one, never a torn mix: write a sibling temp file, sync it, rename
/// it over `path`, then sync the directory.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = File::create(&tmp)?;
    file.write_all(contents)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// The append-only journal of one [`SweepDriver::run`], shared by the
/// cells of the run through a lock.
struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Open `path` for appending. When `heal` holds the cells parsed from a
    /// torn journal, first replace the file with exactly those cells —
    /// appending after a torn fragment would glue the next marker onto it.
    fn open(path: &Path, heal: Option<&CellMap>) -> Result<Self, CoreError> {
        if let Some(cells) = heal {
            let text: String = cells
                .iter()
                .map(|((llm, profile), status)| journal_lines(llm, profile, status))
                .collect();
            write_atomic(path, text.as_bytes())
                .map_err(|e| CoreError::Io(format!("rewriting journal {path:?}: {e}")))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| CoreError::Io(format!("opening journal {path:?}: {e}")))?;
        Ok(Self { path: path.to_path_buf(), file: Mutex::new(file) })
    }

    /// Append one cell's lines and sync them to disk.
    fn append(&self, lines: &str) -> Result<(), CoreError> {
        let mut file = self.file.lock().expect("a journal writer panicked mid-append");
        file.write_all(lines.as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| CoreError::Io(format!("appending journal {:?}: {e}", self.path)))
    }
}

/// Shared progress state of one [`SweepDriver::run`]: completed-cell count
/// (cells resumed from the journal count as done), plus wall-clock cell
/// durations feeding the ETA estimate in `cell.finished` events.
struct SweepProgress {
    grid_cells: u64,
    done_cells: AtomicU64,
    cell_wall: Histogram,
}

impl SweepProgress {
    fn new(grid_cells: u64, resumed: u64) -> Self {
        Self { grid_cells, done_cells: AtomicU64::new(resumed), cell_wall: Histogram::default() }
    }

    /// Record one finished cell's wall time; returns the new done count.
    fn finish_cell(&self, wall_s: f64) -> u64 {
        self.cell_wall.record_secs(wall_s);
        self.done_cells.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Remaining cells × median observed cell duration (cells run one at a
    /// time); 0 when done or before any cell has finished.
    fn eta_s(&self, done: u64) -> f64 {
        let remaining = self.grid_cells.saturating_sub(done);
        if remaining == 0 || self.cell_wall.is_empty() {
            return 0.0;
        }
        let p50_s = self.cell_wall.quantile(0.5) as f64 / 1e9;
        remaining as f64 * p50_s
    }
}

/// Fault-tolerant, resumable driver of the characterization sweep.
pub struct SweepDriver<'a> {
    llms: &'a [LlmSpec],
    profiles: &'a [GpuProfile],
    sampler: &'a WorkloadSampler,
    config: CharacterizeConfig,
    options: SweepOptions,
}

/// Builder of a [`SweepDriver`]; validates the configuration at
/// [`build`](SweepDriverBuilder::build) and returns a typed
/// [`CoreError::InvalidConfig`] instead of panicking on bad options.
#[derive(Debug)]
pub struct SweepDriverBuilder<'a> {
    llms: &'a [LlmSpec],
    profiles: &'a [GpuProfile],
    sampler: &'a WorkloadSampler,
    config: CharacterizeConfig,
    options: SweepOptions,
}

impl<'a> SweepDriverBuilder<'a> {
    /// Set the characterization config (defaults to
    /// [`CharacterizeConfig::default`]).
    pub fn config(mut self, config: CharacterizeConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the sweep options (defaults to [`SweepOptions::default`]).
    pub fn options(mut self, options: SweepOptions) -> Self {
        self.options = options;
        self
    }

    /// Validate and build the driver.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when any option is out of range:
    /// `max_attempts` of 0, a zero step budget, or a non-positive load-test
    /// duration.
    pub fn build(self) -> Result<SweepDriver<'a>, CoreError> {
        let invalid = |msg: String| Err(CoreError::InvalidConfig(msg));
        let o = &self.options;
        if o.max_attempts < 1 {
            return invalid("max_attempts must be at least 1".into());
        }
        if o.max_steps_per_cell == Some(0) {
            return invalid("max_steps_per_cell must be at least 1 when set".into());
        }
        if !self.config.duration_s.is_finite() || self.config.duration_s <= 0.0 {
            return invalid(format!(
                "duration_s must be finite and positive, got {}",
                self.config.duration_s
            ));
        }
        let Self { llms, profiles, sampler, config, options } = self;
        Ok(SweepDriver { llms, profiles, sampler, config, options })
    }
}

impl<'a> SweepDriver<'a> {
    /// Start building a driver over the `llms × profiles` grid. The config
    /// and options default to their `Default` values; the grid is borrowed,
    /// everything else is owned by the builder.
    pub fn builder(
        llms: &'a [LlmSpec],
        profiles: &'a [GpuProfile],
        sampler: &'a WorkloadSampler,
    ) -> SweepDriverBuilder<'a> {
        SweepDriverBuilder {
            llms,
            profiles,
            sampler,
            config: CharacterizeConfig::default(),
            options: SweepOptions::default(),
        }
    }

    /// Run one cell to completion: retry with exponential virtual backoff
    /// until measured, infeasible, or out of attempts. Returns the status,
    /// the backoff accrued, and the cell's tail quantiles.
    fn run_cell(
        &self,
        llm: &LlmSpec,
        profile: &GpuProfile,
        progress: &SweepProgress,
    ) -> (CellStatus, f64, CellTails) {
        let cell_start = Instant::now();
        let name = profile.name();
        let events = &self.options.events;
        events.cell_started(llm.name, &name, progress.grid_cells);

        let recorder = &self.options.recorder;
        let mut cell_span =
            recorder.span("sweep.cell").arg("llm", llm.name).arg("profile", name.as_str());
        // When flight recording is on, the cell's interior spans go to a
        // bounded per-cell ring instead of the sweep recorder, so a dump
        // holds exactly the failing cell's last moments. The armed guard
        // also dumps the ring if a panic unwinds through this cell.
        let flight = self.options.flight_dir.as_ref().map(|dir| {
            flight::install_panic_hook();
            (FlightRecorder::default(), dir.join(flight::dump_file_name(llm.name, &name)))
        });
        let _armed = flight.as_ref().map(|(fl, path)| flight::arm(fl, path.clone()));
        let cell_rec: Recorder =
            flight.as_ref().map_or_else(|| recorder.clone(), |(fl, _)| fl.recorder().clone());

        let hists = SampleHists::default();
        let mut ctx = CellContext {
            plan: self.options.plan.clone(),
            attempt: 0,
            max_steps: self.options.max_steps_per_cell,
            recorder: cell_rec,
            hists: Some(&hists),
        };
        let mut backoff = 0.0;
        let mut attempt = 0;
        let status = loop {
            events.cell_attempt(
                llm.name,
                &name,
                u64::from(attempt + 1),
                u64::from(self.options.max_attempts),
            );
            ctx.attempt = attempt;
            let outcome = {
                let _attempt_span = ctx.recorder.span("sweep.attempt").arg("attempt", attempt + 1);
                characterize_cell(llm, profile, self.sampler, &self.config, &ctx)
            };
            attempt += 1;
            match outcome {
                CellOutcome::Measured { max_batch_weight, rows } => {
                    cell_span.set_arg("attempts", attempt);
                    break CellStatus::Measured { max_batch_weight, rows, attempts: attempt };
                }
                CellOutcome::Infeasible(reason) => {
                    cell_span.set_arg("infeasible", true);
                    break CellStatus::Infeasible(reason);
                }
                CellOutcome::Failed { error, .. } => {
                    if attempt >= self.options.max_attempts {
                        cell_span.set_arg("failed", true);
                        cell_span.set_arg("attempts", attempt);
                        // Retries exhausted: dump the flight ring for
                        // post-mortem before reporting the failure.
                        if let Some((fl, path)) = &flight {
                            let _ = fl.dump_to(path);
                        }
                        break CellStatus::Failed { error: error.to_string(), attempts: attempt };
                    }
                    let step = BACKOFF_BASE_S * (2.0f64).powi((attempt - 1).min(60) as i32);
                    backoff += step;
                    events.cell_retried(
                        llm.name,
                        &name,
                        u64::from(attempt),
                        u64::from(self.options.max_attempts),
                        step,
                        &error.to_string(),
                    );
                    ctx.recorder.counter_add("sweep.retries", 1);
                    // Virtual backoff is never slept, so the span marks the
                    // decision point (zero wall-clock width) and carries the
                    // virtual wait as an argument.
                    drop(ctx.recorder.span("sweep.backoff").arg("backoff_virtual_s", step));
                }
            }
        };

        let tails = CellTails { nttft: hists.nttft.summary(), itl: hists.itl.summary() };
        let done = progress.finish_cell(cell_start.elapsed().as_secs_f64());
        let status_str = match &status {
            CellStatus::Measured { .. } => "measured",
            CellStatus::Infeasible(_) => "infeasible",
            CellStatus::Failed { .. } => "failed",
        };
        let measured = matches!(status, CellStatus::Measured { .. });
        events.cell_finished(
            llm.name,
            &name,
            status_str,
            u64::from(attempt.max(1)),
            done,
            progress.grid_cells,
            progress.eta_s(done),
            measured.then_some(&tails.nttft),
            measured.then_some(&tails.itl),
        );
        (status, backoff, tails)
    }

    /// Run the sweep (or the next chunk of it, under
    /// [`SweepOptions::max_cells_per_run`]), resuming from the journal if
    /// one exists. Returns the dataset over every completed cell, assembled
    /// in grid order — so a resumed sweep's dataset is bit-identical to a
    /// one-shot sweep's, regardless of which run measured which cell.
    pub fn run(&self) -> Result<(CharacterizationDataset, SweepReport), CoreError> {
        let run_start = Instant::now();
        let grid: Vec<(&LlmSpec, &GpuProfile)> =
            self.llms.iter().flat_map(|m| self.profiles.iter().map(move |p| (m, p))).collect();
        let mut run_span =
            self.options.recorder.span("sweep.run").arg("grid_cells", grid.len() as u64);

        // Restore finished cells from the journal.
        let (mut done, journal_dirty): (CellMap, bool) = match &self.options.journal_path {
            Some(path) if path.exists() => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CoreError::Io(format!("reading journal {path:?}: {e}")))?;
                parse_journal(&text)?
            }
            _ => (BTreeMap::new(), false),
        };
        let journal = match &self.options.journal_path {
            Some(path) => Some(Journal::open(path, journal_dirty.then_some(&done))?),
            None => None,
        };
        let resumed = done.len();
        run_span.set_arg("resumed", resumed as u64);
        self.options.events.sweep_started(
            grid.len() as u64,
            resumed as u64,
            u64::from(self.options.max_attempts),
        );

        // Cells still to process, in grid order, capped per run.
        let todo: Vec<(&LlmSpec, &GpuProfile)> = grid
            .iter()
            .filter(|(m, p)| !done.contains_key(&(m.name.to_string(), p.name())))
            .take(self.options.max_cells_per_run.unwrap_or(usize::MAX))
            .copied()
            .collect();

        /// What one `run_cell` call yields, keyed by `(llm, profile)`.
        type CellResult = ((String, String), (CellStatus, f64, CellTails));
        let progress = SweepProgress::new(grid.len() as u64, resumed as u64);
        let results: Vec<CellResult> = todo
            .iter()
            .map(|(llm, profile)| {
                let key = (llm.name.to_string(), profile.name());
                let result = self.run_cell(llm, profile, &progress);
                // Journal each cell as soon as it finishes, so a killed
                // sweep loses only the cells still running.
                if let Some(journal) = &journal {
                    journal.append(&journal_lines(&key.0, &key.1, &result.0))?;
                }
                Ok((key, result))
            })
            .collect::<Result<_, CoreError>>()?;

        let mut backoff_virtual_s = 0.0;
        let mut tails = BTreeMap::new();
        for ((llm, profile), (status, backoff, cell_tails)) in results {
            backoff_virtual_s += backoff;
            tails.insert((llm.clone(), profile.clone()), cell_tails);
            done.insert((llm, profile), status);
        }

        // Assemble dataset and report in grid order.
        let mut ds = CharacterizationDataset::default();
        let mut cells = Vec::with_capacity(done.len());
        let mut pending = 0;
        for (llm, profile) in &grid {
            let key = (llm.name.to_string(), profile.name());
            match done.get(&key) {
                Some(status) => {
                    if let CellStatus::Measured { max_batch_weight, rows, .. } = status {
                        ds.tuned_weights.insert(key.clone(), *max_batch_weight);
                        ds.rows.extend(rows.iter().cloned());
                    }
                    cells.push((key.0, key.1, status.clone()));
                }
                None => pending += 1,
            }
        }
        let report = SweepReport { cells, pending, resumed, backoff_virtual_s, tails };
        self.options.events.sweep_finished(
            grid.len() as u64,
            report.cells.len() as u64,
            report.measured() as u64,
            report.infeasible() as u64,
            report.failed() as u64,
            run_start.elapsed().as_secs_f64(),
        );
        Ok((ds, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpilot_sim::fault::FaultConfig;
    use llmpilot_sim::gpu::{a100_40, t4};
    use llmpilot_sim::llm::{flan_t5_xl, llama2_7b};
    use llmpilot_traces::{Param, TraceGenerator, TraceGeneratorConfig};
    use llmpilot_workload::WorkloadModel;

    fn sampler() -> WorkloadSampler {
        let traces = TraceGenerator::new(TraceGeneratorConfig {
            num_requests: 20_000,
            seed: 55,
            ..TraceGeneratorConfig::default()
        })
        .generate();
        let model = WorkloadModel::fit(
            &traces,
            &[Param::InputTokens, Param::OutputTokens, Param::BatchSize],
        )
        .unwrap();
        WorkloadSampler::new(model)
    }

    fn quick_config() -> CharacterizeConfig {
        CharacterizeConfig {
            duration_s: 15.0,
            user_sweep: vec![1, 8],
            ..CharacterizeConfig::default()
        }
    }

    fn grid() -> (Vec<LlmSpec>, Vec<GpuProfile>) {
        (
            vec![flan_t5_xl(), llama2_7b()],
            vec![GpuProfile::new(t4(), 1), GpuProfile::new(a100_40(), 1)],
        )
    }

    /// Shorthand: a validated driver, panicking on config errors (tests
    /// only pass valid configs here).
    fn driver<'a>(
        llms: &'a [LlmSpec],
        profiles: &'a [GpuProfile],
        sampler: &'a WorkloadSampler,
        config: CharacterizeConfig,
        options: SweepOptions,
    ) -> SweepDriver<'a> {
        SweepDriver::builder(llms, profiles, sampler)
            .config(config)
            .options(options)
            .build()
            .unwrap()
    }

    #[test]
    fn fault_free_sweep_equals_plain_characterize() {
        let s = sampler();
        let (llms, profiles) = grid();
        let driver = driver(&llms, &profiles, &s, quick_config(), SweepOptions::default());
        let (ds, report) = driver.run().unwrap();
        // Reference: the plain cells assembled in grid order, infeasible
        // cells skipped.
        let mut plain = CharacterizationDataset::default();
        for llm in &llms {
            for profile in &profiles {
                let outcome =
                    characterize_cell(llm, profile, &s, &quick_config(), &CellContext::default());
                if let Some((weight, rows)) = outcome.measured() {
                    plain.tuned_weights.insert((llm.name.to_string(), profile.name()), weight);
                    plain.rows.extend(rows);
                }
            }
        }
        assert_eq!(ds, plain);
        assert!(report.is_complete());
        assert_eq!(report.measured(), 3); // llama2-7b doesn't fit 1xT4
        assert_eq!(report.infeasible(), 1);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.completeness(), 1.0);
    }

    #[test]
    fn transient_faults_with_retries_recover_the_full_dataset() {
        let s = sampler();
        let (llms, profiles) = grid();
        let clean =
            driver(&llms, &profiles, &s, quick_config(), SweepOptions::default()).run().unwrap().0;
        let options = SweepOptions {
            // p = 0.4 on deploy + tuning + two load tests leaves only a
            // ~13% success chance per attempt; 64 attempts push the
            // all-fail probability per cell below 2e-4.
            plan: FaultPlan::new(FaultConfig::transient(7, 0.4)),
            max_attempts: 64,
            ..SweepOptions::default()
        };
        let (ds, report) = driver(&llms, &profiles, &s, quick_config(), options).run().unwrap();
        assert_eq!(ds, clean, "recovered dataset must be bit-identical");
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn exhausted_retries_record_failed_cells() {
        let s = sampler();
        let (llms, profiles) = grid();
        let options = SweepOptions {
            plan: FaultPlan::new(FaultConfig {
                deploy_failure_prob: 1.0,
                ..FaultConfig::disabled()
            }),
            max_attempts: 2,
            ..SweepOptions::default()
        };
        let (ds, report) = driver(&llms, &profiles, &s, quick_config(), options).run().unwrap();
        assert!(ds.is_empty());
        assert_eq!(report.failed(), 3);
        assert_eq!(report.infeasible(), 1); // infeasibility checked pre-deploy
        assert_eq!(report.completeness(), 0.0);
        for (_, _, status) in &report.cells {
            if let CellStatus::Failed { error, attempts } = status {
                assert_eq!(*attempts, 2);
                assert!(error.contains("transient deployment failure"), "{error}");
            }
        }
        assert!(report.backoff_virtual_s > 0.0);
    }

    #[test]
    fn interrupted_sweep_resumes_bit_identically() {
        let s = sampler();
        let (llms, profiles) = grid();
        let one_shot =
            driver(&llms, &profiles, &s, quick_config(), SweepOptions::default()).run().unwrap().0;

        let dir = std::env::temp_dir().join(format!("llmpilot-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.csv");
        let _ = std::fs::remove_file(&journal);

        let options = SweepOptions {
            journal_path: Some(journal.clone()),
            max_cells_per_run: Some(1),
            ..SweepOptions::default()
        };
        let driver = driver(&llms, &profiles, &s, quick_config(), options);
        let mut runs = 0;
        let (ds, report) = loop {
            let (ds, report) = driver.run().unwrap();
            runs += 1;
            assert!(runs <= 8, "sweep failed to converge");
            if report.is_complete() {
                break (ds, report);
            }
        };
        assert_eq!(runs, 4, "one run per cell of the 2x2 grid");
        assert_eq!(report.resumed, 3);
        assert_eq!(ds, one_shot, "resumed dataset must be bit-identical");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn journal_round_trips_all_statuses() {
        let row = PerfRow {
            llm: "m".into(),
            profile: "p".into(),
            users: 8,
            ttft_s: 0.1234567890123,
            nttft_s: 3.3e-4,
            itl_s: 0.025,
            throughput: 1234.5678,
        };
        let statuses = vec![
            (
                "m".to_string(),
                "p".to_string(),
                CellStatus::Measured { max_batch_weight: 42_000, rows: vec![row], attempts: 3 },
            ),
            ("m".to_string(), "q".to_string(), CellStatus::Infeasible("won't, ever".into())),
            (
                "n".to_string(),
                "p".to_string(),
                CellStatus::Failed { error: "crashed, badly".into(), attempts: 2 },
            ),
        ];
        let mut text = String::new();
        for (llm, profile, status) in &statuses {
            text.push_str(&journal_lines(llm, profile, status));
        }
        let (parsed, dirty) = parse_journal(&text).unwrap();
        assert!(!dirty);
        assert_eq!(parsed.len(), 3);
        for (llm, profile, status) in &statuses {
            assert_eq!(parsed[&(llm.clone(), profile.clone())], *status);
        }
    }

    #[test]
    fn journal_rejects_garbage_before_the_final_line() {
        // A malformed line anywhere but the tail means corruption, not
        // truncation: the valid trailing marker proves writes continued.
        let tail = "cell,m,q,infeasible,nope\n";
        assert!(parse_journal(&format!("m,p,8,0.1,0.2,0.3,4\n{tail}")).is_err());
        assert!(parse_journal(&format!("cell,m,p,bogus,1\n{tail}")).is_err());
        assert!(parse_journal(&format!("cell,m,p,measured\n{tail}")).is_err());
    }

    #[test]
    fn journal_tolerates_a_torn_tail() {
        let complete = "cell,m,p,infeasible,nope\n";
        // Torn mid-marker: the partial cell is dropped, the complete one kept.
        let (parsed, dirty) = parse_journal(&format!("{complete}cell,n,p,meas")).unwrap();
        assert!(dirty);
        assert_eq!(parsed.len(), 1);
        assert!(parsed.contains_key(&("m".to_string(), "p".to_string())));
        // Torn mid-row: the measured cell the row belongs to is dropped too.
        let torn = format!("{complete}cell,n,p,measured,1000,1,2\nn,p,8,0.1,0.2");
        let (parsed, dirty) = parse_journal(&torn).unwrap();
        assert!(dirty);
        assert_eq!(parsed.len(), 1);
        assert!(!parsed.contains_key(&("n".to_string(), "p".to_string())));
        // Torn exactly at a line boundary: the marker declares 2 rows but
        // only 1 survived — the cell is dropped for recomputation.
        let boundary = format!("{complete}cell,n,p,measured,1000,1,2\nn,p,1,0.1,0.2,0.3,4\n");
        let (parsed, dirty) = parse_journal(&boundary).unwrap();
        assert!(dirty);
        assert_eq!(parsed.len(), 1);
        assert!(!parsed.contains_key(&("n".to_string(), "p".to_string())));
        // A journal that is nothing but a torn tail parses to empty.
        let (parsed, dirty) = parse_journal("cell,m,p,measured\n").unwrap();
        assert!(dirty);
        assert!(parsed.is_empty());
        // An intact journal is not dirty.
        let (_, dirty) = parse_journal(complete).unwrap();
        assert!(!dirty);
    }

    #[test]
    fn journal_rejects_a_short_cell_mid_file() {
        // Rows missing while the file kept going is corruption, not a torn
        // tail — the parser must refuse rather than resume from bad data.
        // (Two trailing cells: were the short cell followed only by the
        // final line, the torn-tail rule would drop it instead.)
        let text = "cell,n,p,measured,1000,1,2\nn,p,1,0.1,0.2,0.3,4\n\
                    cell,m,p,infeasible,nope\ncell,m,q,infeasible,nope\n";
        assert!(parse_journal(text).is_err());
    }

    #[test]
    fn resume_recomputes_a_cell_truncated_at_a_line_boundary() {
        let sampler = sampler();
        let (llms, profiles) = grid();
        let config = quick_config();
        let dir = std::env::temp_dir().join(format!("sweep_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("torn.csv");
        let one_shot = driver(&llms, &profiles, &sampler, config.clone(), SweepOptions::default())
            .run()
            .unwrap()
            .0;
        // Run once journaled, then tear the journal: drop the last line (a
        // whole dataset row — the boundary case the parser cannot detect)
        // plus a few bytes of the one before.
        let opts =
            || SweepOptions { journal_path: Some(journal.clone()), ..SweepOptions::default() };
        driver(&llms, &profiles, &sampler, config.clone(), opts()).run().unwrap();
        let text = std::fs::read_to_string(&journal).unwrap();
        let keep: Vec<&str> = text.lines().collect();
        let torn =
            format!("{}\n{}", keep[..keep.len() - 2].join("\n"), &keep[keep.len() - 2][..10]);
        std::fs::write(&journal, torn).unwrap();
        // Resume must recompute the damaged cell and still match one-shot.
        let (ds, report) =
            driver(&llms, &profiles, &sampler, config.clone(), opts()).run().unwrap();
        assert_eq!(ds, one_shot, "post-tear resume must be bit-identical");
        assert_eq!(report.pending, 0);
        // The resume must also have healed the journal: it now parses clean
        // and a further resume recomputes nothing.
        let healed = std::fs::read_to_string(&journal).unwrap();
        let (_, dirty) = parse_journal(&healed).unwrap();
        assert!(!dirty, "journal must be rewritten whole after a tear");
        let (ds, report) = driver(&llms, &profiles, &sampler, config, opts()).run().unwrap();
        assert_eq!(ds, one_shot);
        assert_eq!(report.resumed, report.cells.len(), "all cells resume from the healed journal");
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn builder_rejects_invalid_options_with_typed_errors() {
        let s = sampler();
        let (llms, profiles) = grid();
        let build = |options: SweepOptions| {
            SweepDriver::builder(&llms, &profiles, &s)
                .config(quick_config())
                .options(options)
                .build()
                .map(|_| ())
        };
        let expect_invalid = |result: Result<(), CoreError>, needle: &str| match result {
            Err(CoreError::InvalidConfig(msg)) => {
                assert!(msg.contains(needle), "{msg:?} should mention {needle:?}")
            }
            other => panic!("expected InvalidConfig({needle}), got {other:?}"),
        };
        expect_invalid(
            build(SweepOptions { max_attempts: 0, ..SweepOptions::default() }),
            "max_attempts",
        );
        expect_invalid(
            build(SweepOptions { max_steps_per_cell: Some(0), ..SweepOptions::default() }),
            "max_steps_per_cell",
        );
        let bad_duration = SweepDriver::builder(&llms, &profiles, &s)
            .config(CharacterizeConfig { duration_s: 0.0, ..CharacterizeConfig::default() })
            .build()
            .map(|_| ());
        expect_invalid(bad_duration, "duration_s");
        // And valid defaults build fine.
        assert!(build(SweepOptions::default()).is_ok());
    }

    #[test]
    fn sweep_emits_a_valid_event_stream_with_full_completeness() {
        let s = sampler();
        let (llms, profiles) = grid();
        let (events, buffer) = EventSink::to_buffer();
        let options = SweepOptions { events, ..SweepOptions::default() };
        let (ds, report) = driver(&llms, &profiles, &s, quick_config(), options).run().unwrap();
        assert!(report.is_complete());

        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let stats = llmpilot_obs::check::check_events(&text).expect("stream must validate");
        assert_eq!(stats.types.get("sweep.started"), Some(&1));
        assert_eq!(stats.types.get("sweep.finished"), Some(&1));
        assert_eq!(stats.types.get("cell.started"), Some(&4));
        assert_eq!(stats.types.get("cell.finished"), Some(&4));
        assert_eq!(stats.completeness_pct, Some(100.0));
        assert!(stats.finished);
        assert!(!stats.truncated_tail);
        // Measured cells carry their histogram snapshot.
        assert!(text.contains("nttft_p99_ms"));

        // The events never change the dataset.
        let plain =
            driver(&llms, &profiles, &s, quick_config(), SweepOptions::default()).run().unwrap().0;
        assert_eq!(ds, plain);
    }

    #[test]
    fn measured_cells_get_deterministic_tail_quantiles() {
        let s = sampler();
        let (llms, profiles) = grid();
        let run =
            || driver(&llms, &profiles, &s, quick_config(), SweepOptions::default()).run().unwrap();
        let (_, a) = run();
        let (_, b) = run();
        assert_eq!(a.tails, b.tails, "tails must be deterministic");
        assert_eq!(a.tails.len(), 4, "every fresh cell reports tails");
        for (llm, profile, status) in &a.cells {
            let t = &a.tails[&(llm.clone(), profile.clone())];
            if matches!(status, CellStatus::Measured { .. }) {
                assert!(t.nttft.count > 0);
                assert!(t.itl.count > 0);
                assert!(t.itl.p99 >= t.itl.p50);
                assert!(t.nttft.p999 >= t.nttft.p99);
            } else {
                assert_eq!(t.nttft.count, 0, "unmeasured cells have no samples");
            }
        }
        // The report surfaces the quantiles (CI greps for a p99 line).
        let text = a.to_string();
        assert!(text.contains("p50/p95/p99"), "{text}");
    }

    #[test]
    fn flight_dumps_appear_for_exactly_the_failed_cells() {
        let s = sampler();
        let (llms, profiles) = grid();
        let dir = std::env::temp_dir().join(format!("llmpilot-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = SweepOptions {
            // Deploy always fails: every feasible cell exhausts its retries.
            plan: FaultPlan::new(FaultConfig {
                deploy_failure_prob: 1.0,
                ..FaultConfig::disabled()
            }),
            max_attempts: 2,
            flight_dir: Some(dir.clone()),
            ..SweepOptions::default()
        };
        let (_, report) = driver(&llms, &profiles, &s, quick_config(), options).run().unwrap();
        assert_eq!(report.failed(), 3);
        for (llm, profile, status) in &report.cells {
            let path = dir.join(flight::dump_file_name(llm, profile));
            match status {
                CellStatus::Failed { .. } => {
                    let doc = std::fs::read_to_string(&path)
                        .unwrap_or_else(|e| panic!("missing dump {path:?}: {e}"));
                    // Every dump is a valid chrome trace holding the failing
                    // cell's final spans.
                    let stats = llmpilot_obs::check::check_chrome_trace(&doc, &[]).unwrap();
                    assert!(stats.span_events > 0, "dump for {llm}/{profile} must hold spans");
                    assert!(doc.contains("sweep.attempt"), "dump holds the attempt spans");
                }
                _ => assert!(!path.exists(), "no dump for non-failed cell {llm}/{profile}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_recording_does_not_change_the_dataset() {
        let s = sampler();
        let (llms, profiles) = grid();
        let dir = std::env::temp_dir().join(format!("llmpilot-flight-ok-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plain =
            driver(&llms, &profiles, &s, quick_config(), SweepOptions::default()).run().unwrap();
        let options = SweepOptions { flight_dir: Some(dir.clone()), ..SweepOptions::default() };
        let flighted = driver(&llms, &profiles, &s, quick_config(), options).run().unwrap();
        assert_eq!(plain, flighted, "flight recording must not perturb the sweep");
        // All cells succeeded (or were infeasible): no dumps at all.
        let dumped = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(dumped, 0, "successful sweeps leave no flight dumps");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_sweep_trace_has_one_cell_span_per_cell_including_retries() {
        let s = sampler();
        let (llms, profiles) = grid();
        let untraced = driver(
            &llms,
            &profiles,
            &s,
            quick_config(),
            SweepOptions {
                plan: FaultPlan::new(FaultConfig::transient(7, 0.4)),
                max_attempts: 64,
                ..SweepOptions::default()
            },
        )
        .run()
        .unwrap();
        let recorder = Recorder::enabled();
        let (ds, report) = driver(
            &llms,
            &profiles,
            &s,
            quick_config(),
            SweepOptions {
                plan: FaultPlan::new(FaultConfig::transient(7, 0.4)),
                max_attempts: 64,
                recorder: recorder.clone(),
                ..SweepOptions::default()
            },
        )
        .run()
        .unwrap();
        assert_eq!((ds, report.clone()), untraced, "tracing must not perturb the sweep");

        let trace = recorder.snapshot();
        let count = |name: &str| trace.events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("sweep.run"), 1);
        assert_eq!(count("sweep.cell"), 4, "one sweep.cell span per grid cell");
        // This fault plan retries at least one cell, and every retry means
        // an extra attempt span and a backoff marker.
        let attempts: u32 = report
            .cells
            .iter()
            .map(|(_, _, status)| match status {
                CellStatus::Measured { attempts, .. } | CellStatus::Failed { attempts, .. } => {
                    *attempts
                }
                // An infeasible cell burns exactly one attempt.
                CellStatus::Infeasible(_) => 1,
            })
            .sum();
        assert!(report.retried() >= 1, "fault plan was expected to force retries");
        assert_eq!(count("sweep.attempt"), attempts as usize);
        assert_eq!(count("sweep.backoff"), (attempts as usize) - 4);
        // Every cell span is parented to the sweep.run span, and load tests
        // nest below their cell's attempts.
        let run_id = trace.events.iter().find(|e| e.name == "sweep.run").unwrap().id;
        for e in trace.events.iter().filter(|e| e.name == "sweep.cell") {
            assert_eq!(e.parent, Some(run_id));
        }
        let load_tests = count("cell.load_test");
        assert!(load_tests >= report.measured() * 2);
        // The engine records no spans: each attempt adds a bounded handful
        // (attempt, backoff, tuner) besides its load tests.
        assert!(trace.events.iter().all(|e| !e.name.starts_with("engine.")));
        assert!(
            trace.events.len() <= 8 * (load_tests + attempts as usize),
            "{} spans for {load_tests} load tests and {attempts} attempts",
            trace.events.len()
        );
        let retries = trace.counters.iter().find(|(k, _)| k == "sweep.retries").unwrap().1;
        assert_eq!(retries as usize, (attempts as usize) - 4);
    }
}
