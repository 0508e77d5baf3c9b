//! Seeded benchmark of LLM-Pilot's offline path (characterization sweep and
//! recommender evaluation) and online path (the `/recommend` daemon).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline|serve_cold|serve_hot_reload --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics, a traced
//! run (`--trace 1`) the per-layer ones, timed from here around calls into
//! each layer's public functions. Human-readable lines come first; the last
//! line of standard output is a JSON verdict. The exit code is 0 only when
//! every output check passed. See `perfbench/README.md`.

mod host;
mod keys;
mod offline;
mod report;
mod serve;
mod stats;

use std::time::{Duration, Instant};

use host::CpuTicks;
use report::Report;
use serve::Mix;

/// Set-up, and each single-layer measurement that is cheap enough, runs this
/// many times per run; the median is reported.
pub const REPS: usize = 21;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("op_cpu_us", "us"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: every traced run reports each of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("offline.sweep_s", "s"),
    ("offline.eval_s", "s"),
    ("workload.sample_calls", "count"),
    ("workload.sample_s", "s"),
    ("characterize.sampler_clone_s", "s"),
    ("tuner.calls", "count"),
    ("tuner.busy_s", "s"),
    ("tuner.probes", "count"),
    ("load.calls", "count"),
    ("load.busy_s", "s"),
    ("load.self_s", "s"),
    ("engine.steps", "count"),
    ("engine.step_ns", "ns"),
    ("sim.ns_per_token", "ns"),
    ("predictor.train_calls", "count"),
    ("predictor.train_ms", "ms"),
    ("predictor.predict_us", "us"),
    ("evaluate.self_s", "s"),
    ("obs.traced_ratio", "ratio"),
    ("server.handle_p50_ms", "ms"),
    ("server.client_gap_us", "us"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.queries", "count"),
    ("serve.rejected", "count"),
    ("store.load_ms", "ms"),
    ("serving.train_ms", "ms"),
    ("serving.recommend_us", "us"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("http.parse_us", "us"),
    ("host.steal_share", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Offline,
    ServeCold,
    ServeHotReload,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("offline", Workload::Offline),
        ("serve_cold", Workload::ServeCold),
        ("serve_hot_reload", Workload::ServeHotReload),
    ];
}

/// Resource use of one timed phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseUse {
    /// Wall time, s.
    pub wall_s: f64,
    /// Process CPU time, s.
    pub cpu_s: f64,
}

/// A timed phase in progress.
pub struct Phase {
    started: Instant,
    cpu_s: f64,
    ticks: CpuTicks,
    /// Wall and CPU time of work run outside the phase since it began.
    excluded: (Duration, f64),
}

impl Phase {
    /// Start timing.
    pub fn begin() -> Result<Self, String> {
        Ok(Self {
            ticks: CpuTicks::now()?,
            cpu_s: host::cpu_seconds()?,
            started: Instant::now(),
            excluded: (Duration::ZERO, 0.0),
        })
    }

    /// Timed wall time since [`Phase::begin`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed().saturating_sub(self.excluded.0)
    }

    /// Process CPU time the phase has used so far, s.
    pub fn cpu_s(&self) -> Result<f64, String> {
        Ok(host::cpu_seconds()? - self.cpu_s - self.excluded.1)
    }

    /// Run `work` outside the phase: its wall and CPU time do not count.
    pub fn exclude<T>(&mut self, work: impl FnOnce() -> T) -> Result<T, String> {
        let cpu_s = host::cpu_seconds()?;
        let started = Instant::now();
        let out = work();
        self.excluded.0 += started.elapsed();
        self.excluded.1 += host::cpu_seconds()? - cpu_s;
        Ok(out)
    }

    /// Stop timing and print the phase's wall time, CPU time and the share
    /// of the machine's CPU time the hypervisor stole meanwhile. The steal
    /// share is a record of host noise only; no run is dropped for it.
    pub fn end(self, name: &str) -> Result<PhaseUse, String> {
        let wall_s = self.elapsed().as_secs_f64();
        let cpu_s = self.cpu_s()?;
        let steal = self.ticks.steal_share_until(&CpuTicks::now()?);
        println!("phase {name}: wall {wall_s} s, cpu {cpu_s} s, host.steal_share {steal}");
        Ok(PhaseUse { wall_s, cpu_s })
    }
}

/// Set-up, timed [`REPS`] times in one run.
///
/// `setup_s` is the median process CPU time of one set-up, over all
/// threads. Set-up is short (40–160 ms), and the host's speed
/// drifts by up to a third over a few hundred milliseconds, so the first
/// set-up runs before the timed part and the others are spread through it
/// (see [`SetupTime::behind`]), like the operations they are set beside.
/// The median wall time is printed beside it.
#[derive(Debug, Default)]
pub struct SetupTime {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
}

impl SetupTime {
    /// Run and time one set-up.
    pub fn time<T>(&mut self, set_up: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let cpu_s = host::cpu_seconds()?;
        let started = Instant::now();
        let out = set_up()?;
        self.wall_s.push(started.elapsed().as_secs_f64());
        self.cpu_s.push(host::cpu_seconds()? - cpu_s);
        Ok(out)
    }

    /// Whether a set-up is due once the share `done` (0 to 1) of the timed
    /// part has passed: one before it, the other `REPS - 1` evenly through
    /// it. The last is due at its end.
    pub fn behind(&self, done: f64) -> bool {
        let due = 1 + ((REPS - 1) as f64 * done.clamp(0.0, 1.0)).floor() as usize;
        self.cpu_s.len() < due
    }

    /// Report `setup_s` and print the median wall time.
    pub fn report(&self, report: &mut Report) {
        report.check(self.cpu_s.len() == REPS, || {
            format!("{} set-ups timed, expected {REPS}", self.cpu_s.len())
        });
        report.metric("setup_s", "s", stats::median(&self.cpu_s));
        report.note("setup_wall_s", "s", stats::median(&self.wall_s));
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload offline|serve_cold|serve_hot_reload \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.iter().find(|(n, _)| *n == value).ok_or_else(bad)?;
                workload = Some(w.1);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<u64>().ok().filter(|s| *s > 0).ok_or_else(bad)?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let stored = offline::STORED_CSV;
    let (seed, seconds) = (args.seed, args.seconds);
    if !args.trace {
        let ticks = CpuTicks::now()?;
        match args.workload {
            Workload::Offline => offline::run_e2e(seed, seconds, report)?,
            Workload::ServeCold => serve::run_e2e(Mix::Cold, seed, seconds, stored, report)?,
            Workload::ServeHotReload => {
                serve::run_e2e(Mix::HotReload, seed, seconds, stored, report)?
            }
        }
        report.note("host.steal_share", "ratio", ticks.steal_share_until(&CpuTicks::now()?));
        return Ok(());
    }
    // Every traced run measures every layer. The offline layers run on the
    // seed's trace corpus; the serving layers run on the workload's query
    // mix, over the dataset the sweep just produced on `offline` and over
    // the stored copy on the serve workloads.
    let ticks = CpuTicks::now()?;
    let produced = offline::run_layers(seed, report)?;
    match args.workload {
        Workload::Offline => serve::run_layers(Mix::Cold, seed, &produced, report)?,
        Workload::ServeCold => serve::run_layers(Mix::Cold, seed, stored, report)?,
        Workload::ServeHotReload => serve::run_layers(Mix::HotReload, seed, stored, report)?,
    }
    report.metric("host.steal_share", "ratio", ticks.steal_share_until(&CpuTicks::now()?));
    report.note("peak_rss_mb", "MB", host::peak_rss_mb()?);
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!("perfbench {args:?}");
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        report.check(false, || e);
    }
    report.check_metric_set(if args.trace { PER_LAYER } else { END_TO_END });
    report.note("error_rate", "ratio", report.error_rate());
    println!("{}", report.json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{valid_name, valid_unit};

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        names.extend(Workload::ALL.iter().map(|(n, _)| *n));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        for (name, _) in Workload::ALL {
            assert!(valid_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) is not declared in BENCHMARK.json"
            );
        }
        assert_eq!(json.matches("\"name\":").count(), END_TO_END.len() + PER_LAYER.len() + 3);
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload serve_cold --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ServeCold, 7, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload offline --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload offline --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload offline --seed 1 --trace 0").is_err(), "--seconds is required");
    }
}
