//! The offline path: trace corpus and workload model, the full-grid
//! characterization sweep, and LLM-Pilot's leave-one-LLM-out evaluation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use llmpilot_core::baselines::{LlmPilotMethod, Method, MethodInput};
use llmpilot_core::evaluate::MethodScore;
use llmpilot_core::recommend::recommend;
use llmpilot_core::{
    CharacterizationDataset, CharacterizeConfig, CoreError, Evaluation, PerfRow,
    PerformancePredictor, PredictorConfig, Recommendation, SweepDriver, SweepOptions,
    WorkloadRequestSource,
};
use llmpilot_obs::Recorder;
use llmpilot_sim::engine::{Engine, PhaseHists};
use llmpilot_sim::error::SimError;
use llmpilot_sim::fault::FaultPlan;
use llmpilot_sim::gpu::{paper_profiles, GpuProfile};
use llmpilot_sim::llm::{llm_by_name, llm_catalog, LlmSpec};
use llmpilot_sim::load::{fit_request, run_load_test_observed, LoadTestConfig, SampleHists};
use llmpilot_sim::memory::MemoryModel;
use llmpilot_sim::perf_model::PerfModel;
use llmpilot_sim::request::{RequestSource, RequestSpec};
use llmpilot_sim::tuner::tune_max_batch_weight;
use llmpilot_traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llmpilot_workload::{WorkloadModel, WorkloadSampler};

use crate::host;
use crate::report::Report;
use crate::stats::median;
use crate::{Phase, SetupTime};

/// Trace-corpus seed of seed 0, the default of `llm-pilot characterize`;
/// seed `s` uses this plus `s`.
const BASE_TRACE_SEED: u64 = 0xC0FFEE;
/// Trace-corpus size, as `llm-pilot characterize` uses.
const TRACE_REQUESTS: usize = 60_000;
/// Measured `(LLM, profile)` cells and dataset rows of the full grid: the
/// memory-feasible cells of Table III times eight user counts.
const MEASURED_CELLS: usize = 68;
const ROWS: usize = 544;
/// The dataset seed 0 produces, byte for byte; the serve workloads load it.
pub const STORED_CSV: &str = include_str!("../data/offline-seed0.csv");
/// LLM-Pilot's success rate and mean overspend on [`STORED_CSV`].
const REFERENCE_SUCCESS: f64 = 0.7;
const REFERENCE_OVERSPEND: f64 = 0.35714285714285715;
/// The LLM whose row `obs.traced_ratio` sweeps with and without tracing.
const TRACED_ROW_LLM: &str = "Llama-2-13b";

/// The workload model the sweep samples requests from: a synthetic trace
/// corpus for `seed` and the joint model fitted to it.
fn build_sampler(seed: u64) -> Result<WorkloadSampler, String> {
    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: TRACE_REQUESTS,
        seed: BASE_TRACE_SEED.wrapping_add(seed),
        ..TraceGeneratorConfig::default()
    })
    .generate();
    let model = WorkloadModel::fit(&traces, &Param::core()).map_err(|e| e.to_string())?;
    Ok(WorkloadSampler::new(model))
}

/// One full-grid sweep: every catalog LLM on every Table III profile,
/// default configuration (120 s virtual windows, 1..128 users), no faults,
/// journal, events or flight recorder.
fn sweep(
    sampler: &WorkloadSampler,
    llms: &[LlmSpec],
    recorder: Recorder,
) -> Result<CharacterizationDataset, String> {
    let profiles = paper_profiles();
    let options = SweepOptions { recorder, ..SweepOptions::default() };
    let driver = SweepDriver::builder(llms, &profiles, sampler)
        .options(options)
        .build()
        .map_err(|e| e.to_string())?;
    let (ds, report) = driver.run().map_err(|e| e.to_string())?;
    if !report.is_complete() || report.failed() > 0 {
        return Err(format!(
            "sweep incomplete: {} failed, {} pending",
            report.failed(),
            report.pending
        ));
    }
    Ok(ds)
}

/// Fig. 8's LLM-Pilot row: leave-one-LLM-out over `ds`.
fn evaluate(ds: &CharacterizationDataset) -> MethodScore {
    Evaluation::new(ds, paper_profiles()).evaluate(&LlmPilotMethod::untuned())
}

/// Output checks of one offline pass.
fn check_pass(
    seed: u64,
    ds: &CharacterizationDataset,
    score: &MethodScore,
    first_csv: &Option<String>,
) -> Result<(), String> {
    if ds.tuned_weights.len() != MEASURED_CELLS || ds.len() != ROWS {
        return Err(format!(
            "{} measured cells and {} rows, expected {MEASURED_CELLS} and {ROWS}",
            ds.tuned_weights.len(),
            ds.len()
        ));
    }
    ds.validate().map_err(|e| format!("dataset fails validation: {e}"))?;
    let csv = ds.to_csv();
    if first_csv.as_ref().is_some_and(|first| *first != csv) {
        return Err("two sweeps of one run produced different datasets".into());
    }
    if seed == 0 {
        if csv != STORED_CSV {
            return Err("seed 0 dataset differs from the stored copy".into());
        }
        if score.success_rate != REFERENCE_SUCCESS || score.mean_overspend != REFERENCE_OVERSPEND {
            return Err(format!(
                "LLM-Pilot success {} / overspend {}, reference {REFERENCE_SUCCESS} / \
                 {REFERENCE_OVERSPEND}",
                score.success_rate, score.mean_overspend
            ));
        }
    }
    Ok(())
}

/// The untraced end-to-end run: offline passes (sweep, then evaluation)
/// until `seconds` have passed. The set-up is timed [`crate::REPS`] times: once
/// before the first pass, the other times between passes.
pub fn run_e2e(seed: u64, seconds: u64, report: &mut Report) -> Result<(), String> {
    let mut setup = SetupTime::default();
    let sampler = setup.time(|| build_sampler(seed))?;
    let llms = llm_catalog();
    let (mut sweep_s, mut eval_s, mut pass_ms, mut pass_cpu_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first_csv = None;
    let started = Instant::now();
    let done = || started.elapsed().as_secs_f64() / seconds as f64;
    while pass_ms.is_empty() || done() < 1.0 {
        while setup.behind(done()) {
            setup.time(|| build_sampler(seed))?;
        }
        let phase = Phase::begin()?;
        let t = Instant::now();
        let ds = sweep(&sampler, &llms, Recorder::disabled())?;
        let swept = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let score = evaluate(&ds);
        let evaluated = t.elapsed().as_secs_f64();
        let phase = phase.end(&format!("pass {}", pass_ms.len() + 1))?;
        println!("  sweep_s = {swept} s, eval_s = {evaluated} s");
        match check_pass(seed, &ds, &score, &first_csv) {
            Ok(()) => report.op_ok(),
            Err(e) => report.op_failed(e),
        }
        first_csv.get_or_insert_with(|| ds.to_csv());
        sweep_s.push(swept);
        eval_s.push(evaluated);
        pass_ms.push(phase.wall_s * 1e3);
        pass_cpu_us.push(phase.cpu_s * 1e6);
    }
    while setup.behind(1.0) {
        setup.time(|| build_sampler(seed))?;
    }
    setup.report(report);
    report.metric("op_cpu_us", "us", median(&pass_cpu_us));
    report.metric("peak_rss_mb", "MB", host::peak_rss_mb()?);
    report.note("pass_p50_ms", "ms", median(&pass_ms));
    report.note("sweep_s", "s", median(&sweep_s));
    report.note("eval_s", "s", median(&eval_s));
    report.note("passes", "count", pass_ms.len() as f64);
    Ok(())
}

/// Per-cell request-stream seed, as `llmpilot_core::characterize` derives
/// it (FNV-1a over the cell identity). The replica's rows are checked
/// bit-identical to `SweepDriver::run`'s, so a drift here fails the run.
fn cell_seed(base: u64, llm: &str, profile: &str, users: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base;
    for b in llm.bytes().chain(profile.bytes()).chain(users.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A request source that counts and times every sample it hands out.
struct TimedSource<S> {
    inner: S,
    calls: u64,
    busy: Duration,
}

impl<S: RequestSource> RequestSource for TimedSource<S> {
    fn next_request(&mut self) -> RequestSpec {
        let t = Instant::now();
        let spec = self.inner.next_request();
        self.busy += t.elapsed();
        self.calls += 1;
        spec
    }
}

/// Busy time and call count of one layer.
#[derive(Debug, Default)]
struct Busy {
    calls: u64,
    time: Duration,
}

impl Busy {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.time += t.elapsed();
        self.calls += 1;
        out
    }

    fn secs(&self) -> f64 {
        self.time.as_secs_f64()
    }
}

/// One load test of the replica sweep, for the engine replay.
struct LoadTest {
    llm: LlmSpec,
    profile: GpuProfile,
    weight: u64,
    users: u32,
    samples: u64,
    tokens: u64,
}

/// What the instrumented replica of the sweep measured.
#[derive(Default)]
struct Replica {
    ds: CharacterizationDataset,
    tuner: Busy,
    probes: u64,
    clone: Busy,
    load: Busy,
    samples: Busy,
    tests: Vec<LoadTest>,
}

/// The sweep `SweepDriver::run` performs, cell by cell in grid order
/// through the same public calls, with each layer's calls timed from here.
fn replica_sweep(sampler: &WorkloadSampler, llms: &[LlmSpec]) -> Result<Replica, String> {
    let config = CharacterizeConfig::default();
    let plan = FaultPlan::none();
    let mut r = Replica::default();
    for llm in llms {
        for profile in paper_profiles() {
            let name = profile.name();
            let cell = format!("{}/{name}", llm.name);
            let mem = MemoryModel::new(llm.clone(), profile.clone(), config.mem_config.clone());
            if !mem.feasibility().is_feasible() {
                continue;
            }
            let tuned = match r.tuner.time(|| tune_max_batch_weight(&mem)) {
                Ok(t) => t,
                Err(SimError::TuningFailed { .. }) => continue,
                Err(e) => return Err(format!("{cell}: tuning: {e}")),
            };
            r.probes += tuned.probes_evaluated;
            let weight = tuned.max_batch_weight;
            // One pair of histograms per cell, as the sweep keeps.
            let samples = SampleHists::default();
            let phases = Arc::new(PhaseHists::default());
            let mut rows = Vec::new();
            for &users in &config.user_sweep {
                let site = format!("{cell}/u{users}#a0");
                let perf = PerfModel::new(llm.clone(), profile.clone(), config.perf_config.clone());
                let mut engine = Engine::new(perf, weight)
                    .with_latency_noise(plan.latency_noise(&site))
                    .with_phase_hists(Arc::clone(&phases));
                let cloned = r.clone.time(|| sampler.clone());
                let mut source = TimedSource {
                    inner: WorkloadRequestSource::new(
                        cloned,
                        cell_seed(config.seed, llm.name, &name, users),
                    ),
                    calls: 0,
                    busy: Duration::ZERO,
                };
                let mut faults = plan.load_faults(&site, config.duration_s);
                let load = LoadTestConfig {
                    duration_s: config.duration_s,
                    warmup_s: config.warmup_s,
                    concurrent_users: users,
                };
                let m = r
                    .load
                    .time(|| {
                        run_load_test_observed(
                            &mut engine,
                            &mem,
                            &mut source,
                            &load,
                            &mut faults,
                            Some(&samples),
                        )
                    })
                    .map_err(|e| format!("{cell} u{users}: {e}"))?;
                r.samples.calls += source.calls;
                r.samples.time += source.busy;
                r.tests.push(LoadTest {
                    llm: llm.clone(),
                    profile: profile.clone(),
                    weight,
                    users,
                    samples: source.calls,
                    tokens: m.total_tokens,
                });
                if m.ttft_median_s.is_finite()
                    && m.nttft_median_s.is_finite()
                    && m.itl_median_s.is_finite()
                    && m.throughput_tokens_per_s.is_finite()
                {
                    rows.push(PerfRow {
                        llm: llm.name.to_string(),
                        profile: name.clone(),
                        users,
                        ttft_s: m.ttft_median_s,
                        nttft_s: m.nttft_median_s,
                        itl_s: m.itl_median_s,
                        throughput: m.throughput_tokens_per_s,
                    });
                }
            }
            r.ds.tuned_weights.insert((llm.name.to_string(), name), weight);
            r.ds.rows.extend(rows);
        }
    }
    Ok(r)
}

/// Replay every load test's closed loop directly through `Engine::submit`
/// and `Engine::step`, on the same pre-drawn request stream, with the
/// sampler and the load tester's bookkeeping out of the timed loop.
/// Returns `(steps, engine time)`.
fn engine_replay(sampler: &WorkloadSampler, tests: &[LoadTest]) -> Result<(u64, Duration), String> {
    let config = CharacterizeConfig::default();
    let plan = FaultPlan::none();
    let (mut steps, mut busy) = (0u64, Duration::ZERO);
    for lt in tests {
        let name = lt.profile.name();
        let site = format!("{}/{name}/u{}#a0", lt.llm.name, lt.users);
        let mem = MemoryModel::new(lt.llm.clone(), lt.profile.clone(), config.mem_config.clone());
        let mut source = WorkloadRequestSource::new(
            sampler.clone(),
            cell_seed(config.seed, lt.llm.name, &name, lt.users),
        );
        let specs: Vec<RequestSpec> =
            (0..lt.samples).map(|_| fit_request(&mem, lt.weight, source.next_request())).collect();
        let perf = PerfModel::new(lt.llm.clone(), lt.profile.clone(), config.perf_config.clone());
        let mut engine = Engine::new(perf, lt.weight)
            .with_latency_noise(plan.latency_noise(&site))
            .with_phase_hists(Arc::new(PhaseHists::default()));
        let mut next = specs.iter();
        let mut submit = |engine: &mut Engine| -> Result<(), String> {
            let spec =
                next.next().ok_or("the replay needs more requests than the load test drew")?;
            engine.submit(*spec).map(|_| ()).map_err(|e| e.to_string())
        };
        let t = Instant::now();
        for _ in 0..lt.users {
            submit(&mut engine)?;
        }
        while engine.clock() < config.duration_s && engine.has_work() {
            let step = engine.step();
            steps += 1;
            for _ in &step.completions {
                if engine.clock() < config.duration_s {
                    submit(&mut engine)?;
                }
            }
        }
        busy += t.elapsed();
        if engine.total_tokens_emitted() != lt.tokens {
            return Err(format!(
                "{site}: the replay emitted {} tokens, the load test {}",
                engine.total_tokens_emitted(),
                lt.tokens
            ));
        }
    }
    Ok((steps, busy))
}

/// LLM-Pilot's method exactly as `LlmPilotMethod::untuned` runs it in each
/// leave-one-LLM-out fold, with `PerformancePredictor::train` and
/// `PerformancePredictor::predict` timed from here.
#[derive(Default)]
struct TimedLlmPilot {
    train_ns: AtomicU64,
    train_calls: AtomicU64,
    predict_ns: AtomicU64,
    predict_calls: AtomicU64,
}

/// Add the time since `t` to `total`; the counters publish nothing else.
fn add_elapsed(total: &AtomicU64, calls: &AtomicU64, t: Instant) {
    total.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    calls.fetch_add(1, Ordering::Relaxed);
}

impl Method for TimedLlmPilot {
    fn name(&self) -> &'static str {
        "LLM-Pilot"
    }

    fn recommend(&self, input: &MethodInput<'_>) -> Result<Recommendation, CoreError> {
        let t = Instant::now();
        let model = PerformancePredictor::train(
            &input.train_rows,
            &input.request.constraints,
            &PredictorConfig::default(),
        );
        add_elapsed(&self.train_ns, &self.train_calls, t);
        let model = model?;
        let mut grid = BTreeMap::new();
        for p in input.profiles {
            for &u in &input.request.user_grid {
                let t = Instant::now();
                let latencies = model.predict(input.test_llm, p, u);
                add_elapsed(&self.predict_ns, &self.predict_calls, t);
                grid.insert((p.name(), u), latencies);
            }
        }
        recommend(input.profiles, input.request, |p, u| grid.get(&(p.name(), u)).copied())
    }
}

/// Whether two scores judged every LLM the same way.
fn same_outcomes(a: &MethodScore, b: &MethodScore) -> bool {
    a.outcomes.len() == b.outcomes.len()
        && a.outcomes.iter().zip(&b.outcomes).all(|(x, y)| {
            x.llm == y.llm && x.recommendation == y.recommendation && x.success == y.success
        })
}

/// The per-layer run of the offline path for `seed`. Returns the CSV of
/// the dataset the sweep produced.
pub fn run_layers(seed: u64, report: &mut Report) -> Result<String, String> {
    let sampler = build_sampler(seed)?;
    let llms = llm_catalog();

    // Untraced end-to-end reference times.
    let t = Instant::now();
    let ds = sweep(&sampler, &llms, Recorder::disabled())?;
    let sweep_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let score = evaluate(&ds);
    let eval_s = t.elapsed().as_secs_f64();
    match check_pass(seed, &ds, &score, &None) {
        Ok(()) => report.op_ok(),
        Err(e) => report.op_failed(e),
    }
    report.metric("offline.sweep_s", "s", sweep_s);
    report.metric("offline.eval_s", "s", eval_s);

    let r = replica_sweep(&sampler, &llms)?;
    report
        .check(r.ds == ds, || "the instrumented replica's dataset differs from the sweep's".into());
    report.metric("workload.sample_calls", "count", r.samples.calls as f64);
    report.metric("workload.sample_s", "s", r.samples.secs());
    report.metric("characterize.sampler_clone_s", "s", r.clone.secs());
    report.metric("tuner.calls", "count", r.tuner.calls as f64);
    report.metric("tuner.busy_s", "s", r.tuner.secs());
    report.metric("tuner.probes", "count", r.probes as f64);
    report.metric("load.calls", "count", r.load.calls as f64);
    report.metric("load.busy_s", "s", r.load.secs());

    let (steps, engine) = engine_replay(&sampler, &r.tests)?;
    let step_ns = engine.as_secs_f64() * 1e9 / steps.max(1) as f64;
    report.metric("engine.steps", "count", steps as f64);
    report.metric("engine.step_ns", "ns", step_ns);
    // Engine time inside the load tests is estimated from the replay.
    report.metric(
        "load.self_s",
        "s",
        r.load.secs() - steps as f64 * step_ns / 1e9 - r.samples.secs(),
    );
    let tokens: u64 = r.tests.iter().map(|t| t.tokens).sum();
    report.metric("sim.ns_per_token", "ns", sweep_s * 1e9 / tokens.max(1) as f64);

    let timed = TimedLlmPilot::default();
    let t = Instant::now();
    let timed_score = Evaluation::new(&ds, paper_profiles()).evaluate(&timed);
    let timed_eval_s = t.elapsed().as_secs_f64();
    report.check(same_outcomes(&timed_score, &score), || {
        "the instrumented evaluation judged an LLM differently".into()
    });
    let secs = |ns: &AtomicU64| ns.load(Ordering::Relaxed) as f64 / 1e9;
    let (train_s, predict_s) = (secs(&timed.train_ns), secs(&timed.predict_ns));
    let predict_calls = timed.predict_calls.load(Ordering::Relaxed).max(1) as f64;
    report.metric(
        "predictor.train_calls",
        "count",
        timed.train_calls.load(Ordering::Relaxed) as f64,
    );
    report.metric("predictor.train_ms", "ms", train_s * 1e3);
    report.metric("predictor.predict_us", "us", predict_s * 1e6 / predict_calls);
    report.metric("evaluate.self_s", "s", timed_eval_s - train_s - predict_s);

    // Tracing overhead on one LLM row.
    let row = [llm_by_name(TRACED_ROW_LLM).ok_or("traced-row LLM missing from the catalog")?];
    let t = Instant::now();
    let plain = sweep(&sampler, &row, Recorder::disabled())?;
    let plain_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let traced = sweep(&sampler, &row, Recorder::enabled())?;
    let traced_s = t.elapsed().as_secs_f64();
    report.check(plain == traced, || "tracing changed the swept dataset".into());
    report.metric("obs.traced_ratio", "ratio", traced_s / plain_s);

    // The timed layers must explain most of the end-to-end time.
    let covered = r.tuner.secs() + r.load.secs() + r.clone.secs() + train_s;
    let coverage = covered / (sweep_s + eval_s);
    println!("  layer coverage of sweep_s + eval_s = {coverage}");
    report.check(coverage >= 0.8, || {
        format!("timed layers cover only {coverage} of sweep_s + eval_s")
    });
    Ok(ds.to_csv())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_dataset_has_the_full_grid() {
        let ds = CharacterizationDataset::from_csv(STORED_CSV).unwrap();
        ds.validate().unwrap();
        assert_eq!(ds.len(), ROWS);
        let cells: std::collections::BTreeSet<(String, String)> =
            ds.rows.iter().map(|r| (r.llm.clone(), r.profile.clone())).collect();
        assert_eq!(cells.len(), MEASURED_CELLS);
        assert_eq!(ds.to_csv(), STORED_CSV);
    }

    #[test]
    fn timed_source_counts_every_sample() {
        let sampler = build_sampler(5).unwrap();
        let mut plain = WorkloadRequestSource::new(sampler.clone(), 11);
        let mut timed = TimedSource {
            inner: WorkloadRequestSource::new(sampler, 11),
            calls: 0,
            busy: Duration::ZERO,
        };
        for _ in 0..100 {
            assert_eq!(plain.next_request(), timed.next_request());
        }
        assert_eq!(timed.calls, 100);
    }
}
