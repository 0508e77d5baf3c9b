//! The performance characterization tool (Sec. III, Fig. 2).
//!
//! For every `(LLM, GPU profile)` combination, LLM-Pilot (1) deploys the
//! inference service, (2) tunes the maximum batch weight to maximize GPU
//! utilization, and (3) runs a series of load-testing experiments with
//! exponentially increasing numbers of concurrent users, collecting TTFT,
//! normalized TTFT, inter-token latency and throughput. [`characterize_cell`]
//! is one cell; the grid sweep over cells is
//! [`SweepDriver`](crate::sweep::SweepDriver).

use rand::rngs::StdRng;
use rand::SeedableRng;

use llmpilot_obs::Recorder;
use llmpilot_sim::engine::Engine;
use llmpilot_sim::error::SimError;
use llmpilot_sim::fault::FaultPlan;
use llmpilot_sim::gpu::GpuProfile;
use llmpilot_sim::llm::LlmSpec;
use llmpilot_sim::load::{default_user_sweep, run_load_test_observed, LoadTestConfig, SampleHists};
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};
use llmpilot_sim::perf_model::{PerfModel, PerfModelConfig};
use llmpilot_sim::request::{RequestSource, RequestSpec};
use llmpilot_sim::tuner::tune_max_batch_weight_traced;
use llmpilot_workload::{IndependentSampler, WorkloadSampler};

use crate::dataset::PerfRow;

/// Adapter: drive the simulator with requests drawn from the workload
/// generator's joint model.
#[derive(Debug)]
pub struct WorkloadRequestSource {
    sampler: WorkloadSampler,
    rng: StdRng,
}

impl WorkloadRequestSource {
    /// A seeded request stream over the given sampler.
    pub fn new(sampler: WorkloadSampler, seed: u64) -> Self {
        Self { sampler, rng: StdRng::seed_from_u64(seed) }
    }
}

impl RequestSource for WorkloadRequestSource {
    fn next_request(&mut self) -> RequestSpec {
        let r = self.sampler.sample(&mut self.rng);
        RequestSpec {
            input_tokens: r.input_tokens().unwrap_or(1),
            output_tokens: r.output_tokens().unwrap_or(1),
            batch_size: r.batch_size().unwrap_or(1),
        }
    }
}

/// Adapter for the Sec. V-A ablation: requests with *independently* sampled
/// parameters (marginals preserved, correlations destroyed).
#[derive(Debug)]
pub struct IndependentRequestSource {
    sampler: IndependentSampler,
    rng: StdRng,
}

impl IndependentRequestSource {
    /// A seeded independent-marginals request stream.
    pub fn new(sampler: IndependentSampler, seed: u64) -> Self {
        Self { sampler, rng: StdRng::seed_from_u64(seed) }
    }
}

impl RequestSource for IndependentRequestSource {
    fn next_request(&mut self) -> RequestSpec {
        let r = self.sampler.sample(&mut self.rng);
        RequestSpec {
            input_tokens: r.input_tokens().unwrap_or(1),
            output_tokens: r.output_tokens().unwrap_or(1),
            batch_size: r.batch_size().unwrap_or(1),
        }
    }
}

/// Configuration of a characterization sweep.
#[derive(Debug, Clone)]
pub struct CharacterizeConfig {
    /// Duration of each load test, virtual seconds (the paper: 2 minutes).
    pub duration_s: f64,
    /// Warm-up period excluded from the metrics (the paper: none).
    pub warmup_s: f64,
    /// Concurrent-user sweep (the paper: 1, 2, 4, …, 128).
    pub user_sweep: Vec<u32>,
    /// Base seed; per-cell streams derive from it deterministically.
    pub seed: u64,
    /// Memory-model constants.
    pub mem_config: MemoryConfig,
    /// Performance-model constants.
    pub perf_config: PerfModelConfig,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        Self {
            duration_s: 120.0,
            warmup_s: 0.0,
            user_sweep: default_user_sweep(),
            seed: 0xB17,
            mem_config: MemoryConfig::default(),
            perf_config: PerfModelConfig::default(),
        }
    }
}

/// Deterministic per-cell seed (FNV-1a over the cell identity).
fn cell_seed(base: u64, llm: &str, profile: &str, users: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base;
    for b in llm.bytes().chain(profile.bytes()).chain(users.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The typed result of characterizing one `(LLM, GPU profile)` cell.
///
/// The three variants are semantically distinct and must never be
/// conflated: an [`CellOutcome::Infeasible`] cell is *permanently*
/// impossible (an × or − cell of Table III — retrying is pointless), while a
/// [`CellOutcome::Failed`] cell hit a (possibly transient) error and may
/// succeed on retry.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell was measured successfully.
    Measured {
        /// The tuned maximum batch weight.
        max_batch_weight: u64,
        /// One row per user count of the sweep (NaN-median points dropped).
        rows: Vec<PerfRow>,
    },
    /// The combination cannot be deployed, ever (Table III's × and − cells).
    Infeasible(String),
    /// The cell errored; the error may be transient (injected fault, budget
    /// exhaustion) and a retry may succeed.
    Failed {
        /// The error of the last attempt.
        error: SimError,
        /// Attempts made so far (1 for a first failure).
        attempts: u32,
    },
}

impl CellOutcome {
    /// The measured payload, if any.
    pub fn measured(self) -> Option<(u64, Vec<PerfRow>)> {
        match self {
            CellOutcome::Measured { max_batch_weight, rows } => Some((max_batch_weight, rows)),
            _ => None,
        }
    }
}

/// Everything about one attempt at a cell besides what is measured:
/// injected faults, the attempt number, resource budgets and observation
/// sinks. `Default` is inert — no faults, attempt 0, unlimited budget, a
/// disabled recorder and no histograms — and measures the plain cell.
#[derive(Debug, Default)]
pub struct CellContext<'a> {
    /// Faults to inject ([`FaultPlan::none`] by default).
    pub plan: FaultPlan,
    /// Attempt number (0-based); fault sites include it, measurement seeds
    /// do not.
    pub attempt: u32,
    /// Maximum engine steps across all load tests of the attempt;
    /// exhausting it fails the cell with [`SimError::BudgetExhausted`].
    pub max_steps: Option<u64>,
    /// Span sink: every load test runs under a `cell.load_test` span
    /// carrying its user count, engine steps and tokens emitted, and adds
    /// the last two to the `engine.steps` and `engine.tokens_emitted`
    /// counters; the tuner records under it too. Tracing never changes
    /// the rows.
    pub recorder: Recorder,
    /// When given, every load test also records per-sample nTTFT/ITL
    /// here. Observation never changes the rows.
    pub hists: Option<&'a SampleHists>,
}

/// Characterize one `(LLM, GPU profile)` cell: deploy, tune the batch
/// weight, then load-test every user count.
///
/// Fault sites are derived from the cell identity *and* `ctx.attempt`
/// (`{llm}/{profile}#a{attempt}` for deploy/tuning,
/// `{llm}/{profile}/u{users}#a{attempt}` for each load test), so a retry
/// draws fresh fault decisions — while the measurement seed (derived from
/// the cell and user count only) stays fixed. An attempt that dodges its
/// faults therefore produces rows bit-identical to a run under
/// `CellContext::default()`.
pub fn characterize_cell(
    llm: &LlmSpec,
    profile: &GpuProfile,
    sampler: &WorkloadSampler,
    config: &CharacterizeConfig,
    ctx: &CellContext<'_>,
) -> CellOutcome {
    let CellContext { plan, attempt, recorder, hists, .. } = ctx;
    let cell = format!("{}/{}", llm.name, profile.name());
    let site = format!("{cell}#a{attempt}");
    let attempts = attempt + 1;

    let mem = MemoryModel::new(llm.clone(), profile.clone(), config.mem_config.clone());
    let feas = mem.feasibility();
    if !feas.is_feasible() {
        return CellOutcome::Infeasible(format!("{feas:?}"));
    }
    if plan.deploy_fails(&site) {
        return CellOutcome::Failed {
            error: SimError::DeployFailed { llm: llm.name.to_string(), profile: profile.name() },
            attempts,
        };
    }
    // An injected OOM at the weight boundary: the real-world failure the
    // tuner's corner-case probes guard against.
    if plan.tuning_ooms(&site) {
        let bound = mem.max_batch_weight_bound();
        return CellOutcome::Failed {
            error: SimError::OutOfMemory { running_weight: bound, max_batch_weight: bound },
            attempts,
        };
    }
    let tuned = match tune_max_batch_weight_traced(&mem, recorder) {
        Ok(t) => t,
        // No valid weight exists: a deterministic property of the
        // combination, i.e. infeasible — never retried.
        Err(e @ SimError::TuningFailed { .. }) => return CellOutcome::Infeasible(e.to_string()),
        // Everything else (divergence) is a failure.
        Err(error) => return CellOutcome::Failed { error, attempts },
    };

    let mut steps_left = ctx.max_steps;
    let mut rows = Vec::with_capacity(config.user_sweep.len());
    for &users in &config.user_sweep {
        let mut load_span = recorder.span("cell.load_test").arg("users", users);
        let load_site = format!("{cell}/u{users}#a{attempt}");
        let perf = PerfModel::new(llm.clone(), profile.clone(), config.perf_config.clone());
        let mut engine = Engine::new(perf, tuned.max_batch_weight)
            .with_latency_noise(plan.latency_noise(&load_site));
        let mut source = WorkloadRequestSource::new(
            sampler.clone(),
            cell_seed(config.seed, llm.name, &profile.name(), users),
        );
        let mut faults = plan.load_faults(&load_site, config.duration_s);
        faults.max_steps = steps_left;
        let result = run_load_test_observed(
            &mut engine,
            &mem,
            &mut source,
            &LoadTestConfig {
                duration_s: config.duration_s,
                warmup_s: config.warmup_s,
                concurrent_users: users,
            },
            &mut faults,
            *hists,
        );
        // Counted once per load test, whether it returned metrics or an
        // error, so the totals stay exact.
        let tokens = engine.total_tokens_emitted();
        recorder.counter_add("engine.steps", faults.steps_used);
        recorder.counter_add("engine.tokens_emitted", tokens);
        load_span.set_arg("steps", faults.steps_used);
        load_span.set_arg("tokens", tokens);
        // The step budget is per cell: steps spent on this load test are
        // gone for the remaining ones.
        if let Some(left) = steps_left {
            steps_left = Some(left.saturating_sub(faults.steps_used));
        }
        let metrics = match result {
            Ok(m) => m,
            Err(error) => return CellOutcome::Failed { error, attempts },
        };
        // Pathological windows (nothing measurable post-warmup) yield NaN
        // medians; drop such points rather than poisoning the dataset.
        if !(metrics.ttft_median_s.is_finite()
            && metrics.nttft_median_s.is_finite()
            && metrics.itl_median_s.is_finite()
            && metrics.throughput_tokens_per_s.is_finite())
        {
            continue;
        }
        rows.push(PerfRow {
            llm: llm.name.to_string(),
            profile: profile.name(),
            users,
            ttft_s: metrics.ttft_median_s,
            nttft_s: metrics.nttft_median_s,
            itl_s: metrics.itl_median_s,
            throughput: metrics.throughput_tokens_per_s,
        });
    }
    CellOutcome::Measured { max_batch_weight: tuned.max_batch_weight, rows }
}

/// Estimate of the wall-clock overhead of running this characterization on
/// *real* hardware (Sec. V-B "characterization overhead"): per LLM, batch
/// weight tuning costs roughly `tuning_minutes_per_llm`, and load testing
/// costs deploy time plus the user sweep at `duration_s` each; work is
/// parallelized over GPU profiles, so LLMs are the serial dimension.
pub fn estimate_real_overhead_hours(
    num_llms: usize,
    user_sweep_len: usize,
    duration_s: f64,
    tuning_minutes_per_llm: f64,
) -> f64 {
    let load_minutes_per_llm =
        4.0 /* deploy + warmup */ + user_sweep_len as f64 * duration_s / 60.0;
    num_llms as f64 * (tuning_minutes_per_llm + load_minutes_per_llm) / 60.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::CharacterizationDataset;
    use llmpilot_obs::ArgValue;
    use llmpilot_sim::fault::FaultConfig;
    use llmpilot_sim::gpu::{a100_40, t4, v100};
    use llmpilot_sim::llm::{flan_t5_xl, flan_ul2, llama2_13b, llama2_7b};
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
            duration_s: 20.0,
            user_sweep: vec![1, 8, 64],
            ..CharacterizeConfig::default()
        }
    }

    #[test]
    fn cell_produces_one_row_per_user_count() {
        let s = sampler();
        let (weight, rows) = characterize_cell(
            &llama2_13b(),
            &GpuProfile::new(a100_40(), 1),
            &s,
            &quick_config(),
            &CellContext::default(),
        )
        .measured()
        .unwrap();
        assert!(weight > 0);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.ttft_s > 0.0);
            assert!(r.itl_s > 0.0);
            assert!(r.nttft_s > 0.0);
            assert!(r.throughput > 0.0);
        }
        // Latency degrades with load.
        assert!(rows[2].ttft_s >= rows[0].ttft_s);
    }

    #[test]
    fn infeasible_cells_are_skipped() {
        let s = sampler();
        assert!(matches!(
            characterize_cell(
                &flan_ul2(),
                &GpuProfile::new(t4(), 1),
                &s,
                &quick_config(),
                &CellContext::default()
            ),
            CellOutcome::Infeasible(_)
        ));
        // Flash model on V100: software-unsupported.
        assert!(matches!(
            characterize_cell(
                &llama2_7b(),
                &GpuProfile::new(v100(), 1),
                &s,
                &quick_config(),
                &CellContext::default()
            ),
            CellOutcome::Infeasible(_)
        ));
    }

    #[test]
    fn injected_load_error_is_failed_never_infeasible() {
        // Regression: a load-test error used to be swallowed by `.ok()?`,
        // making an errored cell indistinguishable from a permanently
        // infeasible one. It must surface as a retryable `Failed`.
        let s = sampler();
        let plan = FaultPlan::new(FaultConfig { crash_prob: 1.0, ..FaultConfig::disabled() });
        let ctx = CellContext { plan, ..CellContext::default() };
        let out = characterize_cell(
            &llama2_13b(),
            &GpuProfile::new(a100_40(), 1),
            &s,
            &quick_config(),
            &ctx,
        );
        match out {
            CellOutcome::Failed { error, attempts } => {
                assert!(matches!(error, SimError::EngineCrashed { .. }));
                assert_eq!(attempts, 1);
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn injected_tuning_oom_is_transient() {
        let s = sampler();
        let plan = FaultPlan::new(FaultConfig { tuning_oom_prob: 1.0, ..FaultConfig::disabled() });
        let ctx = CellContext { plan, ..CellContext::default() };
        let out = characterize_cell(
            &llama2_13b(),
            &GpuProfile::new(a100_40(), 1),
            &s,
            &quick_config(),
            &ctx,
        );
        match out {
            CellOutcome::Failed { error, attempts } => {
                assert!(matches!(error, SimError::OutOfMemory { .. }), "{error:?}");
                assert_eq!(attempts, 1);
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_step_budget_is_failed() {
        let s = sampler();
        let ctx = CellContext { max_steps: Some(10), ..CellContext::default() };
        let out = characterize_cell(
            &llama2_13b(),
            &GpuProfile::new(a100_40(), 1),
            &s,
            &quick_config(),
            &ctx,
        );
        match out {
            CellOutcome::Failed { error, .. } => {
                assert!(matches!(error, SimError::BudgetExhausted { .. }));
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn engine_steps_counter_pins_the_step_budget() {
        let s = sampler();
        let llm = llama2_13b();
        let profile = GpuProfile::new(a100_40(), 1);
        let recorder = Recorder::enabled();
        let ctx = CellContext { recorder: recorder.clone(), ..CellContext::default() };
        let traced = characterize_cell(&llm, &profile, &s, &quick_config(), &ctx);
        let trace = recorder.snapshot();
        let counter = |name: &str| trace.counters.iter().find(|(n, _)| n == name).map(|c| c.1);
        let steps = counter("engine.steps").expect("a traced cell counts its engine steps");
        assert!(counter("engine.tokens_emitted").is_some_and(|t| t >= steps));
        // The load-test spans carry the same steps the counter sums.
        let span_steps: u64 = trace
            .events
            .iter()
            .filter(|e| e.name == "cell.load_test")
            .filter_map(|e| match e.args.iter().find(|(k, _)| k == "steps") {
                Some((_, ArgValue::U64(v))) => Some(*v),
                _ => None,
            })
            .sum();
        assert_eq!(span_steps, steps);

        // The budget counts exactly the steps the counter reports: N is
        // enough for identical rows, N - 1 is not.
        let budgeted = |max_steps| {
            let ctx = CellContext { max_steps: Some(max_steps), ..CellContext::default() };
            characterize_cell(&llm, &profile, &s, &quick_config(), &ctx)
        };
        assert_eq!(budgeted(steps), traced);
        match budgeted(steps - 1) {
            CellOutcome::Failed { error: SimError::BudgetExhausted { .. }, .. } => {}
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn faulty_cell_with_none_plan_matches_plain_cell() {
        let s = sampler();
        let llm = llama2_13b();
        let profile = GpuProfile::new(a100_40(), 1);
        let plain = characterize_cell(&llm, &profile, &s, &quick_config(), &Default::default());
        // An explicit no-fault, unlimited context at attempt 0 and at a
        // later attempt changes nothing — the measurement seed is
        // attempt-independent.
        for attempt in [0, 3] {
            let ctx = CellContext {
                plan: FaultPlan::none(),
                attempt,
                max_steps: None,
                recorder: Recorder::disabled(),
                hists: None,
            };
            assert_eq!(plain, characterize_cell(&llm, &profile, &s, &quick_config(), &ctx));
        }
    }

    fn sweep(
        llms: &[LlmSpec],
        profiles: &[GpuProfile],
        s: &WorkloadSampler,
    ) -> CharacterizationDataset {
        crate::sweep::SweepDriver::builder(llms, profiles, s)
            .config(quick_config())
            .build()
            .unwrap()
            .run()
            .unwrap()
            .0
    }

    #[test]
    fn sweep_collects_feasible_grid() {
        let s = sampler();
        let llms = vec![flan_t5_xl(), llama2_7b()];
        let profiles = vec![GpuProfile::new(t4(), 1), GpuProfile::new(a100_40(), 1)];
        let ds = sweep(&llms, &profiles, &s);
        // flan-t5-xl fits both; llama-2-7b does not fit 1xT4.
        assert!(ds.cell_feasible("google/flan-t5-xl", "1xT4-16GB"));
        assert!(ds.cell_feasible("google/flan-t5-xl", "1xA100-40GB"));
        assert!(ds.cell_feasible("Llama-2-7b", "1xA100-40GB"));
        assert!(!ds.cell_feasible("Llama-2-7b", "1xT4-16GB"));
        assert_eq!(ds.len(), 3 * 3);
        assert_eq!(ds.tuned_weights.len(), 3);
    }

    #[test]
    fn characterization_is_deterministic() {
        let s = sampler();
        let llms = vec![llama2_7b()];
        let profiles = vec![GpuProfile::new(a100_40(), 1)];
        assert_eq!(sweep(&llms, &profiles, &s), sweep(&llms, &profiles, &s));
    }

    #[test]
    fn overhead_estimate_matches_paper_magnitude() {
        // The paper estimates ~8h for 10 LLMs (30 min tuning + ~20 min load
        // testing per LLM, parallelized over GPUs).
        let hours = estimate_real_overhead_hours(10, 8, 120.0, 30.0);
        assert!(hours > 6.0 && hours < 11.0, "hours = {hours}");
    }

    #[test]
    fn cell_seeds_differ_by_identity() {
        let a = cell_seed(1, "m", "p", 1);
        let b = cell_seed(1, "m", "p", 2);
        let c = cell_seed(1, "m", "q", 1);
        let d = cell_seed(2, "m", "p", 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }
}
