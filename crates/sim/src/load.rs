//! Closed-loop load testing of one inference-service pod (Sec. III-C-3).
//!
//! Each load-testing experiment simulates a number of concurrent users
//! simultaneously sending requests produced by a [`RequestSource`]: every
//! user keeps exactly one request in flight and submits the next one the
//! moment the previous completes. The tester logs all generated tokens and
//! their (virtual) arrival timestamps and extracts the paper's four
//! performance metrics: TTFT, normalized TTFT, inter-token latency and
//! throughput — all medians/totals over a fixed-duration window.

use llmpilot_obs::hist::Histogram;

use crate::engine::{Engine, RequestId, StepRecord};
use crate::error::SimError;
use crate::fault::LoadFaults;
use crate::memory::MemoryModel;
use crate::request::{RequestSource, RequestSpec};

/// Parameters of one load-testing experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTestConfig {
    /// Experiment duration in virtual seconds (the paper uses 2 minutes).
    pub duration_s: f64,
    /// Warm-up period in virtual seconds: metrics only count requests
    /// submitted after it (and tokens emitted after it), removing the
    /// cold-start bias of steady-state measurements. The paper's 2-minute
    /// protocol uses no warm-up; longer steady-state studies (e.g. the
    /// Fig. 1 batch-weight sweep) do.
    pub warmup_s: f64,
    /// Number of concurrent users.
    pub concurrent_users: u32,
}

impl Default for LoadTestConfig {
    fn default() -> Self {
        Self { duration_s: 120.0, warmup_s: 0.0, concurrent_users: 1 }
    }
}

/// The performance metrics extracted from one load-testing experiment
/// (Sec. III-C-3).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadMetrics {
    /// Number of concurrent users simulated.
    pub concurrent_users: u32,
    /// Median time to first token, seconds (queueing + prompt processing).
    pub ttft_median_s: f64,
    /// Median of per-request TTFT divided by the request's input tokens,
    /// seconds per input token.
    pub nttft_median_s: f64,
    /// Median latency between subsequent output tokens (excluding the first
    /// token), seconds.
    pub itl_median_s: f64,
    /// Total output tokens generated divided by the experiment duration,
    /// tokens per second.
    pub throughput_tokens_per_s: f64,
    /// Median end-to-end latency of completed requests, seconds (Fig. 1).
    pub e2e_median_s: f64,
    /// Number of requests that completed within the window.
    pub completed_requests: u64,
    /// Total output tokens generated within the window.
    pub total_tokens: u64,
}

/// Median of a sample; `NaN` when empty. Reorders `values`.
///
/// Selects the middle order statistic(s) under `f64::total_cmp` in O(n),
/// so the result is bit-identical to taking them from a fully sorted copy.
pub fn median(values: &mut [f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    let (lower, &mut upper, _) = values.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        upper
    } else {
        // The lower middle is the largest element left of the upper one.
        let lower = lower.iter().copied().max_by(f64::total_cmp).expect("n >= 2");
        0.5 * (lower + upper)
    }
}

/// Median of a multiset given as `(value, count)` runs; `NaN` when it is
/// empty. Reorders `runs`.
///
/// Selects the same `f64::total_cmp` order statistics as [`median`] on the
/// expanded values, so the result is bit-identical, in expected time linear
/// in the number of runs rather than in the number of values.
pub fn median_of_runs(runs: &mut [(f64, u64)]) -> f64 {
    let n: u64 = runs.iter().map(|&(_, count)| count).sum();
    if n == 0 {
        return f64::NAN;
    }
    let rank = n / 2;
    // Weighted quickselect: keep `runs[..lo] <= runs[lo..hi] <= runs[hi..]`
    // with `below` values in `runs[..lo]` and the rank inside `lo..hi`.
    let (mut lo, mut hi, mut below) = (0, runs.len(), 0u64);
    let at = loop {
        let k = lo + (hi - lo) / 2;
        runs[lo..hi].select_nth_unstable_by(k - lo, |a, b| a.0.total_cmp(&b.0));
        let left: u64 = runs[lo..k].iter().map(|&(_, count)| count).sum();
        if rank < below + left {
            hi = k;
        } else if rank < below + left + runs[k].1 {
            below += left;
            break k;
        } else {
            below += left + runs[k].1;
            lo = k + 1;
        }
    };
    let upper = runs[at].0;
    if n % 2 == 1 {
        return upper;
    }
    let lower = if rank > below {
        // The lower middle value is in the same run.
        upper
    } else {
        // The lower middle is the largest value left of the upper one.
        runs[..at]
            .iter()
            .filter(|&&(_, count)| count > 0)
            .map(|&(value, _)| value)
            .max_by(f64::total_cmp)
            .expect("rank >= 1 values lie below")
    };
    0.5 * (lower + upper)
}

/// Clamp a sampled request so the engine can admit it: sequence-length caps
/// from the memory model, then batch-size reduction until the weight fits
/// under the engine's maximum batch weight.
pub fn fit_request(mem: &MemoryModel, max_batch_weight: u64, spec: RequestSpec) -> RequestSpec {
    let (input, output) = mem.cap_request(spec.input_tokens, spec.output_tokens);
    let per_seq = u64::from(input) + u64::from(output);
    let max_batch = (max_batch_weight / per_seq).max(1).min(u64::from(spec.batch_size.max(1)));
    RequestSpec { input_tokens: input, output_tokens: output, batch_size: max_batch as u32 }
}

/// Optional per-sample sinks for a load test: every individual normalized
/// TTFT and inter-token gap that contributes to [`LoadMetrics`] is also
/// recorded here (virtual seconds → nanoseconds), giving the tail
/// quantiles the medians of the metrics do not show.
#[derive(Debug, Default)]
pub struct SampleHists {
    /// Normalized TTFT (TTFT / input tokens) per tracked request.
    pub nttft: Histogram,
    /// Inter-token latency per emitted token gap.
    pub itl: Histogram,
}

/// The samples one load test collects for its medians. With a sink, they
/// are also recorded into its histograms when dropped — on every exit of
/// the test, including an injected fault's early return, so an aborted
/// test's samples are kept.
struct Samples<'a> {
    sink: Option<&'a SampleHists>,
    ttfts: Vec<f64>,
    nttfts: Vec<f64>,
    /// Inter-token gaps as `(gap, count)` runs: every request decoding in
    /// one step sees the same gap, so a step adds one run, not one value
    /// per request.
    gaps: Vec<(f64, u64)>,
    e2es: Vec<f64>,
}

impl<'a> Samples<'a> {
    fn new(sink: Option<&'a SampleHists>) -> Self {
        Samples { sink, ttfts: Vec::new(), nttfts: Vec::new(), gaps: Vec::new(), e2es: Vec::new() }
    }

    /// Record `count` (> 0) inter-token gaps of `gap`.
    fn push_gaps(&mut self, gap: f64, count: u64) {
        match self.gaps.last_mut() {
            Some(run) if run.0.to_bits() == gap.to_bits() => run.1 += count,
            _ => self.gaps.push((gap, count)),
        }
    }

    /// Record a (possibly censored) TTFT of a request with `input_tokens`.
    fn push_ttft(&mut self, ttft: f64, input_tokens: u32) {
        self.ttfts.push(ttft);
        self.nttfts.push(ttft / input_tokens as f64);
    }
}

impl Drop for Samples<'_> {
    fn drop(&mut self) {
        let Some(sink) = self.sink else { return };
        let mut nttft = sink.nttft.local();
        for &value in &self.nttfts {
            nttft.record_secs(value);
        }
        let mut itl = sink.itl.local();
        for &(gap, count) in &self.gaps {
            itl.record_secs_n(gap, count);
        }
        sink.nttft.merge_local(&nttft);
        sink.itl.merge_local(&itl);
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    submitted_at: f64,
    input_tokens: u32,
    /// Whether the request's first token arrived.
    started: bool,
}

/// The requests a load test has submitted, indexed by [`RequestId`]: the
/// engine hands out ids sequentially, so slot `id - first id` holds the
/// request while it is in flight and `None` once it completed.
#[derive(Default)]
struct InFlightSlab {
    first_id: u64,
    slots: Vec<Option<InFlight>>,
}

impl InFlightSlab {
    /// Submit the next request from `source` at the engine's clock.
    fn submit<S: RequestSource + ?Sized>(
        &mut self,
        engine: &mut Engine,
        mem: &MemoryModel,
        source: &mut S,
    ) -> Result<(), SimError> {
        let spec = fit_request(mem, engine.max_batch_weight(), source.next_request());
        let id = engine.submit(spec)?;
        if self.slots.is_empty() {
            self.first_id = id.0;
        }
        assert_eq!(id.0, self.first_id + self.slots.len() as u64, "request ids are sequential");
        self.slots.push(Some(InFlight {
            submitted_at: engine.clock(),
            input_tokens: spec.input_tokens,
            started: false,
        }));
        Ok(())
    }

    fn slot(&mut self, id: RequestId) -> &mut Option<InFlight> {
        let index = id.0.checked_sub(self.first_id).expect("request submitted by this load test");
        &mut self.slots[index as usize]
    }

    /// Requests still in flight, in submission order.
    fn in_flight(&self) -> impl Iterator<Item = &InFlight> {
        self.slots.iter().flatten()
    }
}

/// Run one closed-loop load-testing experiment against a fresh engine.
///
/// The engine's clock must start at 0; the experiment runs until the clock
/// passes `config.duration_s`. After every engine iteration `faults` is
/// consulted for a scheduled crash or an exceeded step budget, either of
/// which aborts the experiment with the corresponding [`SimError`];
/// [`LoadFaults::none`] injects nothing. When
/// `hists` is given, every normalized-TTFT and inter-token-latency sample
/// (including censored TTFT lower bounds) is also recorded: into buffers
/// of the test's own, which are added into `hists` when the test returns,
/// with metrics or with an error. Neither faults that do not fire nor
/// observation change the returned metrics.
///
/// The tester reads each iteration as a [`StepRecord`], so a step that
/// admits and completes nothing costs it O(1): all its decoding requests
/// share one inter-token gap, kept as one `(gap, count)` run.
pub fn run_load_test_observed<S: RequestSource + ?Sized>(
    engine: &mut Engine,
    mem: &MemoryModel,
    source: &mut S,
    config: &LoadTestConfig,
    faults: &mut LoadFaults,
    hists: Option<&SampleHists>,
) -> Result<LoadMetrics, SimError> {
    let users = config.concurrent_users;
    assert!(users >= 1, "load test needs at least one user");

    let mut samples = Samples::new(hists);
    let mut in_flight = InFlightSlab::default();
    let mut completed: u64 = 0;
    let mut total_tokens: u64 = 0;

    // All users fire their first request at t = 0.
    for _ in 0..users {
        in_flight.submit(engine, mem, source)?;
    }

    let warmup = config.warmup_s;
    let mut step = StepRecord::default();
    while engine.clock() < config.duration_s && engine.has_work() {
        engine.step_into(&mut step);
        faults.check_step(engine.clock())?;
        let now = step.time;
        if now >= warmup {
            total_tokens += step.tokens;
            if step.decoded > 0 {
                samples.push_gaps(now - step.previous, u64::from(step.decoded));
            }
        }
        for a in &step.admitted {
            let fl = in_flight.slot(a.id).as_mut().expect("admission of a request in flight");
            match a.resumed_after {
                None => {
                    if fl.submitted_at >= warmup {
                        samples.push_ttft(now - fl.submitted_at, fl.input_tokens);
                    }
                    fl.started = true;
                }
                Some(last) if now >= warmup => samples.push_gaps(now - last, 1),
                Some(_) => {}
            }
        }
        for c in &step.completions {
            let fl = in_flight.slot(c.id).take().expect("completion for a request in flight");
            if fl.submitted_at >= warmup {
                samples.e2es.push(c.time - fl.submitted_at);
                completed += 1;
            }
            // Closed loop: the user immediately submits the next request.
            if engine.clock() < config.duration_s {
                in_flight.submit(engine, mem, source)?;
            }
        }
    }

    // Censored observations: requests that never received their first token
    // within the window still witnessed at least (now − submit) of queueing.
    // Counting these lower bounds keeps the TTFT median defined (and large,
    // as it should be) in deeply saturated regimes where no tracked request
    // is served before the window closes.
    for fl in in_flight.in_flight() {
        if !fl.started && fl.submitted_at >= warmup {
            let waited = engine.clock() - fl.submitted_at;
            if waited > 0.0 {
                samples.push_ttft(waited, fl.input_tokens);
            }
        }
    }

    let elapsed = (engine.clock() - warmup).max(f64::EPSILON);
    Ok(LoadMetrics {
        concurrent_users: users,
        ttft_median_s: median(&mut samples.ttfts),
        nttft_median_s: median(&mut samples.nttfts),
        itl_median_s: median_of_runs(&mut samples.gaps),
        throughput_tokens_per_s: total_tokens as f64 / elapsed,
        e2e_median_s: median(&mut samples.e2es),
        completed_requests: completed,
        total_tokens,
    })
}

/// The paper's default load-testing sweep: exponentially increasing numbers
/// of concurrent users, 1, 2, 4, …, 128 (Sec. III-C-3).
pub fn default_user_sweep() -> Vec<u32> {
    (0..8).map(|i| 1u32 << i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{a100_80, t4, GpuProfile, GpuSpec};
    use crate::llm::{llama2_13b, LlmSpec};
    use crate::memory::{MemoryConfig, MemoryModel};
    use crate::perf_model::{PerfModel, PerfModelConfig};
    use crate::request::FixedSource;
    use crate::tuner::tune_max_batch_weight;

    fn setup(llm: LlmSpec, gpu: GpuSpec, count: u32) -> (Engine, MemoryModel) {
        let profile = GpuProfile::new(gpu, count);
        let mem = MemoryModel::new(llm.clone(), profile.clone(), MemoryConfig::default());
        let weight = tune_max_batch_weight(&mem).unwrap().max_batch_weight;
        let perf = PerfModel::new(llm, profile, PerfModelConfig::default());
        (Engine::new(perf, weight), mem)
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    #[test]
    fn even_median_takes_the_largest_of_the_lower_half() {
        // Selection leaves this lower half unsorted: its last slot holds a
        // negative value, not the lower middle element -0.0.
        #[rustfmt::skip]
        let mut values = [
            0.0, -0.0, -0.0, -76329.26052257995, 1.1359871094192879e-119, 4.0, -0.0, 1.0,
            -6.848773146788112e-248, 3.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0, -0.0,
            -4.010578132888837e-78, 0.0, 0.0,
        ];
        let mut sorted = values;
        sorted.sort_by(f64::total_cmp);
        let want = 0.5 * (sorted[9] + sorted[10]);
        assert_eq!(median(&mut values).to_bits(), want.to_bits());
    }

    #[test]
    fn single_user_metrics_are_sane() {
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::constant(RequestSpec::new(500, 200));
        let m = run_load_test_observed(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 60.0, concurrent_users: 1 },
            &mut LoadFaults::none(),
            None,
        )
        .unwrap();
        assert!(m.completed_requests > 0);
        assert!(m.ttft_median_s > 0.0);
        assert!(m.itl_median_s > 0.0);
        assert!(m.throughput_tokens_per_s > 0.0);
        // One user's throughput is roughly 1 / ITL at steady state.
        let approx = 1.0 / m.itl_median_s;
        assert!(m.throughput_tokens_per_s < approx * 1.2);
        assert!(m.throughput_tokens_per_s > approx * 0.3);
    }

    #[test]
    fn table1_single_pod_magnitude() {
        // Table I: Llama-2-13b on 1xA100-80 serves ~47 tok/s at 1 user and
        // saturates around 300 tok/s. We assert the same order of magnitude.
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::new(vec![
            RequestSpec::new(400, 150),
            RequestSpec::new(900, 300),
            RequestSpec::new(150, 60),
        ]);
        let m1 = run_load_test_observed(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 120.0, concurrent_users: 1 },
            &mut LoadFaults::none(),
            None,
        )
        .unwrap();
        assert!(
            m1.throughput_tokens_per_s > 20.0 && m1.throughput_tokens_per_s < 90.0,
            "tput = {}",
            m1.throughput_tokens_per_s
        );
    }

    #[test]
    fn throughput_grows_then_saturates_with_users() {
        let mk = || {
            FixedSource::new(vec![
                RequestSpec::new(400, 150),
                RequestSpec::new(900, 300),
                RequestSpec::new(150, 60),
            ])
        };
        let mut tputs = Vec::new();
        for users in [1u32, 4, 16, 64, 128] {
            let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
            let mut src = mk();
            let m = run_load_test_observed(
                &mut e,
                &mem,
                &mut src,
                &LoadTestConfig { duration_s: 120.0, warmup_s: 0.0, concurrent_users: users },
                &mut LoadFaults::none(),
                None,
            )
            .unwrap();
            tputs.push(m.throughput_tokens_per_s);
        }
        // Monotone-ish growth at the start…
        assert!(tputs[1] > tputs[0] * 1.5);
        assert!(tputs[2] > tputs[1] * 1.2);
        // …and saturation at the end (within 30%).
        let last = tputs[tputs.len() - 1];
        let prev = tputs[tputs.len() - 2];
        assert!((last - prev).abs() / prev < 0.5, "tputs = {tputs:?}");
    }

    #[test]
    fn ttft_rises_with_users() {
        let mk = || FixedSource::constant(RequestSpec::new(500, 150));
        let run = |users| {
            let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
            let mut src = mk();
            run_load_test_observed(
                &mut e,
                &mem,
                &mut src,
                &LoadTestConfig { duration_s: 120.0, warmup_s: 0.0, concurrent_users: users },
                &mut LoadFaults::none(),
                None,
            )
            .unwrap()
        };
        let low = run(1);
        let high = run(64);
        assert!(high.ttft_median_s > low.ttft_median_s);
        assert!(high.itl_median_s >= low.itl_median_s * 0.9);
    }

    #[test]
    fn weak_gpu_saturates_much_earlier() {
        // A 1xT4 running a 7B model must saturate at a small number of users,
        // with TTFT exploding from queueing.
        let run = |users| {
            let (mut e, mem) = setup(crate::llm::llama2_7b(), t4(), 2);
            let mut src = FixedSource::constant(RequestSpec::new(500, 150));
            run_load_test_observed(
                &mut e,
                &mem,
                &mut src,
                &LoadTestConfig { duration_s: 120.0, warmup_s: 0.0, concurrent_users: users },
                &mut LoadFaults::none(),
                None,
            )
            .unwrap()
        };
        let m8 = run(8);
        let m128 = run(128);
        assert!(m128.ttft_median_s > 4.0 * m8.ttft_median_s);
    }

    #[test]
    fn fit_request_respects_weight_and_caps() {
        let profile = GpuProfile::new(a100_80(), 1);
        let mem = MemoryModel::new(llama2_13b(), profile, MemoryConfig::default());
        let fitted = fit_request(&mem, 1000, RequestSpec::batched(400, 300, 5));
        assert!(fitted.weight() <= 1000);
        assert_eq!(fitted.batch_size, 1);
        // Sequence cap of llama (4096) applies.
        let fitted = fit_request(&mem, 100_000, RequestSpec::new(9000, 2000));
        assert!(fitted.input_tokens + fitted.output_tokens <= 4096);
    }

    #[test]
    fn nttft_is_ttft_scaled_by_input() {
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::constant(RequestSpec::new(1000, 50));
        let m = run_load_test_observed(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 30.0, concurrent_users: 1 },
            &mut LoadFaults::none(),
            None,
        )
        .unwrap();
        assert!((m.nttft_median_s - m.ttft_median_s / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn default_sweep_is_exponential_to_128() {
        assert_eq!(default_user_sweep(), vec![1, 2, 4, 8, 16, 32, 64, 128]);
    }

    #[test]
    fn observed_run_matches_plain_and_fills_histograms() {
        let config = LoadTestConfig { warmup_s: 0.0, duration_s: 60.0, concurrent_users: 4 };
        let (mut e1, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut s1 = FixedSource::constant(RequestSpec::new(500, 200));
        let mut faults = LoadFaults::none();
        let plain =
            run_load_test_observed(&mut e1, &mem, &mut s1, &config, &mut faults, None).unwrap();
        assert!(faults.steps_used > 0, "the load test reports the steps it used");
        let (mut e2, _) = setup(llama2_13b(), a100_80(), 1);
        let mut s2 = FixedSource::constant(RequestSpec::new(500, 200));
        let hists = SampleHists::default();
        let mut faults = LoadFaults::none();
        let observed =
            run_load_test_observed(&mut e2, &mem, &mut s2, &config, &mut faults, Some(&hists))
                .unwrap();
        assert_eq!(plain, observed, "observation must not change the metrics");
        assert!(hists.nttft.count() > 0);
        assert!(hists.itl.count() > 0);
        // The histogram median agrees with the sorted-vector median to
        // within the ≤1% quantile resolution.
        let h_median = hists.itl.quantile(0.5) as f64 / 1e9;
        let err = (h_median - observed.itl_median_s).abs() / observed.itl_median_s;
        assert!(err < 0.02, "hist median {h_median} vs exact {}", observed.itl_median_s);
    }

    #[test]
    fn scheduled_crash_aborts_the_test() {
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::constant(RequestSpec::new(500, 200));
        let mut faults = LoadFaults::none();
        faults.crash_at = Some(10.0);
        let err = run_load_test_observed(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 60.0, concurrent_users: 4 },
            &mut faults,
            None,
        )
        .unwrap_err();
        assert_eq!(err, SimError::EngineCrashed { at_s: 10.0 });
    }

    #[test]
    fn step_budget_aborts_instead_of_hanging() {
        let (mut e, mem) = setup(llama2_13b(), a100_80(), 1);
        let mut src = FixedSource::constant(RequestSpec::new(500, 200));
        let mut faults = LoadFaults::none();
        faults.max_steps = Some(5);
        let err = run_load_test_observed(
            &mut e,
            &mem,
            &mut src,
            &LoadTestConfig { warmup_s: 0.0, duration_s: 600.0, concurrent_users: 8 },
            &mut faults,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BudgetExhausted { .. }));
        assert_eq!(faults.steps_used, 6);
    }
}

/// The per-emission load tester this module replaced: it reads every
/// request's token emissions from [`Engine::step`] and keeps one
/// inter-token gap per emission. The oracle of the bit-identity tests.
#[cfg(test)]
mod reference {
    use llmpilot_obs::hist::LocalHistogram;

    use super::*;

    struct SampleBuffers<'a> {
        sink: &'a SampleHists,
        nttft: LocalHistogram,
        itl: LocalHistogram,
        itl_run: (f64, u64),
    }

    impl<'a> SampleBuffers<'a> {
        fn new(sink: &'a SampleHists) -> Self {
            SampleBuffers {
                sink,
                nttft: sink.nttft.local(),
                itl: sink.itl.local(),
                itl_run: (0.0, 0),
            }
        }

        fn record_itl(&mut self, gap: f64) {
            if gap.to_bits() == self.itl_run.0.to_bits() {
                self.itl_run.1 += 1;
            } else {
                self.itl.record_secs_n(self.itl_run.0, self.itl_run.1);
                self.itl_run = (gap, 1);
            }
        }
    }

    impl Drop for SampleBuffers<'_> {
        fn drop(&mut self) {
            self.itl.record_secs_n(self.itl_run.0, self.itl_run.1);
            self.sink.nttft.merge_local(&self.nttft);
            self.sink.itl.merge_local(&self.itl);
        }
    }

    struct InFlight {
        submitted_at: f64,
        input_tokens: u32,
        first_token_at: Option<f64>,
        last_token_at: Option<f64>,
    }

    pub fn run_load_test_observed<S: RequestSource + ?Sized>(
        engine: &mut Engine,
        mem: &MemoryModel,
        source: &mut S,
        config: &LoadTestConfig,
        faults: &mut LoadFaults,
        hists: Option<&SampleHists>,
    ) -> Result<LoadMetrics, SimError> {
        let users = config.concurrent_users;
        let mut local = hists.map(SampleBuffers::new);
        let mut in_flight = std::collections::BTreeMap::new();
        let (mut ttfts, mut nttfts, mut gaps, mut e2es) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut completed: u64 = 0;
        let mut total_tokens: u64 = 0;
        let submit = |engine: &mut Engine, source: &mut S| -> Result<_, SimError> {
            let spec = fit_request(mem, engine.max_batch_weight(), source.next_request());
            let id = engine.submit(spec)?;
            let fl = InFlight {
                submitted_at: engine.clock(),
                input_tokens: spec.input_tokens,
                first_token_at: None,
                last_token_at: None,
            };
            Ok((id, fl))
        };
        for _ in 0..users {
            let (id, fl) = submit(engine, source)?;
            in_flight.insert(id, fl);
        }
        let warmup = config.warmup_s;
        while engine.clock() < config.duration_s && engine.has_work() {
            let step = engine.step();
            faults.check_step(engine.clock())?;
            for em in &step.emissions {
                if em.time >= warmup {
                    total_tokens += u64::from(em.count);
                }
                let fl = in_flight.get_mut(&em.id).expect("emission for a request in flight");
                if em.is_first {
                    if fl.submitted_at >= warmup {
                        let ttft = em.time - fl.submitted_at;
                        ttfts.push(ttft);
                        nttfts.push(ttft / fl.input_tokens as f64);
                        if let Some(b) = &mut local {
                            b.nttft.record_secs(ttft / fl.input_tokens as f64);
                        }
                    }
                    fl.first_token_at = Some(em.time);
                } else if let Some(prev) = fl.last_token_at {
                    if em.time >= warmup {
                        gaps.push(em.time - prev);
                        if let Some(b) = &mut local {
                            b.record_itl(em.time - prev);
                        }
                    }
                }
                fl.last_token_at = Some(em.time);
            }
            for c in &step.completions {
                let fl = in_flight.remove(&c.id).expect("completion for a request in flight");
                if fl.submitted_at >= warmup {
                    e2es.push(c.time - fl.submitted_at);
                    completed += 1;
                }
                if engine.clock() < config.duration_s {
                    let (id, fl) = submit(engine, source)?;
                    in_flight.insert(id, fl);
                }
            }
        }
        for fl in in_flight.values() {
            if fl.first_token_at.is_none() && fl.submitted_at >= warmup {
                let waited = engine.clock() - fl.submitted_at;
                if waited > 0.0 {
                    ttfts.push(waited);
                    nttfts.push(waited / fl.input_tokens as f64);
                    if let Some(b) = &mut local {
                        b.nttft.record_secs(waited / fl.input_tokens as f64);
                    }
                }
            }
        }
        let elapsed = (engine.clock() - warmup).max(f64::EPSILON);
        Ok(LoadMetrics {
            concurrent_users: users,
            ttft_median_s: median(&mut ttfts),
            nttft_median_s: median(&mut nttfts),
            itl_median_s: median(&mut gaps),
            throughput_tokens_per_s: total_tokens as f64 / elapsed,
            e2e_median_s: median(&mut e2es),
            completed_requests: completed,
            total_tokens,
        })
    }
}

#[cfg(test)]
mod bit_identity_tests {
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::*;
    use crate::engine::{AdmissionPolicy, PhaseHists};
    use crate::gpu::{a100_80, GpuProfile};
    use crate::llm::llama2_13b;
    use crate::memory::MemoryConfig;
    use crate::perf_model::{PerfModel, PerfModelConfig};
    use crate::request::FixedSource;

    /// One load test's whole observable outcome: the metrics (or error),
    /// with every float as bits, and the sample and phase histograms.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        metrics: Result<[u64; 8], SimError>,
        samples: [Vec<(u64, u64)>; 2],
        sample_summaries: [llmpilot_obs::hist::HistSummary; 2],
        phases: [Vec<(u64, u64)>; 2],
        preemptions: u64,
        steps_used: u64,
    }

    type Tester = fn(
        &mut Engine,
        &MemoryModel,
        &mut FixedSource,
        &LoadTestConfig,
        &mut LoadFaults,
        Option<&SampleHists>,
    ) -> Result<LoadMetrics, SimError>;

    fn outcome(
        tester: Tester,
        specs: &[RequestSpec],
        max_batch_weight: u64,
        policy: AdmissionPolicy,
        config: &LoadTestConfig,
        crash_at: Option<f64>,
    ) -> Outcome {
        let profile = GpuProfile::new(a100_80(), 1);
        let mem = MemoryModel::new(llama2_13b(), profile.clone(), MemoryConfig::default());
        let perf = PerfModel::new(llama2_13b(), profile, PerfModelConfig::default());
        let phases = Arc::new(PhaseHists::default());
        let mut engine = Engine::new(perf, max_batch_weight)
            .with_policy(policy)
            .with_phase_hists(Arc::clone(&phases));
        let mut source = FixedSource::new(specs.to_vec());
        let mut faults = LoadFaults::none();
        faults.crash_at = crash_at;
        let hists = SampleHists::default();
        let metrics = tester(&mut engine, &mem, &mut source, config, &mut faults, Some(&hists))
            .map(|m| {
                [
                    u64::from(m.concurrent_users),
                    m.ttft_median_s.to_bits(),
                    m.nttft_median_s.to_bits(),
                    m.itl_median_s.to_bits(),
                    m.throughput_tokens_per_s.to_bits(),
                    m.e2e_median_s.to_bits(),
                    m.completed_requests,
                    m.total_tokens,
                ]
            });
        let preemptions = engine.preemptions();
        drop(engine);
        Outcome {
            metrics,
            samples: [hists.nttft.nonzero_buckets(), hists.itl.nonzero_buckets()],
            sample_summaries: [hists.nttft.summary(), hists.itl.summary()],
            phases: [phases.prefill.nonzero_buckets(), phases.decode.nonzero_buckets()],
            preemptions,
            steps_used: faults.steps_used,
        }
    }

    fn policy(paged: bool) -> AdmissionPolicy {
        if paged {
            AdmissionPolicy::PagedCurrent
        } else {
            AdmissionPolicy::ReserveFull
        }
    }

    #[test]
    fn paged_preempting_run_with_warmup_and_crash_matches_the_reference() {
        let specs = [RequestSpec::new(300, 300), RequestSpec::batched(120, 200, 2)];
        let config = LoadTestConfig { duration_s: 40.0, warmup_s: 5.0, concurrent_users: 12 };
        for crash_at in [None, Some(25.0)] {
            let want = outcome(
                reference::run_load_test_observed,
                &specs,
                2_000,
                AdmissionPolicy::PagedCurrent,
                &config,
                crash_at,
            );
            let got = outcome(
                run_load_test_observed,
                &specs,
                2_000,
                AdmissionPolicy::PagedCurrent,
                &config,
                crash_at,
            );
            assert!(got.preemptions > 0, "the case must preempt");
            assert_eq!(got.metrics.is_err(), crash_at.is_some());
            assert!(got.samples[1].len() > 1, "the case must record inter-token gaps");
            assert_eq!(got, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The step-record load tester and the per-emission reference agree
        /// bit for bit on every metric, on the sample and phase histograms
        /// and on the error of an aborted test.
        #[test]
        fn step_records_match_the_per_emission_reference(
            specs in prop::collection::vec((1u32..600, 1u32..300, 1u32..4), 1..8),
            max_batch_weight in 1_200u64..20_000,
            (users, paged) in (1u32..64, 0u8..2),
            duration_s in 1.0f64..30.0,
            warmup_frac in prop::sample::select(vec![0.0, 0.0, 0.2, 0.6]),
            (crash, crash_frac) in (0u8..2, 0.0f64..1.0),
        ) {
            let specs: Vec<RequestSpec> =
                specs.into_iter().map(|(i, o, b)| RequestSpec::batched(i, o, b)).collect();
            let config = LoadTestConfig {
                duration_s,
                warmup_s: warmup_frac * duration_s,
                concurrent_users: users,
            };
            let crash_at = (crash == 1).then_some(crash_frac * duration_s);
            let run = |tester: Tester| {
                outcome(tester, &specs, max_batch_weight, policy(paged == 1), &config, crash_at)
            };
            prop_assert_eq!(run(run_load_test_observed), run(reference::run_load_test_observed));
        }
    }
}
