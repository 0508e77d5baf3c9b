//! Continuous-batching inference engine (one pod), simulated in virtual time.
//!
//! The engine reproduces the iteration-level scheduling of TGIS/vLLM-style
//! servers (Sec. II-B): a single running batch is maintained; whenever
//! requests finish, new requests are admitted from the FIFO queue as long as
//! the *maximum batch weight* — the total number of input and output tokens
//! of all requests in the batch — stays within the tuned limit. Admitted
//! requests run their (compute-bound) prompt processing and emit their first
//! token; every previously running sequence advances by one token per
//! iteration at the (bandwidth-bound) decode step cost.
//!
//! The engine is a sequential event loop over `f64` virtual seconds — "2
//! minutes" of load testing complete in milliseconds of CPU time, and pods
//! parallelize across threads at a higher level (see [`crate::cluster`]).

use std::collections::VecDeque;
use std::sync::Arc;

use llmpilot_obs::hist::{Histogram, LocalHistogram};

use crate::error::SimError;
use crate::perf_model::PerfModel;
use crate::request::RequestSpec;

/// Identifier of a request within one engine's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// One token-emission event: at `time`, request `id` received `count`
/// tokens (one per sequence of its client-side batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenEmission {
    /// Which request the tokens belong to.
    pub id: RequestId,
    /// Virtual time of arrival at the client.
    pub time: f64,
    /// Number of tokens emitted (the request's batch size).
    pub count: u32,
    /// Whether this is the request's first output token (end of prompt
    /// processing).
    pub is_first: bool,
}

/// A request-completion event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Which request completed.
    pub id: RequestId,
    /// Virtual completion time.
    pub time: f64,
    /// When the request was submitted.
    pub submitted_at: f64,
    /// The completed request.
    pub spec: RequestSpec,
}

/// Result of one engine iteration, with one emission per request that
/// produced tokens.
#[derive(Debug, Clone, Default)]
pub struct StepResult {
    /// Tokens emitted during the iteration.
    pub emissions: Vec<TokenEmission>,
    /// Requests that finished at the end of the iteration.
    pub completions: Vec<Completion>,
}

/// A request admitted to the running batch in one iteration; it emits its
/// next token out of prompt processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Admission {
    /// Which request was admitted.
    pub id: RequestId,
    /// `None` when the emitted token is the request's first. For a request
    /// resumed after a paged preemption, the time of its last emission
    /// before it was preempted.
    pub resumed_after: Option<f64>,
}

/// One engine iteration as a compact record: what [`Engine::step_into`]
/// writes into buffers the caller owns and reuses across steps.
///
/// Every request that was already running emits one token per sequence at
/// `time` and last emitted at `previous`, so a step with no admission and
/// no completion is described in O(1) no matter how large the batch is.
#[derive(Debug, Clone, Default)]
pub struct StepRecord {
    /// Virtual time at which the step's tokens arrive (the clock after it).
    pub time: f64,
    /// Time of the engine's previous step with work: when every request
    /// counted in `decoded` last emitted.
    pub previous: f64,
    /// Requests that were already running and emitted one decode token.
    pub decoded: u32,
    /// Tokens emitted, decoded and admitted requests together.
    pub tokens: u64,
    /// Requests admitted this step, in admission order.
    pub admitted: Vec<Admission>,
    /// Requests that finished at the end of the step.
    pub completions: Vec<Completion>,
}

/// How the engine charges requests against the maximum batch weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// TGIS-style: an admitted request reserves its *full-lifetime* weight
    /// (all input + output tokens), so the batch can never outgrow memory —
    /// the policy the paper's maximum batch weight governs (Sec. II-B).
    #[default]
    ReserveFull,
    /// vLLM-style paged KV cache: requests are charged only for the tokens
    /// *currently* cached; admission is optimistic, and when the cache
    /// overflows the newest request is preempted back to the queue and its
    /// generated tokens are recomputed on re-admission (recompute
    /// preemption).
    PagedCurrent,
}

/// A request the engine holds, queued or running.
#[derive(Debug, Clone)]
struct Request {
    id: RequestId,
    spec: RequestSpec,
    submitted_at: f64,
    /// Output tokens generated so far per sequence, kept while the request
    /// is queued. A queued request with progress was preempted; its tokens
    /// are recomputed on re-admission without re-emission. While running,
    /// the count is [`Request::generated_by`] and this field is stale.
    generated: u32,
    /// While running: the engine tick (step with work) at which the
    /// request would have had zero tokens, so it has `ticks − origin`.
    origin: u64,
    /// When the request was last preempted, which is also its last
    /// emission (preemption ends a step in which every running request
    /// emitted); read when a request with `generated > 0` is re-admitted.
    preempted_at: f64,
}

impl Request {
    /// Output tokens per sequence a running request has generated by
    /// engine tick `ticks`.
    fn generated_by(&self, ticks: u64) -> u32 {
        (ticks - self.origin) as u32
    }

    /// The engine tick at which a running request completes.
    fn finish_tick(&self) -> u64 {
        self.origin + u64::from(self.spec.output_tokens)
    }

    /// KV-cache tokens held by this request with `generated` current.
    fn kv_tokens(&self) -> u64 {
        u64::from(self.spec.batch_size)
            * (u64::from(self.spec.input_tokens) + u64::from(self.generated))
    }
}

/// Per-phase duration histograms (virtual seconds, recorded as
/// nanoseconds): one sample per iteration's decode component and one per
/// admitted request's prefill cost. Shared via `Arc` so a caller can
/// aggregate across many engine instances; each engine adds its samples
/// in when it drops. The library sweep attaches none; perfbench's replica
/// of the sweep does, through [`Engine::with_phase_hists`].
#[derive(Debug, Default)]
pub struct PhaseHists {
    /// Prompt-processing cost per admitted request.
    pub prefill: Histogram,
    /// Decode-step cost per iteration with running sequences.
    pub decode: Histogram,
}

/// One engine's own phase-duration buffers, added into the shared
/// [`PhaseHists`] when dropped.
#[derive(Debug)]
struct PhaseBuffers {
    sink: Arc<PhaseHists>,
    prefill: LocalHistogram,
    decode: LocalHistogram,
}

impl PhaseBuffers {
    fn new(sink: Arc<PhaseHists>) -> Self {
        PhaseBuffers { prefill: sink.prefill.local(), decode: sink.decode.local(), sink }
    }
}

impl Clone for PhaseBuffers {
    /// The clone shares the sink but starts with empty buffers, so no
    /// sample is added in twice.
    fn clone(&self) -> Self {
        PhaseBuffers::new(Arc::clone(&self.sink))
    }
}

impl Drop for PhaseBuffers {
    fn drop(&mut self) {
        self.sink.prefill.merge_local(&self.prefill);
        self.sink.decode.merge_local(&self.decode);
    }
}

/// Continuous-batching engine for one pod.
#[derive(Debug, Clone)]
pub struct Engine {
    perf: PerfModel,
    max_batch_weight: u64,
    policy: AdmissionPolicy,
    clock: f64,
    /// Clock of the previous step with work ([`StepRecord::previous`]).
    last_step_at: f64,
    next_id: u64,
    queue: VecDeque<Request>,
    /// Running requests; a step's admissions are appended after the ones
    /// already decoding.
    running: Vec<Request>,
    /// Cached Σ weight of running requests (full reservation).
    running_weight: u64,
    /// Cached Σ KV tokens currently held by the running batch.
    running_kv_tokens: u64,
    /// Cached Σ sequences (batch sizes) of the running batch.
    running_seqs: u32,
    /// Steps with work so far; every running request generates one token
    /// per sequence per tick.
    ticks: u64,
    /// A lower bound on the running requests' [`Request::finish_tick`]:
    /// steps before it complete nothing, so they skip the completion scan.
    next_finish: u64,
    total_tokens_emitted: u64,
    preemptions: u64,
    /// Optional per-phase duration buffers; `None` costs one branch.
    phase_hists: Option<PhaseBuffers>,
}

impl Engine {
    /// Create an engine for the given performance model with a tuned maximum
    /// batch weight (in tokens).
    pub fn new(perf: PerfModel, max_batch_weight: u64) -> Self {
        Self {
            perf,
            max_batch_weight,
            policy: AdmissionPolicy::ReserveFull,
            clock: 0.0,
            last_step_at: 0.0,
            next_id: 0,
            queue: VecDeque::new(),
            running: Vec::new(),
            running_weight: 0,
            running_kv_tokens: 0,
            running_seqs: 0,
            ticks: 0,
            next_finish: u64::MAX,
            total_tokens_emitted: 0,
            preemptions: 0,
            phase_hists: None,
        }
    }

    /// Attach shared per-phase duration histograms (builder style): every
    /// subsequent [`Engine::step`] records its decode-step cost and each
    /// admitted request's prefill cost into buffers of the engine's own,
    /// which are added into [`PhaseHists`] when the engine drops (a clone
    /// starts with empty buffers into the same sink). Recording never
    /// perturbs the simulation — virtual time is read, not changed. Kept
    /// for perfbench's `offline` workload, which calls it; no library path
    /// does.
    pub fn with_phase_hists(mut self, hists: Arc<PhaseHists>) -> Self {
        self.phase_hists = Some(PhaseBuffers::new(hists));
        self
    }

    /// Switch the admission policy (builder style). The engine must be
    /// empty.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        assert!(!self.has_work(), "cannot change policy with work in flight");
        self.policy = policy;
        self
    }

    /// Attach a latency-noise source to the engine's performance model
    /// (builder style); see [`crate::fault::FaultPlan::latency_noise`]. The
    /// inert source leaves every step time untouched.
    pub fn with_latency_noise(mut self, noise: crate::fault::LatencyNoise) -> Self {
        self.perf.set_noise(noise);
        self
    }

    /// The active admission policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Number of preemptions performed so far (paged policy only).
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// KV tokens currently cached by the running batch.
    pub fn current_kv_tokens(&self) -> u64 {
        self.running_kv_tokens
    }

    /// Current virtual time, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The tuned maximum batch weight, tokens.
    pub fn max_batch_weight(&self) -> u64 {
        self.max_batch_weight
    }

    /// Number of requests waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of requests in the running batch.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Σ weight of the running batch, tokens.
    pub fn running_weight(&self) -> u64 {
        self.running_weight
    }

    /// Total output tokens emitted since construction.
    pub fn total_tokens_emitted(&self) -> u64 {
        self.total_tokens_emitted
    }

    /// Whether any request is queued or running.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.running.is_empty()
    }

    /// Move the clock forward to `t` (used when the engine idles between
    /// submissions). Moving backwards is a no-op.
    pub fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            self.clock = t;
        }
    }

    /// Submit a request at the current clock. Fails if the request could
    /// never be admitted under the configured maximum batch weight.
    pub fn submit(&mut self, spec: RequestSpec) -> Result<RequestId, SimError> {
        if spec.input_tokens == 0 || spec.output_tokens == 0 || spec.batch_size == 0 {
            return Err(SimError::InvalidRequest {
                reason: "input/output tokens and batch size must be >= 1".into(),
            });
        }
        if spec.weight() > self.max_batch_weight {
            return Err(SimError::RequestTooLarge {
                weight: spec.weight(),
                max_batch_weight: self.max_batch_weight,
            });
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.queue.push_back(Request {
            id,
            spec,
            submitted_at: self.clock,
            generated: 0,
            origin: 0,
            preempted_at: 0.0,
        });
        Ok(id)
    }

    /// Admit queued requests (FIFO, head-of-line blocking like TGIS) while
    /// they fit under the maximum batch weight, appending them to the
    /// running batch. Only the running weight is updated here; the step
    /// adds their KV tokens and sequences once it has costed them.
    fn admit(&mut self) {
        // Paged admission charges only what the request will cache *now*:
        // prompt (+ any recomputed progress) plus its next token.
        let mut paged_tokens = self.current_kv_tokens();
        while let Some(front) = self.queue.front() {
            let fits = match self.policy {
                AdmissionPolicy::ReserveFull => {
                    self.running_weight + front.spec.weight() <= self.max_batch_weight
                }
                AdmissionPolicy::PagedCurrent => {
                    let immediate = u64::from(front.spec.batch_size)
                        * (u64::from(front.spec.input_tokens) + u64::from(front.generated) + 1);
                    paged_tokens + immediate <= self.max_batch_weight
                }
            };
            if !fits {
                break;
            }
            let q = self.queue.pop_front().expect("front exists");
            self.running_weight += q.spec.weight();
            paged_tokens += u64::from(q.spec.batch_size)
                * (u64::from(q.spec.input_tokens) + u64::from(q.generated) + 1);
            self.running.push(q);
        }
    }

    /// Paged policy: when the cache outgrows the budget, preempt the newest
    /// running requests back to the queue front (recompute preemption: their
    /// progress is kept but will be re-prefetched, not re-emitted).
    fn preempt_overflow(&mut self) {
        while self.current_kv_tokens() > self.max_batch_weight && self.running.len() > 1 {
            // Newest = highest request id among running (vLLM preempts the
            // most recently scheduled sequence group).
            let newest = self
                .running
                .iter()
                .enumerate()
                .max_by_key(|(_, r)| r.id)
                .map(|(i, _)| i)
                .expect("running nonempty");
            let mut victim = self.running.swap_remove(newest);
            victim.generated = victim.generated_by(self.ticks);
            self.running_weight -= victim.spec.weight();
            self.running_kv_tokens -= victim.kv_tokens();
            self.running_seqs -= victim.spec.batch_size;
            self.preemptions += 1;
            victim.preempted_at = self.clock;
            self.queue.push_front(victim);
        }
    }

    /// Run one engine iteration: admit from the queue, run prompt processing
    /// for admitted requests, advance every running sequence by one token,
    /// and retire completed requests.
    ///
    /// Returns an empty [`StepResult`] without advancing time when there is
    /// no work. The emissions come first from the requests that were
    /// already running, in batch order, then from the admitted ones.
    pub fn step(&mut self) -> StepResult {
        let mut record = StepRecord::default();
        let mut emissions = Vec::new();
        self.run_step(&mut record, Some(&mut emissions));
        StepResult { emissions, completions: record.completions }
    }

    /// Run one engine iteration, exactly as [`Engine::step`], and describe
    /// it in `record`, whose buffers are cleared and reused. Costs O(1)
    /// beyond the engine's own per-sequence work when nothing is admitted
    /// or completed. Without work, the record is empty and time stands
    /// still.
    pub fn step_into(&mut self, record: &mut StepRecord) {
        self.run_step(record, None);
    }

    /// The one step implementation behind [`Engine::step`] and
    /// [`Engine::step_into`]; `emissions`, when given, also gets one
    /// [`TokenEmission`] per request that emitted.
    fn run_step(
        &mut self,
        record: &mut StepRecord,
        mut emissions: Option<&mut Vec<TokenEmission>>,
    ) {
        record.time = self.clock;
        record.previous = self.last_step_at;
        record.decoded = 0;
        record.tokens = 0;
        record.admitted.clear();
        record.completions.clear();
        if !self.has_work() {
            return;
        }

        let decoding = self.running.len();
        self.admit();

        // Decode cost for the sequences that were already running.
        let old_seqs = self.running_seqs;
        let mut step_time = if old_seqs > 0 {
            let kv_tokens = self.running_kv_tokens
                + self.running[decoding..].iter().map(|r| r.kv_tokens()).sum::<u64>();
            let t = self.perf.decode_step_time(old_seqs, kv_tokens);
            if let Some(h) = &mut self.phase_hists {
                h.decode.record_secs(t);
            }
            t
        } else {
            0.0
        };
        // Prompt-processing cost of every admitted request (its sequences
        // prefill together; cost is linear in the number of sequences).
        // Recomputed (preempted) requests re-prefill their prompt plus the
        // tokens already generated.
        for r in &self.running[decoding..] {
            let t = self.perf.prefill_time(r.spec.input_tokens + r.generated)
                * r.spec.batch_size as f64;
            if let Some(h) = &mut self.phase_hists {
                h.prefill.record_secs(t);
            }
            step_time += t;
        }
        let now = self.clock + step_time;
        self.clock = now;
        let tokens_before = self.total_tokens_emitted;

        // Previously running sequences each produce one decode token: one
        // more tick.
        self.ticks += 1;
        if let Some(out) = emissions.as_deref_mut() {
            out.reserve_exact(self.running.len());
            out.extend(self.running[..decoding].iter().map(|r| TokenEmission {
                id: r.id,
                time: now,
                count: r.spec.batch_size,
                is_first: false,
            }));
        }
        // One more cached token per running sequence.
        self.running_kv_tokens += u64::from(self.running_seqs);
        self.total_tokens_emitted += u64::from(self.running_seqs);
        // Admitted requests produce their next token out of prefill: the
        // *first* token for fresh requests; recomputed requests resume
        // emitting where they left off.
        for r in &mut self.running[decoding..] {
            let resumed_after = (r.generated > 0).then_some(r.preempted_at);
            record.admitted.push(Admission { id: r.id, resumed_after });
            if let Some(out) = emissions.as_deref_mut() {
                out.push(TokenEmission {
                    id: r.id,
                    time: now,
                    count: r.spec.batch_size,
                    is_first: resumed_after.is_none(),
                });
            }
            r.generated += 1;
            r.origin = self.ticks - u64::from(r.generated);
            self.next_finish = self.next_finish.min(r.finish_tick());
            self.total_tokens_emitted += u64::from(r.spec.batch_size);
            self.running_kv_tokens += r.kv_tokens();
            self.running_seqs += r.spec.batch_size;
        }

        // Retire completed requests and free their weight. Before the
        // earliest finish tick nothing completes; the scan recomputes it.
        if self.ticks >= self.next_finish {
            let mut next_finish = u64::MAX;
            let mut i = 0;
            while i < self.running.len() {
                let finish = self.running[i].finish_tick();
                if self.ticks >= finish {
                    let mut done = self.running.swap_remove(i);
                    done.generated = done.generated_by(self.ticks);
                    self.running_weight -= done.spec.weight();
                    self.running_kv_tokens -= done.kv_tokens();
                    self.running_seqs -= done.spec.batch_size;
                    record.completions.push(Completion {
                        id: done.id,
                        time: now,
                        submitted_at: done.submitted_at,
                        spec: done.spec,
                    });
                } else {
                    next_finish = next_finish.min(finish);
                    i += 1;
                }
            }
            self.next_finish = next_finish;
        }
        if self.policy == AdmissionPolicy::PagedCurrent {
            self.preempt_overflow();
        }
        self.last_step_at = now;
        record.time = now;
        record.decoded = decoding as u32;
        record.tokens = self.total_tokens_emitted - tokens_before;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{a100_80, GpuProfile};
    use crate::llm::llama2_13b;
    use crate::perf_model::{PerfModel, PerfModelConfig};

    fn engine(max_weight: u64) -> Engine {
        let perf =
            PerfModel::new(llama2_13b(), GpuProfile::new(a100_80(), 1), PerfModelConfig::default());
        Engine::new(perf, max_weight)
    }

    #[test]
    fn single_request_runs_to_completion() {
        let mut e = engine(100_000);
        let id = e.submit(RequestSpec::new(100, 5)).unwrap();
        let mut first_seen = false;
        let mut tokens = 0;
        let mut completed = false;
        while e.has_work() {
            let r = e.step();
            for em in &r.emissions {
                assert_eq!(em.id, id);
                if em.is_first {
                    assert!(!first_seen);
                    first_seen = true;
                }
                tokens += em.count;
            }
            for c in &r.completions {
                assert_eq!(c.id, id);
                completed = true;
            }
        }
        assert!(first_seen);
        assert!(completed);
        assert_eq!(tokens, 5);
        assert_eq!(e.total_tokens_emitted(), 5);
        assert_eq!(e.running_weight(), 0);
    }

    #[test]
    fn phase_hists_capture_prefill_and_decode_without_perturbing() {
        let run = |hists: Option<Arc<PhaseHists>>| {
            let mut e = engine(600);
            if let Some(h) = hists {
                e = e.with_phase_hists(h);
            }
            for _ in 0..4 {
                e.submit(RequestSpec::new(300, 50)).unwrap();
            }
            let mut times = Vec::new();
            while e.has_work() {
                for c in e.step().completions {
                    times.push((c.time, c.id));
                }
            }
            (times, e.clock())
        };
        let hists = Arc::new(PhaseHists::default());
        let observed = run(Some(Arc::clone(&hists)));
        let plain = run(None);
        assert_eq!(plain, observed, "phase hists must not perturb the simulation");
        // One prefill sample per admission (4 fresh requests, no
        // preemption under ReserveFull) and many decode samples.
        assert_eq!(hists.prefill.count(), 4);
        assert!(hists.decode.count() > 0);
        assert!(hists.prefill.quantile(0.5) > 0, "prefill durations are positive");
        assert!(hists.decode.quantile(0.99) >= hists.decode.quantile(0.5));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut e = engine(100_000);
        e.submit(RequestSpec::new(50, 10)).unwrap();
        e.submit(RequestSpec::new(200, 3)).unwrap();
        let mut last = 0.0;
        while e.has_work() {
            e.step();
            assert!(e.clock() >= last);
            last = e.clock();
        }
        assert!(last > 0.0);
    }

    #[test]
    fn admission_respects_max_batch_weight() {
        // Two requests of weight 150 with a cap of 200: the second must wait
        // until the first completes.
        let mut e = engine(200);
        e.submit(RequestSpec::new(100, 50)).unwrap();
        e.submit(RequestSpec::new(100, 50)).unwrap();
        let r = e.step();
        assert_eq!(r.emissions.len(), 1);
        assert_eq!(e.running_len(), 1);
        assert_eq!(e.queue_len(), 1);
        assert_eq!(e.running_weight(), 150);
        // Drain the first request.
        while e.running_len() == 1 && e.queue_len() == 1 {
            e.step();
        }
        // After the first completes, the second gets admitted.
        assert!(e.has_work());
    }

    #[test]
    fn oversized_request_is_rejected() {
        let mut e = engine(100);
        let err = e.submit(RequestSpec::new(100, 50)).unwrap_err();
        assert!(matches!(err, SimError::RequestTooLarge { .. }));
    }

    #[test]
    fn degenerate_request_is_rejected() {
        let mut e = engine(1000);
        assert!(e.submit(RequestSpec::new(0, 5)).is_err());
        assert!(e.submit(RequestSpec::new(5, 0)).is_err());
        assert!(e.submit(RequestSpec::batched(5, 5, 0)).is_err());
    }

    #[test]
    fn higher_batch_weight_reduces_e2e_latency_under_load() {
        // The Fig. 1 phenomenon: with many concurrent requests, a larger
        // maximum batch weight lowers end-to-end latency by cutting queueing.
        let run = |weight: u64| -> f64 {
            let mut e = engine(weight);
            let mut ids = Vec::new();
            for _ in 0..32 {
                ids.push(e.submit(RequestSpec::new(300, 100)).unwrap());
            }
            let mut done = 0;
            let mut total = 0.0;
            while e.has_work() {
                let r = e.step();
                for c in r.completions {
                    total += c.time - c.submitted_at;
                    done += 1;
                }
            }
            assert_eq!(done, 32);
            total / 32.0
        };
        let small = run(800);
        let large = run(32 * 400);
        assert!(large < small, "large-weight latency {large} should beat small-weight {small}");
    }

    #[test]
    fn batched_request_emits_batch_size_tokens_per_step() {
        let mut e = engine(100_000);
        e.submit(RequestSpec::batched(50, 4, 3)).unwrap();
        let mut tokens = 0;
        while e.has_work() {
            let r = e.step();
            tokens += r.emissions.iter().map(|em| em.count).sum::<u32>();
        }
        assert_eq!(tokens, 12);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut e = engine(160);
        let a = e.submit(RequestSpec::new(100, 50)).unwrap();
        let b = e.submit(RequestSpec::new(100, 50)).unwrap();
        let c = e.submit(RequestSpec::new(100, 50)).unwrap();
        let mut completion_order = Vec::new();
        while e.has_work() {
            for done in e.step().completions {
                completion_order.push(done.id);
            }
        }
        assert_eq!(completion_order, vec![a, b, c]);
    }

    #[test]
    fn advance_to_never_moves_backwards() {
        let mut e = engine(1000);
        e.advance_to(5.0);
        assert_eq!(e.clock(), 5.0);
        e.advance_to(2.0);
        assert_eq!(e.clock(), 5.0);
    }

    #[test]
    fn step_without_work_is_inert() {
        let mut e = engine(1000);
        let r = e.step();
        assert!(r.emissions.is_empty());
        assert!(r.completions.is_empty());
        assert_eq!(e.clock(), 0.0);
    }

    #[test]
    fn deeper_queue_increases_waiting_time() {
        // TTFT of the last request grows when more requests are in front of
        // it (queueing time, Sec. II-B).
        let ttft_of_last = |n: usize| -> f64 {
            let mut e = engine(600);
            let mut last = RequestId(0);
            for _ in 0..n {
                last = e.submit(RequestSpec::new(300, 100)).unwrap();
            }
            loop {
                let r = e.step();
                if let Some(em) = r.emissions.iter().find(|em| em.id == last && em.is_first) {
                    return em.time;
                }
                assert!(e.has_work());
            }
        };
        assert!(ttft_of_last(8) > ttft_of_last(2));
    }
}

#[cfg(test)]
mod paged_tests {
    use super::*;
    use crate::gpu::{a100_80, GpuProfile};
    use crate::llm::llama2_13b;
    use crate::perf_model::{PerfModel, PerfModelConfig};

    fn engine(max_weight: u64, policy: AdmissionPolicy) -> Engine {
        let perf =
            PerfModel::new(llama2_13b(), GpuProfile::new(a100_80(), 1), PerfModelConfig::default());
        Engine::new(perf, max_weight).with_policy(policy)
    }

    /// Drain an engine, returning (tokens, firsts, completions, clock).
    fn drain(e: &mut Engine) -> (u64, usize, usize, f64) {
        let (mut tokens, mut firsts, mut completions) = (0u64, 0usize, 0usize);
        while e.has_work() {
            let r = e.step();
            tokens += r.emissions.iter().map(|em| u64::from(em.count)).sum::<u64>();
            firsts += r.emissions.iter().filter(|em| em.is_first).count();
            completions += r.completions.len();
        }
        (tokens, firsts, completions, e.clock())
    }

    #[test]
    fn paged_conserves_tokens_under_preemption() {
        // Cache holds ~1200 tokens; four requests of 300+300 would reserve
        // 2400 under ReserveFull but run (with preemptions) under paging.
        let mut e = engine(1_200, AdmissionPolicy::PagedCurrent);
        for _ in 0..4 {
            e.submit(RequestSpec::new(300, 300)).unwrap();
        }
        let (tokens, firsts, completions, _) = drain(&mut e);
        assert_eq!(tokens, 4 * 300);
        assert_eq!(firsts, 4, "is_first must fire once per request");
        assert_eq!(completions, 4);
        assert!(e.preemptions() > 0, "cache overflow should trigger preemption");
    }

    #[test]
    fn paged_admits_more_concurrency_than_reservation() {
        // Same budget: full reservation admits 2 requests (2x600=1200 <=
        // 1300); paging starts all 4 (4x301 = 1204 up front).
        let mut reserve = engine(1_300, AdmissionPolicy::ReserveFull);
        let mut paged = engine(1_300, AdmissionPolicy::PagedCurrent);
        for e in [&mut reserve, &mut paged] {
            for _ in 0..4 {
                e.submit(RequestSpec::new(300, 300)).unwrap();
            }
        }
        reserve.step();
        paged.step();
        assert_eq!(reserve.running_len(), 2);
        assert_eq!(paged.running_len(), 4);
    }

    #[test]
    fn reserve_full_never_preempts() {
        let mut e = engine(5_000, AdmissionPolicy::ReserveFull);
        for _ in 0..10 {
            e.submit(RequestSpec::new(200, 200)).unwrap();
        }
        drain(&mut e);
        assert_eq!(e.preemptions(), 0);
    }

    #[test]
    fn paged_without_pressure_behaves_like_reservation() {
        let spec = RequestSpec::new(100, 50);
        let mut a = engine(1_000_000, AdmissionPolicy::ReserveFull);
        let mut b = engine(1_000_000, AdmissionPolicy::PagedCurrent);
        for e in [&mut a, &mut b] {
            for _ in 0..5 {
                e.submit(spec).unwrap();
            }
        }
        let (ta, fa, ca, clock_a) = drain(&mut a);
        let (tb, fb, cb, clock_b) = drain(&mut b);
        assert_eq!((ta, fa, ca), (tb, fb, cb));
        assert!((clock_a - clock_b).abs() < 1e-9);
    }

    #[test]
    fn preempted_requests_still_complete_in_order_of_recovery() {
        let mut e = engine(900, AdmissionPolicy::PagedCurrent);
        let ids: Vec<RequestId> =
            (0..3).map(|_| e.submit(RequestSpec::new(200, 250)).unwrap()).collect();
        let mut done = Vec::new();
        while e.has_work() {
            for c in e.step().completions {
                done.push(c.id);
            }
        }
        assert_eq!(done.len(), 3);
        for id in ids {
            assert!(done.contains(&id));
        }
    }

    #[test]
    fn running_totals_match_a_recount_after_every_step() {
        for policy in [AdmissionPolicy::ReserveFull, AdmissionPolicy::PagedCurrent] {
            let mut e = engine(1_200, policy);
            for (i, o, b) in [(300, 300, 1), (200, 250, 2), (50, 400, 1), (100, 20, 3)] {
                e.submit(RequestSpec::batched(i, o, b)).unwrap();
            }
            while e.has_work() {
                e.step();
                let kv: u64 = e
                    .running
                    .iter()
                    .map(|r| {
                        u64::from(r.spec.batch_size)
                            * (u64::from(r.spec.input_tokens) + u64::from(r.generated_by(e.ticks)))
                    })
                    .sum();
                let seqs: u32 = e.running.iter().map(|r| r.spec.batch_size).sum();
                assert_eq!((e.current_kv_tokens(), e.running_seqs), (kv, seqs), "{policy:?}");
            }
            assert_eq!((e.current_kv_tokens(), e.running_seqs), (0, 0));
        }
    }

    /// A step record describes the same iteration as `step()`'s
    /// emissions: same time, token count and admissions, the decoding
    /// requests all last emitted at `previous`, and a resumed request at
    /// its last emission before preemption.
    #[test]
    fn step_records_describe_the_same_steps_as_emissions() {
        let mut by_emission = engine(900, AdmissionPolicy::PagedCurrent);
        for (i, o, b) in [(200, 250, 1), (200, 250, 1), (150, 120, 2), (100, 300, 1)] {
            by_emission.submit(RequestSpec::batched(i, o, b)).unwrap();
        }
        let mut by_record = by_emission.clone();
        let mut last_emission = std::collections::HashMap::new();
        let mut record = StepRecord::default();
        let mut resumed = 0;
        while by_emission.has_work() {
            let previous_step = by_emission.clock();
            let result = by_emission.step();
            by_record.step_into(&mut record);
            assert_eq!(record.time.to_bits(), by_emission.clock().to_bits());
            assert_eq!(record.completions, result.completions);
            let tokens: u64 = result.emissions.iter().map(|em| u64::from(em.count)).sum();
            assert_eq!(record.tokens, tokens);
            let (decoded, admitted) = result.emissions.split_at(record.decoded as usize);
            assert_eq!(admitted.len(), record.admitted.len());
            for em in decoded {
                assert!(!em.is_first);
                assert_eq!(last_emission[&em.id], record.previous);
                assert_eq!(record.previous, previous_step);
            }
            for (em, a) in admitted.iter().zip(&record.admitted) {
                assert_eq!((em.id, em.is_first), (a.id, a.resumed_after.is_none()));
                if let Some(at) = a.resumed_after {
                    assert_eq!(last_emission[&em.id], at);
                    resumed += 1;
                }
            }
            for em in &result.emissions {
                last_emission.insert(em.id, em.time);
            }
        }
        assert!(resumed > 0, "the case must resume a preempted request");
    }

    #[test]
    #[should_panic(expected = "cannot change policy")]
    fn policy_change_with_work_panics() {
        let mut e = engine(10_000, AdmissionPolicy::ReserveFull);
        e.submit(RequestSpec::new(10, 10)).unwrap();
        let _ = e.with_policy(AdmissionPolicy::PagedCurrent);
    }
}

/// The step as it was before running requests counted their tokens by
/// engine tick: every step increments each running request's count and
/// scans the whole batch for completions. The oracle of
/// [`bit_identity_tests`].
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use super::{AdmissionPolicy, Completion, RequestId, StepResult, TokenEmission};
    use crate::perf_model::PerfModel;
    use crate::request::RequestSpec;

    #[derive(Debug, Clone)]
    struct Request {
        id: RequestId,
        spec: RequestSpec,
        submitted_at: f64,
        generated: u32,
    }

    impl Request {
        fn kv_tokens(&self) -> u64 {
            u64::from(self.spec.batch_size)
                * (u64::from(self.spec.input_tokens) + u64::from(self.generated))
        }
    }

    #[derive(Debug, Clone)]
    pub struct Engine {
        perf: PerfModel,
        max_batch_weight: u64,
        policy: AdmissionPolicy,
        pub clock: f64,
        next_id: u64,
        queue: VecDeque<Request>,
        running: Vec<Request>,
        running_weight: u64,
        pub preemptions: u64,
    }

    impl Engine {
        pub fn new(perf: PerfModel, max_batch_weight: u64, policy: AdmissionPolicy) -> Self {
            Self {
                perf,
                max_batch_weight,
                policy,
                clock: 0.0,
                next_id: 0,
                queue: VecDeque::new(),
                running: Vec::new(),
                running_weight: 0,
                preemptions: 0,
            }
        }

        pub fn has_work(&self) -> bool {
            !self.queue.is_empty() || !self.running.is_empty()
        }

        pub fn advance_to(&mut self, t: f64) {
            if t > self.clock {
                self.clock = t;
            }
        }

        /// Submit a spec the engine under test accepted.
        pub fn submit(&mut self, spec: RequestSpec) -> RequestId {
            let id = RequestId(self.next_id);
            self.next_id += 1;
            self.queue.push_back(Request { id, spec, submitted_at: self.clock, generated: 0 });
            id
        }

        fn kv_tokens(&self) -> u64 {
            self.running.iter().map(Request::kv_tokens).sum()
        }

        pub fn step(&mut self) -> StepResult {
            let mut result = StepResult::default();
            if !self.has_work() {
                return result;
            }
            let decoding = self.running.len();
            let mut paged_tokens = self.kv_tokens();
            while let Some(front) = self.queue.front() {
                let immediate = u64::from(front.spec.batch_size)
                    * (u64::from(front.spec.input_tokens) + u64::from(front.generated) + 1);
                let fits = match self.policy {
                    AdmissionPolicy::ReserveFull => {
                        self.running_weight + front.spec.weight() <= self.max_batch_weight
                    }
                    AdmissionPolicy::PagedCurrent => {
                        paged_tokens + immediate <= self.max_batch_weight
                    }
                };
                if !fits {
                    break;
                }
                let q = self.queue.pop_front().expect("front exists");
                self.running_weight += q.spec.weight();
                paged_tokens += immediate;
                self.running.push(q);
            }
            let old_seqs: u32 = self.running[..decoding].iter().map(|r| r.spec.batch_size).sum();
            let mut step_time = if old_seqs > 0 {
                self.perf.decode_step_time(old_seqs, self.kv_tokens())
            } else {
                0.0
            };
            for r in &self.running[decoding..] {
                step_time += self.perf.prefill_time(r.spec.input_tokens + r.generated)
                    * r.spec.batch_size as f64;
            }
            self.clock += step_time;
            let now = self.clock;
            for (i, r) in self.running.iter_mut().enumerate() {
                result.emissions.push(TokenEmission {
                    id: r.id,
                    time: now,
                    count: r.spec.batch_size,
                    is_first: i >= decoding && r.generated == 0,
                });
                r.generated += 1;
            }
            let mut i = 0;
            while i < self.running.len() {
                if self.running[i].generated >= self.running[i].spec.output_tokens {
                    let done = self.running.swap_remove(i);
                    self.running_weight -= done.spec.weight();
                    result.completions.push(Completion {
                        id: done.id,
                        time: now,
                        submitted_at: done.submitted_at,
                        spec: done.spec,
                    });
                } else {
                    i += 1;
                }
            }
            if self.policy == AdmissionPolicy::PagedCurrent {
                while self.kv_tokens() > self.max_batch_weight && self.running.len() > 1 {
                    let newest = (0..self.running.len())
                        .max_by_key(|&i| self.running[i].id)
                        .expect("running nonempty");
                    let victim = self.running.swap_remove(newest);
                    self.running_weight -= victim.spec.weight();
                    self.preemptions += 1;
                    self.queue.push_front(victim);
                }
            }
            result
        }
    }
}

#[cfg(test)]
mod bit_identity_tests {
    use proptest::prelude::*;

    use super::*;
    use crate::gpu::{a100_80, GpuProfile};
    use crate::llm::llama2_13b;
    use crate::perf_model::{PerfModel, PerfModelConfig};

    /// One test action: submit `(input, output, batch)` requests, let
    /// virtual time pass, or run some steps.
    #[derive(Debug, Clone)]
    enum Op {
        Submit(Vec<(u32, u32, u32)>),
        Idle(f64),
        Steps(u32),
    }

    fn op() -> impl Strategy<Value = Op> {
        (
            0u32..3,
            prop::collection::vec((1u32..400, 1u32..120, 1u32..4), 1..6),
            0.0f64..2.0,
            1u32..40,
        )
            .prop_map(|(kind, specs, idle, steps)| match kind {
                0 => Op::Submit(specs),
                1 => Op::Idle(idle),
                _ => Op::Steps(steps),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// `step()` and `step_into()` agree with the whole-batch reference
        /// step on every emission, completion, clock bit and preemption,
        /// under both admission policies, with requests arriving between
        /// steps and the batch draining at the end.
        #[test]
        fn tick_counted_steps_match_the_whole_batch_reference(
            max_weight in 600u64..4_000,
            paged in 0u32..2,
            ops in prop::collection::vec(op(), 1..30),
        ) {
            let policy =
                if paged == 1 { AdmissionPolicy::PagedCurrent } else { AdmissionPolicy::ReserveFull };
            let perf = PerfModel::new(
                llama2_13b(),
                GpuProfile::new(a100_80(), 1),
                PerfModelConfig::default(),
            );
            let mut oracle = reference::Engine::new(perf.clone(), max_weight, policy);
            let mut by_emission = Engine::new(perf, max_weight).with_policy(policy);
            let mut by_record = by_emission.clone();
            let mut record = StepRecord::default();
            let drain = Op::Steps(u32::MAX);
            for op in ops.iter().chain(std::iter::once(&drain)) {
                match op {
                    Op::Submit(specs) => {
                        for &(i, o, b) in specs {
                            let spec = RequestSpec::batched(i, o, b);
                            let id = by_emission.submit(spec);
                            prop_assert_eq!(&by_record.submit(spec), &id);
                            if let Ok(id) = id {
                                prop_assert_eq!(oracle.submit(spec), id);
                            }
                        }
                    }
                    Op::Idle(dt) => {
                        let t = oracle.clock + dt;
                        oracle.advance_to(t);
                        by_emission.advance_to(t);
                        by_record.advance_to(t);
                    }
                    Op::Steps(n) => {
                        for _ in 0..*n {
                            if !oracle.has_work() {
                                break;
                            }
                            let want = oracle.step();
                            let got = by_emission.step();
                            by_record.step_into(&mut record);
                            prop_assert_eq!(&got.emissions, &want.emissions);
                            prop_assert_eq!(&got.completions, &want.completions);
                            prop_assert_eq!(&record.completions, &want.completions);
                            let tokens: u64 =
                                want.emissions.iter().map(|em| u64::from(em.count)).sum();
                            prop_assert_eq!(record.tokens, tokens);
                            prop_assert_eq!(record.time.to_bits(), oracle.clock.to_bits());
                            prop_assert_eq!(by_emission.clock().to_bits(), oracle.clock.to_bits());
                            prop_assert_eq!(by_record.clock().to_bits(), oracle.clock.to_bits());
                            prop_assert_eq!(by_emission.preemptions(), oracle.preemptions);
                            prop_assert_eq!(by_record.preemptions(), oracle.preemptions);
                        }
                    }
                }
            }
            prop_assert!(!by_emission.has_work() && !by_record.has_work());
            prop_assert_eq!((by_record.current_kv_tokens(), by_record.running_weight()), (0, 0));
        }
    }
}
