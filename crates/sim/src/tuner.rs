//! Maximum-batch-weight tuning via binary search with OOM corner-case
//! probes (Sec. III-C-2 of the paper).
//!
//! As shown in the paper's Fig. 1, the maximum batch weight should be set as
//! high as possible — but GPU profiles differ in memory capacity, so the
//! weight must be optimized individually for each one before load testing.
//! LLM-Pilot does so by binary-searching the weight: each probe constructs
//! "a sequence of batches … designed to test all possible corner cases,
//! with respect to the batch size, number of input and output tokens, that
//! can be constructed according to the given maximum batch weight", and a
//! candidate weight is valid only if none of the corner batches OOMs.

use llmpilot_obs::Recorder;

use crate::error::SimError;
use crate::memory::MemoryModel;

/// Result of a batch-weight tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome {
    /// The optimized maximum batch weight, tokens.
    pub max_batch_weight: u64,
    /// Number of binary-search iterations performed.
    pub search_steps: u32,
    /// Number of corner-case probe batches evaluated.
    pub probes_evaluated: u64,
}

/// Probe batches never replicate a request more than this many times. At
/// ~4.2M requests the batch spans > 8M tokens of KV, far beyond what any
/// catalog GPU profile can hold, so the cap never changes a real tuning
/// result — it only bounds probe cost while the exponential ramp hunts the
/// divergence guard on a pathological (e.g. unbounded-memory) model.
const MAX_PROBE_BATCH: u64 = 1 << 22;

/// Build the corner-case probe batches for a candidate weight `w`:
///
/// 1. the largest single request constructible under `w` (maximum per-request
///    KV and attention workspace),
/// 2. as many maximum-*input* requests as fit (prefill-heavy corner),
/// 3. as many maximum-*output* requests as fit (KV-reservation corner),
/// 4. as many minimal `(1, 1)` requests as fit (maximum batch size corner).
pub fn corner_case_batches(mem: &MemoryModel, w: u64) -> Vec<Vec<(u32, u32)>> {
    let (cap_in, cap_out) = mem.largest_request();
    let mut batches = Vec::with_capacity(4);

    let w_minus_one = w.saturating_sub(1).min(u64::from(u32::MAX)) as u32;

    // 1. Largest single request under w.
    let single_in = cap_in.min(w_minus_one).max(1);
    let single_out = cap_out
        .min((w.saturating_sub(u64::from(single_in))).max(1).min(u64::from(u32::MAX)) as u32)
        .max(1);
    batches.push(vec![(single_in, single_out)]);

    // 2. Prefill-heavy: requests of (cap_in, 1).
    let per = u64::from(cap_in) + 1;
    let k = (w / per).clamp(1, MAX_PROBE_BATCH) as usize;
    batches.push(vec![(cap_in.min(w_minus_one).max(1), 1); k]);

    // 3. KV-heavy: requests of (1, cap_out).
    let per = 1 + u64::from(cap_out);
    let k = (w / per).clamp(1, MAX_PROBE_BATCH) as usize;
    batches.push(vec![(1, cap_out.min(w_minus_one).max(1)); k]);

    // 4. Batch-size corner: (1, 1) requests.
    let k = (w / 2).clamp(1, MAX_PROBE_BATCH) as usize;
    batches.push(vec![(1, 1); k]);

    batches
}

/// Whether a candidate maximum batch weight survives every corner-case probe.
pub fn weight_is_valid(mem: &MemoryModel, w: u64, probes_evaluated: &mut u64) -> bool {
    if w < 2 {
        return false;
    }
    for batch in corner_case_batches(mem, w) {
        *probes_evaluated += 1;
        if !mem.tuning_batch_fits(&batch) {
            return false;
        }
    }
    true
}

/// Binary-search the largest valid maximum batch weight for the given
/// `(LLM, GPU profile)` memory model.
///
/// The lower end of the search is the weight of the largest single request
/// the workload generator can produce — if even that is invalid the
/// deployment is infeasible and tuning fails (an × cell of Table III).
pub fn tune_max_batch_weight(mem: &MemoryModel) -> Result<TuningOutcome, SimError> {
    tune_max_batch_weight_traced(mem, &Recorder::disabled())
}

/// [`tune_max_batch_weight`] with structured tracing: records a
/// `tuner.tune` span (args: LLM, profile) with `tuner.ramp` and
/// `tuner.bisect` child phases, plus `tuner.probes` / `tuner.steps`
/// counters. Tracing never changes the tuning result.
pub fn tune_max_batch_weight_traced(
    mem: &MemoryModel,
    recorder: &Recorder,
) -> Result<TuningOutcome, SimError> {
    let _tune_span =
        recorder.span("tuner.tune").arg("llm", mem.llm().name).arg("profile", mem.profile().name());

    let (cap_in, cap_out) = mem.largest_request();
    let lo_start = u64::from(cap_in) + u64::from(cap_out);

    let mut probes = 0u64;
    let mut steps = 0u32;

    if !weight_is_valid(mem, lo_start, &mut probes) {
        recorder.counter_add("tuner.probes", probes);
        return Err(SimError::TuningFailed {
            llm: mem.llm().name.to_string(),
            profile: mem.profile().name(),
        });
    }

    // Exponential ramp-up to bracket the boundary, then bisect.
    let mut lo = lo_start;
    let mut hi = lo_start;
    {
        let mut ramp_span = recorder.span("tuner.ramp");
        loop {
            let candidate = hi.saturating_mul(2);
            steps += 1;
            if weight_is_valid(mem, candidate, &mut probes) {
                lo = candidate;
                hi = candidate;
            } else {
                hi = candidate;
                break;
            }
            // Memory is finite; the KV cache alone bounds the weight. If the
            // ramp sails past this cap without ever hitting an invalid weight,
            // the boundary cannot be bracketed and `lo` was never validated as
            // *maximal* — report divergence instead of returning it.
            if candidate > 1 << 40 {
                ramp_span.set_arg("diverged", true);
                drop(ramp_span);
                recorder.counter_add("tuner.probes", probes);
                recorder.counter_add("tuner.steps", u64::from(steps));
                return Err(SimError::TuningDiverged {
                    llm: mem.llm().name.to_string(),
                    profile: mem.profile().name(),
                    weight: lo,
                });
            }
        }
        ramp_span.set_arg("bracket_lo", lo);
        ramp_span.set_arg("bracket_hi", hi);
    }
    // Invariant: lo valid, hi invalid.
    {
        let _bisect_span = recorder.span("tuner.bisect");
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            steps += 1;
            if weight_is_valid(mem, mid, &mut probes) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    recorder.counter_add("tuner.probes", probes);
    recorder.counter_add("tuner.steps", u64::from(steps));

    Ok(TuningOutcome { max_batch_weight: lo, search_steps: steps, probes_evaluated: probes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{a100_40, a100_80, h100, t4, GpuProfile};
    use crate::llm::{flan_t5_xxl, flan_ul2, llama2_13b, llama2_7b};
    use crate::memory::MemoryConfig;

    fn mem(llm: crate::llm::LlmSpec, gpu: crate::gpu::GpuSpec, count: u32) -> MemoryModel {
        MemoryModel::new(llm, GpuProfile::new(gpu, count), MemoryConfig::default())
    }

    #[test]
    fn tuned_weight_fits_largest_request() {
        let m = mem(llama2_13b(), a100_80(), 1);
        let out = tune_max_batch_weight(&m).unwrap();
        let (i, o) = m.largest_request();
        assert!(out.max_batch_weight >= u64::from(i) + u64::from(o));
    }

    #[test]
    fn tuned_weight_is_maximal() {
        // One token more must be invalid.
        let m = mem(llama2_13b(), a100_80(), 1);
        let out = tune_max_batch_weight(&m).unwrap();
        let mut probes = 0;
        assert!(weight_is_valid(&m, out.max_batch_weight, &mut probes));
        assert!(!weight_is_valid(&m, out.max_batch_weight + 1, &mut probes));
    }

    #[test]
    fn bigger_memory_tunes_bigger_weight() {
        let small = tune_max_batch_weight(&mem(llama2_13b(), a100_40(), 1)).unwrap();
        let large = tune_max_batch_weight(&mem(llama2_13b(), a100_80(), 1)).unwrap();
        let huge = tune_max_batch_weight(&mem(llama2_13b(), h100(), 4)).unwrap();
        assert!(large.max_batch_weight > small.max_batch_weight);
        assert!(huge.max_batch_weight > large.max_batch_weight);
    }

    #[test]
    fn infeasible_deployment_fails_tuning() {
        let m = mem(flan_ul2(), t4(), 1);
        assert!(matches!(tune_max_batch_weight(&m), Err(SimError::TuningFailed { .. })));
    }

    #[test]
    fn corner_batches_respect_candidate_weight() {
        let m = mem(llama2_7b(), a100_80(), 1);
        for w in [6000u64, 20_000, 100_000] {
            for batch in corner_case_batches(&m, w) {
                let total: u64 = batch.iter().map(|&(i, o)| u64::from(i) + u64::from(o)).sum();
                assert!(
                    total <= w || batch.len() == 1,
                    "corner batch exceeds weight {w}: total {total}"
                );
                assert!(!batch.is_empty());
                for &(i, o) in &batch {
                    assert!(i >= 1 && o >= 1);
                }
            }
        }
    }

    #[test]
    fn non_flash_models_tune_smaller_weights_than_flash_peers() {
        // flan-t5-xxl (non-flash, 11B) must reserve the attention matrix;
        // per unit of free memory it admits fewer tokens than a flash model.
        let t5 = mem(flan_t5_xxl(), a100_40(), 1);
        let out = tune_max_batch_weight(&t5).unwrap();
        // Sanity window: a few thousand to a few tens of thousands of tokens.
        assert!(
            out.max_batch_weight > 5_000 && out.max_batch_weight < 60_000,
            "weight = {}",
            out.max_batch_weight
        );
    }

    #[test]
    fn absurd_memory_reports_divergence() {
        // A (hypothetical) GPU with effectively unbounded memory never
        // produces an invalid candidate, so the ramp cannot bracket the
        // boundary; tuning must report divergence instead of returning a
        // weight never validated as maximal.
        let mut gpu = a100_80();
        gpu.memory_gib = 1.0e12;
        let m = mem(llama2_13b(), gpu, 1);
        match tune_max_batch_weight(&m) {
            Err(SimError::TuningDiverged { weight, .. }) => {
                assert!(weight > 1 << 30, "diverged weight should be huge, got {weight}")
            }
            other => panic!("expected TuningDiverged, got {other:?}"),
        }
    }

    #[test]
    fn traced_tuning_matches_untraced_and_records_phases() {
        let m = mem(llama2_13b(), a100_80(), 1);
        let rec = Recorder::enabled();
        let traced = tune_max_batch_weight_traced(&m, &rec).unwrap();
        assert_eq!(traced, tune_max_batch_weight(&m).unwrap());
        let trace = rec.snapshot();
        let find = |name: &str| trace.events.iter().find(|e| e.name == name);
        let tune = find("tuner.tune").expect("tuner.tune span");
        let ramp = find("tuner.ramp").expect("tuner.ramp span");
        let bisect = find("tuner.bisect").expect("tuner.bisect span");
        assert_eq!(ramp.parent, Some(tune.id));
        assert_eq!(bisect.parent, Some(tune.id));
        assert!(tune.args.iter().any(|(k, _)| k == "llm"));
        assert!(trace
            .counters
            .iter()
            .any(|(n, v)| n == "tuner.probes" && *v == traced.probes_evaluated));
    }

    #[test]
    fn search_terminates_quickly() {
        let m = mem(llama2_13b(), h100(), 2);
        let out = tune_max_batch_weight(&m).unwrap();
        assert!(out.search_steps < 64);
        assert!(out.probes_evaluated < 300);
    }
}
