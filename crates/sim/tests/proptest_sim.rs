//! Property-based invariants of the simulator: memory accounting, tuning,
//! the performance model, the load tester's medians and the engine's
//! phase-histogram bookkeeping.

use std::sync::Arc;

use proptest::prelude::*;

use llmpilot_obs::hist::Histogram;
use llmpilot_sim::engine::{AdmissionPolicy, Engine, PhaseHists};
use llmpilot_sim::gpu::{a100_80, gpu_catalog, GpuProfile};
use llmpilot_sim::llm::{llama2_13b, llm_catalog};
use llmpilot_sim::load::{median, median_of_runs};
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};
use llmpilot_sim::perf_model::{PerfModel, PerfModelConfig};
use llmpilot_sim::request::RequestSpec;
use llmpilot_sim::tuner::{tune_max_batch_weight, weight_is_valid};

fn any_llm() -> impl Strategy<Value = usize> {
    0..llm_catalog().len()
}

fn any_profile() -> impl Strategy<Value = (usize, u32)> {
    (0..gpu_catalog().len(), prop::sample::select(vec![1u32, 2, 4]))
}

proptest! {
    /// KV accounting is additive and the peak grows with every request.
    #[test]
    fn peak_memory_is_monotone_in_batch(
        llm_idx in any_llm(),
        (gpu_idx, count) in any_profile(),
        batch in prop::collection::vec((1u32..4000, 1u32..1500), 1..20)
    ) {
        let llm = llm_catalog()[llm_idx].clone();
        let profile = GpuProfile::new(gpu_catalog()[gpu_idx].clone(), count);
        let mem = MemoryModel::new(llm, profile, MemoryConfig::default());
        let mut last = mem.peak_batch_bytes(&[]);
        for k in 1..=batch.len() {
            let peak = mem.peak_batch_bytes(&batch[..k]);
            prop_assert!(peak >= last - 1e-6);
            last = peak;
        }
    }

    /// Tuning validity is monotone: any weight at or below a valid weight
    /// is also valid (so binary search is sound).
    #[test]
    fn tuning_validity_is_monotone(
        llm_idx in any_llm(),
        (gpu_idx, count) in any_profile(),
        frac in 0.05f64..1.0
    ) {
        let llm = llm_catalog()[llm_idx].clone();
        let profile = GpuProfile::new(gpu_catalog()[gpu_idx].clone(), count);
        let mem = MemoryModel::new(llm, profile, MemoryConfig::default());
        let Ok(outcome) = tune_max_batch_weight(&mem) else {
            return Ok(()); // infeasible cell: nothing to check
        };
        let mut probes = 0;
        let (cap_in, cap_out) = mem.largest_request();
        let floor = u64::from(cap_in) + u64::from(cap_out);
        let smaller = floor
            + ((outcome.max_batch_weight - floor) as f64 * frac) as u64;
        prop_assert!(weight_is_valid(&mem, smaller, &mut probes));
        prop_assert!(!weight_is_valid(&mem, outcome.max_batch_weight + 1, &mut probes));
    }

    /// Step times are positive, finite, and monotone in both batch size and
    /// KV footprint for every catalog pairing.
    #[test]
    fn decode_step_time_is_monotone(
        llm_idx in any_llm(),
        (gpu_idx, count) in any_profile(),
        batch in 1u32..200,
        kv in 0u64..2_000_000
    ) {
        let llm = llm_catalog()[llm_idx].clone();
        let profile = GpuProfile::new(gpu_catalog()[gpu_idx].clone(), count);
        let perf = PerfModel::new(llm, profile, PerfModelConfig::default());
        let t = perf.decode_step_time(batch, kv);
        prop_assert!(t.is_finite() && t > 0.0);
        prop_assert!(perf.decode_step_time(batch + 1, kv) >= t);
        prop_assert!(perf.decode_step_time(batch, kv + 100_000) >= t);
    }

    /// Prefill time is positive, finite, and monotone in prompt length.
    #[test]
    fn prefill_time_is_monotone(
        llm_idx in any_llm(),
        (gpu_idx, count) in any_profile(),
        tokens in 1u32..4000
    ) {
        let llm = llm_catalog()[llm_idx].clone();
        let profile = GpuProfile::new(gpu_catalog()[gpu_idx].clone(), count);
        let perf = PerfModel::new(llm, profile, PerfModelConfig::default());
        let t = perf.prefill_time(tokens);
        prop_assert!(t.is_finite() && t > 0.0);
        prop_assert!(perf.prefill_time(tokens + 100) > t);
    }

    /// Request capping always produces an admissible request.
    #[test]
    fn cap_request_is_idempotent_and_bounded(
        llm_idx in any_llm(),
        input in 1u32..100_000,
        output in 1u32..100_000
    ) {
        let llm = llm_catalog()[llm_idx].clone();
        let profile = GpuProfile::new(gpu_catalog()[0].clone(), 1);
        let mem = MemoryModel::new(llm, profile, MemoryConfig::default());
        let (i, o) = mem.cap_request(input, output);
        prop_assert!(i >= 1 && o >= 1);
        let cap = mem.max_sequence_tokens();
        prop_assert!(u64::from(i) + u64::from(o) <= u64::from(cap));
        prop_assert_eq!(mem.cap_request(i, o), (i, o));
    }
}

/// Arbitrary `f64`s with the awkward cases overrepresented: duplicates
/// (small integers), both zeros, and raw bit patterns (NaNs, infinities,
/// subnormals).
fn awkward_f64s() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u8..4, 0u64..u64::MAX), 0..64).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(kind, bits)| match kind {
                0 => (bits % 5) as f64,
                1 => 0.0,
                2 => -0.0,
                _ => f64::from_bits(bits),
            })
            .collect()
    })
}

/// The median the load tester used to take: fully sort, then read the
/// middle element(s).
fn sorted_median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The sum of two phase histograms, as one fresh histogram.
fn union(a: &Histogram, b: &Histogram) -> Histogram {
    let sum = Histogram::default();
    sum.merge(a);
    sum.merge(b);
    sum
}

/// `median` on the multiset `runs` stands for, one value per count.
fn expanded_median(runs: &[(f64, u64)]) -> f64 {
    let mut values: Vec<f64> = runs
        .iter()
        .flat_map(|&(value, count)| std::iter::repeat_n(value, count as usize))
        .collect();
    median(&mut values)
}

#[test]
fn run_length_median_edge_cases() {
    assert!(median_of_runs(&mut []).is_nan());
    assert!(median_of_runs(&mut [(1.0, 0), (2.0, 0)]).is_nan());
    // A single run, with an odd and an even count.
    assert_eq!(median_of_runs(&mut [(0.5, 3)]), 0.5);
    assert_eq!(median_of_runs(&mut [(-0.0, 4)]).to_bits(), (-0.0f64).to_bits());
    // Odd total: the middle value; even total across a run boundary: the
    // mean of the two runs either side of it.
    assert_eq!(median_of_runs(&mut [(3.0, 1), (1.0, 2), (2.0, 2)]), 2.0);
    assert_eq!(median_of_runs(&mut [(4.0, 2), (1.0, 2)]), 2.5);
    // Even total inside one run, with equal values in runs apart.
    let mut runs = [(2.0, 1), (1.0, 1), (2.0, 3), (5.0, 1)];
    assert_eq!(median_of_runs(&mut runs.clone()), expanded_median(&runs));
    assert_eq!(median_of_runs(&mut runs), 2.0);
}

fn small_engine(max_weight: u64, policy: AdmissionPolicy) -> Engine {
    let perf =
        PerfModel::new(llama2_13b(), GpuProfile::new(a100_80(), 1), PerfModelConfig::default());
    Engine::new(perf, max_weight).with_policy(policy)
}

proptest! {
    /// The selection-based median is bit-identical to the sorted one,
    /// for odd and even lengths, duplicates, ±0.0 and non-finite values.
    #[test]
    fn median_matches_a_sorted_reference_bit_for_bit(values in awkward_f64s()) {
        let want = sorted_median(&values);
        let got = median(&mut values.clone());
        prop_assert_eq!(got.to_bits(), want.to_bits(), "values {:?}", values);
    }

    /// The run-length median picks the same order statistics as `median`
    /// on the expanded values, bit for bit: ±0.0, subnormals, non-finite
    /// values, equal values in runs that are not adjacent, empty runs, and
    /// odd and even totals.
    #[test]
    fn run_length_median_matches_the_expanded_median_bit_for_bit(
        values in awkward_f64s(),
        counts in prop::collection::vec(0u64..5, 64),
    ) {
        let runs: Vec<(f64, u64)> = values.into_iter().zip(counts).collect();
        let want = expanded_median(&runs);
        let got = median_of_runs(&mut runs.clone());
        prop_assert_eq!(got.to_bits(), want.to_bits(), "runs {:?}", runs);
    }

    /// An engine cloned mid-run, with both copies stepped to the end and
    /// dropped, leaves exactly the union of their phase samples in the
    /// shared sink: the original's whole run plus the clone's steps after
    /// the split, and nothing from before the split twice.
    #[test]
    fn cloned_engine_adds_the_union_of_phase_samples(
        requests in prop::collection::vec((1u32..400, 1u32..60), 1..12),
        split in 0usize..40,
        paged in 0u8..2,
    ) {
        let policy = if paged == 1 { AdmissionPolicy::PagedCurrent } else { AdmissionPolicy::ReserveFull };
        let start = |engine: Engine| {
            let mut engine = engine;
            for &(input, output) in &requests {
                engine.submit(RequestSpec::new(input, output)).unwrap();
            }
            for _ in 0..split {
                engine.step();
            }
            engine
        };
        let drain = |mut engine: Engine| {
            while engine.has_work() {
                engine.step();
            }
        };

        let shared = Arc::new(PhaseHists::default());
        let original = start(small_engine(600, policy).with_phase_hists(Arc::clone(&shared)));
        let clone = original.clone();
        drain(clone);
        drain(original);

        // References: the whole run, and only the steps after the split
        // (sink attached to an untracked engine at the split).
        let whole = Arc::new(PhaseHists::default());
        drain(start(small_engine(600, policy).with_phase_hists(Arc::clone(&whole))));
        let after = Arc::new(PhaseHists::default());
        drain(start(small_engine(600, policy)).with_phase_hists(Arc::clone(&after)));

        for (got, a, b) in [
            (&shared.prefill, &whole.prefill, &after.prefill),
            (&shared.decode, &whole.decode, &after.decode),
        ] {
            let want = union(a, b);
            prop_assert_eq!(got.nonzero_buckets(), want.nonzero_buckets());
            prop_assert_eq!(got.summary(), want.summary());
        }
    }
}
