//! Property-based guarantees of the log-linear HDR histogram
//! (`obs::hist::Histogram`):
//!
//! 1. every quantile agrees with the exact nearest-rank quantile of the
//!    sorted sample within the configured relative error (≤1% at the
//!    default two significant figures), at any sample size — including a
//!    deterministic million-sample case;
//! 2. merging histograms is exactly equivalent to recording the union of
//!    their samples (bucket counts are integers, so this is bit-exact);
//! 3. so is recording into a `LocalHistogram` buffer and adding it in
//!    with `merge_local`, into an empty or a non-empty histogram.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use llm_pilot::obs::hist::Histogram;

/// Assert two histograms hold the same samples, bucket for bucket.
fn assert_same(got: &Histogram, want: &Histogram) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.nonzero_buckets(), want.nonzero_buckets());
    prop_assert_eq!(got.count(), want.count());
    prop_assert_eq!(got.min(), want.min());
    prop_assert_eq!(got.max(), want.max());
    prop_assert_eq!(got.mean().to_bits(), want.mean().to_bits());
    prop_assert_eq!(got.summary(), want.summary());
    Ok(())
}

/// Exact nearest-rank quantile of a sorted sample: the same rank rule
/// the histogram implements, evaluated without bucketing error.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = (q * n as f64).ceil().clamp(1.0, n as f64) as usize;
    sorted[rank - 1]
}

/// Assert the histogram's quantile is within 1% (relative) of the exact
/// sorted-sample quantile; tiny values get a ±1 absolute allowance
/// because integer buckets cannot subdivide below 1 ns.
fn assert_close(hist: &Histogram, sorted: &[u64], q: f64) {
    let got = hist.quantile(q);
    let want = exact_quantile(sorted, q);
    let tol = (want as f64 * 0.01).max(1.0);
    assert!(
        (got as f64 - want as f64).abs() <= tol,
        "quantile({q}) = {got}, exact = {want} (n = {}, tol = {tol})",
        sorted.len()
    );
}

const QS: [f64; 7] = [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles of arbitrary samples spanning nine decades stay within
    /// the advertised error bound, at every probed quantile.
    #[test]
    fn quantiles_track_the_exact_sorted_reference(
        values in prop::collection::vec(1u64..1_000_000_000, 1..400),
        q in 0.0f64..=1.0,
    ) {
        let hist = Histogram::default();
        for &v in &values {
            hist.record(v);
        }
        let mut sorted = values;
        sorted.sort_unstable();
        assert_close(&hist, &sorted, q);
        for q in QS {
            assert_close(&hist, &sorted, q);
        }
        // min/max/count are exact, not approximations.
        prop_assert_eq!(hist.min(), sorted[0]);
        prop_assert_eq!(hist.max(), *sorted.last().unwrap());
        prop_assert_eq!(hist.count(), sorted.len() as u64);
    }

    /// `a.merge(&b)` leaves `a` indistinguishable from a histogram that
    /// recorded both sample sets directly.
    #[test]
    fn merge_is_equivalent_to_recording_the_union(
        left in prop::collection::vec(1u64..1_000_000_000, 0..200),
        right in prop::collection::vec(1u64..1_000_000_000, 0..200),
    ) {
        let a = Histogram::default();
        let b = Histogram::default();
        let union = Histogram::default();
        for &v in &left {
            a.record(v);
            union.record(v);
        }
        for &v in &right {
            b.record(v);
            union.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), union.count());
        prop_assert_eq!(a.nonzero_buckets(), union.nonzero_buckets());
        prop_assert_eq!(a.summary(), union.summary());
    }

    /// Recording into a local buffer and adding it in leaves the
    /// histogram exactly as recording straight into it would, whether the
    /// histogram already held samples or not; seconds are converted the
    /// same way on both paths, and a run recorded at once equals its
    /// samples recorded one by one.
    #[test]
    fn local_buffer_merge_equals_direct_recording(
        before in prop::collection::vec(0u64..u64::MAX, 0..200),
        values in prop::collection::vec(0u64..4_000_000_000, 0..200),
        secs in prop::collection::vec(-1.0f64..30.0, 0..50),
        runs in prop::collection::vec((0u64..u64::MAX, 0u64..5), 0..20),
        secs_runs in prop::collection::vec((-1.0f64..30.0, 0u64..5), 0..20),
    ) {
        let direct = Histogram::default();
        let merged = Histogram::default();
        for &v in &before {
            direct.record(v);
            merged.record(v);
        }
        let mut local = merged.local();
        for &v in &values {
            direct.record(v);
            local.record_n(v, 1);
        }
        for &s in &secs {
            direct.record_secs(s);
            local.record_secs(s);
        }
        for &(v, n) in &runs {
            for _ in 0..n {
                direct.record(v);
            }
            local.record_n(v, n);
        }
        for &(s, n) in &secs_runs {
            for _ in 0..n {
                direct.record_secs(s);
            }
            local.record_secs_n(s, n);
        }
        merged.merge_local(&local);
        assert_same(&merged, &direct)?;

        // An empty buffer adds nothing.
        merged.merge_local(&merged.local());
        assert_same(&merged, &direct)?;
    }
}

/// The acceptance gate: a million log-uniform samples, quantiles within
/// 1% of the exact sorted reference across the whole probe set.
#[test]
fn million_sample_quantiles_stay_within_one_percent() {
    let mut rng = StdRng::seed_from_u64(0x0b5e55ed);
    let hist = Histogram::default();
    let mut values = Vec::with_capacity(1_000_000);
    for _ in 0..1_000_000u32 {
        // Log-uniform over [1 µs, 10 s) in ns: exercises many decades the
        // way latency data does.
        let exponent = rng.random_range(3.0f64..10.0);
        let v = 10f64.powf(exponent) as u64;
        hist.record(v);
        values.push(v);
    }
    values.sort_unstable();
    for q in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999] {
        assert_close(&hist, &values, q);
    }
    assert_eq!(hist.count(), 1_000_000);
    assert_eq!(hist.min(), values[0]);
    assert_eq!(hist.max(), *values.last().unwrap());
}
