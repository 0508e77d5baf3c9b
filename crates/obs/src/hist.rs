//! Log-linear HDR histogram with lock-free recording.
//!
//! The layout follows the classic HdrHistogram design: values are grouped
//! into exponent "buckets", each split into `2^k` linear sub-buckets, so
//! every recorded value lands in a slot whose width is at most
//! `value / 2^(k-1)`. With the default two significant digits
//! (`k = 8`, 256 sub-buckets) the midpoint of any slot is within
//! `1/256 ≈ 0.4%` of every value the slot can hold, which keeps
//! [`Histogram::quantile`] within the advertised ≤1% relative error of the
//! exact nearest-rank answer on the underlying samples.
//!
//! Recording is a single `fetch_add` on an `AtomicU64` slot (plus atomic
//! count/sum/min/max bookkeeping), so one histogram can be shared across
//! threads with no locks (the daemon's workers share its latency
//! histogram; the sweep records from one thread). [`Histogram::merge`]
//! adds another histogram's slots in, which is exactly equivalent to
//! having recorded the union of both sample sets.
//!
//! Hot loops with a single owner record into a [`LocalHistogram`] instead:
//! the same slot layout over plain `u64`s, with no atomic per sample. It
//! is added into a shared [`Histogram`] once, with
//! [`Histogram::merge_local`], which is bit-exact in the same way as
//! [`Histogram::merge`]. The simulator's engines and load tests record
//! this way and merge when the load test ends or the engine drops.
//!
//! Values are plain `u64`s; callers decide the unit. Throughout this
//! repository latencies are recorded in **nanoseconds** (virtual or wall),
//! via [`Histogram::record_secs`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Significant decimal digits supported; clamped by [`Histogram::new`].
pub const MIN_SIGFIGS: u8 = 1;
/// Upper bound on significant digits (5 → 2^18 sub-buckets, 16 MiB).
pub const MAX_SIGFIGS: u8 = 5;

/// The slot layout for a given resolution, shared by [`Histogram`] and
/// [`LocalHistogram`] so both map every value to the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    sigfigs: u8,
    /// `2^k` sub-buckets per exponent group.
    sub_bucket_count: u64,
    sub_bucket_half_count: u64,
    /// `k`: log2 of `sub_bucket_count`.
    sub_bucket_shift: u32,
    /// `k - 1`: log2 of `sub_bucket_half_count`.
    sub_bucket_half_shift: u32,
}

impl Layout {
    fn new(sigfigs: u8) -> Self {
        let sigfigs = sigfigs.clamp(MIN_SIGFIGS, MAX_SIGFIGS);
        // Smallest power of two with at least 2 * 10^sigfigs sub-buckets.
        let needed = 2 * 10u64.pow(u32::from(sigfigs));
        let sub_bucket_count = needed.next_power_of_two();
        let sub_bucket_shift = sub_bucket_count.trailing_zeros();
        Layout {
            sigfigs,
            sub_bucket_count,
            sub_bucket_half_count: sub_bucket_count / 2,
            sub_bucket_shift,
            sub_bucket_half_shift: sub_bucket_shift - 1,
        }
    }

    /// Number of slots needed to cover the whole `u64` range.
    fn slots(&self) -> usize {
        // Exponent groups needed so that the last group's top reaches
        // u64::MAX: group i covers values below sub_bucket_count << i.
        let bucket_count = u64::from(64 - self.sub_bucket_shift) + 1;
        ((bucket_count + 1) * self.sub_bucket_half_count) as usize
    }

    /// Slot index for `value` (always in range: the layout covers `u64`).
    fn index_for(&self, value: u64) -> usize {
        // Exponent group: position of the highest set bit beyond the
        // linear range. Values below `sub_bucket_count` map to group 0.
        let pow2 = 64 - (value | (self.sub_bucket_count - 1)).leading_zeros();
        let bucket = pow2 - self.sub_bucket_shift;
        let sub = value >> bucket; // in [half, count) for bucket > 0
        let base = (u64::from(bucket) + 1) << self.sub_bucket_half_shift;
        (base + sub - self.sub_bucket_half_count) as usize
    }

    /// Lowest value that maps to slot `index`, and the slot's width.
    fn slot_bounds(&self, index: usize) -> (u64, u64) {
        let index = index as u64;
        let mut bucket = (index >> self.sub_bucket_half_shift) as i64 - 1;
        let mut sub = (index & (self.sub_bucket_half_count - 1)) + self.sub_bucket_half_count;
        if bucket < 0 {
            bucket = 0;
            sub -= self.sub_bucket_half_count;
        }
        let lowest = sub << bucket;
        let width = 1u64 << bucket;
        (lowest, width)
    }
}

/// Seconds as integer nanoseconds; `None` for non-finite or negative
/// inputs.
fn secs_to_nanos(seconds: f64) -> Option<u64> {
    (seconds.is_finite() && seconds >= 0.0)
        .then(|| (seconds * 1e9).round().min(u64::MAX as f64) as u64)
}

/// A log-linear HDR histogram of `u64` values covering the full `u64`
/// range, with lock-free `AtomicU64` slots.
#[derive(Debug)]
pub struct Histogram {
    layout: Layout,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    /// Saturating sum of raw recorded values (for the exact mean).
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A plain-data summary of a histogram, cheap to clone and compare.
///
/// All value fields carry the same unit the samples were recorded in
/// (nanoseconds everywhere in this repository).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Exact arithmetic mean of the recorded values (0.0 when empty).
    pub mean: f64,
    /// Median (q = 0.50).
    pub p50: u64,
    /// q = 0.90.
    pub p90: u64,
    /// q = 0.95.
    pub p95: u64,
    /// q = 0.99.
    pub p99: u64,
    /// q = 0.999.
    pub p999: u64,
}

impl Histogram {
    /// A histogram with `sigfigs` significant decimal digits of value
    /// resolution (clamped to `1..=5`). Two digits give ≤1% (in fact
    /// ≤0.4%) relative quantile error in ~58 KiB.
    pub fn new(sigfigs: u8) -> Self {
        let layout = Layout::new(sigfigs);
        Histogram {
            layout,
            counts: (0..layout.slots()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The configured significant digits.
    pub fn sigfigs(&self) -> u8 {
        self.layout.sigfigs
    }

    /// An empty [`LocalHistogram`] with this histogram's layout, ready to
    /// be added in with [`Histogram::merge_local`].
    pub fn local(&self) -> LocalHistogram {
        LocalHistogram {
            layout: self.layout,
            counts: vec![0; self.layout.slots()],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Lock-free; safe to call from any thread.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[self.layout.index_for(value)].fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
        let add = value.saturating_mul(n);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(add)));
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration given in seconds as integer nanoseconds.
    /// Non-finite or negative inputs are ignored.
    pub fn record_secs(&self, seconds: f64) {
        if let Some(nanos) = secs_to_nanos(seconds) {
            self.record(nanos);
        }
    }

    /// Add every sample of `other` into `self`. Exactly equivalent to
    /// having recorded the union of both sample sets.
    ///
    /// Both histograms must have the same `sigfigs` (same layout).
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(self.layout, other.layout, "merging histograms of different resolution");
        for (slot, theirs) in self.counts.iter().zip(&other.counts) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.add_totals(
            other.total.load(Ordering::Relaxed),
            other.sum.load(Ordering::Relaxed),
            other.min.load(Ordering::Relaxed),
            other.max.load(Ordering::Relaxed),
        );
    }

    /// Add every sample of a [`LocalHistogram`] into `self`. Exactly
    /// equivalent to having recorded its samples here directly; adding an
    /// empty buffer changes nothing.
    ///
    /// The buffer must have the same `sigfigs` (same layout).
    pub fn merge_local(&self, other: &LocalHistogram) {
        assert_eq!(self.layout, other.layout, "merging histograms of different resolution");
        if other.total == 0 {
            return;
        }
        for (slot, &n) in self.counts.iter().zip(&other.counts) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.add_totals(other.total, other.sum, other.min, other.max);
    }

    /// Fold another sample set's count, (saturating) sum and extremes in.
    fn add_totals(&self, total: u64, sum: u64, min: u64, max: u64) {
        self.total.fetch_add(total, Ordering::Relaxed);
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(s.saturating_add(sum)));
        self.min.fetch_min(min, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Exact arithmetic mean of the recorded values (0.0 when empty).
    /// The internal sum saturates at `u64::MAX`.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.is_empty() {
            0
        } else {
            m
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` in `[0, 1]`, within the configured
    /// relative error of the exact nearest-rank answer (`q` is clamped).
    ///
    /// `quantile(0.0)` and `quantile(1.0)` return the exact recorded
    /// min/max. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the ceil(q*n)-th smallest sample, 1-based.
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        // The extremes are tracked exactly.
        if rank == 1 {
            return self.min();
        }
        if rank == n {
            return self.max();
        }
        let mut seen = 0u64;
        for (i, slot) in self.counts.iter().enumerate() {
            let c = slot.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let (lowest, width) = self.layout.slot_bounds(i);
                // Midpoint halves the worst-case error; clamp into the
                // observed range so q=0/q=1 are exact.
                let mid = lowest.saturating_add(width / 2);
                return mid.clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// A plain-data summary snapshot (count, min/max, mean, tail
    /// quantiles). Cheap enough to take per cell.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
        }
    }

    /// Count of samples recorded at values indistinguishable from or
    /// below `value` (i.e. in slots no higher than `value`'s slot).
    ///
    /// Used to render cumulative Prometheus buckets; off by at most the
    /// slot resolution (≤1% of `value` at two significant digits).
    pub fn count_le(&self, value: u64) -> u64 {
        let hi = self.layout.index_for(value);
        self.counts[..=hi].iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The non-empty slots as `(lowest_equivalent_value, count)` pairs in
    /// ascending value order. Exposes the exact internal state for tests
    /// and compact serialization.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                if n == 0 {
                    None
                } else {
                    Some((self.layout.slot_bounds(i).0, n))
                }
            })
            .collect()
    }
}

impl Default for Histogram {
    /// Two significant digits: ≤1% relative quantile error in ~58 KiB.
    fn default() -> Self {
        Histogram::new(2)
    }
}

/// A single-owner recording buffer with a [`Histogram`]'s slot layout:
/// plain `u64` slots and bookkeeping, so recording costs no atomic
/// operation. Record on a hot path, then add the buffer into a shared
/// histogram once with [`Histogram::merge_local`]. Made by
/// [`Histogram::local`].
#[derive(Debug)]
pub struct LocalHistogram {
    layout: Layout,
    counts: Vec<u64>,
    total: u64,
    /// Saturating sum of raw recorded values.
    sum: u64,
    min: u64,
    max: u64,
}

impl LocalHistogram {
    /// Record `n` occurrences of `value`, exactly as `n` calls of
    /// [`Histogram::record`].
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[self.layout.index_for(value)] += n;
        self.total += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a duration given in seconds as integer nanoseconds, exactly
    /// as [`Histogram::record_secs`]. Non-finite or negative inputs are
    /// ignored.
    pub fn record_secs(&mut self, seconds: f64) {
        self.record_secs_n(seconds, 1);
    }

    /// Record `n` occurrences of a duration given in seconds, exactly as
    /// `n` calls of [`LocalHistogram::record_secs`].
    pub fn record_secs_n(&mut self, seconds: f64, n: u64) {
        if let Some(nanos) = secs_to_nanos(seconds) {
            self.record_n(nanos, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    fn assert_within_1pct(got: u64, want: u64, what: &str) {
        let err = (got as f64 - want as f64).abs();
        let tol = (want as f64 * 0.01).max(1.0);
        assert!(err <= tol, "{what}: got {got}, want {want} (err {err:.1} > tol {tol:.1})");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::default();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::default();
        for v in 0..200u64 {
            h.record(v);
        }
        // Everything below sub_bucket_count lands in a width-1 slot, so
        // quantiles are exact: nearest rank ceil(0.5 * 200) = 100 → 99.
        assert_eq!(h.quantile(0.5), 99);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 199);
        assert_eq!(h.count(), 200);
        assert_eq!(h.mean(), (0..200u64).sum::<u64>() as f64 / 200.0);
    }

    #[test]
    fn quantiles_track_exact_reference_within_one_percent() {
        let h = Histogram::default();
        // Log-uniform-ish spread over nine decades.
        let mut v = 1u64;
        let mut samples = Vec::new();
        for i in 0..50_000u64 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let s = (v >> (i % 40)) % 1_000_000_000 + 1;
            samples.push(s);
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_within_1pct(h.quantile(q), exact_nearest_rank(&samples, q), &format!("q={q}"));
        }
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::default();
        let b = Histogram::default();
        let union = Histogram::default();
        for i in 0..1000u64 {
            let v = i * i * 37 + 5;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), union.count());
        assert_eq!(a.min(), union.min());
        assert_eq!(a.max(), union.max());
        assert_eq!(a.nonzero_buckets(), union.nonzero_buckets());
        assert_eq!(a.summary(), union.summary());
    }

    #[test]
    fn count_le_is_cumulative_and_monotone() {
        let h = Histogram::default();
        for v in [50_000u64, 400_000, 2_000_000] {
            h.record(v);
        }
        assert_eq!(h.count_le(100_000), 1);
        assert_eq!(h.count_le(500_000), 2);
        assert_eq!(h.count_le(u64::MAX), 3);
        assert_eq!(h.count_le(10), 0);
        // Exact boundary: a recorded value counts as ≤ itself.
        assert!(h.count_le(50_000) >= 1);
    }

    #[test]
    fn record_secs_converts_and_filters() {
        let h = Histogram::default();
        h.record_secs(0.001); // 1 ms
        h.record_secs(f64::NAN);
        h.record_secs(-1.0);
        assert_eq!(h.count(), 1);
        assert_within_1pct(h.quantile(0.5), 1_000_000, "1ms in ns");
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let h = Histogram::new(3);
        h.record(u64::MAX);
        h.record(0);
        h.record(1);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Sum saturates instead of wrapping.
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::default());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.record(t * 1_000_000 + i);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn sigfigs_controls_resolution() {
        for sf in [1u8, 2, 3] {
            let h = Histogram::new(sf);
            assert_eq!(h.sigfigs(), sf);
            h.record(123_456_789);
            let q = h.quantile(0.5) as f64;
            let tol = 123_456_789.0 * 10f64.powi(-i32::from(sf));
            assert!((q - 123_456_789.0).abs() <= tol, "sigfigs {sf}: {q}");
        }
    }
}
