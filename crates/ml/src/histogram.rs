//! Quantile feature binning for the histogram tree method (the `hist` tree
//! builder the paper tunes the bin count of, Sec. IV-B-3).

use crate::dataset::Dataset;

/// Per-feature quantile binning: values are mapped to small integer bins,
/// so split finding scans `O(bins)` histogram buckets instead of sorting
/// samples.
///
/// Every feature's bins also get a *global* slot: feature `f`'s bin `b`
/// is slot `slots(f).start + b` of [`Self::total_bins`] slots, which number
/// all features' bins side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBins {
    /// Ascending cut points per feature. Bin `b` of feature `f` holds values
    /// `v` with `cuts[f][b-1] < v <= cuts[f][b]`; values above the last cut
    /// land in the final bin.
    cuts: Vec<Vec<f64>>,
    /// `offsets[f]` is the first global slot of feature `f`;
    /// `offsets[n_features]` is the total slot count.
    offsets: Vec<u32>,
}

impl FeatureBins {
    /// Fit quantile cuts to every feature of a dataset.
    pub fn fit(ds: &Dataset, max_bins: usize) -> Self {
        assert!(max_bins >= 2, "histogram needs at least two bins");
        let n = ds.n_rows();
        let cuts = (0..ds.n_cols())
            .map(|f| {
                let mut col: Vec<f64> = (0..n).map(|i| ds.value(i, f)).collect();
                col.sort_by(|a, b| a.total_cmp(b));
                col.dedup();
                if col.len() <= max_bins {
                    // Low cardinality: cut between consecutive unique values.
                    col.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
                } else {
                    let mut cuts = Vec::with_capacity(max_bins - 1);
                    for k in 1..max_bins {
                        let idx = (k * col.len()) / max_bins;
                        let c = col[idx.min(col.len() - 1)];
                        if cuts.last().is_none_or(|&last| c > last) {
                            cuts.push(c);
                        }
                    }
                    cuts
                }
            })
            .collect::<Vec<Vec<f64>>>();
        let mut offsets = Vec::with_capacity(cuts.len() + 1);
        let mut next = 0u32;
        offsets.push(next);
        for c in &cuts {
            next += c.len() as u32 + 1;
            offsets.push(next);
        }
        Self { cuts, offsets }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.cuts.len()
    }

    /// Number of bins of a feature.
    pub fn num_bins(&self, feature: usize) -> usize {
        self.cuts[feature].len() + 1
    }

    /// Bin index of a raw value.
    #[inline]
    pub fn bin(&self, feature: usize, value: f64) -> u16 {
        self.cuts[feature].partition_point(|&c| c < value) as u16
    }

    /// The split threshold realized by "left = bins `0..=bin`": the cut
    /// point above `bin` (so `value <= threshold` ⇔ `bin(value) <= bin`).
    pub fn threshold_after(&self, feature: usize, bin: u16) -> f64 {
        self.cuts[feature][usize::from(bin)]
    }

    /// The global slots of a feature's bins, one per bin in bin order.
    pub fn slots(&self, feature: usize) -> std::ops::Range<usize> {
        self.offsets[feature] as usize..self.offsets[feature + 1] as usize
    }

    /// Number of global slots: the bins of all features together.
    pub fn total_bins(&self) -> usize {
        self.offsets.last().map_or(0, |&t| t as usize)
    }

    /// Bin every row of a dataset, row-major: cell `(i, f)` is
    /// `bin(f, value(i, f))`.
    pub fn bin_matrix(&self, ds: &Dataset) -> Vec<u16> {
        let mut out = Vec::with_capacity(ds.n_rows() * ds.n_cols());
        for i in 0..ds.n_rows() {
            for f in 0..ds.n_cols() {
                out.push(self.bin(f, ds.value(i, f)));
            }
        }
        out
    }

    /// The global slots of one row of a [`Self::bin_matrix`], in column
    /// order.
    fn row_slots<'a>(&'a self, cells: &'a [u16]) -> impl Iterator<Item = usize> + 'a {
        cells.iter().zip(&self.offsets).map(|(&b, &offset)| offset as usize + usize::from(b))
    }
}

/// The global slots of one bin matrix grouped into *classes*: two slots
/// share a class exactly when they hold the same set of rows. Slots of one
/// feature hold disjoint rows, so a class joins bins of different features,
/// such as a one-hot column and a per-LLM spec column that both single out
/// one LLM's rows. Slots with equal row sets also hold equal rows of any
/// subset, so a histogram over a node's rows needs one accumulator per
/// class instead of one per slot.
pub(crate) struct SlotClasses {
    /// Class of every global slot. Classes are numbered in order of their
    /// lowest slot.
    class_of: Vec<u32>,
    n_classes: usize,
    /// Row `i`'s distinct classes are `row_classes[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<u32>,
    row_classes: Vec<u32>,
}

impl SlotClasses {
    /// Group the slots of `bins` by their rows in `binned`, a
    /// [`FeatureBins::bin_matrix`] of `bins`. Takes a few passes over
    /// `binned` and memory in proportion to the slot count besides the
    /// row lists, so a fit holds no second matrix-sized buffer.
    pub(crate) fn new(bins: &FeatureBins, binned: &[u16]) -> Self {
        let rows = || binned.chunks_exact(bins.n_features()).map(|cells| bins.row_slots(cells));
        // Slots with equal row sets have equal keys: the row count and an
        // order-free sum of mixed row ids.
        let mut keys = vec![(0u32, 0u64); bins.total_bins()];
        for (i, slots) in rows().enumerate() {
            let mixed = mix(i as u64);
            for slot in slots {
                let (count, sum) = &mut keys[slot];
                *count += 1;
                *sum = sum.wrapping_add(mixed);
            }
        }
        let class_of = split_inexact(first_seen_ids(keys.iter()), rows());
        let n_classes = class_of.iter().max().map_or(0, |&c| c as usize + 1);

        // Each row's classes, once each, in column order. A class's rows
        // list it once each, so the lists hold the classes' row counts.
        let mut class_rows = vec![0; n_classes];
        for (&class, &(count, _)) in class_of.iter().zip(&keys) {
            class_rows[class as usize] = count as usize;
        }
        let entries = class_rows.iter().sum();
        let mut row_start = Vec::with_capacity(binned.len() / bins.n_features() + 1);
        let mut row_classes = Vec::with_capacity(entries);
        let mut seen_in_row = vec![u32::MAX; n_classes];
        row_start.push(0);
        for (i, slots) in rows().enumerate() {
            for slot in slots {
                let class = class_of[slot];
                if seen_in_row[class as usize] != i as u32 {
                    seen_in_row[class as usize] = i as u32;
                    row_classes.push(class);
                }
            }
            row_start.push(row_classes.len() as u32);
        }
        Self { class_of, n_classes, row_start, row_classes }
    }

    /// Number of classes.
    pub(crate) fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The class of each slot in `slots`.
    pub(crate) fn classes_of(&self, slots: std::ops::Range<usize>) -> &[u32] {
        &self.class_of[slots]
    }

    /// The distinct classes of row `row`'s cells.
    #[inline]
    pub(crate) fn row(&self, row: usize) -> &[u32] {
        &self.row_classes[self.row_start[row] as usize..self.row_start[row + 1] as usize]
    }
}

/// Dense ids for `keys`, numbered in order of first appearance.
fn first_seen_ids<K: std::hash::Hash + Eq>(keys: impl Iterator<Item = K>) -> Vec<u32> {
    let mut ids = std::collections::HashMap::new();
    keys.map(|key| {
        let fresh = ids.len() as u32;
        *ids.entry(key).or_insert(fresh)
    })
    .collect()
}

/// Check guessed classes against the rows, each given as its slots, and
/// split the wrong ones. A class is exact when every row holds all of its
/// slots or none; a row holds one slot per feature, so counting the
/// class's slots in the row decides this. A class that fails on some row
/// becomes one class per slot, and ids are renumbered in order of lowest
/// slot.
fn split_inexact<'a>(
    class_of: Vec<u32>,
    rows: impl Iterator<Item = impl Iterator<Item = usize> + 'a>,
) -> Vec<u32> {
    let n_classes = class_of.iter().max().map_or(0, |&c| c as usize + 1);
    let mut size = vec![0u32; n_classes];
    for &class in &class_of {
        size[class as usize] += 1;
    }
    let mut exact = vec![true; n_classes];
    let mut held = vec![0u32; n_classes];
    let mut touched = Vec::new();
    for slots in rows {
        for slot in slots {
            let class = class_of[slot] as usize;
            if held[class] == 0 {
                touched.push(class);
            }
            held[class] += 1;
        }
        for class in touched.drain(..) {
            exact[class] &= held[class] == size[class];
            held[class] = 0;
        }
    }
    if exact.iter().all(|&e| e) {
        return class_of;
    }
    first_seen_ids(
        class_of
            .iter()
            .enumerate()
            .map(|(slot, &class)| (class, if exact[class as usize] { usize::MAX } else { slot })),
    )
}

/// SplitMix64's output function: a bijective scramble of a row id.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds() -> Dataset {
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![f64::from(i), f64::from(i % 3)]).collect();
        let targets = vec![0.0; 1000];
        Dataset::from_rows(&rows, targets).unwrap()
    }

    #[test]
    fn bin_counts_respect_max() {
        let bins = FeatureBins::fit(&ds(), 16);
        assert_eq!(bins.num_bins(0), 16);
        assert_eq!(bins.num_bins(1), 3); // cardinality 3
    }

    #[test]
    fn binning_is_monotone() {
        let bins = FeatureBins::fit(&ds(), 16);
        let mut last = 0;
        for v in 0..1000 {
            let b = bins.bin(0, f64::from(v));
            assert!(b >= last);
            last = b;
        }
    }

    #[test]
    fn threshold_separates_bins() {
        let bins = FeatureBins::fit(&ds(), 16);
        for b in 0..(bins.num_bins(0) - 1) as u16 {
            let t = bins.threshold_after(0, b);
            // Everything at or below t must bin <= b; above t must bin > b.
            assert!(bins.bin(0, t) <= b, "bin({t}) > {b}");
            assert!(bins.bin(0, t + 1e-9) > b);
        }
    }

    #[test]
    fn bin_matrix_shape() {
        let d = ds();
        let bins = FeatureBins::fit(&d, 8);
        let m = bins.bin_matrix(&d);
        assert_eq!(m.len(), d.n_rows() * d.n_cols());
        assert_eq!(bins.total_bins(), bins.num_bins(0) + bins.num_bins(1));
        // Each row's slots are its features' offsets plus the values' own
        // bins, so every feature stays inside its slot range.
        for (i, cells) in m.chunks_exact(d.n_cols()).enumerate() {
            for (f, slot) in bins.row_slots(cells).enumerate() {
                assert!(bins.slots(f).contains(&slot));
                assert_eq!(slot - bins.slots(f).start, usize::from(bins.bin(f, d.value(i, f))));
            }
        }
    }

    #[test]
    fn slots_with_equal_row_sets_share_a_class() {
        // Two LLMs × two user counts. The one-hot column and the spec
        // column single out the same rows in opposite bin order; users and
        // the constant column hold row sets of their own.
        let rows = vec![
            vec![1.0, 7.0, 1.0, 5.0],
            vec![1.0, 7.0, 2.0, 5.0],
            vec![0.0, 13.0, 1.0, 5.0],
            vec![0.0, 13.0, 2.0, 5.0],
        ];
        let d = Dataset::from_rows(&rows, vec![0.0; 4]).unwrap();
        let bins = FeatureBins::fit(&d, 8);
        let classes = SlotClasses::new(&bins, &bins.bin_matrix(&d));
        // Slots: one-hot {2,3} {0,1} | spec {0,1} {2,3} | users {0,2} {1,3} | constant {0,1,2,3}.
        assert_eq!(bins.total_bins(), 7);
        assert_eq!(classes.n_classes(), 5);
        assert_eq!(classes.classes_of(bins.slots(0)), [0, 1]);
        assert_eq!(classes.classes_of(bins.slots(1)), [1, 0]);
        assert_eq!(classes.classes_of(bins.slots(2)), [2, 3]);
        assert_eq!(classes.classes_of(bins.slots(3)), [4]);
        // Each row lists a shared class once, in column order.
        assert_eq!(classes.row(0), [1, 2, 4]);
        assert_eq!(classes.row(1), [1, 3, 4]);
        assert_eq!(classes.row(2), [0, 2, 4]);
        assert_eq!(classes.row(3), [0, 3, 4]);
    }

    #[test]
    fn guessed_classes_that_rows_split_fall_apart() {
        // Three features of two bins over four rows: slots 0..2, 2..4, 4..6.
        let rows: [[usize; 3]; 4] = [[0, 2, 4], [0, 2, 5], [1, 3, 5], [1, 3, 4]];
        let rows = || rows.iter().map(|r| r.iter().copied());
        // Slots 0 and 2 hold rows {0, 1}: a right guess stays.
        assert_eq!(split_inexact(vec![0, 1, 0, 1, 2, 3], rows()), [0, 1, 0, 1, 2, 3]);
        // Slots 0 and 4 ({0, 1} and {0, 3}) do not match; slots 1 and 3
        // do and keep their class under its new id.
        assert_eq!(split_inexact(vec![0, 1, 2, 1, 0, 3], rows()), [0, 1, 2, 1, 3, 4]);
        // Two slots of one feature never share rows.
        assert_eq!(split_inexact(vec![0, 0, 1, 1, 2, 2], rows()), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn out_of_range_values_clamp_to_edge_bins() {
        let bins = FeatureBins::fit(&ds(), 16);
        assert_eq!(bins.bin(0, -1e9), 0);
        assert_eq!(usize::from(bins.bin(0, 1e9)), bins.num_bins(0) - 1);
    }
}
