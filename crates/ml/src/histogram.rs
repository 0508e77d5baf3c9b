//! Quantile feature binning for the histogram tree method (the `hist` tree
//! builder the paper tunes the bin count of, Sec. IV-B-3).

use crate::dataset::Dataset;

/// Per-feature quantile binning: values are mapped to small integer bins,
/// so split finding scans `O(bins)` histogram buckets instead of sorting
/// samples.
///
/// Every feature's bins also get a *global* slot: feature `f`'s bin `b`
/// is slot `slots(f).start + b` of one flat histogram of
/// [`Self::total_bins`] slots, which holds all features' bins side by side.
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

    /// Bin every row of a dataset, row-major, as global slots: cell
    /// `(i, f)` is `slots(f).start + bin(f, value(i, f))`.
    pub fn bin_matrix(&self, ds: &Dataset) -> Vec<u32> {
        let mut out = Vec::with_capacity(ds.n_rows() * ds.n_cols());
        for i in 0..ds.n_rows() {
            for f in 0..ds.n_cols() {
                out.push(self.offsets[f] + u32::from(self.bin(f, ds.value(i, f))));
            }
        }
        out
    }
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
        // Each cell is its feature's offset plus the value's own bin, so
        // every feature stays inside its slot range.
        for i in 0..d.n_rows() {
            for f in 0..d.n_cols() {
                let slot = m[i * d.n_cols() + f] as usize;
                assert!(bins.slots(f).contains(&slot));
                assert_eq!(slot - bins.slots(f).start, usize::from(bins.bin(f, d.value(i, f))));
            }
        }
    }

    #[test]
    fn out_of_range_values_clamp_to_edge_bins() {
        let bins = FeatureBins::fit(&ds(), 16);
        assert_eq!(bins.bin(0, -1e9), 0);
        assert_eq!(usize::from(bins.bin(0, 1e9)), bins.num_bins(0) - 1);
    }
}
