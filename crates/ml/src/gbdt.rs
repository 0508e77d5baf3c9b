//! Gradient-boosted regression trees with the histogram tree method,
//! per-sample weights and per-feature monotonicity constraints — the
//! from-scratch stand-in for the XGBoost regressor inside LLM-Pilot's GPU
//! recommendation tool (Sec. IV-B-2).
//!
//! Squared-error boosting: each round fits a histogram tree to the current
//! residuals with gradient statistics `g = w·(pred − y)`, `h = w`, leaf
//! values `−G/(H+λ)`, shrunk by the learning rate. Monotone constraints use
//! XGBoost's mechanism: a split on a constrained feature is *rejected* when
//! the children's values would violate the required order, and children
//! inherit value bounds (`[lower, mid]` / `[mid, upper]`) so deeper splits
//! cannot re-introduce a violation.

use llmpilot_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::histogram::{FeatureBins, SlotClasses};

/// Hyperparameters of the GBDT (the set the paper tunes in Sec. IV-B-3:
/// number of boosted trees, maximum depth, learning rate, row subsampling
/// rate, tree method and histogram bin count).
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Row subsampling rate per tree, in `(0, 1]`.
    pub subsample: f64,
    /// Minimum hessian (total sample weight) per child; finite and `>= 0`.
    pub min_child_weight: f64,
    /// L2 regularization on leaf values; finite and `> 0`.
    pub lambda: f64,
    /// Histogram bin budget per feature.
    pub max_bins: usize,
    /// Per-feature monotone constraints: `+1` increasing, `-1` decreasing,
    /// `0` unconstrained. Empty = no constraints.
    pub monotone_constraints: Vec<i8>,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        Self {
            n_trees: 200,
            max_depth: 6,
            learning_rate: 0.1,
            subsample: 1.0,
            min_child_weight: 1.0,
            lambda: 1.0,
            max_bins: 64,
            monotone_constraints: Vec::new(),
            seed: 4,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { value: f64 },
    Split { feature: u32, threshold: f64, left: u32, right: u32 },
}

#[derive(Debug, Clone)]
struct HistTree {
    nodes: Vec<Node>,
}

impl HistTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }
}

/// Gradient/hessian sums.
#[derive(Debug, Clone, Copy, Default)]
struct GradPair {
    g: f64,
    h: f64,
}

impl GradPair {
    fn add(&mut self, g: f64, h: f64) {
        self.g += g;
        self.h += h;
    }

    fn value(&self, lambda: f64) -> f64 {
        -self.g / (self.h + lambda)
    }

    fn score(&self, lambda: f64) -> f64 {
        self.g * self.g / (self.h + lambda)
    }
}

/// A fitted gradient-boosted tree ensemble.
#[derive(Debug, Clone)]
pub struct Gbdt {
    base_score: f64,
    trees: Vec<HistTree>,
    learning_rate: f64,
    importance: Vec<f64>,
}

/// Builds one tree over the rows of a boosting round.
///
/// A node's rows are a contiguous range of one row buffer; a split
/// partitions the range in place, stably, so each child sees its rows in
/// the parent's order. Split search fills one accumulator per slot class
/// ([`SlotClasses`]) in a single pass over the node's rows, adding each
/// row once per distinct class of its cells, and reads bin `b` of feature
/// `f` from its slot's class. Slots of one class hold the same dataset
/// rows, so they hold the same node rows too; the class accumulator
/// receives exactly those rows in node order, which is what a per-feature
/// histogram bin receives. Every sum — and so every split, leaf value and
/// prediction — is bit-identical to a per-feature fill.
struct TreeBuilder<'a> {
    bins: &'a FeatureBins,
    /// Row-major bins ([`FeatureBins::bin_matrix`]).
    binned: &'a [u16],
    classes: &'a SlotClasses,
    n_cols: usize,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a GbdtParams,
    nodes: Vec<Node>,
    /// Per-feature accumulated split gain (XGBoost's `gain` importance).
    gain: &'a mut [f64],
    /// One accumulator per slot class, refilled for every split search.
    acc: &'a mut [GradPair],
    /// Holds a partition's right-hand rows until they are copied back.
    spill: &'a mut Vec<u32>,
    /// Boosted predictions: each leaf adds its shrunk value to its rows.
    pred: &'a mut [f64],
    recorder: &'a Recorder,
}

impl TreeBuilder<'_> {
    /// Build a node over `rows`; `bound` is the admissible value interval
    /// inherited from monotone splits above.
    fn build(&mut self, rows: &mut [u32], depth: usize, bound: (f64, f64)) -> u32 {
        let mut total = GradPair::default();
        for &r in rows.iter() {
            total.add(self.grad[r as usize], self.hess[r as usize]);
        }
        let clamp = |v: f64| v.clamp(bound.0, bound.1);

        if depth >= self.params.max_depth || total.h < 2.0 * self.params.min_child_weight {
            return self.leaf(rows, clamp(total.value(self.params.lambda)));
        }

        let split = {
            let _search_span = self.recorder.span("gbdt.split_search").arg("rows", rows.len());
            self.best_split(rows, &total, bound)
        };
        let Some(split) = split else {
            return self.leaf(rows, clamp(total.value(self.params.lambda)));
        };
        let (feature, bin, left_value, right_value, gain) = split;
        self.gain[feature] += gain;
        let threshold = self.bins.threshold_after(feature, bin);

        // Child bounds under a monotone constraint (XGBoost's mid-point
        // propagation).
        let constraint = self.params.monotone_constraints.get(feature).copied().unwrap_or(0);
        let (left_bound, right_bound) = match constraint {
            0 => (bound, bound),
            _ => {
                let mid = 0.5 * (left_value + right_value);
                if constraint > 0 {
                    ((bound.0, mid.min(bound.1)), (mid.max(bound.0), bound.1))
                } else {
                    ((mid.max(bound.0), bound.1), (bound.0, mid.min(bound.1)))
                }
            }
        };

        let node_id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf { value: 0.0 }); // placeholder
        let n_left = self.partition(rows, feature, bin);
        let (left_rows, right_rows) = rows.split_at_mut(n_left);
        let left = self.build(left_rows, depth + 1, left_bound);
        let right = self.build(right_rows, depth + 1, right_bound);
        self.nodes[node_id as usize] =
            Node::Split { feature: feature as u32, threshold, left, right };
        node_id
    }

    /// Close a node as a leaf and add its shrunk value to its rows'
    /// predictions. The binned test `bin(v) <= b` equals the raw test
    /// `v <= cuts[b]` for every finite `v`, so these rows are exactly the
    /// rows [`HistTree::predict_row`] routes to this leaf.
    fn leaf(&mut self, rows: &[u32], value: f64) -> u32 {
        let _leaf_span = self.recorder.span("gbdt.leaf_fit");
        for &r in rows {
            self.pred[r as usize] += self.params.learning_rate * value;
        }
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() as u32 - 1
    }

    /// Stable in-place partition of `rows` into `bin(feature) <= bin`
    /// first, the rest after; returns the size of the left part.
    fn partition(&mut self, rows: &mut [u32], feature: usize, bin: u16) -> usize {
        self.spill.clear();
        let mut n_left = 0;
        for i in 0..rows.len() {
            let r = rows[i];
            if self.binned[r as usize * self.n_cols + feature] <= bin {
                rows[n_left] = r;
                n_left += 1;
            } else {
                self.spill.push(r);
            }
        }
        rows[n_left..].copy_from_slice(self.spill);
        n_left
    }

    /// Best `(feature, bin, left_value, right_value, gain)` by gain,
    /// honoring monotone constraints; `None` when nothing beats the parent.
    fn best_split(
        &mut self,
        rows: &[u32],
        total: &GradPair,
        bound: (f64, f64),
    ) -> Option<(usize, u16, f64, f64, f64)> {
        // One pass over the rows fills every class: consecutive adds go to
        // different classes, so they do not wait on each other even when
        // consecutive rows share a bin.
        self.acc.fill(GradPair::default());
        for &r in rows {
            let (g, h) = (self.grad[r as usize], self.hess[r as usize]);
            for &c in self.classes.row(r as usize) {
                self.acc[c as usize].add(g, h);
            }
        }

        let lambda = self.params.lambda;
        let parent_score = total.score(lambda);
        let mut best_gain = 1e-9;
        let mut best = None;

        for f in 0..self.n_cols {
            let classes = self.classes.classes_of(self.bins.slots(f));
            let nbins = classes.len();
            let constraint = self.params.monotone_constraints.get(f).copied().unwrap_or(0);

            let mut left = GradPair::default();
            for (b, &c) in classes.iter().take(nbins - 1).enumerate() {
                let pair = self.acc[c as usize];
                left.add(pair.g, pair.h);
                let right = GradPair { g: total.g - left.g, h: total.h - left.h };
                if left.h < self.params.min_child_weight || right.h < self.params.min_child_weight {
                    continue;
                }
                let gain = left.score(lambda) + right.score(lambda) - parent_score;
                if gain <= best_gain {
                    continue;
                }
                // Candidate child values, clamped to this node's bounds —
                // the values monotonicity is judged on.
                let lv = left.value(lambda).clamp(bound.0, bound.1);
                let rv = right.value(lambda).clamp(bound.0, bound.1);
                if (constraint > 0 && lv > rv) || (constraint < 0 && lv < rv) {
                    continue; // split would violate monotonicity: reject
                }
                best_gain = gain;
                best = Some((f, b as u16, lv, rv, gain));
            }
        }
        best
    }
}

impl Gbdt {
    /// Fit the ensemble to a (possibly weighted) dataset. The whole fit
    /// runs under a `gbdt.fit` span on `recorder`, with `gbdt.histogram`
    /// around the bin construction, one `gbdt.tree` span per boosting round,
    /// and `gbdt.split_search` / `gbdt.leaf_fit` spans per node. Tracing
    /// never changes the fitted model: the recorder touches no RNG state.
    pub fn fit(ds: &Dataset, params: &GbdtParams, recorder: &Recorder) -> Result<Self, MlError> {
        let mut fit_span = recorder
            .span("gbdt.fit")
            .arg("rows", ds.n_rows())
            .arg("cols", ds.n_cols())
            .arg("n_trees", params.n_trees);
        if ds.n_rows() == 0 {
            return Err(MlError::Shape("cannot fit GBDT to zero rows".into()));
        }
        if params.n_trees == 0 {
            return Err(MlError::InvalidConfig("n_trees must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&params.subsample) || params.subsample == 0.0 {
            return Err(MlError::InvalidConfig("subsample must be in (0, 1]".into()));
        }
        if !params.monotone_constraints.is_empty()
            && params.monotone_constraints.len() != ds.n_cols()
        {
            return Err(MlError::InvalidConfig(format!(
                "{} monotone constraints for {} features",
                params.monotone_constraints.len(),
                ds.n_cols()
            )));
        }
        // A positive `lambda` keeps every `g² / (h + lambda)` split score
        // finite: zero-weight rows give nodes with zero hessian.
        if !(params.lambda.is_finite() && params.lambda > 0.0) {
            return Err(MlError::InvalidConfig("lambda must be finite and > 0".into()));
        }
        if !(params.min_child_weight.is_finite() && params.min_child_weight >= 0.0) {
            return Err(MlError::InvalidConfig("min_child_weight must be finite and >= 0".into()));
        }

        let (bins, binned, classes) = {
            let _hist_span = recorder.span("gbdt.histogram").arg("max_bins", params.max_bins);
            let bins = FeatureBins::fit(ds, params.max_bins);
            let binned = bins.bin_matrix(ds);
            let classes = SlotClasses::new(&bins, &binned);
            (bins, binned, classes)
        };
        let n = ds.n_rows();
        let weights = ds.weights_vec();

        // Weighted-mean base score.
        let wsum: f64 = weights.iter().sum();
        let base_score = if wsum > 0.0 {
            ds.targets().iter().zip(&weights).map(|(y, w)| y * w).sum::<f64>() / wsum
        } else {
            0.0
        };

        let mut pred = vec![base_score; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut gain = vec![0.0f64; ds.n_cols()];
        let mut acc = vec![GradPair::default(); classes.n_classes()];
        let mut spill = Vec::with_capacity(n);
        // This round's tree rows, and the rows subsampling leaves out.
        let mut rows: Vec<u32> = Vec::with_capacity(n);
        let mut left_out: Vec<u32> = Vec::new();

        for round in 0..params.n_trees {
            let _tree_span = recorder.span("gbdt.tree").arg("round", round);
            for i in 0..n {
                // Squared loss: g = w (pred − y), h = w.
                grad[i] = weights[i] * (pred[i] - ds.targets()[i]);
                hess[i] = weights[i];
            }

            rows.clear();
            left_out.clear();
            for i in 0..n as u32 {
                // The RNG is drawn once per row, and only when subsampling.
                if params.subsample >= 1.0 || rng.random::<f64>() < params.subsample {
                    rows.push(i);
                } else {
                    left_out.push(i);
                }
            }
            if rows.is_empty() {
                continue;
            }

            // Building the tree also adds its leaf values to the
            // predictions of its own rows.
            let mut builder = TreeBuilder {
                bins: &bins,
                binned: &binned,
                classes: &classes,
                n_cols: ds.n_cols(),
                grad: &grad,
                hess: &hess,
                params,
                nodes: Vec::new(),
                gain: &mut gain,
                acc: &mut acc,
                spill: &mut spill,
                pred: &mut pred,
                recorder,
            };
            builder.build(&mut rows, 0, (f64::NEG_INFINITY, f64::INFINITY));
            let tree = HistTree { nodes: builder.nodes };
            for &i in &left_out {
                pred[i as usize] += params.learning_rate * tree.predict_row(ds.row(i as usize));
            }
            trees.push(tree);
        }

        // Normalize the gain importances.
        let total: f64 = gain.iter().sum();
        if total > 0.0 {
            for v in &mut gain {
                *v /= total;
            }
        }
        fit_span.set_arg("trees_fitted", trees.len());
        recorder.counter_add("gbdt.trees_fitted", trees.len() as u64);
        Ok(Self { base_score, trees, learning_rate: params.learning_rate, importance: gain })
    }

    /// Normalized gain-based feature importances (sum to 1 when any split
    /// was made) — XGBoost's `gain` importance type.
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Predict one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.base_score
            + self.learning_rate * self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>()
    }

    /// Predict every row of a dataset.
    pub fn predict(&self, ds: &Dataset) -> Vec<f64> {
        (0..ds.n_rows()).map(|i| self.predict_row(ds.row(i))).collect()
    }

    /// Number of boosted trees actually fitted.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};

    pub(super) fn make_data(n: usize, seed: u64) -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.random::<f64>() * 4.0, rng.random::<f64>() * 4.0]).collect();
        let targets: Vec<f64> =
            rows.iter().map(|r| (r[0] * 1.3).sin() * 2.0 + r[1] * r[1] * 0.4 + 1.0).collect();
        (Dataset::from_rows(&rows, targets.clone()).unwrap(), targets)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (ds, targets) = make_data(1500, 1);
        let model = Gbdt::fit(&ds, &GbdtParams::default(), &Recorder::disabled()).unwrap();
        let pred = model.predict(&ds);
        assert!(r2(&targets, &pred) > 0.98, "r2 = {}", r2(&targets, &pred));
    }

    #[test]
    fn generalizes_out_of_sample() {
        let (train, _) = make_data(2000, 2);
        let (test, test_y) = make_data(500, 3);
        let model = Gbdt::fit(&train, &GbdtParams::default(), &Recorder::disabled()).unwrap();
        let pred = model.predict(&test);
        assert!(r2(&test_y, &pred) > 0.9, "r2 = {}", r2(&test_y, &pred));
    }

    #[test]
    fn more_trees_reduce_training_error() {
        let (ds, targets) = make_data(800, 4);
        let few = Gbdt::fit(
            &ds,
            &GbdtParams { n_trees: 5, ..GbdtParams::default() },
            &Recorder::disabled(),
        )
        .unwrap();
        let many = Gbdt::fit(
            &ds,
            &GbdtParams { n_trees: 150, ..GbdtParams::default() },
            &Recorder::disabled(),
        )
        .unwrap();
        assert!(rmse(&targets, &many.predict(&ds)) < rmse(&targets, &few.predict(&ds)));
    }

    #[test]
    fn monotone_increasing_constraint_is_enforced() {
        // Noisy but increasing ground truth; the constrained model must be
        // globally non-decreasing along the constrained feature.
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Vec<f64>> = (0..1200).map(|i| vec![f64::from(i) / 100.0]).collect();
        let targets: Vec<f64> =
            rows.iter().map(|r| r[0] * 2.0 + 3.0 * (rng.random::<f64>() - 0.5)).collect();
        let ds = Dataset::from_rows(&rows, targets).unwrap();
        let params =
            GbdtParams { monotone_constraints: vec![1], n_trees: 120, ..GbdtParams::default() };
        let model = Gbdt::fit(&ds, &params, &Recorder::disabled()).unwrap();
        let mut last = f64::NEG_INFINITY;
        for i in 0..=1200 {
            let p = model.predict_row(&[f64::from(i) / 100.0]);
            assert!(
                p >= last - 1e-9,
                "prediction decreased at x={}: {p} < {last}",
                f64::from(i) / 100.0
            );
            last = p;
        }
    }

    #[test]
    fn monotone_decreasing_constraint_is_enforced() {
        let mut rng = StdRng::seed_from_u64(6);
        let rows: Vec<Vec<f64>> = (0..800).map(|i| vec![f64::from(i) / 80.0]).collect();
        let targets: Vec<f64> =
            rows.iter().map(|r| -r[0] * 1.5 + 2.0 * (rng.random::<f64>() - 0.5)).collect();
        let ds = Dataset::from_rows(&rows, targets).unwrap();
        let params =
            GbdtParams { monotone_constraints: vec![-1], n_trees: 80, ..GbdtParams::default() };
        let model = Gbdt::fit(&ds, &params, &Recorder::disabled()).unwrap();
        let mut last = f64::INFINITY;
        for i in 0..=800 {
            let p = model.predict_row(&[f64::from(i) / 80.0]);
            assert!(p <= last + 1e-9);
            last = p;
        }
    }

    #[test]
    fn unconstrained_features_remain_free_under_mixed_constraints() {
        // Feature 0 constrained +1, feature 1 free with a non-monotone
        // effect the model must still capture.
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<Vec<f64>> =
            (0..1500).map(|_| vec![rng.random::<f64>() * 5.0, rng.random::<f64>() * 5.0]).collect();
        let targets: Vec<f64> = rows.iter().map(|r| r[0] + (r[1] * 2.0).sin() * 2.0).collect();
        let ds = Dataset::from_rows(&rows, targets.clone()).unwrap();
        let params = GbdtParams { monotone_constraints: vec![1, 0], ..GbdtParams::default() };
        let model = Gbdt::fit(&ds, &params, &Recorder::disabled()).unwrap();
        assert!(r2(&targets, &model.predict(&ds)) > 0.9);
        // Monotone in feature 0 for a fixed feature 1.
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let p = model.predict_row(&[f64::from(i) / 20.0, 2.5]);
            assert!(p >= last - 1e-9);
            last = p;
        }
    }

    #[test]
    fn sample_weights_prioritize_heavy_samples() {
        // Two clusters with conflicting targets at the same x; the heavily
        // weighted cluster must dominate the prediction.
        let rows: Vec<Vec<f64>> = (0..200).map(|_| vec![1.0]).collect();
        let targets: Vec<f64> = (0..200).map(|i| if i < 100 { 0.0 } else { 10.0 }).collect();
        let weights: Vec<f64> = (0..200).map(|i| if i < 100 { 10.0 } else { 0.1 }).collect();
        let ds = Dataset::from_rows(&rows, targets).unwrap().with_weights(weights).unwrap();
        let model = Gbdt::fit(&ds, &GbdtParams::default(), &Recorder::disabled()).unwrap();
        let p = model.predict_row(&[1.0]);
        assert!(p < 1.0, "weighted prediction {p} should be pulled to 0");
    }

    #[test]
    fn subsampling_still_fits() {
        let (ds, targets) = make_data(1000, 8);
        let params = GbdtParams { subsample: 0.7, ..GbdtParams::default() };
        let model = Gbdt::fit(&ds, &params, &Recorder::disabled()).unwrap();
        assert!(r2(&targets, &model.predict(&ds)) > 0.9);
    }

    #[test]
    fn invalid_configs_rejected() {
        let (ds, _) = make_data(50, 9);
        let d = GbdtParams::default;
        let mut invalid = vec![
            GbdtParams { n_trees: 0, ..d() },
            GbdtParams { subsample: 0.0, ..d() },
            GbdtParams { subsample: 1.5, ..d() },
            GbdtParams { monotone_constraints: vec![1], ..d() },
        ];
        invalid.extend(
            [0.0, -1.0, f64::NAN, f64::INFINITY].map(|lambda| GbdtParams { lambda, ..d() }),
        );
        invalid.extend(
            [-0.5, f64::NAN, f64::INFINITY]
                .map(|min_child_weight| GbdtParams { min_child_weight, ..d() }),
        );
        for params in &invalid {
            assert!(Gbdt::fit(&ds, params, &Recorder::disabled()).is_err(), "{params:?}");
        }
    }

    #[test]
    fn zero_hessian_nodes_need_a_positive_lambda() {
        // 36 rows, one column, two thirds weightless: with `lambda 0`
        // a node of weightless rows scores `0/0`, and the NaN split would win.
        let rows: Vec<Vec<f64>> = (0..36).map(|i| vec![f64::from(i)]).collect();
        let targets: Vec<f64> = (0..36).map(|i| f64::from(i % 5)).collect();
        let weights: Vec<f64> = (0..36).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        let ds = Dataset::from_rows(&rows, targets).unwrap().with_weights(weights).unwrap();
        let unregularized =
            GbdtParams { lambda: 0.0, min_child_weight: 0.0, ..GbdtParams::default() };
        assert!(matches!(
            Gbdt::fit(&ds, &unregularized, &Recorder::disabled()),
            Err(MlError::InvalidConfig(_))
        ));
        let params = GbdtParams { min_child_weight: 0.0, ..GbdtParams::default() };
        let model = Gbdt::fit(&ds, &params, &Recorder::disabled()).unwrap();
        assert!(model.feature_importance().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (ds, _) = make_data(300, 10);
        let p = GbdtParams { subsample: 0.8, ..GbdtParams::default() };
        let a = Gbdt::fit(&ds, &p, &Recorder::disabled()).unwrap();
        let b = Gbdt::fit(&ds, &p, &Recorder::disabled()).unwrap();
        assert_eq!(a.predict_row(ds.row(0)), b.predict_row(ds.row(0)));
    }

    #[test]
    fn constant_target_predicts_constant() {
        let ds = Dataset::from_rows(&[vec![1.0], vec![2.0], vec![3.0]], vec![7.0; 3]).unwrap();
        let model = Gbdt::fit(&ds, &GbdtParams::default(), &Recorder::disabled()).unwrap();
        assert!((model.predict_row(&[2.0]) - 7.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod extension_tests {
    use super::tests::make_data;
    use super::*;

    #[test]
    fn gain_importance_is_normalized_and_ranks_signal() {
        // Feature 1 is pure noise; feature 0 carries the whole signal.
        let mut rng = StdRng::seed_from_u64(20);
        let rows: Vec<Vec<f64>> = (0..800)
            .map(|_| vec![rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0])
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| r[0] * 3.0).collect();
        let ds = Dataset::from_rows(&rows, targets).unwrap();
        let model = Gbdt::fit(&ds, &GbdtParams::default(), &Recorder::disabled()).unwrap();
        let imp = model.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.95, "importance = {imp:?}");
    }

    #[test]
    fn traced_fit_matches_untraced_and_records_phases() {
        let (ds, _) = make_data(400, 30);
        let params = GbdtParams { n_trees: 12, subsample: 0.8, ..GbdtParams::default() };
        let untraced = Gbdt::fit(&ds, &params, &Recorder::disabled()).unwrap();
        let recorder = Recorder::enabled();
        let traced = Gbdt::fit(&ds, &params, &recorder).unwrap();
        for i in 0..ds.n_rows() {
            assert_eq!(untraced.predict_row(ds.row(i)), traced.predict_row(ds.row(i)));
        }

        let trace = recorder.snapshot();
        let count = |name: &str| trace.events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("gbdt.fit"), 1);
        assert_eq!(count("gbdt.histogram"), 1);
        assert_eq!(count("gbdt.tree"), 12);
        assert!(count("gbdt.split_search") >= 12, "at least one split search per tree");
        assert!(count("gbdt.leaf_fit") >= 12);
        // Trees nest under the fit span; node phases nest under their tree.
        let fit_id = trace.events.iter().find(|e| e.name == "gbdt.fit").unwrap().id;
        for e in trace.events.iter().filter(|e| e.name == "gbdt.tree") {
            assert_eq!(e.parent, Some(fit_id));
        }
        let tree_ids: std::collections::HashSet<u64> =
            trace.events.iter().filter(|e| e.name == "gbdt.tree").map(|e| e.id).collect();
        for e in trace.events.iter().filter(|e| e.name == "gbdt.split_search") {
            assert!(tree_ids.contains(&e.parent.unwrap()));
        }
        let fitted = trace.counters.iter().find(|(k, _)| k == "gbdt.trees_fitted").unwrap().1;
        assert_eq!(fitted, 12);
    }
}

/// The tree builder as it was before the one-pass histogram fill: one
/// freshly allocated histogram per feature per node, a `Vec` per child
/// and `predict_row` over every row after each round. Kept as the oracle
/// the fit must match bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    struct TreeBuilder<'a> {
        bins: &'a FeatureBins,
        binned: &'a [u16],
        n_cols: usize,
        grad: &'a [f64],
        hess: &'a [f64],
        params: &'a GbdtParams,
        nodes: Vec<Node>,
        gain: &'a mut [f64],
    }

    impl TreeBuilder<'_> {
        fn build(&mut self, rows: Vec<u32>, depth: usize, bound: (f64, f64)) -> u32 {
            let mut total = GradPair::default();
            for &r in &rows {
                total.add(self.grad[r as usize], self.hess[r as usize]);
            }
            let clamp = |v: f64| v.clamp(bound.0, bound.1);
            let node_id = self.nodes.len() as u32;

            if depth >= self.params.max_depth || total.h < 2.0 * self.params.min_child_weight {
                self.nodes.push(Node::Leaf { value: clamp(total.value(self.params.lambda)) });
                return node_id;
            }
            let Some(split) = self.best_split(&rows, &total, bound) else {
                self.nodes.push(Node::Leaf { value: clamp(total.value(self.params.lambda)) });
                return node_id;
            };
            let (feature, bin, left_value, right_value, gain) = split;
            self.gain[feature] += gain;
            let threshold = self.bins.threshold_after(feature, bin);
            let constraint = self.params.monotone_constraints.get(feature).copied().unwrap_or(0);
            let (left_bound, right_bound) = match constraint {
                0 => (bound, bound),
                _ => {
                    let mid = 0.5 * (left_value + right_value);
                    if constraint > 0 {
                        ((bound.0, mid.min(bound.1)), (mid.max(bound.0), bound.1))
                    } else {
                        ((mid.max(bound.0), bound.1), (bound.0, mid.min(bound.1)))
                    }
                }
            };
            self.nodes.push(Node::Leaf { value: 0.0 });
            let (left_rows, right_rows): (Vec<u32>, Vec<u32>) = rows
                .into_iter()
                .partition(|&r| self.binned[r as usize * self.n_cols + feature] <= bin);
            let left = self.build(left_rows, depth + 1, left_bound);
            let right = self.build(right_rows, depth + 1, right_bound);
            self.nodes[node_id as usize] =
                Node::Split { feature: feature as u32, threshold, left, right };
            node_id
        }

        fn best_split(
            &self,
            rows: &[u32],
            total: &GradPair,
            bound: (f64, f64),
        ) -> Option<(usize, u16, f64, f64, f64)> {
            let lambda = self.params.lambda;
            let parent_score = total.score(lambda);
            let mut best_gain = 1e-9;
            let mut best = None;
            for f in 0..self.n_cols {
                let nbins = self.bins.num_bins(f);
                let mut hist = vec![GradPair::default(); nbins];
                for &r in rows {
                    let b = usize::from(self.binned[r as usize * self.n_cols + f]);
                    hist[b].add(self.grad[r as usize], self.hess[r as usize]);
                }
                let constraint = self.params.monotone_constraints.get(f).copied().unwrap_or(0);
                let mut left = GradPair::default();
                for (b, pair) in hist.iter().take(nbins - 1).enumerate() {
                    left.add(pair.g, pair.h);
                    let right = GradPair { g: total.g - left.g, h: total.h - left.h };
                    if left.h < self.params.min_child_weight
                        || right.h < self.params.min_child_weight
                    {
                        continue;
                    }
                    let gain = left.score(lambda) + right.score(lambda) - parent_score;
                    if gain <= best_gain {
                        continue;
                    }
                    let lv = left.value(lambda).clamp(bound.0, bound.1);
                    let rv = right.value(lambda).clamp(bound.0, bound.1);
                    if (constraint > 0 && lv > rv) || (constraint < 0 && lv < rv) {
                        continue;
                    }
                    best_gain = gain;
                    best = Some((f, b as u16, lv, rv, gain));
                }
            }
            best
        }
    }

    /// The pre-change `Gbdt::fit` for valid `params`.
    pub(super) fn fit(ds: &Dataset, params: &GbdtParams) -> Gbdt {
        let bins = FeatureBins::fit(ds, params.max_bins);
        let binned: Vec<u16> = (0..ds.n_rows())
            .flat_map(|i| (0..ds.n_cols()).map(move |f| (i, f)))
            .map(|(i, f)| bins.bin(f, ds.value(i, f)))
            .collect();
        let n = ds.n_rows();
        let weights = ds.weights_vec();
        let wsum: f64 = weights.iter().sum();
        let base_score = if wsum > 0.0 {
            ds.targets().iter().zip(&weights).map(|(y, w)| y * w).sum::<f64>() / wsum
        } else {
            0.0
        };
        let mut pred = vec![base_score; n];
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut gain = vec![0.0f64; ds.n_cols()];
        for _ in 0..params.n_trees {
            for i in 0..n {
                grad[i] = weights[i] * (pred[i] - ds.targets()[i]);
                hess[i] = weights[i];
            }
            let rows: Vec<u32> = if params.subsample < 1.0 {
                (0..n as u32).filter(|_| rng.random::<f64>() < params.subsample).collect()
            } else {
                (0..n as u32).collect()
            };
            if rows.is_empty() {
                continue;
            }
            let mut builder = TreeBuilder {
                bins: &bins,
                binned: &binned,
                n_cols: ds.n_cols(),
                grad: &grad,
                hess: &hess,
                params,
                nodes: Vec::new(),
                gain: &mut gain,
            };
            builder.build(rows, 0, (f64::NEG_INFINITY, f64::INFINITY));
            let tree = HistTree { nodes: builder.nodes };
            for (i, p) in pred.iter_mut().enumerate().take(n) {
                *p += params.learning_rate * tree.predict_row(ds.row(i));
            }
            trees.push(tree);
        }
        let total: f64 = gain.iter().sum();
        if total > 0.0 {
            for v in &mut gain {
                *v /= total;
            }
        }
        Gbdt { base_score, trees, learning_rate: params.learning_rate, importance: gain }
    }
}

#[cfg(test)]
mod bit_identity_tests {
    use proptest::prelude::*;

    use super::*;

    /// One column of a random dataset: how its values are drawn.
    #[derive(Debug, Clone, Copy)]
    enum Column {
        /// A single value in every row.
        Constant,
        /// A handful of values, so most rows tie with others.
        Ties,
        /// Adjacent floats around 1, where bin cuts round onto values.
        Adjacent,
        /// Distinct values over a wide range.
        Spread,
    }

    fn column_value(kind: Column, draw: u32) -> f64 {
        match kind {
            Column::Constant => 3.5,
            Column::Ties => f64::from(draw % 4) * 0.25 - 0.5,
            Column::Adjacent => f64::from_bits(1.0f64.to_bits() + u64::from(draw % 7)),
            Column::Spread => f64::from(draw) * 1.7e-3 - 900.0,
        }
    }

    /// A column computed from one of the drawn columns. Each gives bins
    /// whose row sets equal, or are unions of, the source's bins, so
    /// several features share slot classes.
    #[derive(Debug, Clone, Copy)]
    enum Derived {
        /// The same values under the same constraint.
        Copy,
        /// `floor(2v)`: fewer distinct values, as neighbouring levels of a
        /// tied column merge.
        Coarse,
        /// The values negated under the flipped constraint: the same bins
        /// in reverse order.
        Negated,
        /// The same values under a different constraint.
        Reconstrained,
    }

    /// Drawn columns (kind, constraint), derived columns, cells, probes and
    /// knobs; see [`case`].
    type Draws = (
        Vec<(Column, i8)>,
        Vec<(Derived, usize, usize)>,
        Vec<(Vec<u32>, usize, u32)>,
        Vec<Vec<(usize, usize, bool)>>,
        (i8, Vec<f64>),
        ((usize, usize, f64), (f64, f64, f64), (usize, u64, bool)),
    );

    /// A generated case: the training set, its parameters and probe rows
    /// that are not in the training set.
    #[derive(Debug)]
    struct Case {
        ds: Dataset,
        params: GbdtParams,
        probes: Vec<Vec<f64>>,
    }

    /// Training sets shaped like the characterization dataset. Rows come
    /// in *cells*: every row of a cell repeats one vector of drawn and
    /// derived columns and differs from the others only in a last,
    /// constrained "users" column. Many bins of different features then
    /// hold exactly the same rows, as the per-LLM columns and the
    /// per-profile columns of the real dataset do. Cases also cover
    /// constant columns, heavy ties, adjacent floats, zero weights,
    /// monotone ±1, row subsampling and every regularization knob.
    ///
    /// Each probe row takes every column from an independently chosen
    /// training row, or the midpoint of two rows' values, so two twin
    /// features that route the training rows alike disagree on it: a split
    /// that moved to an equal-gain twin changes a probe prediction.
    fn case() -> impl Strategy<Value = Case> {
        let kinds = prop::sample::select(vec![
            Column::Constant,
            Column::Ties,
            Column::Adjacent,
            Column::Spread,
        ]);
        let constraint = prop::sample::select(vec![-1i8, 0, 1]);
        let columns = prop::collection::vec((kinds, constraint), 1..5);
        let derived_kind = prop::sample::select(vec![
            Derived::Copy,
            Derived::Coarse,
            Derived::Negated,
            Derived::Reconstrained,
        ]);
        let derived = prop::collection::vec((derived_kind, 0usize..4, 1usize..3), 0..5);
        let cells = prop::collection::vec(
            (prop::collection::vec(0u32..1_000_000, 4), 1usize..6, 0u32..8),
            2..24,
        );
        let probes = prop::collection::vec(
            prop::collection::vec((0usize..1000, 0usize..1000, any_bool()), 10),
            6,
        );
        let users = (
            prop::sample::select(vec![1i8, -1]),
            prop::collection::vec(prop::sample::select(vec![0.0, 0.0, 0.5, 1.0, 1.0, 3.0]), 6),
        );
        // `lambda 0`, which the fit must reject, in 1 of 32 cases.
        let lambda = (0u32..32, prop::sample::select(vec![0.3, 1.0, 3.0]))
            .prop_map(|(pick, lambda)| if pick == 0 { 0.0 } else { lambda });
        let knobs = (
            (1usize..12, 1usize..6, prop::sample::select(vec![0.05, 0.3, 1.0])),
            (
                prop::sample::select(vec![1.0, 0.8, 0.5]),
                prop::sample::select(vec![0.0, 1.0, 0.5]),
                lambda,
            ),
            (prop::sample::select(vec![2usize, 3, 8, 64]), 0u64..1000, any_bool()),
        );
        (columns, derived, cells, probes, users, knobs).prop_map(build_case)
    }

    fn any_bool() -> impl Strategy<Value = bool> {
        prop::sample::select(vec![false, true])
    }

    fn build_case((columns, derived, cells, probes, users, knobs): Draws) -> Case {
        let (users_constraint, user_weights) = users;
        let derived_value = |kind: Derived, v: f64| match kind {
            Derived::Copy | Derived::Reconstrained => v,
            Derived::Coarse => (v * 2.0).floor(),
            Derived::Negated => -v,
        };
        let mut features: Vec<Vec<f64>> = Vec::new();
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        for (draws, n_users, t) in &cells {
            let mut row: Vec<f64> =
                columns.iter().zip(draws).map(|(&(kind, _), &d)| column_value(kind, d)).collect();
            for &(kind, source, _) in &derived {
                row.push(derived_value(kind, row[source % columns.len()]));
            }
            for u in 0..*n_users {
                let mut cell_row = row.clone();
                cell_row.push(f64::from(1u32 << u));
                features.push(cell_row);
                targets.push(f64::from(*t) + f64::from(draws[0] % 3) * 0.1 + u as f64 * 0.7);
                weights.push(user_weights[(draws[1] as usize + u) % user_weights.len()]);
            }
        }
        let n_cols = features[0].len();
        let probes = probes
            .iter()
            .map(|picks| {
                (0..n_cols)
                    .map(|c| {
                        let (a, b, mid) = picks[c];
                        let (a, b) =
                            (features[a % features.len()][c], features[b % features.len()][c]);
                        if mid {
                            0.5 * (a + b)
                        } else {
                            a
                        }
                    })
                    .collect()
            })
            .collect();
        let ds = Dataset::from_rows(&features, targets).unwrap().with_weights(weights).unwrap();

        let (
            (n_trees, max_depth, learning_rate),
            (subsample, min_child_weight, lambda),
            (max_bins, seed, constrained),
        ) = knobs;
        let monotone_constraints = if constrained {
            let mut c: Vec<i8> = columns.iter().map(|&(_, c)| c).collect();
            for &(kind, source, shift) in &derived {
                let of_source = c[source % columns.len()];
                c.push(match kind {
                    Derived::Copy | Derived::Coarse => of_source,
                    Derived::Negated => -of_source,
                    // Another of -1, 0, +1.
                    Derived::Reconstrained => (of_source + 1 + shift as i8).rem_euclid(3) - 1,
                });
            }
            c.push(users_constraint);
            c
        } else {
            Vec::new()
        };
        let params = GbdtParams {
            n_trees,
            max_depth,
            learning_rate,
            subsample,
            min_child_weight,
            lambda,
            max_bins,
            monotone_constraints,
            seed,
        };
        Case { ds, params, probes }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// The slot-class fit gives the reference builder's model bit for
        /// bit: same predictions on the training rows and on probe rows
        /// off them, same importances. `lambda 0`
        /// cases must be rejected instead (the reference builder does not
        /// validate and can score `0/0` there).
        #[test]
        fn fit_matches_the_reference_builder_bit_for_bit(case in case()) {
            let Case { ds, params, probes } = case;
            if params.lambda == 0.0 {
                let fitted = Gbdt::fit(&ds, &params, &Recorder::disabled());
                prop_assert!(matches!(fitted, Err(MlError::InvalidConfig(_))));
                return Ok(());
            }
            let fitted = Gbdt::fit(&ds, &params, &Recorder::disabled()).unwrap();
            let oracle = reference::fit(&ds, &params);
            prop_assert_eq!(fitted.num_trees(), oracle.num_trees());
            prop_assert_eq!(bits(&fitted.predict(&ds)), bits(&oracle.predict(&ds)));
            for probe in &probes {
                prop_assert_eq!(
                    fitted.predict_row(probe).to_bits(),
                    oracle.predict_row(probe).to_bits()
                );
            }
            prop_assert_eq!(
                bits(fitted.feature_importance()),
                bits(oracle.feature_importance())
            );
        }
    }
}
