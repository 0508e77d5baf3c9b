//! Random-forest regression (bagged CART trees with feature subsampling),
//! with aggregated MDI importances — the paper's importance-study model
//! (Sec. III-A, Sec. III-D/Fig. 4) and the regressor inside the PARIS and
//! RF baselines (Sec. V-C).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::tree::{DecisionTree, TreeParams};

/// Hyperparameters of the forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters (depth, leaf sizes, feature subsampling).
    pub tree: TreeParams,
    /// Bootstrap-sample the rows of each tree?
    pub bootstrap: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self {
            n_trees: 100,
            tree: TreeParams { max_features: None, ..TreeParams::default() },
            bootstrap: true,
            seed: 17,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    importance: Vec<f64>,
}

impl RandomForest {
    /// Fit the forest; tree `t` draws from its own RNG seeded with `seed + t`.
    pub fn fit(ds: &Dataset, params: &ForestParams) -> Result<Self, MlError> {
        if params.n_trees == 0 {
            return Err(MlError::InvalidConfig("n_trees must be >= 1".into()));
        }
        if ds.n_rows() == 0 {
            return Err(MlError::Shape("cannot fit a forest to zero rows".into()));
        }
        // Default feature subsampling: all features / 3, the classical
        // regression-forest heuristic, unless the caller pinned a value.
        let mut tree_params = params.tree.clone();
        if tree_params.max_features.is_none() {
            tree_params.max_features = Some((ds.n_cols() / 3).max(1));
        }

        let trees: Result<Vec<DecisionTree>, MlError> = (0..params.n_trees)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(t as u64));
                if params.bootstrap {
                    let indices: Vec<usize> =
                        (0..ds.n_rows()).map(|_| rng.random_range(0..ds.n_rows())).collect();
                    let sample = ds.subset(&indices);
                    DecisionTree::fit(&sample, &tree_params, &mut rng)
                } else {
                    DecisionTree::fit(ds, &tree_params, &mut rng)
                }
            })
            .collect();
        let trees = trees?;

        let mut importance = vec![0.0; ds.n_cols()];
        for tree in &trees {
            for (i, &v) in tree.feature_importance().iter().enumerate() {
                importance[i] += v;
            }
        }
        let total: f64 = importance.iter().sum();
        if total > 0.0 {
            for v in &mut importance {
                *v /= total;
            }
        }
        Ok(Self { trees, importance })
    }

    /// Predict one row: the mean of the trees' predictions.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predict every row of a dataset.
    pub fn predict(&self, ds: &Dataset) -> Vec<f64> {
        (0..ds.n_rows()).map(|i| self.predict_row(ds.row(i))).collect()
    }

    /// Normalized MDI importances aggregated over trees.
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;

    /// Deterministic synthetic regression data with one dominant feature.
    fn make_data(n: usize) -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    rng.random::<f64>() * 10.0,
                    rng.random::<f64>() * 10.0,
                    rng.random::<f64>() * 10.0,
                ]
            })
            .collect();
        let targets: Vec<f64> =
            rows.iter().map(|r| 5.0 * r[0] + 0.5 * r[1] + 0.05 * rng.random::<f64>()).collect();
        (Dataset::from_rows(&rows, targets.clone()).unwrap(), targets)
    }

    #[test]
    fn forest_fits_and_generalizes() {
        let (ds, targets) = make_data(600);
        let forest =
            RandomForest::fit(&ds, &ForestParams { n_trees: 60, ..ForestParams::default() })
                .unwrap();
        let pred = forest.predict(&ds);
        assert!(r2(&targets, &pred) > 0.95);
    }

    #[test]
    fn importance_ranks_dominant_feature_first() {
        let (ds, _) = make_data(800);
        let forest =
            RandomForest::fit(&ds, &ForestParams { n_trees: 40, ..ForestParams::default() })
                .unwrap();
        let imp = forest.feature_importance();
        assert!(imp[0] > imp[1], "imp = {imp:?}");
        assert!(imp[1] > imp[2], "imp = {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn forest_beats_single_tree_out_of_sample() {
        let (train, _) = make_data(300);
        let (test, test_targets) = {
            let mut rng = StdRng::seed_from_u64(99);
            let rows: Vec<Vec<f64>> = (0..200)
                .map(|_| {
                    vec![
                        rng.random::<f64>() * 10.0,
                        rng.random::<f64>() * 10.0,
                        rng.random::<f64>() * 10.0,
                    ]
                })
                .collect();
            let t: Vec<f64> = rows.iter().map(|r| 5.0 * r[0] + 0.5 * r[1]).collect();
            (Dataset::from_rows(&rows, t.clone()).unwrap(), t)
        };
        let forest =
            RandomForest::fit(&train, &ForestParams { n_trees: 80, ..ForestParams::default() })
                .unwrap();
        let forest_r2 = r2(&test_targets, &forest.predict(&test));
        assert!(forest_r2 > 0.9, "forest r2 = {forest_r2}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (ds, _) = make_data(200);
        let p = ForestParams { n_trees: 10, ..ForestParams::default() };
        let a = RandomForest::fit(&ds, &p).unwrap();
        let b = RandomForest::fit(&ds, &p).unwrap();
        assert_eq!(a.predict_row(ds.row(0)), b.predict_row(ds.row(0)));
        assert_eq!(a.feature_importance(), b.feature_importance());
    }

    #[test]
    fn zero_trees_rejected() {
        let (ds, _) = make_data(50);
        assert!(RandomForest::fit(&ds, &ForestParams { n_trees: 0, ..ForestParams::default() })
            .is_err());
    }

    #[test]
    fn num_trees_matches_config() {
        let (ds, _) = make_data(50);
        let f = RandomForest::fit(&ds, &ForestParams { n_trees: 7, ..ForestParams::default() })
            .unwrap();
        assert_eq!(f.num_trees(), 7);
    }
}
