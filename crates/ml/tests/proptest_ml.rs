//! Property-based invariants of the ML substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use llmpilot_ml::{mape, r2, weighted_mape, Dataset, DecisionTree, Gbdt, GbdtParams, TreeParams};
use llmpilot_obs::Recorder;

/// Strategy: a small random regression problem.
fn problem() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    prop::collection::vec((prop::collection::vec(-100.0f64..100.0, 3), -50.0f64..50.0), 5..60)
        .prop_map(|rows| rows.into_iter().unzip())
}

proptest! {
    /// Tree predictions are convex combinations of targets: always within
    /// the observed target range.
    #[test]
    fn tree_predictions_within_target_range((rows, targets) in problem()) {
        let ds = Dataset::from_rows(&rows, targets.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&ds, &TreeParams::default(), &mut rng).unwrap();
        let lo = targets.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = targets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for row in &rows {
            let p = tree.predict_row(row);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
        }
    }

    /// MDI importances are a probability vector (or all-zero for a stump).
    #[test]
    fn tree_importance_is_normalized((rows, targets) in problem()) {
        let ds = Dataset::from_rows(&rows, targets).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(&ds, &TreeParams::default(), &mut rng).unwrap();
        let total: f64 = tree.feature_importance().iter().sum();
        prop_assert!(tree.feature_importance().iter().all(|&v| v >= 0.0));
        prop_assert!(total.abs() < 1e-9 || (total - 1.0).abs() < 1e-9, "total {total}");
    }

    /// A monotone-constrained GBDT is globally non-decreasing along the
    /// constrained feature, whatever the data.
    #[test]
    fn gbdt_monotone_constraint_always_holds((rows, targets) in problem()) {
        let ds = Dataset::from_rows(&rows, targets).unwrap();
        let params = GbdtParams {
            n_trees: 30,
            monotone_constraints: vec![1, 0, 0],
            ..GbdtParams::default()
        };
        let model = Gbdt::fit(&ds, &params, &Recorder::disabled()).unwrap();
        // Scan feature 0 with the other features fixed at several anchors.
        for anchor in [-50.0, 0.0, 50.0] {
            let mut last = f64::NEG_INFINITY;
            for step in -20..=20 {
                let x0 = f64::from(step) * 5.0;
                let p = model.predict_row(&[x0, anchor, -anchor]);
                prop_assert!(p >= last - 1e-9, "violation at x0={x0}: {p} < {last}");
                last = p;
            }
        }
    }

    /// Constant targets are learned exactly by both tree models.
    #[test]
    fn constant_targets_learned_exactly(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 3..30),
        c in -5.0f64..5.0
    ) {
        let targets = vec![c; rows.len()];
        let ds = Dataset::from_rows(&rows, targets).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let tree = DecisionTree::fit(&ds, &TreeParams::default(), &mut rng).unwrap();
        let params = GbdtParams { n_trees: 5, ..GbdtParams::default() };
        let gbdt = Gbdt::fit(&ds, &params, &Recorder::disabled()).unwrap();
        for row in &rows {
            prop_assert!((tree.predict_row(row) - c).abs() < 1e-9);
            prop_assert!((gbdt.predict_row(row) - c).abs() < 1e-6);
        }
    }

    /// Metric sanity: perfect predictions score perfectly; weighted MAPE is
    /// bounded by the max per-point relative error.
    #[test]
    fn metric_identities(targets in prop::collection::vec(0.1f64..100.0, 2..40)) {
        prop_assert!(mape(&targets, &targets).abs() < 1e-12);
        let r = r2(&targets, &targets);
        prop_assert!(r.is_nan() || (r - 1.0).abs() < 1e-12);
        let preds: Vec<f64> = targets.iter().map(|t| t * 1.1).collect();
        let weights = vec![1.0; targets.len()];
        let wm = weighted_mape(&targets, &preds, &weights);
        prop_assert!((wm - 0.1).abs() < 1e-9, "wm = {wm}");
    }
}
