//! Cross-validation utilities: leave-one-group-out splits and grid search.
//!
//! LLM-Pilot tunes hyperparameters "via a leave-one-LLM-out cross-validation
//! procedure" (Sec. IV-B-3): all performance data of one LLM forms the
//! validation fold while the remaining LLMs train the regressor, and the
//! configuration with the lowest mean validation error across all splits
//! wins. The evaluation of the recommendation tool additionally nests this
//! inside an outer leave-one-LLM-out loop (Sec. V-C).

/// One cross-validation fold: training and validation row indices.
#[derive(Debug, Clone, PartialEq)]
pub struct Fold {
    /// The group identifier held out in this fold.
    pub group: usize,
    /// Row indices used for training.
    pub train: Vec<usize>,
    /// Row indices used for validation.
    pub validation: Vec<usize>,
}

/// Build leave-one-group-out folds from per-row group labels (one fold per
/// distinct group, ordered by group id).
pub fn leave_one_group_out(groups: &[usize]) -> Vec<Fold> {
    let mut distinct: Vec<usize> = groups.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
        .into_iter()
        .map(|g| {
            let (validation, train): (Vec<usize>, Vec<usize>) =
                (0..groups.len()).partition(|&i| groups[i] == g);
            Fold { group: g, train, validation }
        })
        .collect()
}

/// Result of a grid search.
#[derive(Debug, Clone)]
pub struct GridSearchResult<P> {
    /// The winning configuration.
    pub best: P,
    /// Its mean validation error.
    pub best_error: f64,
    /// Mean validation error of every candidate, in input order.
    pub all_errors: Vec<f64>,
}

/// Exhaustive grid search: evaluate every candidate on every fold with
/// `eval(candidate, fold) -> validation error` and return the candidate with
/// the lowest mean error (`NaN` fold errors are skipped; a candidate with no
/// valid folds gets `+∞`).
pub fn grid_search<P, F>(candidates: Vec<P>, folds: &[Fold], eval: F) -> GridSearchResult<P>
where
    P: Clone + Send + Sync,
    F: Fn(&P, &Fold) -> f64 + Sync,
{
    assert!(!candidates.is_empty(), "grid search needs at least one candidate");
    assert!(!folds.is_empty(), "grid search needs at least one fold");

    let all_errors: Vec<f64> = candidates
        .iter()
        .map(|p| {
            let mut total = 0.0;
            let mut count = 0usize;
            for fold in folds {
                let e = eval(p, fold);
                if e.is_finite() {
                    total += e;
                    count += 1;
                }
            }
            if count == 0 {
                f64::INFINITY
            } else {
                total / count as f64
            }
        })
        .collect();

    let (best_idx, &best_error) = all_errors
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("candidates nonempty");
    GridSearchResult { best: candidates[best_idx].clone(), best_error, all_errors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logo_builds_one_fold_per_group() {
        let groups = vec![0, 1, 1, 2, 0, 2, 2];
        let folds = leave_one_group_out(&groups);
        assert_eq!(folds.len(), 3);
        for fold in &folds {
            // Validation rows all belong to the held-out group.
            assert!(fold.validation.iter().all(|&i| groups[i] == fold.group));
            // Train rows exclude it entirely.
            assert!(fold.train.iter().all(|&i| groups[i] != fold.group));
            // Together they cover everything exactly once.
            assert_eq!(fold.train.len() + fold.validation.len(), groups.len());
        }
    }

    #[test]
    fn single_group_yields_empty_train() {
        let folds = leave_one_group_out(&[5, 5, 5]);
        assert_eq!(folds.len(), 1);
        assert!(folds[0].train.is_empty());
        assert_eq!(folds[0].validation.len(), 3);
    }

    #[test]
    fn grid_search_finds_minimum() {
        let folds = leave_one_group_out(&[0, 1, 2]);
        let candidates = vec![1.0f64, 2.0, 3.0, 4.0];
        // Error = |candidate − 3|, independent of fold.
        let result = grid_search(candidates, &folds, |&c, _| (c - 3.0).abs());
        assert_eq!(result.best, 3.0);
        assert_eq!(result.best_error, 0.0);
        assert_eq!(result.all_errors, vec![2.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn grid_search_skips_nan_folds() {
        let folds = leave_one_group_out(&[0, 1]);
        let result =
            grid_search(
                vec![1.0f64, 2.0],
                &folds,
                |&c, fold| {
                    if fold.group == 0 {
                        f64::NAN
                    } else {
                        c
                    }
                },
            );
        assert_eq!(result.best, 1.0);
        assert_eq!(result.best_error, 1.0);
    }

    #[test]
    fn all_nan_candidate_gets_infinity() {
        let folds = leave_one_group_out(&[0]);
        let result = grid_search(vec![1.0f64], &folds, |_, _| f64::NAN);
        assert!(result.best_error.is_infinite());
    }

    #[test]
    fn fold_errors_are_averaged() {
        let folds = leave_one_group_out(&[0, 1]);
        // Error = group id → mean = 0.5.
        let result = grid_search(vec![()], &folds, |_, fold| fold.group as f64);
        assert_eq!(result.best_error, 0.5);
    }
}
