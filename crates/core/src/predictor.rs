//! LLM-Pilot's performance model (Sec. IV-B-2/3): one gradient-boosted
//! regressor per latency target (nTTFT and ITL), trained on the
//! characterization data with the Eq.-(4) constraint-proximity sample
//! weights and a monotonicity constraint on the number of concurrent
//! users, with hyperparameters tuned by leave-one-LLM-out cross-validation
//! minimizing the weighted MAPE. The trees fit log-latency (a monotone
//! transform that evens out relative accuracy across the orders of
//! magnitude latencies span), and predictions are exponentiated back.

use llmpilot_ml::{grid_search, leave_one_group_out, weighted_mape, Dataset, Gbdt, GbdtParams};
use llmpilot_obs::Recorder;
use llmpilot_sim::gpu::GpuProfile;
use llmpilot_sim::llm::{llm_by_name, LlmSpec};

use crate::dataset::PerfRow;
use crate::error::CoreError;
use crate::features::{featurize, monotone_constraints};
use crate::recommend::{parse_profile, LatencyConstraints};
use crate::weights::constraint_proximity_weights;

/// Which latency metric a regressor predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Normalized time to first token.
    Nttft,
    /// Inter-token latency.
    Itl,
}

impl Target {
    /// Read this target from a row.
    pub fn of(self, row: &PerfRow) -> f64 {
        match self {
            Target::Nttft => row.nttft_s,
            Target::Itl => row.itl_s,
        }
    }
}

/// Configuration of the LLM-Pilot predictor, with ablation switches for the
/// two design choices the paper motivates (sample weights, monotonicity).
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Apply the Eq.-(4) sample weights.
    pub use_sample_weights: bool,
    /// Apply the monotonicity constraint on concurrent users.
    pub use_monotone_constraint: bool,
    /// Base GBDT hyperparameters (monotone vector is filled in here).
    pub gbdt: GbdtParams,
    /// Where training records its spans; disabled by default. Recording
    /// never changes the trained model.
    pub recorder: Recorder,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            use_sample_weights: true,
            use_monotone_constraint: true,
            gbdt: GbdtParams { n_trees: 200, max_depth: 5, ..GbdtParams::default() },
            recorder: Recorder::disabled(),
        }
    }
}

/// Build the regression dataset for one target from characterization rows.
fn build_dataset(
    rows: &[&PerfRow],
    target: Target,
    constraints: &LatencyConstraints,
    config: &PredictorConfig,
) -> Result<Dataset, CoreError> {
    if rows.is_empty() {
        return Err(CoreError::InsufficientData("no training rows".into()));
    }
    let mut feature_rows = Vec::with_capacity(rows.len());
    let mut targets = Vec::with_capacity(rows.len());
    for r in rows {
        let llm = llm_by_name(&r.llm)
            .ok_or_else(|| CoreError::Parse(format!("unknown LLM {:?}", r.llm)))?;
        let profile = parse_profile(&r.profile)
            .ok_or_else(|| CoreError::Parse(format!("unknown profile {:?}", r.profile)))?;
        feature_rows.push(featurize(&llm, &profile, r.users, true));
        targets.push(target.of(r).max(1e-9).ln());
    }
    let mut ds = Dataset::from_rows(&feature_rows, targets)?;
    if config.use_sample_weights {
        ds = ds.with_weights(constraint_proximity_weights(rows, constraints))?;
    }
    Ok(ds)
}

/// A trained LLM-Pilot performance model.
#[derive(Debug, Clone)]
pub struct PerformancePredictor {
    nttft: Gbdt,
    itl: Gbdt,
}

impl PerformancePredictor {
    /// Train both regressors on the given characterization rows. The whole
    /// training runs under a `predictor.train` span on `config.recorder`,
    /// with one `predictor.fit_target` span per latency target, and the
    /// GBDT fits record their phase spans beneath it.
    pub fn train(
        rows: &[&PerfRow],
        constraints: &LatencyConstraints,
        config: &PredictorConfig,
    ) -> Result<Self, CoreError> {
        let recorder = &config.recorder;
        let _train_span = recorder.span("predictor.train").arg("rows", rows.len());
        let mut gbdt = config.gbdt.clone();
        gbdt.monotone_constraints =
            if config.use_monotone_constraint { monotone_constraints(true) } else { Vec::new() };
        let fit = |target: Target| -> Result<Gbdt, CoreError> {
            let _target_span = recorder
                .span("predictor.fit_target")
                .arg("target", if target == Target::Nttft { "nttft" } else { "itl" });
            let ds = build_dataset(rows, target, constraints, config)?;
            Ok(Gbdt::fit(&ds, &gbdt, recorder)?)
        };
        Ok(Self { nttft: fit(Target::Nttft)?, itl: fit(Target::Itl)? })
    }

    /// Predict `(nTTFT, ITL)` in seconds for an LLM on a profile at a user
    /// count: the one-element case of [`Self::predict_users`].
    pub fn predict(&self, llm: &LlmSpec, profile: &GpuProfile, users: u32) -> (f64, f64) {
        self.predict_users(llm, profile, &[users])[0]
    }

    /// Predict `(nTTFT, ITL)` in seconds for an LLM on a profile at each
    /// user count of `users`, in order. The pair is featurized once; only
    /// the last feature, `concurrent_users`, differs between the rows, so
    /// every prediction has the exact bits of a per-pair featurization.
    pub fn predict_users(
        &self,
        llm: &LlmSpec,
        profile: &GpuProfile,
        users: &[u32],
    ) -> Vec<(f64, f64)> {
        let mut x = featurize(llm, profile, 0, true);
        let users_feature = x.len() - 1;
        users
            .iter()
            .map(|&u| {
                x[users_feature] = f64::from(u);
                (self.nttft.predict_row(&x).exp(), self.itl.predict_row(&x).exp())
            })
            .collect()
    }
}

/// The hyperparameter grid searched by leave-one-LLM-out cross-validation
/// (the paper tunes tree count, depth, learning rate, subsampling and the
/// histogram bin count).
pub fn default_hp_grid(base: &GbdtParams) -> Vec<GbdtParams> {
    let mut grid = Vec::new();
    for &(n_trees, max_depth) in &[(100usize, 4usize), (200, 5), (300, 6)] {
        for &learning_rate in &[0.05, 0.1] {
            for &(subsample, max_bins) in &[(1.0, 64usize), (0.8, 32)] {
                grid.push(GbdtParams {
                    n_trees,
                    max_depth,
                    learning_rate,
                    subsample,
                    max_bins,
                    ..base.clone()
                });
            }
        }
    }
    grid
}

/// A compact grid for fast tests and examples.
pub fn small_hp_grid(base: &GbdtParams) -> Vec<GbdtParams> {
    vec![
        GbdtParams { n_trees: 100, max_depth: 4, ..base.clone() },
        GbdtParams { n_trees: 200, max_depth: 5, ..base.clone() },
    ]
}

/// Leave-one-LLM-out hyperparameter tuning (Sec. IV-B-3): every candidate is
/// scored by the Eq.-(4)-weighted MAPE on the held-out LLM, averaged over
/// folds and both latency targets; the best configuration is returned.
pub fn tune_hyperparameters(
    rows: &[&PerfRow],
    constraints: &LatencyConstraints,
    config: &PredictorConfig,
    grid: Vec<GbdtParams>,
) -> Result<GbdtParams, CoreError> {
    if rows.is_empty() {
        return Err(CoreError::InsufficientData("no rows for HP tuning".into()));
    }
    // Group labels: index of each row's LLM.
    let mut llms: Vec<&str> = rows.iter().map(|r| r.llm.as_str()).collect();
    llms.sort_unstable();
    llms.dedup();
    if llms.len() < 2 {
        return Err(CoreError::InsufficientData(
            "HP tuning needs at least two LLMs for leave-one-out splits".into(),
        ));
    }
    let groups: Vec<usize> =
        rows.iter().map(|r| llms.binary_search(&r.llm.as_str()).expect("llm present")).collect();
    let folds = leave_one_group_out(&groups);

    let all_weights = constraint_proximity_weights(rows, constraints);

    let result = grid_search(grid, &folds, |candidate, fold| {
        let train_rows: Vec<&PerfRow> = fold.train.iter().map(|&i| rows[i]).collect();
        if train_rows.is_empty() {
            return f64::NAN;
        }
        let fold_config = PredictorConfig { gbdt: candidate.clone(), ..config.clone() };
        let Ok(model) = PerformancePredictor::train(&train_rows, constraints, &fold_config) else {
            return f64::NAN;
        };
        let mut errors = 0.0;
        let mut targets_counted = 0.0;
        for target in [Target::Nttft, Target::Itl] {
            let mut y_true = Vec::new();
            let mut y_pred = Vec::new();
            let mut w = Vec::new();
            for &i in &fold.validation {
                let r = rows[i];
                let Some(llm) = llm_by_name(&r.llm) else { continue };
                let Some(profile) = parse_profile(&r.profile) else { continue };
                let (l1, l2) = model.predict(&llm, &profile, r.users);
                y_true.push(target.of(r));
                y_pred.push(match target {
                    Target::Nttft => l1,
                    Target::Itl => l2,
                });
                w.push(all_weights[i]);
            }
            let e = weighted_mape(&y_true, &y_pred, &w);
            if e.is_finite() {
                errors += e;
                targets_counted += 1.0;
            }
        }
        if targets_counted == 0.0 {
            f64::NAN
        } else {
            errors / targets_counted
        }
    });
    Ok(result.best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::CharacterizeConfig;
    use crate::dataset::CharacterizationDataset;
    use crate::sweep::SweepDriver;
    use llmpilot_sim::gpu::{a100_40, h100, t4, GpuProfile};
    use llmpilot_sim::llm::{flan_t5_xl, flan_t5_xxl, llama2_13b, llama2_7b, starcoder};
    use llmpilot_traces::{Param, TraceGenerator, TraceGeneratorConfig};
    use llmpilot_workload::{WorkloadModel, WorkloadSampler};

    fn small_characterization() -> CharacterizationDataset {
        let traces = TraceGenerator::new(TraceGeneratorConfig {
            num_requests: 15_000,
            seed: 77,
            ..TraceGeneratorConfig::default()
        })
        .generate();
        let model = WorkloadModel::fit(
            &traces,
            &[Param::InputTokens, Param::OutputTokens, Param::BatchSize],
        )
        .unwrap();
        let sampler = WorkloadSampler::new(model);
        let llms = vec![flan_t5_xl(), flan_t5_xxl(), llama2_7b(), llama2_13b(), starcoder()];
        let profiles = vec![
            GpuProfile::new(t4(), 2),
            GpuProfile::new(a100_40(), 1),
            GpuProfile::new(h100(), 1),
        ];
        let config = CharacterizeConfig {
            duration_s: 30.0,
            user_sweep: vec![1, 4, 16, 64],
            ..CharacterizeConfig::default()
        };
        SweepDriver::builder(&llms, &profiles, &sampler)
            .config(config)
            .build()
            .unwrap()
            .run()
            .unwrap()
            .0
    }

    #[test]
    fn predictor_trains_and_interpolates() {
        let ds = small_characterization();
        let rows: Vec<&PerfRow> = ds.rows.iter().collect();
        let constraints = LatencyConstraints::paper_defaults();
        // Disable the Eq.-(4) weights for this check: they deliberately
        // sacrifice accuracy far from the constraints, while this test
        // measures the regressor's raw in-sample fit.
        let config = PredictorConfig { use_sample_weights: false, ..PredictorConfig::default() };
        let model = PerformancePredictor::train(&rows, &constraints, &config).unwrap();

        // In-sample sanity: predictions within a factor of ~3 of the truth
        // for most rows.
        let mut ok = 0;
        for r in &ds.rows {
            let llm = llm_by_name(&r.llm).unwrap();
            let profile = parse_profile(&r.profile).unwrap();
            let (nttft, itl) = model.predict(&llm, &profile, r.users);
            if nttft / r.nttft_s < 3.0
                && r.nttft_s / nttft < 3.0
                && itl / r.itl_s < 3.0
                && r.itl_s / itl < 3.0
            {
                ok += 1;
            }
        }
        assert!(ok * 10 >= ds.rows.len() * 8, "only {ok}/{} rows within 3x", ds.rows.len());
    }

    #[test]
    fn monotone_constraint_makes_predictions_nondecreasing_in_users() {
        let ds = small_characterization();
        let rows: Vec<&PerfRow> = ds.rows.iter().collect();
        let constraints = LatencyConstraints::paper_defaults();
        let model =
            PerformancePredictor::train(&rows, &constraints, &PredictorConfig::default()).unwrap();
        let llm = llama2_13b();
        let profile = GpuProfile::new(a100_40(), 1);
        let mut last = (0.0f64, 0.0f64);
        for users in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            let p = model.predict(&llm, &profile, users);
            assert!(p.0 >= last.0 - 1e-12, "nTTFT decreased at {users} users");
            assert!(p.1 >= last.1 - 1e-12, "ITL decreased at {users} users");
            last = p;
        }
    }

    #[test]
    fn recording_training_keeps_predictions_and_nests_spans() {
        let ds = small_characterization();
        let rows: Vec<&PerfRow> = ds.rows.iter().collect();
        let constraints = LatencyConstraints::paper_defaults();
        let plain =
            PerformancePredictor::train(&rows, &constraints, &PredictorConfig::default()).unwrap();
        let recorder = Recorder::enabled();
        let config = PredictorConfig { recorder: recorder.clone(), ..PredictorConfig::default() };
        let traced = PerformancePredictor::train(&rows, &constraints, &config).unwrap();

        let users = [1u32, 2, 4, 8, 16, 32, 64, 128];
        let profiles =
            [GpuProfile::new(t4(), 2), GpuProfile::new(a100_40(), 1), GpuProfile::new(h100(), 1)];
        for llm in [flan_t5_xl(), flan_t5_xxl(), llama2_7b(), llama2_13b(), starcoder()] {
            for profile in &profiles {
                let bits = |model: &PerformancePredictor| -> Vec<(u64, u64)> {
                    let grid = model.predict_users(&llm, profile, &users);
                    grid.iter().map(|(nttft, itl)| (nttft.to_bits(), itl.to_bits())).collect()
                };
                assert_eq!(bits(&plain), bits(&traced), "{} on {}", llm.name, profile.name());
            }
        }

        // predictor.train > one predictor.fit_target per target > gbdt.fit.
        let trace = recorder.snapshot();
        let named = |name: &str| trace.events.iter().filter(|e| e.name == name).collect::<Vec<_>>();
        let train = named("predictor.train");
        assert_eq!(train.len(), 1);
        let targets = named("predictor.fit_target");
        assert_eq!(targets.len(), 2);
        assert!(targets.iter().all(|t| t.parent == Some(train[0].id)));
        let fits = named("gbdt.fit");
        assert_eq!(fits.len(), 2);
        for target in &targets {
            assert_eq!(fits.iter().filter(|f| f.parent == Some(target.id)).count(), 1);
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        let rows = [PerfRow {
            llm: "no-such-model".into(),
            profile: "1xT4-16GB".into(),
            users: 1,
            ttft_s: 0.1,
            nttft_s: 0.001,
            itl_s: 0.02,
            throughput: 10.0,
        }];
        let refs: Vec<&PerfRow> = rows.iter().collect();
        assert!(matches!(
            PerformancePredictor::train(
                &refs,
                &LatencyConstraints::paper_defaults(),
                &PredictorConfig::default()
            ),
            Err(CoreError::Parse(_))
        ));
    }

    #[test]
    fn hp_tuning_returns_a_grid_member() {
        let ds = small_characterization();
        let rows: Vec<&PerfRow> = ds.rows.iter().collect();
        let constraints = LatencyConstraints::paper_defaults();
        let config = PredictorConfig::default();
        let grid = small_hp_grid(&config.gbdt);
        let best = tune_hyperparameters(&rows, &constraints, &config, grid.clone()).unwrap();
        assert!(grid.contains(&best));
    }

    #[test]
    fn tuning_needs_two_llms() {
        let ds = small_characterization();
        let rows: Vec<&PerfRow> = ds.rows.iter().filter(|r| r.llm == "Llama-2-13b").collect();
        let config = PredictorConfig::default();
        assert!(matches!(
            tune_hyperparameters(
                &rows,
                &LatencyConstraints::paper_defaults(),
                &config,
                small_hp_grid(&config.gbdt)
            ),
            Err(CoreError::InsufficientData(_))
        ));
    }

    #[test]
    fn grids_have_expected_sizes() {
        let base = GbdtParams::default();
        assert_eq!(default_hp_grid(&base).len(), 12);
        assert_eq!(small_hp_grid(&base).len(), 2);
    }
}
