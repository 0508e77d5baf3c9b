//! The recommendation methods evaluated in Sec. V-C: LLM-Pilot itself and
//! the state-of-the-art baselines the paper reimplements.
//!
//! * **LLM-Pilot** — weighted + monotone GBDT ([`crate::predictor`]).
//! * **PARIS** \[55\] — random forest over application + hardware features,
//!   augmented with the unseen LLM's measured performance on two *reference*
//!   profiles (the weakest and strongest: 1×T4 and 4×H100).
//! * **RF** — PARIS without the reference measurements.
//! * **Selecta** \[18\] — collaborative filtering: biased matrix factorization
//!   over the sparse (LLM × configuration) performance matrix, with the
//!   unseen LLM observed only on the reference profiles.
//! * **Morphling** \[51\] — an MLP meta-trained on the historical LLMs and
//!   fine-tuned on the unseen LLM's reference measurements.
//! * **PerfNet / PerfNetV2** \[49\], \[50\] — MLP latency regressors from
//!   features alone.
//! * **Static** — no predictions: always recommend a fixed deployment.

use std::collections::HashMap;

use llmpilot_ml::{
    Dataset, ForestParams, MatrixFactorization, MfParams, Mlp, MlpParams, RandomForest,
};
use llmpilot_sim::gpu::GpuProfile;
use llmpilot_sim::llm::{llm_by_name, LlmSpec};

use crate::dataset::PerfRow;
use crate::error::CoreError;
use crate::features::featurize;
use crate::predictor::{tune_hyperparameters, PerformancePredictor, PredictorConfig, Target};
use crate::recommend::{parse_profile, recommend, Recommendation, RecommendationRequest};

/// The two reference profiles PARIS/Selecta/Morphling measure the unseen
/// LLM on: the weakest and the strongest of the paper's grid.
pub const REFERENCE_PROFILES: [&str; 2] = ["1xT4-16GB", "4xH100-80GB"];

/// Latency predictions for an unseen LLM over `(profile, users)`.
#[derive(Debug, Clone, Default)]
pub struct PredictionGrid {
    map: HashMap<(String, u32), (f64, f64)>,
}

impl PredictionGrid {
    /// Record a prediction.
    pub fn insert(&mut self, profile: &str, users: u32, nttft: f64, itl: f64) {
        self.map.insert((profile.to_string(), users), (nttft, itl));
    }

    /// Look up a prediction.
    pub fn get(&self, profile: &str, users: u32) -> Option<(f64, f64)> {
        self.map.get(&(profile.to_string(), users)).copied()
    }

    /// Number of predictions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Everything a method may use to make a recommendation for one unseen LLM.
pub struct MethodInput<'a> {
    /// Historical characterization rows (all LLMs except the unseen one).
    pub train_rows: Vec<&'a PerfRow>,
    /// The unseen LLM.
    pub test_llm: &'a LlmSpec,
    /// The unseen LLM's measurements on the [`REFERENCE_PROFILES`] — only
    /// methods with `uses_reference_measurements() == true` may read these.
    pub reference_rows: Vec<&'a PerfRow>,
    /// Candidate GPU profiles.
    pub profiles: &'a [GpuProfile],
    /// The recommendation request (load, SLA, user grid).
    pub request: &'a RecommendationRequest,
}

/// A recommendation method under evaluation.
pub trait Method: Sync {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Whether the method performs reference measurements of the unseen LLM
    /// (the ▲ markers in the paper's Fig. 8).
    fn uses_reference_measurements(&self) -> bool {
        false
    }

    /// Produce a recommendation for the unseen LLM.
    fn recommend(&self, input: &MethodInput<'_>) -> Result<Recommendation, CoreError>;
}

/// Solve Eq. (1)–(3) from a prediction grid.
fn recommend_from_grid(
    grid: &PredictionGrid,
    profiles: &[GpuProfile],
    request: &RecommendationRequest,
) -> Result<Recommendation, CoreError> {
    recommend(profiles, request, |p, u| grid.get(&p.name(), u))
}

// ---------------------------------------------------------------------------
// LLM-Pilot
// ---------------------------------------------------------------------------

/// LLM-Pilot's own method (Sec. IV-B).
pub struct LlmPilotMethod {
    /// Predictor configuration (ablation switches included).
    pub config: PredictorConfig,
    /// Hyperparameter grid for inner leave-one-LLM-out tuning; empty skips
    /// tuning and uses `config.gbdt` as-is.
    pub hp_grid: Vec<llmpilot_ml::GbdtParams>,
}

impl LlmPilotMethod {
    /// Default configuration without inner HP tuning (fast).
    pub fn untuned() -> Self {
        Self { config: PredictorConfig::default(), hp_grid: Vec::new() }
    }

    /// With inner HP tuning over the given grid.
    pub fn tuned(grid: Vec<llmpilot_ml::GbdtParams>) -> Self {
        Self { config: PredictorConfig::default(), hp_grid: grid }
    }
}

impl Method for LlmPilotMethod {
    fn name(&self) -> &'static str {
        "LLM-Pilot"
    }

    fn recommend(&self, input: &MethodInput<'_>) -> Result<Recommendation, CoreError> {
        let mut config = self.config.clone();
        if !self.hp_grid.is_empty() {
            config.gbdt = tune_hyperparameters(
                &input.train_rows,
                &input.request.constraints,
                &config,
                self.hp_grid.clone(),
            )?;
        }
        let model =
            PerformancePredictor::train(&input.train_rows, &input.request.constraints, &config)?;
        let mut grid = PredictionGrid::default();
        let users = &input.request.user_grid;
        for p in input.profiles {
            let name = p.name();
            for (&u, (l1, l2)) in users.iter().zip(model.predict_users(input.test_llm, p, users)) {
                grid.insert(&name, u, l1, l2);
            }
        }
        recommend_from_grid(&grid, input.profiles, input.request)
    }
}

// ---------------------------------------------------------------------------
// RF and PARIS
// ---------------------------------------------------------------------------

/// Fixed-length reference-measurement feature block for one LLM: for each
/// reference profile and user count, its (nTTFT, ITL, throughput), plus a
/// presence flag per profile; zeros when the combination was infeasible.
fn reference_features(rows: &[&PerfRow], user_grid: &[u32]) -> Vec<f64> {
    let mut out = Vec::with_capacity(REFERENCE_PROFILES.len() * (1 + user_grid.len() * 3));
    for ref_profile in REFERENCE_PROFILES {
        let profile_rows: Vec<&&PerfRow> =
            rows.iter().filter(|r| r.profile == ref_profile).collect();
        out.push(f64::from(u8::from(!profile_rows.is_empty())));
        for &u in user_grid {
            match profile_rows.iter().find(|r| r.users == u) {
                Some(r) => {
                    out.push(r.nttft_s);
                    out.push(r.itl_s);
                    out.push(r.throughput);
                }
                None => out.extend_from_slice(&[0.0, 0.0, 0.0]),
            }
        }
    }
    out
}

/// Random-forest regressor over LLM/GPU/user features; with
/// `use_references`, PARIS's reference-measurement block is appended.
pub struct RfMethod {
    /// Append reference measurements (PARIS) or not (plain RF)?
    pub use_references: bool,
    /// Forest hyperparameters.
    pub forest: ForestParams,
}

impl RfMethod {
    /// Forest defaults matching scikit-learn's `RandomForestRegressor`
    /// (PARIS's implementation): every feature is a split candidate, so the
    /// reference-measurement block keeps its full signal.
    fn forest_defaults() -> ForestParams {
        let mut params = ForestParams::default();
        params.tree.max_features = Some(usize::MAX); // clamped to all features
        params
    }

    /// The PARIS baseline.
    pub fn paris() -> Self {
        Self { use_references: true, forest: Self::forest_defaults() }
    }

    /// The plain-RF baseline (PARIS without reference measurements).
    pub fn plain() -> Self {
        Self { use_references: false, forest: Self::forest_defaults() }
    }

    fn fit_target(
        &self,
        input: &MethodInput<'_>,
        target: Target,
    ) -> Result<RandomForest, CoreError> {
        // Per-LLM reference blocks from the training data itself.
        let mut per_llm_refs: HashMap<&str, Vec<f64>> = HashMap::new();
        let mut rows_by_llm: HashMap<&str, Vec<&PerfRow>> = HashMap::new();
        for r in &input.train_rows {
            rows_by_llm.entry(r.llm.as_str()).or_default().push(r);
        }
        if self.use_references {
            for (llm, rows) in &rows_by_llm {
                per_llm_refs.insert(llm, reference_features(rows, &input.request.user_grid));
            }
        }
        let mut feature_rows = Vec::with_capacity(input.train_rows.len());
        let mut targets = Vec::with_capacity(input.train_rows.len());
        for r in &input.train_rows {
            let llm = llm_by_name(&r.llm)
                .ok_or_else(|| CoreError::Parse(format!("unknown LLM {:?}", r.llm)))?;
            let profile = parse_profile(&r.profile)
                .ok_or_else(|| CoreError::Parse(format!("unknown profile {:?}", r.profile)))?;
            let mut x = featurize(&llm, &profile, r.users, false);
            if self.use_references {
                x.extend_from_slice(&per_llm_refs[r.llm.as_str()]);
            }
            feature_rows.push(x);
            targets.push(target.of(r).max(1e-9).ln());
        }
        let ds = Dataset::from_rows(&feature_rows, targets)?;
        Ok(RandomForest::fit(&ds, &self.forest)?)
    }
}

impl Method for RfMethod {
    fn name(&self) -> &'static str {
        if self.use_references {
            "PARIS"
        } else {
            "RF"
        }
    }

    fn uses_reference_measurements(&self) -> bool {
        self.use_references
    }

    fn recommend(&self, input: &MethodInput<'_>) -> Result<Recommendation, CoreError> {
        let nttft = self.fit_target(input, Target::Nttft)?;
        let itl = self.fit_target(input, Target::Itl)?;
        let ref_block = if self.use_references {
            reference_features(&input.reference_rows, &input.request.user_grid)
        } else {
            Vec::new()
        };
        let mut grid = PredictionGrid::default();
        for p in input.profiles {
            for &u in &input.request.user_grid {
                let mut x = featurize(input.test_llm, p, u, false);
                x.extend_from_slice(&ref_block);
                grid.insert(&p.name(), u, nttft.predict_row(&x).exp(), itl.predict_row(&x).exp());
            }
        }
        recommend_from_grid(&grid, input.profiles, input.request)
    }
}

// ---------------------------------------------------------------------------
// Selecta
// ---------------------------------------------------------------------------

/// Selecta: collaborative filtering over the sparse LLM × (profile, users)
/// performance matrix, implemented with biased matrix factorization (the
/// algorithm of the Surprise library used by the original work).
pub struct SelectaMethod {
    /// Factorization hyperparameters.
    pub mf: MfParams,
}

impl SelectaMethod {
    /// Default configuration. The paper tunes baseline hyperparameters by
    /// leave-one-LLM-out CV; for the ~10-row LLM × configuration matrix a
    /// low-rank factorization generalizes best.
    pub fn new() -> Self {
        Self { mf: MfParams { n_factors: 6, n_epochs: 120, ..MfParams::default() } }
    }

    fn predict_target(
        &self,
        input: &MethodInput<'_>,
        target: Target,
    ) -> Result<HashMap<(String, u32), f64>, CoreError> {
        // Column index per (profile, users).
        let mut columns: Vec<(String, u32)> = Vec::new();
        for p in input.profiles {
            for &u in &input.request.user_grid {
                columns.push((p.name(), u));
            }
        }
        let col_of: HashMap<(String, u32), usize> =
            columns.iter().cloned().enumerate().map(|(i, c)| (c, i)).collect();

        // Row index per LLM; the unseen LLM is the last row.
        let mut llms: Vec<&str> = input.train_rows.iter().map(|r| r.llm.as_str()).collect();
        llms.sort_unstable();
        llms.dedup();
        let test_row = llms.len();

        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        for r in &input.train_rows {
            let Some(&col) = col_of.get(&(r.profile.clone(), r.users)) else { continue };
            let row = llms.binary_search(&r.llm.as_str()).expect("known llm");
            entries.push((row, col, target.of(r).max(1e-9).ln()));
        }
        for r in &input.reference_rows {
            let Some(&col) = col_of.get(&(r.profile.clone(), r.users)) else { continue };
            entries.push((test_row, col, target.of(r).max(1e-9).ln()));
        }
        let model = MatrixFactorization::fit(test_row + 1, columns.len(), &entries, &self.mf)?;
        Ok(columns
            .iter()
            .enumerate()
            .map(|(c, key)| (key.clone(), model.predict(test_row, c).exp()))
            .collect())
    }
}

impl Default for SelectaMethod {
    fn default() -> Self {
        Self::new()
    }
}

impl Method for SelectaMethod {
    fn name(&self) -> &'static str {
        "Selecta"
    }

    fn uses_reference_measurements(&self) -> bool {
        true
    }

    fn recommend(&self, input: &MethodInput<'_>) -> Result<Recommendation, CoreError> {
        let nttft = self.predict_target(input, Target::Nttft)?;
        let itl = self.predict_target(input, Target::Itl)?;
        let mut grid = PredictionGrid::default();
        for p in input.profiles {
            for &u in &input.request.user_grid {
                let key = (p.name(), u);
                if let (Some(&l1), Some(&l2)) = (nttft.get(&key), itl.get(&key)) {
                    grid.insert(&p.name(), u, l1, l2);
                }
            }
        }
        recommend_from_grid(&grid, input.profiles, input.request)
    }
}

// ---------------------------------------------------------------------------
// Neural baselines: PerfNet, PerfNetV2, Morphling
// ---------------------------------------------------------------------------

/// Which neural baseline an [`NnMethod`] instance realizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NnVariant {
    /// PerfNet \[49\]: a small MLP on raw latency.
    PerfNet,
    /// PerfNetV2 \[50\]: a deeper MLP on log-latency.
    PerfNetV2,
    /// Morphling \[51\]: PerfNetV2's architecture, meta-trained then
    /// fine-tuned on the unseen LLM's reference measurements.
    Morphling,
}

/// Neural-network latency predictor baseline.
pub struct NnMethod {
    /// Baseline variant.
    pub variant: NnVariant,
    /// Training epochs.
    pub epochs: usize,
}

impl NnMethod {
    /// Build the given variant with default training budget.
    pub fn new(variant: NnVariant) -> Self {
        Self { variant, epochs: 150 }
    }

    fn params(&self) -> MlpParams {
        match self.variant {
            NnVariant::PerfNet => {
                MlpParams { hidden_layers: vec![32], epochs: self.epochs, ..MlpParams::default() }
            }
            NnVariant::PerfNetV2 | NnVariant::Morphling => MlpParams {
                hidden_layers: vec![64, 32],
                epochs: self.epochs,
                ..MlpParams::default()
            },
        }
    }

    fn log_target(&self) -> bool {
        self.variant != NnVariant::PerfNet
    }

    fn build_dataset(&self, rows: &[&PerfRow], target: Target) -> Result<Dataset, CoreError> {
        let mut feature_rows = Vec::with_capacity(rows.len());
        let mut targets = Vec::with_capacity(rows.len());
        for r in rows {
            let llm = llm_by_name(&r.llm)
                .ok_or_else(|| CoreError::Parse(format!("unknown LLM {:?}", r.llm)))?;
            let profile = parse_profile(&r.profile)
                .ok_or_else(|| CoreError::Parse(format!("unknown profile {:?}", r.profile)))?;
            feature_rows.push(featurize(&llm, &profile, r.users, false));
            let y = target.of(r).max(1e-9);
            targets.push(if self.log_target() { y.ln() } else { y });
        }
        Ok(Dataset::from_rows(&feature_rows, targets)?)
    }

    fn fit_target(&self, input: &MethodInput<'_>, target: Target) -> Result<Mlp, CoreError> {
        let ds = self.build_dataset(&input.train_rows, target)?;
        let mut model = Mlp::fit(&ds, &self.params())?;
        if self.variant == NnVariant::Morphling && !input.reference_rows.is_empty() {
            let ref_ds = self.build_dataset(&input.reference_rows, target)?;
            model.fine_tune(&ref_ds, self.epochs / 2, 5e-4);
        }
        Ok(model)
    }
}

impl Method for NnMethod {
    fn name(&self) -> &'static str {
        match self.variant {
            NnVariant::PerfNet => "PerfNet",
            NnVariant::PerfNetV2 => "PerfNetV2",
            NnVariant::Morphling => "Morphling",
        }
    }

    fn uses_reference_measurements(&self) -> bool {
        self.variant == NnVariant::Morphling
    }

    fn recommend(&self, input: &MethodInput<'_>) -> Result<Recommendation, CoreError> {
        let nttft = self.fit_target(input, Target::Nttft)?;
        let itl = self.fit_target(input, Target::Itl)?;
        let mut grid = PredictionGrid::default();
        for p in input.profiles {
            for &u in &input.request.user_grid {
                let x = featurize(input.test_llm, p, u, false);
                let (mut l1, mut l2) = (nttft.predict_row(&x), itl.predict_row(&x));
                if self.log_target() {
                    l1 = l1.exp();
                    l2 = l2.exp();
                }
                grid.insert(&p.name(), u, l1.max(0.0), l2.max(0.0));
            }
        }
        recommend_from_grid(&grid, input.profiles, input.request)
    }
}

// ---------------------------------------------------------------------------
// Static policy
// ---------------------------------------------------------------------------

/// The naive baseline: no predictions, always the same deployment. The
/// paper reports the best static policy it found: 4 pods of 1×A100.
pub struct StaticMethod {
    /// The fixed profile name.
    pub profile: String,
    /// The fixed pod count.
    pub pods: u32,
}

impl StaticMethod {
    /// The paper's best static policy: 4 pods on 1×A100.
    pub fn paper_best() -> Self {
        Self { profile: "1xA100-40GB".into(), pods: 4 }
    }

    /// The candidate grid the best static policy is selected from ("We have
    /// considered a broad range of static policies and present the one which
    /// achieved the highest S/O score" — Sec. V-C).
    pub fn candidate_grid(profiles: &[GpuProfile]) -> Vec<StaticMethod> {
        let mut out = Vec::new();
        for p in profiles {
            for pods in [1u32, 2, 4, 8, 13, 16, 25, 32, 50] {
                out.push(StaticMethod { profile: p.name(), pods });
            }
        }
        out
    }
}

impl Method for StaticMethod {
    fn name(&self) -> &'static str {
        "Static"
    }

    fn recommend(&self, input: &MethodInput<'_>) -> Result<Recommendation, CoreError> {
        let profile = parse_profile(&self.profile)
            .ok_or_else(|| CoreError::Parse(format!("unknown profile {:?}", self.profile)))?;
        if !input.profiles.iter().any(|p| p.name() == self.profile) {
            return Err(CoreError::NoFeasibleRecommendation);
        }
        Ok(Recommendation {
            profile: self.profile.clone(),
            pods: self.pods,
            u_max: input.request.total_users.div_ceil(self.pods),
            cost_per_hour: f64::from(self.pods) * profile.cost_per_hour(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_grid_round_trips() {
        let mut g = PredictionGrid::default();
        assert!(g.is_empty());
        g.insert("1xT4-16GB", 4, 0.01, 0.02);
        assert_eq!(g.get("1xT4-16GB", 4), Some((0.01, 0.02)));
        assert_eq!(g.get("1xT4-16GB", 8), None);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn reference_features_have_fixed_length() {
        let grid = vec![1u32, 2, 4];
        let empty = reference_features(&[], &grid);
        assert_eq!(empty.len(), 2 * (1 + 3 * 3));
        assert!(empty.iter().all(|&v| v == 0.0));

        let row = PerfRow {
            llm: "m".into(),
            profile: "1xT4-16GB".into(),
            users: 2,
            ttft_s: 0.5,
            nttft_s: 0.005,
            itl_s: 0.03,
            throughput: 55.0,
        };
        let with = reference_features(&[&row], &grid);
        assert_eq!(with.len(), empty.len());
        assert_eq!(with[0], 1.0); // presence flag for 1xT4
                                  // The users=2 slot carries the metrics.
        assert!(with.contains(&0.005) && with.contains(&55.0));
    }

    #[test]
    fn method_names_and_reference_flags() {
        assert_eq!(LlmPilotMethod::untuned().name(), "LLM-Pilot");
        assert!(!LlmPilotMethod::untuned().uses_reference_measurements());
        assert_eq!(RfMethod::paris().name(), "PARIS");
        assert!(RfMethod::paris().uses_reference_measurements());
        assert_eq!(RfMethod::plain().name(), "RF");
        assert!(!RfMethod::plain().uses_reference_measurements());
        assert!(SelectaMethod::new().uses_reference_measurements());
        assert_eq!(NnMethod::new(NnVariant::Morphling).name(), "Morphling");
        assert!(NnMethod::new(NnVariant::Morphling).uses_reference_measurements());
        assert!(!NnMethod::new(NnVariant::PerfNet).uses_reference_measurements());
        assert_eq!(StaticMethod::paper_best().name(), "Static");
    }

    #[test]
    fn static_method_ignores_data() {
        let method = StaticMethod::paper_best();
        let profiles = llmpilot_sim::gpu::paper_profiles();
        let request = RecommendationRequest::paper_defaults();
        let llm = llmpilot_sim::llm::llama2_13b();
        let input = MethodInput {
            train_rows: vec![],
            test_llm: &llm,
            reference_rows: vec![],
            profiles: &profiles,
            request: &request,
        };
        let rec = method.recommend(&input).unwrap();
        assert_eq!(rec.profile, "1xA100-40GB");
        assert_eq!(rec.pods, 4);
        assert!((rec.cost_per_hour - 4.0 * 4.10).abs() < 1e-9);
    }

    #[test]
    fn static_method_requires_profile_in_candidates() {
        let method = StaticMethod::paper_best();
        let profiles = vec![GpuProfile::new(llmpilot_sim::gpu::t4(), 1)];
        let request = RecommendationRequest::paper_defaults();
        let llm = llmpilot_sim::llm::llama2_13b();
        let input = MethodInput {
            train_rows: vec![],
            test_llm: &llm,
            reference_rows: vec![],
            profiles: &profiles,
            request: &request,
        };
        assert!(method.recommend(&input).is_err());
    }
}
