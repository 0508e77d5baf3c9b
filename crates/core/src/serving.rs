//! A thread-safe, train-once/query-many entry point to the GPU
//! recommendation tool, built for long-running services.
//!
//! The offline pipeline ([`crate::evaluate`]) retrains a predictor per
//! unseen LLM (leave-one-LLM-out). An online advisor cannot afford that:
//! it trains **one** model over the whole characterization dataset and
//! answers arbitrary `(LLM, load, SLA)` queries against it. A
//! [`ServingModel`] never changes its answers after training — queries
//! borrow it read-only — so it is `Send + Sync` and can sit behind an
//! `Arc` shared by any number of worker threads, and be atomically swapped
//! for a newer generation when the dataset changes.
//!
//! The predicted latencies of an LLM depend only on the trained model, the
//! LLM, the GPU profile and the per-pod user count, not on the query's
//! total users or SLA. So the model tables them once: the first query for
//! a catalog LLM on the paper's grid [`PAPER_USER_GRID`] fills that LLM's
//! latency table behind a `OnceLock`, and every later query runs only
//! the Eq. (1)–(3) search over it. A retrain builds a new model with empty
//! tables, so a table never outlives the predictor it came from.

use std::sync::OnceLock;

use llmpilot_sim::gpu::GpuProfile;
use llmpilot_sim::llm::{llm_catalog, LlmSpec};
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};

use crate::dataset::CharacterizationDataset;
use crate::error::CoreError;
use crate::predictor::{PerformancePredictor, PredictorConfig};
use crate::recommend::{
    parse_profile, recommend, LatencyConstraints, Recommendation, RecommendationRequest,
    PAPER_USER_GRID,
};

/// One LLM's predicted `(nTTFT, ITL)` on its memory-feasible candidate
/// profiles over a user grid.
#[derive(Debug, Clone)]
struct LatencyTable {
    /// The model's profiles on which the LLM fits in memory, in the model's
    /// order.
    profiles: Vec<GpuProfile>,
    /// The per-pod user counts the latencies are predicted at.
    users: Vec<u32>,
    /// The prediction for `profiles[i]` at `users[j]` is at
    /// `i * users.len() + j`.
    latencies: Vec<(f64, f64)>,
}

impl LatencyTable {
    fn new(
        predictor: &PerformancePredictor,
        llm: &LlmSpec,
        profiles: &[GpuProfile],
        users: &[u32],
    ) -> Self {
        let profiles: Vec<GpuProfile> = profiles
            .iter()
            .filter(|p| {
                MemoryModel::new(llm.clone(), (*p).clone(), MemoryConfig::default())
                    .feasibility()
                    .is_feasible()
            })
            .cloned()
            .collect();
        let latencies =
            profiles.iter().flat_map(|p| predictor.predict_users(llm, p, users)).collect();
        Self { profiles, users: users.to_vec(), latencies }
    }

    /// The Eq. (1)–(3) search over the table; `request.user_grid` must be
    /// the table's grid.
    fn recommend(&self, request: &RecommendationRequest) -> Result<Recommendation, CoreError> {
        debug_assert_eq!(request.user_grid, self.users);
        if self.profiles.is_empty() {
            return Err(CoreError::NoFeasibleRecommendation);
        }
        let n = self.users.len();
        recommend(&self.profiles, request, |p, u| {
            // `recommend` hands back references into `self.profiles`.
            let i = self.profiles.iter().position(|q| std::ptr::eq(q, p))?;
            let j = self.users.iter().position(|&v| v == u)?;
            Some(self.latencies[i * n + j])
        })
    }
}

/// An immutable trained recommendation model, safe to share across threads.
#[derive(Debug, Clone)]
pub struct ServingModel {
    predictor: PerformancePredictor,
    profiles: Vec<GpuProfile>,
    llms: Vec<String>,
    rows: usize,
    /// Every catalog LLM with its table on [`PAPER_USER_GRID`], filled by
    /// the first query that needs it. At most catalog × profiles × |𝕌|
    /// predictions of 16 bytes.
    tables: Vec<(LlmSpec, OnceLock<LatencyTable>)>,
}

impl ServingModel {
    /// Train on every row of `dataset`. The GPU-profile candidate set is
    /// the set of profiles present in the dataset. `constraints` drive the
    /// Eq.-(4) sample weights (queries may still ask for different SLAs —
    /// the weights only shape where the regressor spends its accuracy).
    /// The training runs under a `serving.train` span on
    /// `config.recorder`, with the predictor and GBDT phase spans nested
    /// beneath it.
    pub fn train(
        dataset: &CharacterizationDataset,
        constraints: &LatencyConstraints,
        config: &PredictorConfig,
    ) -> Result<Self, CoreError> {
        let _train_span = config.recorder.span("serving.train").arg("rows", dataset.len());
        dataset.validate()?;
        if dataset.is_empty() {
            return Err(CoreError::InsufficientData("empty characterization dataset".into()));
        }
        let profiles: Vec<GpuProfile> = dataset
            .profiles()
            .iter()
            .map(|name| {
                parse_profile(name)
                    .ok_or_else(|| CoreError::Parse(format!("unknown profile {name:?}")))
            })
            .collect::<Result<_, _>>()?;
        let rows: Vec<_> = dataset.rows.iter().collect();
        let predictor = PerformancePredictor::train(&rows, constraints, config)?;
        Ok(Self {
            predictor,
            profiles,
            llms: dataset.llms(),
            rows: dataset.len(),
            tables: llm_catalog().into_iter().map(|llm| (llm, OnceLock::new())).collect(),
        })
    }

    /// The GPU profiles this model can recommend.
    pub fn profiles(&self) -> &[GpuProfile] {
        &self.profiles
    }

    /// The LLMs present in the training dataset.
    pub fn llms(&self) -> &[String] {
        &self.llms
    }

    /// Number of characterization rows the model was trained on.
    pub fn training_rows(&self) -> usize {
        self.rows
    }

    /// The trained latency predictor behind [`Self::recommend`].
    pub fn predictor(&self) -> &PerformancePredictor {
        &self.predictor
    }

    /// Answer one recommendation query: the cheapest `(GPU profile, #pods)`
    /// deployment of `llm_name` satisfying `request` (Eq. (1)–(3)), with
    /// memory-infeasible profiles excluded up front. A query on
    /// [`PAPER_USER_GRID`] reads the LLM's cached latency table; any other
    /// grid gets the same table built for that query alone.
    ///
    /// Errors: [`CoreError::Parse`] when the LLM is not in the catalog
    /// (client error), [`CoreError::NoFeasibleRecommendation`] when no
    /// candidate satisfies the SLA (a valid domain answer).
    pub fn recommend(
        &self,
        llm_name: &str,
        request: &RecommendationRequest,
    ) -> Result<Recommendation, CoreError> {
        let (llm, table) = self
            .tables
            .iter()
            .find(|(llm, _)| llm.name == llm_name)
            .ok_or_else(|| CoreError::Parse(format!("unknown LLM {llm_name:?}")))?;
        let build = |users: &[u32]| LatencyTable::new(&self.predictor, llm, &self.profiles, users);
        if request.user_grid == PAPER_USER_GRID {
            table.get_or_init(|| build(&PAPER_USER_GRID)).recommend(request)
        } else {
            build(&request.user_grid).recommend(request)
        }
    }
}

/// A fast predictor configuration for services that retrain online: fewer,
/// shallower trees than [`PredictorConfig::default`] — accuracy within a
/// few percent on the characterization grid, training an order of
/// magnitude faster.
pub fn online_predictor_config() -> PredictorConfig {
    PredictorConfig {
        gbdt: llmpilot_ml::GbdtParams {
            n_trees: 60,
            max_depth: 4,
            ..llmpilot_ml::GbdtParams::default()
        },
        ..PredictorConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::CharacterizeConfig;
    use crate::sweep::SweepDriver;
    use llmpilot_sim::gpu::{a100_40, h100, t4};
    use llmpilot_sim::llm::{flan_t5_xl, llama2_13b, llama2_7b};
    use llmpilot_traces::{Param, TraceGenerator, TraceGeneratorConfig};
    use llmpilot_workload::{WorkloadModel, WorkloadSampler};

    fn tiny_dataset() -> CharacterizationDataset {
        let traces = TraceGenerator::new(TraceGeneratorConfig {
            num_requests: 8_000,
            seed: 41,
            ..TraceGeneratorConfig::default()
        })
        .generate();
        let model = WorkloadModel::fit(
            &traces,
            &[Param::InputTokens, Param::OutputTokens, Param::BatchSize],
        )
        .unwrap();
        let sampler = WorkloadSampler::new(model);
        let llms = vec![flan_t5_xl(), llama2_7b(), llama2_13b()];
        let profiles = vec![
            GpuProfile::new(t4(), 2),
            GpuProfile::new(a100_40(), 1),
            GpuProfile::new(h100(), 1),
        ];
        let config = CharacterizeConfig {
            duration_s: 20.0,
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

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn serving_model_is_send_sync() {
        assert_send_sync::<ServingModel>();
    }

    #[test]
    fn trains_and_answers_queries() {
        let ds = tiny_dataset();
        let model = ServingModel::train(
            &ds,
            &LatencyConstraints::paper_defaults(),
            &online_predictor_config(),
        )
        .unwrap();
        assert_eq!(model.training_rows(), ds.len());
        assert_eq!(model.llms().len(), 3);
        assert_eq!(model.profiles().len(), 3);

        let request = RecommendationRequest::paper_defaults();
        let rec = model.recommend("Llama-2-13b", &request).unwrap();
        assert!(rec.pods >= 1);
        assert!(rec.cost_per_hour > 0.0);
        assert!(model.profiles().iter().any(|p| p.name() == rec.profile));
    }

    #[test]
    fn recommendations_are_deterministic_across_calls() {
        let ds = tiny_dataset();
        let model = ServingModel::train(
            &ds,
            &LatencyConstraints::paper_defaults(),
            &online_predictor_config(),
        )
        .unwrap();
        let request = RecommendationRequest::paper_defaults();
        let a = model.recommend("Llama-2-7b", &request).unwrap();
        let b = model.recommend("Llama-2-7b", &request).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_llm_is_a_parse_error() {
        let ds = tiny_dataset();
        let model = ServingModel::train(
            &ds,
            &LatencyConstraints::paper_defaults(),
            &online_predictor_config(),
        )
        .unwrap();
        assert!(matches!(
            model.recommend("no-such-llm", &RecommendationRequest::paper_defaults()),
            Err(CoreError::Parse(_))
        ));
    }

    #[test]
    fn impossible_sla_is_no_feasible_recommendation() {
        let ds = tiny_dataset();
        let model = ServingModel::train(
            &ds,
            &LatencyConstraints::paper_defaults(),
            &online_predictor_config(),
        )
        .unwrap();
        let request = RecommendationRequest {
            total_users: 200,
            constraints: LatencyConstraints { nttft_s: 1e-9, itl_s: 1e-9 },
            user_grid: vec![1, 2, 4],
        };
        assert_eq!(
            model.recommend("Llama-2-13b", &request),
            Err(CoreError::NoFeasibleRecommendation)
        );
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let ds = CharacterizationDataset::default();
        assert!(matches!(
            ServingModel::train(
                &ds,
                &LatencyConstraints::paper_defaults(),
                &online_predictor_config()
            ),
            Err(CoreError::InsufficientData(_))
        ));
    }
}
