//! The model registry: owns the trained [`ServingModel`] generations and
//! swaps in retrained models without dropping in-flight queries.
//!
//! Queries clone an `Arc<TrainedModel>` under a momentary read lock and
//! keep using it for their whole lifetime — a swap only changes what the
//! *next* query sees. Training runs are serialized by a dedicated mutex
//! (held across the whole fit, which can take hundreds of milliseconds)
//! so concurrent reload triggers cannot train the same generation twice;
//! the read path never touches that mutex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use llmpilot_core::{
    CharacterizationDataset, CoreError, LatencyConstraints, PredictorConfig, ServingModel,
};

/// One immutable trained model plus its provenance.
#[derive(Debug)]
pub struct TrainedModel {
    /// The query-ready model.
    pub serving: ServingModel,
    /// Generation of the dataset it was trained on.
    pub dataset_generation: u64,
    /// Monotone model generation (bumps on every successful swap).
    pub model_generation: u64,
}

/// Thread-safe owner of the live model.
#[derive(Debug)]
pub struct ModelRegistry {
    live: RwLock<Option<Arc<TrainedModel>>>,
    train_lock: Mutex<()>,
    next_generation: AtomicU64,
    constraints: LatencyConstraints,
    config: PredictorConfig,
}

impl ModelRegistry {
    /// An empty registry; `constraints` and `config` apply to every
    /// (re)training run, which records a `serve.retrain` span with the
    /// training spans nested beneath on `config.recorder`.
    pub fn new(constraints: LatencyConstraints, config: PredictorConfig) -> Self {
        Self {
            live: RwLock::new(None),
            train_lock: Mutex::new(()),
            next_generation: AtomicU64::new(1),
            constraints,
            config,
        }
    }

    /// The live model, if one has been trained. Cheap `Arc` clone.
    pub fn current(&self) -> Option<Arc<TrainedModel>> {
        self.live.read().expect("model registry lock poisoned").clone()
    }

    /// Train on `dataset` and swap the result in as the live model.
    /// Returns the new model generation. If a model for
    /// `dataset_generation` (or newer) was already swapped in by a racing
    /// caller, the redundant fit is skipped and that model's generation is
    /// returned. On training failure the previous model keeps serving.
    pub fn train_and_swap(
        &self,
        dataset: &CharacterizationDataset,
        dataset_generation: u64,
    ) -> Result<u64, CoreError> {
        let _serialize = self.train_lock.lock().expect("model registry train lock poisoned");
        if let Some(live) = self.current() {
            if live.dataset_generation >= dataset_generation {
                return Ok(live.model_generation);
            }
        }
        let mut retrain_span = self
            .config
            .recorder
            .span("serve.retrain")
            .arg("dataset_generation", dataset_generation);
        let serving = ServingModel::train(dataset, &self.constraints, &self.config)?;
        let model_generation = self.next_generation.fetch_add(1, Ordering::Relaxed);
        retrain_span.set_arg("model_generation", model_generation);
        let trained = Arc::new(TrainedModel { serving, dataset_generation, model_generation });
        *self.live.write().expect("model registry lock poisoned") = Some(trained);
        Ok(model_generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpilot_core::{online_predictor_config, PerfRow, RecommendationRequest};

    fn dataset(llms: &[&str]) -> CharacterizationDataset {
        let mut rows = Vec::new();
        for llm in llms {
            for users in [1u32, 2, 4, 8, 16] {
                rows.push(PerfRow {
                    llm: (*llm).into(),
                    profile: "1xA100-80GB".into(),
                    users,
                    ttft_s: 0.05 * f64::from(users),
                    nttft_s: 0.0002 * f64::from(users),
                    itl_s: 0.004 * f64::from(users),
                    throughput: 50.0 * f64::from(users),
                });
            }
        }
        CharacterizationDataset { rows, ..Default::default() }
    }

    fn registry() -> ModelRegistry {
        ModelRegistry::new(LatencyConstraints::paper_defaults(), online_predictor_config())
    }

    #[test]
    fn trains_swaps_and_serves() {
        let reg = registry();
        assert!(reg.current().is_none());
        let g1 = reg.train_and_swap(&dataset(&["Llama-2-7b"]), 1).unwrap();
        assert_eq!(g1, 1);
        let live = reg.current().unwrap();
        assert_eq!(live.dataset_generation, 1);
        assert!(live
            .serving
            .recommend("Llama-2-13b", &RecommendationRequest::paper_defaults())
            .is_ok());
    }

    #[test]
    fn same_dataset_generation_trains_once() {
        let reg = registry();
        let ds = dataset(&["Llama-2-7b"]);
        assert_eq!(reg.train_and_swap(&ds, 1).unwrap(), 1);
        assert_eq!(reg.train_and_swap(&ds, 1).unwrap(), 1);
        assert_eq!(reg.current().unwrap().model_generation, 1);
    }

    #[test]
    fn newer_dataset_bumps_model_generation_and_old_arcs_stay_valid() {
        let reg = registry();
        reg.train_and_swap(&dataset(&["Llama-2-7b"]), 1).unwrap();
        let old = reg.current().unwrap();
        let g2 = reg.train_and_swap(&dataset(&["Llama-2-7b", "Llama-2-13b"]), 2).unwrap();
        assert_eq!(g2, 2);
        // The in-flight query's model is untouched by the swap.
        assert_eq!(old.model_generation, 1);
        assert_eq!(reg.current().unwrap().model_generation, 2);
    }

    #[test]
    fn failed_training_keeps_previous_model() {
        let reg = registry();
        reg.train_and_swap(&dataset(&["Llama-2-7b"]), 1).unwrap();
        let bad = CharacterizationDataset::default(); // empty → training fails
        assert!(reg.train_and_swap(&bad, 2).is_err());
        assert_eq!(reg.current().unwrap().model_generation, 1);
    }
}
