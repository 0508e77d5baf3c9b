#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # llmpilot-core
//!
//! LLM-Pilot: a system for characterizing and predicting the performance of
//! LLM inference services (SC'24), reproduced in Rust.
//!
//! Two halves, matching the paper:
//!
//! * the **performance characterization tool** ([`mod@characterize`]) — deploys
//!   an inference service per `(LLM, GPU profile)` cell, tunes the maximum
//!   batch weight, and load-tests it under a realistic workload, producing a
//!   [`dataset::CharacterizationDataset`];
//! * the **GPU recommendation tool** ([`predictor`], [`mod@recommend`]) — learns
//!   a weighted, monotone-constrained gradient-boosted performance model
//!   from the characterization data and recommends the cheapest
//!   `(GPU profile, #pods)` meeting an unseen LLM's SLA, evaluated against
//!   the PARIS/RF/Selecta/Morphling/PerfNet/Static baselines
//!   ([`baselines`], [`evaluate`]).

pub mod baselines;
pub mod characterize;
pub mod dataset;
pub mod error;
pub mod evaluate;
pub mod features;
pub mod predictor;
pub mod recommend;
pub mod serving;
pub mod sweep;
pub mod weights;

pub use characterize::{
    characterize_cell, CellContext, CellOutcome, CharacterizeConfig, WorkloadRequestSource,
};
pub use dataset::{CharacterizationDataset, PerfRow};
pub use error::CoreError;
pub use evaluate::{so_score, true_u_max, Evaluation, MethodScore};
pub use predictor::{PerformancePredictor, PredictorConfig};
pub use recommend::{
    recommend, LatencyConstraints, Recommendation, RecommendationRequest, PAPER_USER_GRID,
};
pub use serving::{online_predictor_config, ServingModel};
pub use sweep::{
    CellStatus, CellTails, SweepDriver, SweepDriverBuilder, SweepOptions, SweepReport,
};
