#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # llmpilot-sim
//!
//! Discrete-event simulator of LLM inference services on heterogeneous GPUs.
//!
//! This crate is the hardware/serving substrate of the LLM-Pilot
//! reproduction: it replaces the paper's GPU fleet and TGIS inference server
//! with a mechanistic simulation — a roofline step-time model
//! (compute-bound prompt processing, bandwidth-bound decode), an explicit
//! memory model (weights, KV cache, activation workspace), a
//! continuous-batching engine with maximum-batch-weight admission, a
//! batch-weight tuner, a closed-loop load tester and a multi-pod cluster
//! abstraction.
//!
//! ```
//! use llmpilot_sim::prelude::*;
//!
//! let llm = llm::llama2_13b();
//! let profile = GpuProfile::new(gpu::a100_80(), 1);
//! let deployment = Deployment::new(llm, profile, 1).unwrap();
//! let source = |_pod| FixedSource::constant(RequestSpec::new(300, 100));
//! let metrics = deployment.run_load_test(4, 30.0, source, &FaultPlan::none(), "").unwrap();
//! assert!(metrics.total_throughput > 0.0);
//! ```

pub mod cluster;
pub mod engine;
pub mod error;
pub mod fault;
pub mod gpu;
pub mod llm;
pub mod load;
pub mod memory;
pub mod perf_model;
pub mod request;
pub mod tuner;

/// Convenient re-exports of the crate's main types.
pub mod prelude {
    pub use crate::cluster::{ClusterMetrics, Deployment};
    pub use crate::engine::{AdmissionPolicy, Engine, PhaseHists, RequestId, StepResult};
    pub use crate::error::SimError;
    pub use crate::fault::{FaultConfig, FaultPlan, LatencyNoise, LoadFaults};
    pub use crate::gpu::{self, GpuProfile, GpuSpec};
    pub use crate::llm::{self, LlmSpec};
    pub use crate::load::{run_load_test_observed, LoadMetrics, LoadTestConfig, SampleHists};
    pub use crate::memory::{Feasibility, MemoryConfig, MemoryModel};
    pub use crate::perf_model::{PerfModel, PerfModelConfig};
    pub use crate::request::{FixedSource, RequestSource, RequestSpec};
    pub use crate::tuner::{tune_max_batch_weight, TuningOutcome};
}
