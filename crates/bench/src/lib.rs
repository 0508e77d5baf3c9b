#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # llmpilot-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! LLM-Pilot paper (see DESIGN.md's experiment index). The `experiments`
//! binary dispatches to the modules in [`experiments`]. Per-layer timings
//! (engine step, tuner, load test, GBDT training, recommendation query)
//! come from the seeded, spread-reporting `perfbench` harness at the
//! repository root, not from this crate.

pub mod experiments;

use llmpilot_core::{CharacterizationDataset, CharacterizeConfig, SweepDriver};
use llmpilot_sim::gpu::paper_profiles;
use llmpilot_sim::llm::llm_catalog;
use llmpilot_traces::{Param, TraceDataset, TraceGenerator, TraceGeneratorConfig};
use llmpilot_workload::{WorkloadModel, WorkloadSampler};

/// Default trace-corpus size for experiments (the paper's collection has
/// 17.3M requests; this keeps experiment runtime reasonable while leaving
/// every distribution shape intact).
pub const DEFAULT_TRACE_REQUESTS: usize = 120_000;

/// Base seed of all experiments.
pub const EXPERIMENT_SEED: u64 = 0x5C24;

/// Generate the synthetic production-trace corpus used by all experiments.
pub fn build_traces(num_requests: usize) -> TraceDataset {
    TraceGenerator::new(TraceGeneratorConfig {
        num_requests,
        seed: EXPERIMENT_SEED,
        ..TraceGeneratorConfig::default()
    })
    .generate()
}

/// The parameters the workload generator models for load testing.
pub fn workload_params() -> Vec<Param> {
    Param::core()
}

/// Fit the workload generator to a trace corpus.
pub fn build_sampler(traces: &TraceDataset) -> WorkloadSampler {
    let model = WorkloadModel::fit(traces, &workload_params()).expect("non-empty traces");
    WorkloadSampler::new(model)
}

/// Run the paper-scale characterization sweep: the 10 catalog LLMs on the
/// 14 Table III GPU profiles, 1..128 users.
///
/// The paper load-tests each point for 2 minutes on real hardware; the
/// simulator's virtual minutes are cheap, so the experiment suite runs a
/// longer steady-state window (with warm-up) to shrink the workload-mix
/// variance of the median latencies — the measurement-noise level of the
/// paper's testbed, not a protocol change.
pub fn full_characterization(sampler: &WorkloadSampler) -> CharacterizationDataset {
    let (llms, profiles) = (llm_catalog(), paper_profiles());
    let driver = SweepDriver::builder(&llms, &profiles, sampler)
        .config(experiment_characterize_config())
        .build()
        .expect("valid sweep config");
    driver.run().expect("a sweep without a journal does no I/O").0
}

/// The experiment suite's characterization configuration (longer
/// steady-state window; see [`full_characterization`]).
pub fn experiment_characterize_config() -> CharacterizeConfig {
    CharacterizeConfig { duration_s: 600.0, warmup_s: 60.0, ..CharacterizeConfig::default() }
}

/// Format a float with engineering-friendly precision.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        "n/a".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_and_sampler_build() {
        let traces = build_traces(5_000);
        assert_eq!(traces.len(), 5_000);
        let sampler = build_sampler(&traces);
        assert!(sampler.model().num_nonempty_bins() > 10);
    }

    #[test]
    fn fmt_is_stable() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.5), "1234");
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(0.01234), "0.0123");
        assert_eq!(fmt(f64::NAN), "n/a");
    }
}
