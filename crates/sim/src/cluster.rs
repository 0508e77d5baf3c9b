//! Multi-pod deployments with load balancing (Sec. II-C, Table I).
//!
//! A *deployment* manages `n` replicas (pods) of one inference service; the
//! cluster load-balances users across pods, which operate independently —
//! which is why the paper observes near-perfect scaling of throughput with
//! the number of pods. Pods are independent sequential simulators; the
//! deployment runs them one after another, in pod order, on the calling
//! thread.

use crate::engine::Engine;
use crate::error::SimError;
use crate::fault::LoadFaults;
use crate::gpu::GpuProfile;
use crate::llm::LlmSpec;
use crate::load::{run_load_test_observed, LoadMetrics, LoadTestConfig};
use crate::memory::{MemoryConfig, MemoryModel};
use crate::perf_model::{PerfModel, PerfModelConfig};
use crate::request::RequestSource;
use crate::tuner::tune_max_batch_weight;

/// Aggregated result of load testing a multi-pod deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterMetrics {
    /// Number of pods in the deployment.
    pub pods: u32,
    /// Total concurrent users across the deployment.
    pub total_users: u32,
    /// Per-pod load-test metrics (empty entries are pods that received zero
    /// users and are skipped).
    pub per_pod: Vec<LoadMetrics>,
    /// Mean throughput per pod, tokens/s (Table I's cell value).
    pub throughput_per_pod: f64,
    /// Total deployment throughput, tokens/s.
    pub total_throughput: f64,
}

/// Split `total_users` across `pods` as evenly as possible (round-robin
/// load balancing): the first `total_users % pods` pods get one extra user.
pub fn split_users(total_users: u32, pods: u32) -> Vec<u32> {
    assert!(pods >= 1);
    let base = total_users / pods;
    let extra = total_users % pods;
    (0..pods).map(|i| base + u32::from(i < extra)).collect()
}

/// A deployment specification: one LLM on one GPU profile, replicated over
/// `pods` pods, with a shared tuned maximum batch weight.
#[derive(Debug, Clone)]
pub struct Deployment {
    llm: LlmSpec,
    profile: GpuProfile,
    pods: u32,
    max_batch_weight: u64,
    mem_config: MemoryConfig,
    perf_config: PerfModelConfig,
}

impl Deployment {
    /// Create a deployment, tuning the maximum batch weight once (all pods
    /// share the same hardware, hence the same tuned weight). Fails when the
    /// combination is infeasible.
    pub fn new(llm: LlmSpec, profile: GpuProfile, pods: u32) -> Result<Self, SimError> {
        Self::with_configs(llm, profile, pods, MemoryConfig::default(), PerfModelConfig::default())
    }

    /// Create a deployment with explicit model configurations.
    pub fn with_configs(
        llm: LlmSpec,
        profile: GpuProfile,
        pods: u32,
        mem_config: MemoryConfig,
        perf_config: PerfModelConfig,
    ) -> Result<Self, SimError> {
        assert!(pods >= 1, "a deployment needs at least one pod");
        let mem = MemoryModel::new(llm.clone(), profile.clone(), mem_config.clone());
        let feas = mem.feasibility();
        if !feas.is_feasible() {
            return Err(SimError::InfeasibleDeployment {
                llm: llm.name.to_string(),
                profile: profile.name(),
                reason: format!("{feas:?}"),
            });
        }
        let tuned = tune_max_batch_weight(&mem)?;
        Ok(Self {
            llm,
            profile,
            pods,
            max_batch_weight: tuned.max_batch_weight,
            mem_config,
            perf_config,
        })
    }

    /// The tuned maximum batch weight shared by all pods.
    pub fn max_batch_weight(&self) -> u64 {
        self.max_batch_weight
    }

    /// Number of pods.
    pub fn pods(&self) -> u32 {
        self.pods
    }

    /// The deployment's LLM.
    pub fn llm(&self) -> &LlmSpec {
        &self.llm
    }

    /// The deployment's GPU profile.
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// Hourly cost of the whole deployment.
    pub fn cost_per_hour(&self) -> f64 {
        self.profile.cost_per_hour() * self.pods as f64
    }

    /// Build a fresh engine for one pod.
    fn make_engine(&self) -> Engine {
        let perf = PerfModel::new(self.llm.clone(), self.profile.clone(), self.perf_config.clone());
        Engine::new(perf, self.max_batch_weight)
    }

    /// Memory model shared by the pods.
    pub fn memory_model(&self) -> MemoryModel {
        MemoryModel::new(self.llm.clone(), self.profile.clone(), self.mem_config.clone())
    }

    /// Load-test the deployment with `total_users` concurrent users split
    /// across pods. `make_source` builds an independent request source for
    /// each pod (typically seeded by the pod index). Pods run in pod order.
    pub fn run_load_test<S, F>(
        &self,
        total_users: u32,
        duration_s: f64,
        make_source: F,
    ) -> Result<ClusterMetrics, SimError>
    where
        S: RequestSource,
        F: Fn(usize) -> S,
    {
        let mem = self.memory_model();
        let mut per_pod = Vec::new();
        for (i, users) in split_users(total_users, self.pods).into_iter().enumerate() {
            if users == 0 {
                continue;
            }
            let mut engine = self.make_engine();
            let mut source = make_source(i);
            let config = LoadTestConfig { duration_s, warmup_s: 0.0, concurrent_users: users };
            per_pod.push(run_load_test_observed(
                &mut engine,
                &mem,
                &mut source,
                &config,
                &mut LoadFaults::none(),
                None,
            )?);
        }
        let total_throughput: f64 = per_pod.iter().map(|m| m.throughput_tokens_per_s).sum();
        Ok(ClusterMetrics {
            pods: self.pods,
            total_users,
            // Per-pod average over *all* pods of the deployment (idle pods
            // included), matching the paper's Table I cell semantics.
            throughput_per_pod: total_throughput / f64::from(self.pods),
            total_throughput,
            per_pod,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{a100_80, t4};
    use crate::llm::{flan_ul2, llama2_13b};
    use crate::request::{FixedSource, RequestSpec};

    fn source(_pod: usize) -> FixedSource {
        FixedSource::new(vec![
            RequestSpec::new(400, 150),
            RequestSpec::new(900, 300),
            RequestSpec::new(150, 60),
        ])
    }

    #[test]
    fn split_users_is_even() {
        assert_eq!(split_users(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(split_users(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(split_users(2, 4), vec![1, 1, 0, 0]);
    }

    #[test]
    fn infeasible_deployment_is_rejected() {
        assert!(matches!(
            Deployment::new(flan_ul2(), GpuProfile::new(t4(), 1), 1),
            Err(SimError::InfeasibleDeployment { .. })
        ));
    }

    #[test]
    fn near_perfect_pod_scaling() {
        // Table I's diagonal property: cases with the same users:pods ratio
        // have nearly identical throughput per pod.
        let d1 = Deployment::new(llama2_13b(), GpuProfile::new(a100_80(), 1), 1).unwrap();
        let d2 = Deployment::new(llama2_13b(), GpuProfile::new(a100_80(), 1), 2).unwrap();
        let m1 = d1.run_load_test(8, 120.0, source).unwrap();
        let m2 = d2.run_load_test(16, 120.0, source).unwrap();
        let rel = (m1.throughput_per_pod - m2.throughput_per_pod).abs()
            / m1.throughput_per_pod.max(m2.throughput_per_pod);
        assert!(rel < 0.05, "relative deviation {rel}");
    }

    #[test]
    fn total_throughput_sums_pods() {
        let d = Deployment::new(llama2_13b(), GpuProfile::new(a100_80(), 1), 4).unwrap();
        let m = d.run_load_test(32, 60.0, source).unwrap();
        assert_eq!(m.per_pod.len(), 4);
        let sum: f64 = m.per_pod.iter().map(|p| p.throughput_tokens_per_s).sum();
        assert!((m.total_throughput - sum).abs() < 1e-9);
        assert!((m.throughput_per_pod - sum / 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_user_pods_are_skipped() {
        let d = Deployment::new(llama2_13b(), GpuProfile::new(a100_80(), 1), 8).unwrap();
        let m = d.run_load_test(2, 30.0, source).unwrap();
        assert_eq!(m.per_pod.len(), 2);
    }

    #[test]
    fn deployment_cost_scales_with_pods() {
        let d1 = Deployment::new(llama2_13b(), GpuProfile::new(a100_80(), 1), 1).unwrap();
        let d3 = Deployment::new(llama2_13b(), GpuProfile::new(a100_80(), 1), 3).unwrap();
        assert!((d3.cost_per_hour() - 3.0 * d1.cost_per_hour()).abs() < 1e-9);
    }

    #[test]
    fn more_pods_serve_more_users_at_same_per_user_rate() {
        let d1 = Deployment::new(llama2_13b(), GpuProfile::new(a100_80(), 1), 1).unwrap();
        let d4 = Deployment::new(llama2_13b(), GpuProfile::new(a100_80(), 1), 4).unwrap();
        let m1 = d1.run_load_test(128, 120.0, source).unwrap();
        let m4 = d4.run_load_test(128, 120.0, source).unwrap();
        // Four pods at 32 users each beat one saturated pod at 128 users.
        assert!(m4.total_throughput > m1.total_throughput);
    }
}
