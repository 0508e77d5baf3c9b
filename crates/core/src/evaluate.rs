//! Evaluation of GPU recommendation methods (Sec. V-C, Fig. 8).
//!
//! Unseen LLMs are simulated via nested leave-one-LLM-out cross-validation:
//! each LLM is removed from the characterization dataset in turn, every
//! method recommends a deployment for it using only the remaining LLMs'
//! data (plus, for ▲ methods, reference measurements on 1×T4 and 4×H100),
//! and the recommendation is judged against the LLM's *true* measured
//! performance:
//!
//! * **success rate** `S` (Eq. 5) — did `n` pods of `G*` actually sustain
//!   `U` users under the constraints?
//! * **relative overspend** `O` (Eq. 6) — how much more the recommended
//!   deployment costs than the true cost-optimal one (successes only);
//! * **S/O score** (Eq. 7) — harmonic mean of `S` and `max(0, 1 − O)`.

use llmpilot_sim::gpu::GpuProfile;
use llmpilot_sim::llm::llm_by_name;
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};

use crate::baselines::{Method, MethodInput, REFERENCE_PROFILES};
use crate::dataset::CharacterizationDataset;
use crate::error::CoreError;
use crate::recommend::{
    pods_needed, recommend, LatencyConstraints, Recommendation, RecommendationRequest,
};

/// The true `û_max` of Eq. (5): the measured maximum users per pod for
/// `(llm, profile)` under the constraints, from the characterization data.
pub fn true_u_max(
    dataset: &CharacterizationDataset,
    llm: &str,
    profile: &str,
    constraints: &LatencyConstraints,
) -> Option<u32> {
    let mut rows: Vec<_> =
        dataset.rows.iter().filter(|r| r.llm == llm && r.profile == profile).collect();
    if rows.is_empty() {
        return None;
    }
    rows.sort_by_key(|r| r.users);
    let latencies: Vec<(u32, f64, f64)> =
        rows.iter().map(|r| (r.users, r.nttft_s, r.itl_s)).collect();
    crate::recommend::u_max(&latencies, constraints)
}

/// The oracle deployment of Eq. (6): the truly most cost-effective
/// `(profile, pods)` had the LLM's real performance been known.
pub fn oracle_recommendation(
    dataset: &CharacterizationDataset,
    llm: &str,
    profiles: &[GpuProfile],
    request: &RecommendationRequest,
) -> Result<Recommendation, CoreError> {
    // recommend() expects per-(profile, users) latencies; supply them
    // directly from the measured rows.
    recommend(profiles, request, |p, u| {
        dataset.get(llm, &p.name(), u).map(|r| (r.nttft_s, r.itl_s))
    })
}

/// Outcome of one method on one unseen LLM.
#[derive(Debug, Clone)]
pub struct LlmOutcome {
    /// The held-out LLM.
    pub llm: String,
    /// The method's recommendation (None when it failed to produce one).
    pub recommendation: Option<Recommendation>,
    /// The oracle deployment (None when no deployment truly satisfies).
    pub oracle: Option<Recommendation>,
    /// Eq. (5) success.
    pub success: bool,
    /// Eq. (6) relative overspend (successes only).
    pub overspend: Option<f64>,
}

/// Aggregate scores of one method (a point of Fig. 8).
#[derive(Debug, Clone)]
pub struct MethodScore {
    /// Method display name.
    pub method: String,
    /// Whether the method measures reference profiles (▲ vs ● in Fig. 8).
    pub uses_references: bool,
    /// Success rate `S` over all unseen LLMs.
    pub success_rate: f64,
    /// Mean relative overspend `O` over successful recommendations
    /// (`NaN` when the method never succeeded).
    pub mean_overspend: f64,
    /// S/O score (Eq. 7).
    pub so_score: f64,
    /// Per-LLM detail.
    pub outcomes: Vec<LlmOutcome>,
}

/// Eq. (7): harmonic mean of the success rate and `max(0, 1 − O)`.
pub fn so_score(success_rate: f64, mean_overspend: f64) -> f64 {
    let inv = if mean_overspend.is_nan() { 0.0 } else { (1.0 - mean_overspend).max(0.0) };
    let denom = success_rate + inv;
    if denom <= 0.0 {
        0.0
    } else {
        2.0 * success_rate * inv / denom
    }
}

/// Evaluation context shared by all methods.
pub struct Evaluation<'a> {
    /// The characterization dataset.
    pub dataset: &'a CharacterizationDataset,
    /// Candidate GPU profiles `𝔾`.
    pub profiles: Vec<GpuProfile>,
    /// The recommendation request (load, SLA, user grid).
    pub request: RecommendationRequest,
    /// Memory-model constants for the per-LLM feasibility filter.
    pub mem_config: MemoryConfig,
}

impl<'a> Evaluation<'a> {
    /// Build an evaluation with the paper's defaults.
    pub fn new(dataset: &'a CharacterizationDataset, profiles: Vec<GpuProfile>) -> Self {
        Self {
            dataset,
            profiles,
            request: RecommendationRequest::paper_defaults(),
            mem_config: MemoryConfig::default(),
        }
    }

    /// Candidate profiles a given LLM can physically be deployed on — the
    /// memory feasibility every method (and the cluster admin) can check
    /// without any performance measurement.
    fn candidate_profiles(&self, llm: &str) -> Vec<GpuProfile> {
        let Some(spec) = llm_by_name(llm) else { return Vec::new() };
        self.profiles
            .iter()
            .filter(|p| {
                MemoryModel::new(spec.clone(), (*p).clone(), self.mem_config.clone())
                    .feasibility()
                    .is_feasible()
            })
            .cloned()
            .collect()
    }

    /// Judge one recommendation for one LLM against the ground truth.
    fn judge(&self, llm: &str, rec: Result<Recommendation, CoreError>) -> LlmOutcome {
        let candidates = self.candidate_profiles(llm);
        let oracle = oracle_recommendation(self.dataset, llm, &candidates, &self.request).ok();
        let recommendation = rec.ok();
        let (success, overspend) = match &recommendation {
            None => (false, None),
            Some(r) => {
                let success = true_u_max(self.dataset, llm, &r.profile, &self.request.constraints)
                    .is_some_and(|u| {
                        u64::from(r.pods) * u64::from(u) >= u64::from(self.request.total_users)
                    });
                let overspend = if success {
                    oracle.as_ref().map(|o| {
                        // Actual cost of the recommendation vs the oracle's.
                        (r.cost_per_hour - o.cost_per_hour) / o.cost_per_hour
                    })
                } else {
                    None
                };
                (success, overspend)
            }
        };
        LlmOutcome { llm: llm.to_string(), recommendation, oracle, success, overspend }
    }

    /// Evaluate one method over every unseen LLM (the outer leave-one-out
    /// loop), in name order.
    pub fn evaluate(&self, method: &dyn Method) -> MethodScore {
        let llms = self.dataset.llms();
        let outcomes: Vec<LlmOutcome> = llms
            .iter()
            .map(|llm| {
                let spec = match llm_by_name(llm) {
                    Some(s) => s,
                    None => {
                        return LlmOutcome {
                            llm: llm.clone(),
                            recommendation: None,
                            oracle: None,
                            success: false,
                            overspend: None,
                        }
                    }
                };
                let candidates = self.candidate_profiles(llm);
                let train_rows = self.dataset.rows_excluding_llm(llm);
                let reference_rows: Vec<_> = if method.uses_reference_measurements() {
                    self.dataset
                        .rows_for_llm(llm)
                        .into_iter()
                        .filter(|r| REFERENCE_PROFILES.contains(&r.profile.as_str()))
                        .collect()
                } else {
                    Vec::new()
                };
                let input = MethodInput {
                    train_rows,
                    test_llm: &spec,
                    reference_rows,
                    profiles: &candidates,
                    request: &self.request,
                };
                self.judge(llm, method.recommend(&input))
            })
            .collect();

        let n = outcomes.len().max(1) as f64;
        let success_rate = outcomes.iter().filter(|o| o.success).count() as f64 / n;
        let spends: Vec<f64> = outcomes.iter().filter_map(|o| o.overspend).collect();
        let mean_overspend = if spends.is_empty() {
            f64::NAN
        } else {
            spends.iter().sum::<f64>() / spends.len() as f64
        };
        MethodScore {
            method: method.name().to_string(),
            uses_references: method.uses_reference_measurements(),
            success_rate,
            mean_overspend,
            so_score: so_score(success_rate, mean_overspend),
            outcomes,
        }
    }
}

/// Select the best static policy over a broad candidate grid by S/O score,
/// as the paper does for its Static baseline (Sec. V-C): "We have
/// considered a broad range of static policies and present the one which
/// achieved the highest S/O score." Returns the winning policy with its
/// score.
pub fn best_static_policy(eval: &Evaluation<'_>) -> (crate::baselines::StaticMethod, MethodScore) {
    let candidates = crate::baselines::StaticMethod::candidate_grid(&eval.profiles);
    candidates
        .into_iter()
        .map(|c| {
            let score = eval.evaluate(&c);
            (c, score)
        })
        .max_by(|a, b| {
            a.1.so_score
                .total_cmp(&b.1.so_score)
                // Deterministic tie-break: prefer fewer pods, then name.
                .then(b.0.pods.cmp(&a.0.pods))
                .then(b.0.profile.cmp(&a.0.profile))
        })
        .expect("candidate grid is nonempty")
}

/// Sanity helper for pods math exposed for tests and experiments: the
/// deployment a method with perfect knowledge would make on `profile`.
pub fn deployment_with_true_capacity(
    dataset: &CharacterizationDataset,
    llm: &str,
    profile: &GpuProfile,
    request: &RecommendationRequest,
) -> Option<Recommendation> {
    let cap = true_u_max(dataset, llm, &profile.name(), &request.constraints)?;
    let pods = pods_needed(request.total_users, cap);
    Some(Recommendation {
        profile: profile.name(),
        pods,
        u_max: cap,
        cost_per_hour: f64::from(pods) * profile.cost_per_hour(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::PerfRow;

    fn row(llm: &str, profile: &str, users: u32, nttft: f64, itl: f64) -> PerfRow {
        PerfRow {
            llm: llm.into(),
            profile: profile.into(),
            users,
            ttft_s: nttft * 100.0,
            nttft_s: nttft,
            itl_s: itl,
            throughput: f64::from(users) * 10.0,
        }
    }

    /// Synthetic dataset: "good" satisfies up to 64 users on H100, 16 on
    /// A100-40, never on T4.
    fn dataset() -> CharacterizationDataset {
        let mut ds = CharacterizationDataset::default();
        for users in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            for (profile, cap) in [("1xH100-80GB", 64u32), ("1xA100-40GB", 16), ("1xT4-16GB", 0)] {
                let (nttft, itl) = if users <= cap { (0.01, 0.01) } else { (0.5, 0.5) };
                ds.rows.push(row("Llama-2-7b", profile, users, nttft, itl));
            }
        }
        ds
    }

    #[test]
    fn true_u_max_reads_measured_curve() {
        let ds = dataset();
        let c = LatencyConstraints::paper_defaults();
        assert_eq!(true_u_max(&ds, "Llama-2-7b", "1xH100-80GB", &c), Some(64));
        assert_eq!(true_u_max(&ds, "Llama-2-7b", "1xA100-40GB", &c), Some(16));
        assert_eq!(true_u_max(&ds, "Llama-2-7b", "1xT4-16GB", &c), None);
        assert_eq!(true_u_max(&ds, "nope", "1xT4-16GB", &c), None);
    }

    #[test]
    fn oracle_picks_cheapest_true_deployment() {
        let ds = dataset();
        let profiles = vec![
            llmpilot_sim::gpu::GpuProfile::new(llmpilot_sim::gpu::h100(), 1),
            llmpilot_sim::gpu::GpuProfile::new(llmpilot_sim::gpu::a100_40(), 1),
            llmpilot_sim::gpu::GpuProfile::new(llmpilot_sim::gpu::t4(), 1),
        ];
        let request = RecommendationRequest::paper_defaults();
        let oracle = oracle_recommendation(&ds, "Llama-2-7b", &profiles, &request).unwrap();
        // H100: ceil(200/64)=4 pods × 12.29 = 49.16; A100: 13 × 4.10 = 53.3.
        assert_eq!(oracle.profile, "1xH100-80GB");
        assert_eq!(oracle.pods, 4);
    }

    #[test]
    fn so_score_is_harmonic_mean() {
        assert!((so_score(0.8, 0.2) - 0.8).abs() < 1e-12);
        assert_eq!(so_score(0.0, 0.0), 0.0);
        assert_eq!(so_score(1.0, 1.0), 0.0); // overspend 100% → inv = 0
        assert_eq!(so_score(0.5, f64::NAN), 0.0);
        // Perfect method.
        assert!((so_score(1.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn judge_scores_success_and_overspend() {
        let ds = dataset();
        let profiles = vec![
            llmpilot_sim::gpu::GpuProfile::new(llmpilot_sim::gpu::h100(), 1),
            llmpilot_sim::gpu::GpuProfile::new(llmpilot_sim::gpu::a100_40(), 1),
        ];
        let eval = Evaluation::new(&ds, profiles.clone());
        // A recommendation matching the oracle: success, overspend 0.
        let oracle = oracle_recommendation(&ds, "Llama-2-7b", &profiles, &eval.request).unwrap();
        let out = eval.judge("Llama-2-7b", Ok(oracle.clone()));
        assert!(out.success);
        assert!(out.overspend.unwrap().abs() < 1e-12);

        // Under-provisioned: 1 pod on A100 (true capacity 16 < 200) → fail.
        let bad = Recommendation {
            profile: "1xA100-40GB".into(),
            pods: 1,
            u_max: 128,
            cost_per_hour: 4.10,
        };
        let out = eval.judge("Llama-2-7b", Ok(bad));
        assert!(!out.success);
        assert!(out.overspend.is_none());

        // Over-provisioned: 30 pods on A100 → success with high overspend.
        let over = Recommendation {
            profile: "1xA100-40GB".into(),
            pods: 30,
            u_max: 16,
            cost_per_hour: 30.0 * 4.10,
        };
        let out = eval.judge("Llama-2-7b", Ok(over));
        assert!(out.success);
        assert!(out.overspend.unwrap() > 1.0);
    }

    #[test]
    fn deployment_with_true_capacity_matches_math() {
        let ds = dataset();
        let request = RecommendationRequest::paper_defaults();
        let p = llmpilot_sim::gpu::GpuProfile::new(llmpilot_sim::gpu::a100_40(), 1);
        let d = deployment_with_true_capacity(&ds, "Llama-2-7b", &p, &request).unwrap();
        assert_eq!(d.pods, 13); // ceil(200/16)
        let t4 = llmpilot_sim::gpu::GpuProfile::new(llmpilot_sim::gpu::t4(), 1);
        assert!(deployment_with_true_capacity(&ds, "Llama-2-7b", &t4, &request).is_none());
    }
}
