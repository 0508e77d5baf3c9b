//! The GPU recommendation problem and its solver (Sec. IV-A, Eq. (1)–(3)).
//!
//! Given latency predictions `l₁` (nTTFT) and `l₂` (ITL) for an unseen LLM
//! on every GPU profile and user count, LLM-Pilot estimates the maximum
//! number of concurrent users `u_max` a single pod can serve without
//! violating the constraints (Eq. 3), derives the number of pods
//! `n = ⌈U / u_max⌉` needed for the expected load (Eq. 2), and recommends
//! the profile minimizing total cost `n · c(G)` (Eq. 1).

use llmpilot_sim::gpu::{gpu_by_name, GpuProfile};

use crate::error::CoreError;

/// The latency constraints `L = (L₁, L₂)` of the user's SLA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyConstraints {
    /// Normalized-TTFT bound `L₁`, seconds per input token.
    pub nttft_s: f64,
    /// Inter-token latency bound `L₂`, seconds.
    pub itl_s: f64,
}

impl LatencyConstraints {
    /// The paper's evaluation defaults: `L₁ = 100 ms`, `L₂ = 50 ms`.
    pub fn paper_defaults() -> Self {
        Self { nttft_s: 0.100, itl_s: 0.050 }
    }

    /// Whether a latency pair satisfies both constraints.
    pub fn satisfied_by(&self, nttft_s: f64, itl_s: f64) -> bool {
        nttft_s <= self.nttft_s && itl_s <= self.itl_s
    }
}

/// The paper's per-pod user counts `𝕌 = {1, 2, 4, …, 128}` (Sec. V-C),
/// the grid the daemon searches and [`crate::ServingModel`] tables once
/// per LLM.
pub const PAPER_USER_GRID: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// A recommendation request: the expected load and SLA.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendationRequest {
    /// Total number of concurrent users `U` the service must sustain.
    pub total_users: u32,
    /// Latency constraints `L`.
    pub constraints: LatencyConstraints,
    /// The considered per-pod user counts `𝕌` (ascending).
    pub user_grid: Vec<u32>,
}

impl RecommendationRequest {
    /// The paper's evaluation setting: `U = 200`, `L₁ = 100 ms`,
    /// `L₂ = 50 ms`, `𝕌 = {1, 2, 4, …, 128}`.
    pub fn paper_defaults() -> Self {
        Self {
            total_users: 200,
            constraints: LatencyConstraints::paper_defaults(),
            user_grid: PAPER_USER_GRID.to_vec(),
        }
    }
}

/// A deployment recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended GPU profile `G*`.
    pub profile: String,
    /// Number of pods `n` to create.
    pub pods: u32,
    /// Estimated per-pod user capacity `u_max`.
    pub u_max: u32,
    /// Total deployment cost per hour, `n · c(G*)`.
    pub cost_per_hour: f64,
}

/// Eq. (3): the largest `u ∈ 𝕌` such that *every* `u' ≤ u` satisfies both
/// constraints under the latency estimates `(users, nttft, itl)`. Returns
/// `None` when even the smallest user count violates a constraint. The grid
/// must be ascending in users.
pub fn u_max(latencies: &[(u32, f64, f64)], constraints: &LatencyConstraints) -> Option<u32> {
    debug_assert!(latencies.windows(2).all(|w| w[0].0 < w[1].0), "grid must ascend");
    let mut best = None;
    for &(users, nttft, itl) in latencies {
        if constraints.satisfied_by(nttft, itl) {
            best = Some(users);
        } else {
            break; // the ∀ u' ≤ u condition fails for all larger u
        }
    }
    best
}

/// Eq. (2): pods needed for `total_users` at `u_max` users per pod.
pub fn pods_needed(total_users: u32, u_max: u32) -> u32 {
    assert!(u_max >= 1);
    total_users.div_ceil(u_max)
}

/// Parse a canonical profile name (`"2xA100-40GB"`) back into a
/// [`GpuProfile`].
pub fn parse_profile(name: &str) -> Option<GpuProfile> {
    let (count, gpu) = name.split_once('x')?;
    let count: u32 = count.parse().ok()?;
    if count == 0 {
        return None;
    }
    Some(GpuProfile::new(gpu_by_name(gpu)?, count))
}

/// Eq. (1): recommend the most cost-effective profile. `predict` supplies
/// the latency estimates `(nttft, itl)` for a profile and user count —
/// LLM-Pilot passes its performance model here; the oracle evaluation
/// passes the measured ground truth. Profiles whose predictions violate the
/// constraints even at the smallest user count are unusable; if all are,
/// the recommendation fails.
pub fn recommend<F>(
    profiles: &[GpuProfile],
    request: &RecommendationRequest,
    predict: F,
) -> Result<Recommendation, CoreError>
where
    F: Fn(&GpuProfile, u32) -> Option<(f64, f64)>,
{
    if profiles.is_empty() {
        return Err(CoreError::InsufficientData("no candidate GPU profiles".into()));
    }
    let mut best: Option<Recommendation> = None;
    for profile in profiles {
        let latencies: Vec<(u32, f64, f64)> = request
            .user_grid
            .iter()
            .filter_map(|&u| predict(profile, u).map(|(l1, l2)| (u, l1, l2)))
            .collect();
        if latencies.is_empty() {
            continue;
        }
        let Some(cap) = u_max(&latencies, &request.constraints) else {
            continue;
        };
        let pods = pods_needed(request.total_users, cap);
        let cost = f64::from(pods) * profile.cost_per_hour();
        let candidate =
            Recommendation { profile: profile.name(), pods, u_max: cap, cost_per_hour: cost };
        // Equal-cost candidates tie-break on the stable key (profile name,
        // then pods) so recommendations are reproducible regardless of the
        // order the candidate profiles were supplied in.
        let better = match &best {
            None => true,
            Some(b) => {
                cost < b.cost_per_hour - 1e-12
                    || ((cost - b.cost_per_hour).abs() <= 1e-12
                        && (candidate.profile.as_str(), candidate.pods)
                            < (b.profile.as_str(), b.pods))
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best.ok_or(CoreError::NoFeasibleRecommendation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmpilot_sim::gpu::{a100_40, h100, t4};

    const L: LatencyConstraints = LatencyConstraints { nttft_s: 0.1, itl_s: 0.05 };

    #[test]
    fn u_max_scans_prefix() {
        let lat = vec![
            (1, 0.01, 0.02),
            (2, 0.02, 0.03),
            (4, 0.05, 0.04),
            (8, 0.2, 0.04),   // violates nTTFT
            (16, 0.01, 0.01), // satisfied again, but must NOT count (∀ u' ≤ u)
        ];
        assert_eq!(u_max(&lat, &L), Some(4));
    }

    #[test]
    fn u_max_none_when_first_violates() {
        let lat = vec![(1, 0.5, 0.02), (2, 0.01, 0.01)];
        assert_eq!(u_max(&lat, &L), None);
    }

    #[test]
    fn pods_needed_is_ceiling() {
        assert_eq!(pods_needed(200, 128), 2);
        assert_eq!(pods_needed(200, 100), 2);
        assert_eq!(pods_needed(200, 99), 3);
        assert_eq!(pods_needed(1, 128), 1);
    }

    #[test]
    fn parse_profile_round_trips() {
        for p in llmpilot_sim::gpu::paper_profiles() {
            let parsed = parse_profile(&p.name()).unwrap();
            assert_eq!(parsed.name(), p.name());
        }
        assert!(parse_profile("0xT4-16GB").is_none());
        assert!(parse_profile("banana").is_none());
        assert!(parse_profile("2xB200").is_none());
    }

    #[test]
    fn recommend_picks_cheapest_satisfying_profile() {
        let profiles = vec![
            GpuProfile::new(h100(), 1),
            GpuProfile::new(a100_40(), 1),
            GpuProfile::new(t4(), 1),
        ];
        let request = RecommendationRequest {
            total_users: 100,
            constraints: L,
            user_grid: vec![1, 2, 4, 8, 16, 32, 64, 128],
        };
        // H100 serves 64 users/pod, A100 serves 32, T4 violates at 1 user.
        let rec = recommend(&profiles, &request, |p, u| {
            let cap = match p.gpu.name {
                "H100-80GB" => 64,
                "A100-40GB" => 32,
                _ => 0,
            };
            Some(if u <= cap { (0.01, 0.01) } else { (1.0, 1.0) })
        })
        .unwrap();
        // H100: 2 pods × 12.29 = 24.58; A100: 4 pods × 4.10 = 16.40 → A100.
        assert_eq!(rec.profile, "1xA100-40GB");
        assert_eq!(rec.pods, 4);
        assert_eq!(rec.u_max, 32);
        assert!((rec.cost_per_hour - 4.0 * 4.10).abs() < 1e-9);
    }

    #[test]
    fn recommend_fails_when_nothing_satisfies() {
        let profiles = vec![GpuProfile::new(t4(), 1)];
        let request = RecommendationRequest::paper_defaults();
        let err = recommend(&profiles, &request, |_, _| Some((1.0, 1.0))).unwrap_err();
        assert_eq!(err, CoreError::NoFeasibleRecommendation);
    }

    #[test]
    fn recommend_skips_profiles_without_predictions() {
        let profiles = vec![GpuProfile::new(t4(), 1), GpuProfile::new(a100_40(), 1)];
        let request =
            RecommendationRequest { total_users: 10, constraints: L, user_grid: vec![1, 2] };
        let rec = recommend(&profiles, &request, |p, _| {
            if p.gpu.name == "T4-16GB" {
                None
            } else {
                Some((0.01, 0.01))
            }
        })
        .unwrap();
        assert_eq!(rec.profile, "1xA100-40GB");
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        let profiles = vec![GpuProfile::new(a100_40(), 1), GpuProfile::new(a100_40(), 1)];
        let request = RecommendationRequest { total_users: 1, constraints: L, user_grid: vec![1] };
        let rec = recommend(&profiles, &request, |_, _| Some((0.0, 0.0))).unwrap();
        assert_eq!(rec.profile, "1xA100-40GB");
    }

    #[test]
    fn equal_cost_tie_breaks_by_profile_name_then_pods_order_independently() {
        // 1×T4 at $0.53/h serving 1 user/pod needs 2 pods for 2 users
        // ($1.06/h); 2×T4 at $1.06/h serving 2 users/pod needs 1 pod
        // ($1.06/h). Exact cost tie — the stable key picks "1xT4-16GB"
        // (lexicographically smaller name), independent of candidate order.
        let request =
            RecommendationRequest { total_users: 2, constraints: L, user_grid: vec![1, 2] };
        let predict = |p: &GpuProfile, u: u32| {
            let cap = p.count; // u_max equals the GPU count in this setup
            Some(if u <= cap { (0.01, 0.01) } else { (1.0, 1.0) })
        };
        let forward = vec![GpuProfile::new(t4(), 1), GpuProfile::new(t4(), 2)];
        let reverse = vec![GpuProfile::new(t4(), 2), GpuProfile::new(t4(), 1)];
        let a = recommend(&forward, &request, predict).unwrap();
        let b = recommend(&reverse, &request, predict).unwrap();
        assert_eq!(a, b, "recommendation must not depend on candidate order");
        assert_eq!(a.profile, "1xT4-16GB");
        assert_eq!(a.pods, 2);
        assert!((a.cost_per_hour - 2.0 * 0.53).abs() < 1e-9);
    }

    #[test]
    fn paper_defaults_match_section_5c() {
        let r = RecommendationRequest::paper_defaults();
        assert_eq!(r.total_users, 200);
        assert_eq!(r.user_grid, vec![1, 2, 4, 8, 16, 32, 64, 128]);
        assert!((r.constraints.nttft_s - 0.1).abs() < 1e-12);
        assert!((r.constraints.itl_s - 0.05).abs() < 1e-12);
    }
}
