//! Integration: the full recommendation pipeline — characterize a fleet,
//! hold out one LLM, train LLM-Pilot, recommend, and judge against the
//! measured ground truth (the Fig. 8 machinery at small scale).

use llm_pilot::core::baselines::{LlmPilotMethod, Method, MethodInput, StaticMethod};
use llm_pilot::core::evaluate::{
    best_static_policy, oracle_recommendation, so_score, true_u_max, Evaluation,
};
use llm_pilot::core::recommend::RecommendationRequest;
use llm_pilot::core::{CharacterizationDataset, CharacterizeConfig, SweepDriver};
use llm_pilot::sim::gpu::{a10, a100_40, h100, t4, GpuProfile};
use llm_pilot::sim::llm::{flan_t5_xl, flan_t5_xxl, llama2_13b, llama2_7b, starcoder};
use llm_pilot::traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};

fn profiles() -> Vec<GpuProfile> {
    vec![
        GpuProfile::new(t4(), 2),
        GpuProfile::new(a10(), 2),
        GpuProfile::new(a100_40(), 1),
        GpuProfile::new(h100(), 1),
    ]
}

fn dataset() -> CharacterizationDataset {
    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: 25_000,
        seed: 41,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    let sampler = WorkloadSampler::new(WorkloadModel::fit(&traces, &Param::core()).unwrap());
    let llms = vec![flan_t5_xl(), flan_t5_xxl(), llama2_7b(), llama2_13b(), starcoder()];
    let profiles = profiles();
    let config = CharacterizeConfig {
        duration_s: 120.0,
        user_sweep: vec![1, 2, 4, 8, 16, 32, 64, 128],
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
fn evaluation_invariants_hold_for_llm_pilot() {
    let ds = dataset();
    let eval = Evaluation::new(&ds, profiles());
    let score = eval.evaluate(&LlmPilotMethod::untuned());

    assert_eq!(score.outcomes.len(), ds.llms().len());
    assert!((0.0..=1.0).contains(&score.success_rate));
    for o in &score.outcomes {
        // Eq. (6): a successful recommendation can never undercut the
        // oracle, which already takes the cheapest truly-viable deployment.
        if let Some(spend) = o.overspend {
            assert!(o.success);
            assert!(spend >= -1e-9, "{}: overspend {spend}", o.llm);
        }
        // A successful outcome implies the oracle existed.
        if o.success {
            assert!(o.oracle.is_some(), "{}: success without oracle", o.llm);
        }
        // Recommendations only name candidate profiles.
        if let Some(rec) = &o.recommendation {
            assert!(
                profiles().iter().any(|p| p.name() == rec.profile),
                "{}: unknown profile {}",
                o.llm,
                rec.profile
            );
            assert!(rec.pods >= 1);
        }
    }
    assert_eq!(score.so_score, so_score(score.success_rate, score.mean_overspend));
}

#[test]
fn oracle_is_optimal_among_true_deployments() {
    let ds = dataset();
    let request = RecommendationRequest::paper_defaults();
    for llm in ds.llms() {
        let Ok(oracle) = oracle_recommendation(&ds, &llm, &profiles(), &request) else {
            continue;
        };
        // The oracle's pod count must be exactly the ceiling for its true
        // per-pod capacity…
        let cap = true_u_max(&ds, &llm, &oracle.profile, &request.constraints).unwrap();
        assert_eq!(oracle.pods, request.total_users.div_ceil(cap));
        // …and no other profile can beat its cost using true capacities.
        for p in profiles() {
            if let Some(c) = true_u_max(&ds, &llm, &p.name(), &request.constraints) {
                let cost = f64::from(request.total_users.div_ceil(c)) * p.cost_per_hour();
                assert!(
                    cost >= oracle.cost_per_hour - 1e-9,
                    "{llm}: {} at {cost} beats oracle {}",
                    p.name(),
                    oracle.cost_per_hour
                );
            }
        }
    }
}

#[test]
fn llm_pilot_produces_recommendations_for_every_holdout() {
    let ds = dataset();
    let request = RecommendationRequest::paper_defaults();
    let method = LlmPilotMethod::untuned();
    let mut produced = 0;
    for llm in ds.llms() {
        let spec = llm_pilot::sim::llm::llm_by_name(&llm).unwrap();
        let input = MethodInput {
            train_rows: ds.rows_excluding_llm(&llm),
            test_llm: &spec,
            reference_rows: vec![],
            profiles: &profiles(),
            request: &request,
        };
        if method.recommend(&input).is_ok() {
            produced += 1;
        }
    }
    // Every cell of this grid has viable deployments; a trained model
    // should find one for most hold-outs.
    assert!(produced >= 3, "only {produced}/5 hold-outs got a recommendation");
}

#[test]
fn best_static_policy_beats_fixed_paper_guess_or_ties() {
    let ds = dataset();
    let eval = Evaluation::new(&ds, profiles());
    let (policy, score) = best_static_policy(&eval);
    assert!(policy.pods >= 1);
    // By construction the selected policy is at least as good as any fixed
    // candidate, including the paper's own 4-pod guess when present.
    let fixed = StaticMethod { profile: "1xA100-40GB".into(), pods: 4 };
    let fixed_score = eval.evaluate(&fixed);
    assert!(score.so_score >= fixed_score.so_score - 1e-12);
}

#[test]
fn reference_rows_are_only_reference_profiles() {
    let ds = dataset();
    // REFERENCE_PROFILES are 1xT4 / 4xH100, neither in this grid, so the
    // filter must produce nothing — and reference-using methods must cope.
    let refs: Vec<_> = ds
        .rows_for_llm("Llama-2-13b")
        .into_iter()
        .filter(|r| llm_pilot::core::baselines::REFERENCE_PROFILES.contains(&r.profile.as_str()))
        .collect();
    assert!(refs.is_empty());
    let eval = Evaluation::new(&ds, profiles());
    let score = eval.evaluate(&llm_pilot::core::baselines::SelectaMethod::new());
    assert_eq!(score.outcomes.len(), ds.llms().len());
}
