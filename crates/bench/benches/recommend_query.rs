//! Criterion bench of the *online* path: one GPU recommendation for an
//! unseen LLM from an already-trained performance model (what the cluster
//! user experiences, Sec. IV).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use llmpilot_bench::{build_sampler, build_traces};
use llmpilot_core::characterize::CharacterizeConfig;
use llmpilot_core::predictor::{PerformancePredictor, PredictorConfig};
use llmpilot_core::recommend::{recommend, RecommendationRequest};
use llmpilot_core::{LatencyConstraints, PerfRow, SweepDriver};
use llmpilot_sim::gpu::paper_profiles;
use llmpilot_sim::llm::{llm_catalog, starcoder};

fn bench_recommend(c: &mut Criterion) {
    let traces = build_traces(40_000);
    let sampler = build_sampler(&traces);
    // Train on all LLMs except starcoder, on a reduced grid for bench setup
    // speed.
    let llms: Vec<_> =
        llm_catalog().into_iter().filter(|m| m.name != "bigcode/starcoder").collect();
    let profiles = paper_profiles();
    let (ds, _) = SweepDriver::builder(&llms, &profiles, &sampler)
        .config(CharacterizeConfig { duration_s: 30.0, ..CharacterizeConfig::default() })
        .build()
        .expect("valid sweep config")
        .run()
        .expect("a sweep without a journal does no I/O");
    let rows: Vec<&PerfRow> = ds.rows.iter().collect();
    let constraints = LatencyConstraints::paper_defaults();
    let model = PerformancePredictor::train(&rows, &constraints, &PredictorConfig::default())
        .expect("train");
    let request = RecommendationRequest::paper_defaults();
    let unseen = starcoder();

    c.bench_function("recommend_unseen_llm_14_profiles", |b| {
        b.iter(|| {
            black_box(recommend(&profiles, &request, |p, u| Some(model.predict(&unseen, p, u))))
        })
    });
}

criterion_group!(benches, bench_recommend);
criterion_main!(benches);
