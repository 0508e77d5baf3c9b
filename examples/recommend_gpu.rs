//! Online GPU recommendation for an unseen LLM (the cluster user's job).
//!
//! Characterizes every catalog LLM *except* the target (the historical
//! data a cluster would already have), trains LLM-Pilot's weighted +
//! monotone performance model, and recommends the cheapest
//! `(GPU profile, #pods)` satisfying the SLA — then verifies the
//! recommendation against the target's true (simulated) performance.
//!
//! ```text
//! cargo run --release --example recommend_gpu [llm-name] [users] [nttft-ms] [itl-ms]
//! e.g. cargo run --release --example recommend_gpu bigcode/starcoder 200 100 50
//! ```

use llm_pilot::core::baselines::{LlmPilotMethod, Method, MethodInput};
use llm_pilot::core::evaluate::{oracle_recommendation, true_u_max};
use llm_pilot::core::recommend::{LatencyConstraints, RecommendationRequest, PAPER_USER_GRID};
use llm_pilot::core::SweepDriver;
use llm_pilot::sim::gpu::paper_profiles;
use llm_pilot::sim::llm::{llm_by_name, llm_catalog};
use llm_pilot::sim::memory::{MemoryConfig, MemoryModel};
use llm_pilot::traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};

fn main() -> Result<(), llm_pilot::Error> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let target = args.first().cloned().unwrap_or_else(|| "bigcode/starcoder".into());
    let users: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(200);
    let nttft_ms: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(100.0);
    let itl_ms: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(50.0);

    let Some(unseen) = llm_by_name(&target) else {
        eprintln!("unknown LLM {target:?}; known:");
        for m in llm_catalog() {
            eprintln!("  {}", m.name);
        }
        std::process::exit(2);
    };

    let request = RecommendationRequest {
        total_users: users,
        constraints: LatencyConstraints { nttft_s: nttft_ms / 1e3, itl_s: itl_ms / 1e3 },
        user_grid: PAPER_USER_GRID.to_vec(),
    };
    println!(
        "request: {} concurrent users, nTTFT <= {nttft_ms} ms/token, ITL <= {itl_ms} ms",
        request.total_users
    );

    // Historical characterization data: every catalog LLM except the target.
    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: 100_000,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    let sampler = WorkloadSampler::new(
        WorkloadModel::fit(&traces, &Param::core()).expect("non-empty traces"),
    );
    let all = llm_catalog();
    let historical: Vec<_> = all.iter().filter(|m| m.name != unseen.name).cloned().collect();
    println!("characterizing {} historical LLMs...", historical.len());
    let profiles = paper_profiles();
    let (dataset, _) = SweepDriver::builder(&historical, &profiles, &sampler).build()?.run()?;

    // Candidate profiles: the ones the unseen LLM physically fits on.
    let candidates: Vec<_> = paper_profiles()
        .into_iter()
        .filter(|p| {
            MemoryModel::new(unseen.clone(), p.clone(), MemoryConfig::default())
                .feasibility()
                .is_feasible()
        })
        .collect();
    println!("{} of 14 profiles can host {}", candidates.len(), unseen.name);

    // LLM-Pilot's recommendation (no measurements of the unseen LLM).
    let method = LlmPilotMethod::untuned();
    let input = MethodInput {
        train_rows: dataset.rows.iter().collect(),
        test_llm: &unseen,
        reference_rows: vec![],
        profiles: &candidates,
        request: &request,
    };
    match method.recommend(&input) {
        Ok(rec) => {
            println!(
                "\nLLM-Pilot recommends: {} pods of {} (predicted {} users/pod) at ${:.2}/h",
                rec.pods, rec.profile, rec.u_max, rec.cost_per_hour
            );
            // Verify against the target's true (simulated) performance.
            let (truth, _) =
                SweepDriver::builder(std::slice::from_ref(&unseen), &candidates, &sampler)
                    .build()?
                    .run()?;
            let true_cap = true_u_max(&truth, unseen.name, &rec.profile, &request.constraints);
            match true_cap {
                Some(cap) if u64::from(rec.pods) * u64::from(cap) >= u64::from(users) => {
                    println!(
                        "verified: true capacity {} users/pod -> {} pods sustain {} users (SUCCESS)",
                        cap, rec.pods, users
                    );
                }
                Some(cap) => println!(
                    "verification failed: true capacity {cap} users/pod, {} pods fall short",
                    rec.pods
                ),
                None => println!("verification failed: constraints unmet even at 1 user"),
            }
            if let Ok(oracle) = oracle_recommendation(&truth, unseen.name, &candidates, &request) {
                println!(
                    "oracle (perfect knowledge): {} pods of {} at ${:.2}/h",
                    oracle.pods, oracle.profile, oracle.cost_per_hour
                );
            }
        }
        Err(e) => println!("no feasible recommendation: {e}"),
    }
    Ok(())
}
