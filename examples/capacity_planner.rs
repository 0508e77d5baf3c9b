//! SLA what-if planning: for one LLM, sweep the latency constraints and
//! report how the cheapest viable deployment (from measured data) shifts —
//! the administrator-facing view behind Fig. 7c's cost trade-off.
//!
//! ```text
//! cargo run --release --example capacity_planner [llm-name]
//! ```

use llm_pilot::core::evaluate::oracle_recommendation;
use llm_pilot::core::recommend::{LatencyConstraints, RecommendationRequest, PAPER_USER_GRID};
use llm_pilot::core::SweepDriver;
use llm_pilot::sim::gpu::paper_profiles;
use llm_pilot::sim::llm::{llm_by_name, llm_catalog};
use llm_pilot::traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};

fn main() -> Result<(), llm_pilot::Error> {
    let target = std::env::args().nth(1).unwrap_or_else(|| "google/flan-t5-xxl".into());
    let Some(llm) = llm_by_name(&target) else {
        eprintln!("unknown LLM {target:?}; known:");
        for m in llm_catalog() {
            eprintln!("  {}", m.name);
        }
        std::process::exit(2);
    };

    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: 80_000,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    let sampler = WorkloadSampler::new(
        WorkloadModel::fit(&traces, &Param::core()).expect("non-empty traces"),
    );
    println!("measuring {} across all feasible GPU profiles...", llm.name);
    let profiles = paper_profiles();
    let (dataset, _) =
        SweepDriver::builder(std::slice::from_ref(&llm), &profiles, &sampler).build()?.run()?;
    println!("{} feasible profiles\n", dataset.tuned_weights.len());

    println!(
        "{:>10} {:>10} {:>8} | {:<14} {:>6} {:>12}",
        "nTTFT[ms]", "ITL[ms]", "users", "best profile", "pods", "cost [$/h]"
    );
    for &users in &[50u32, 200] {
        for &(nttft_ms, itl_ms) in &[(50.0, 25.0), (100.0, 50.0), (200.0, 100.0), (1000.0, 500.0)] {
            let request = RecommendationRequest {
                total_users: users,
                constraints: LatencyConstraints { nttft_s: nttft_ms / 1e3, itl_s: itl_ms / 1e3 },
                user_grid: PAPER_USER_GRID.to_vec(),
            };
            match oracle_recommendation(&dataset, llm.name, &paper_profiles(), &request) {
                Ok(rec) => println!(
                    "{nttft_ms:>10} {itl_ms:>10} {users:>8} | {:<14} {:>6} {:>12.2}",
                    rec.profile, rec.pods, rec.cost_per_hour
                ),
                Err(_) => println!(
                    "{nttft_ms:>10} {itl_ms:>10} {users:>8} | {:<14} {:>6} {:>12}",
                    "(infeasible)", "-", "-"
                ),
            }
        }
    }
    println!(
        "\nTighter SLAs force bigger-memory (costlier) profiles; relaxed SLAs\n\
         let cheap GPUs win on throughput per dollar (the paper's Fig. 7c)."
    );
    Ok(())
}
