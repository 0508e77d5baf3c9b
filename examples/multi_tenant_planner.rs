//! Multi-tenant cluster planning (the paper's stated future work, built on
//! the reproduction): several LLM services compete for one finite GPU
//! inventory; the planner picks each tenant's deployment so the most
//! tenants are served at the lowest total cost.
//!
//! ```text
//! cargo run --release --example multi_tenant_planner
//! ```

use llm_pilot::core::recommend::{LatencyConstraints, RecommendationRequest};
use llm_pilot::core::SweepDriver;
use llm_pilot::placement::{
    solve_exact, solve_greedy, tenant_from_measurements, GpuInventory, PlacementProblem,
};
use llm_pilot::sim::gpu::paper_profiles;
use llm_pilot::sim::llm::{flan_t5_xl, flan_t5_xxl, llama2_13b, llama2_7b, starcoder};
use llm_pilot::traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};

fn main() -> Result<(), llm_pilot::Error> {
    // Measure five services across the GPU grid (the admin's offline data).
    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: 60_000,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    let sampler = WorkloadSampler::new(
        WorkloadModel::fit(&traces, &Param::core()).expect("non-empty traces"),
    );
    let llms = vec![flan_t5_xl(), flan_t5_xxl(), llama2_7b(), llama2_13b(), starcoder()];
    println!("characterizing {} services...", llms.len());
    let profiles = paper_profiles();
    let (dataset, _) = SweepDriver::builder(&llms, &profiles, &sampler).build()?.run()?;

    // The cluster's physical inventory.
    let inventory = GpuInventory::from_counts([
        ("H100-80GB".to_string(), 8),
        ("A100-40GB".to_string(), 16),
        ("A10-24GB".to_string(), 6),
        ("T4-16GB".to_string(), 32),
    ]);
    println!("inventory: {inventory}");

    // Tenants with different loads and SLAs.
    let scenarios = [
        ("chatbot/flan-t5-xl", "google/flan-t5-xl", 200u32, 0.100, 0.050),
        ("summarizer/flan-t5-xxl", "google/flan-t5-xxl", 100, 0.200, 0.080),
        ("assistant/llama-2-7b", "Llama-2-7b", 150, 0.100, 0.050),
        ("assistant-pro/llama-2-13b", "Llama-2-13b", 80, 0.100, 0.060),
        ("code/starcoder", "bigcode/starcoder", 120, 0.150, 0.050),
    ];
    let tenants = scenarios
        .iter()
        .map(|&(name, llm, users, nttft, itl)| {
            let request = RecommendationRequest {
                total_users: users,
                constraints: LatencyConstraints { nttft_s: nttft, itl_s: itl },
                user_grid: (0..8).map(|i| 1u32 << i).collect(),
            };
            tenant_from_measurements(name, llm, &dataset, &paper_profiles(), &request)
        })
        .collect();

    let problem = PlacementProblem { inventory, tenants };
    let greedy = solve_greedy(&problem);
    let exact = solve_exact(&problem);

    for (label, placement) in [("greedy", &greedy), ("exact", &exact)] {
        println!(
            "\n{label}: {}/{} tenants served, total ${:.2}/h",
            placement.served(),
            problem.tenants.len(),
            placement.total_cost(&problem)
        );
        for (tenant, choice) in problem.tenants.iter().zip(&placement.choices) {
            match choice {
                Some(j) => {
                    let o = &tenant.options[*j];
                    println!(
                        "  {:<28} {} x{} pods ({} GPUs, ${:.2}/h)",
                        tenant.name,
                        o.profile,
                        o.pods,
                        o.gpus_needed(),
                        o.cost_per_hour
                    );
                }
                None => println!("  {:<28} UNSERVED", tenant.name),
            }
        }
    }
    assert!(greedy.is_feasible(&problem) && exact.is_feasible(&problem));
    Ok(())
}
