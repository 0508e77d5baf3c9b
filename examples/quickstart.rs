//! Quickstart: benchmark one LLM inference service on one GPU profile.
//!
//! The minimal LLM-Pilot loop: fit the workload generator to (synthetic)
//! production traces, tune the maximum batch weight for the deployment, and
//! load-test the service across concurrent-user counts, printing the four
//! metrics the paper collects (Sec. III-C).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use llm_pilot::core::characterize::{characterize_cell, CellContext, CharacterizeConfig};
use llm_pilot::sim::gpu::{a100_80, GpuProfile};
use llm_pilot::sim::llm::llama2_13b;
use llm_pilot::traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};

fn main() {
    // 1. A realistic request population: synthetic production traces with
    //    the joint parameter correlations of real LLM traffic.
    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: 50_000,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    println!("generated {} trace records", traces.len());

    // 2. The workload generator: a sparse joint histogram over binned
    //    request parameters (Sec. III-B).
    let model = WorkloadModel::fit(&traces, &Param::core()).expect("non-empty traces");
    println!(
        "workload model: {} non-empty bins of {:.1e} possible, {:.1} KB",
        model.num_nonempty_bins(),
        model.num_possible_bins(),
        model.approx_size_bytes() as f64 / 1e3,
    );
    let sampler = WorkloadSampler::new(model);

    // 3. Characterize one (LLM, GPU profile) cell: deploy, tune the maximum
    //    batch weight, and load-test 1..128 concurrent users for 2 minutes
    //    each (Fig. 2's pipeline).
    let llm = llama2_13b();
    let profile = GpuProfile::new(a100_80(), 1);
    let config = CharacterizeConfig::default();
    let (tuned_weight, rows) =
        characterize_cell(&llm, &profile, &sampler, &config, &CellContext::default())
            .measured()
            .expect("Llama-2-13b fits on 1xA100-80GB");

    println!("\n{} on {} (tuned max batch weight: {tuned_weight} tokens)", llm.name, profile);
    println!(
        "{:>6} {:>10} {:>14} {:>10} {:>14}",
        "users", "TTFT [s]", "nTTFT [s/tok]", "ITL [s]", "tput [tok/s]"
    );
    for r in &rows {
        println!(
            "{:>6} {:>10.3} {:>14.6} {:>10.4} {:>14.1}",
            r.users, r.ttft_s, r.nttft_s, r.itl_s, r.throughput
        );
    }
}
