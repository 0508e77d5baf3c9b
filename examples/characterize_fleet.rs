//! Offline fleet characterization (the cluster administrator's job).
//!
//! Runs the full LLM-Pilot characterization pipeline over the paper's
//! 10-LLM × 14-GPU-profile grid — feasibility check, per-cell maximum batch
//! weight tuning, and 1..128-user load tests — and writes the resulting
//! characterization dataset as CSV (the open-sourced artifact of Sec. V-B).
//!
//! ```text
//! cargo run --release --example characterize_fleet [output.csv]
//! ```

use llm_pilot::core::SweepDriver;
use llm_pilot::sim::gpu::paper_profiles;
use llm_pilot::sim::llm::llm_catalog;
use llm_pilot::traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};

fn main() -> Result<(), llm_pilot::Error> {
    let output = std::env::args().nth(1).unwrap_or_else(|| "characterization.csv".into());

    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: 100_000,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    let model = WorkloadModel::fit(&traces, &Param::core()).expect("non-empty traces");
    let sampler = WorkloadSampler::new(model);

    let llms = llm_catalog();
    let profiles = paper_profiles();
    println!(
        "characterizing {} LLMs x {} GPU profiles (feasible cells only)...",
        llms.len(),
        profiles.len()
    );
    let started = std::time::Instant::now();
    let (dataset, _) = SweepDriver::builder(&llms, &profiles, &sampler).build()?.run()?;
    println!(
        "collected {} rows over {} feasible cells in {:.1}s",
        dataset.len(),
        dataset.tuned_weights.len(),
        started.elapsed().as_secs_f64()
    );

    println!("\ntuned maximum batch weights (tokens):");
    for ((llm, profile), weight) in &dataset.tuned_weights {
        println!("{llm:<26} {profile:<14} {weight:>10}");
    }

    std::fs::write(&output, dataset.to_csv()).expect("write CSV");
    println!("\nwrote {output}");
    Ok(())
}
