//! Extension ablation (beyond the paper): TGIS-style full-weight
//! reservation vs vLLM-style paged-KV admission with recompute preemption,
//! under the same tuned memory budget. PagedAttention's throughput win
//! (Kwon et al., SOSP'23 — the paper's \[19\]) should reproduce: paging
//! admits more concurrent sequences from the same memory.

use llmpilot_core::characterize::WorkloadRequestSource;
use llmpilot_sim::engine::{AdmissionPolicy, Engine};
use llmpilot_sim::fault::LoadFaults;
use llmpilot_sim::gpu::{a100_40, GpuProfile};
use llmpilot_sim::llm::llama2_13b;
use llmpilot_sim::load::{run_load_test_observed, LoadMetrics, LoadTestConfig};
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};
use llmpilot_sim::perf_model::{PerfModel, PerfModelConfig};
use llmpilot_sim::tuner::tune_max_batch_weight;

use crate::{build_sampler, build_traces, header, DEFAULT_TRACE_REQUESTS};

/// Run one policy across the user sweep.
pub fn sweep(policy: AdmissionPolicy) -> Vec<(u32, LoadMetrics)> {
    let traces = build_traces(DEFAULT_TRACE_REQUESTS);
    let sampler = build_sampler(&traces);
    let llm = llama2_13b();
    let profile = GpuProfile::new(a100_40(), 1);
    let mem = MemoryModel::new(llm.clone(), profile.clone(), MemoryConfig::default());
    let weight = tune_max_batch_weight(&mem).expect("feasible").max_batch_weight;

    (0..8)
        .map(|i| 1u32 << i)
        .map(|users| {
            let perf = PerfModel::new(llm.clone(), profile.clone(), PerfModelConfig::default());
            let mut engine = Engine::new(perf, weight).with_policy(policy);
            let mut source = WorkloadRequestSource::new(sampler.clone(), 0x9A6E ^ u64::from(users));
            let metrics = run_load_test_observed(
                &mut engine,
                &mem,
                &mut source,
                &LoadTestConfig { duration_s: 600.0, warmup_s: 60.0, concurrent_users: users },
                &mut LoadFaults::none(),
                None,
            )
            .expect("load test");
            (users, metrics)
        })
        .collect()
}

/// Run and print the experiment.
pub fn run() {
    header("Extension - reservation (TGIS) vs paged-KV (vLLM) admission");
    println!("Llama-2-13b on 1xA100-40GB, same tuned memory budget\n");
    let reserve = sweep(AdmissionPolicy::ReserveFull);
    let paged = sweep(AdmissionPolicy::PagedCurrent);
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12}",
        "users", "tput reserve", "tput paged", "ITL reserve", "ITL paged"
    );
    for ((users, r), (_, p)) in reserve.iter().zip(&paged) {
        println!(
            "{users:>6} {:>14.1} {:>14.1} {:>12.4} {:>12.4}",
            r.throughput_tokens_per_s, p.throughput_tokens_per_s, r.itl_median_s, p.itl_median_s
        );
    }
    let r_max = reserve.iter().map(|(_, m)| m.throughput_tokens_per_s).fold(0.0f64, f64::max);
    let p_max = paged.iter().map(|(_, m)| m.throughput_tokens_per_s).fold(0.0f64, f64::max);
    println!(
        "\npeak throughput: paged {:.0} vs reservation {:.0} tok/s ({:+.0}%)",
        p_max,
        r_max,
        (p_max / r_max - 1.0) * 100.0
    );
    println!("expected: paging packs more sequences into the same memory (PagedAttention)");
}
