//! Sec. V-A "parameter correlation" ablation: Llama-2-13b on one A100-80,
//! 1..128 users, requests drawn from the joint model vs from independent
//! marginals (long steady-state windows: at one user, a 2-minute window
//! holds only a few dozen heavy-tailed requests, so the mix variance would
//! swamp the effect). The paper measures (independent vs joint, averaged over user
//! counts): −13% throughput (up to −19%), +30% TTFT (up to +98%), −25% ITL
//! (up to −58%) — concluding joint modeling is essential.

use llmpilot_core::characterize::{IndependentRequestSource, WorkloadRequestSource};
use llmpilot_sim::engine::Engine;
use llmpilot_sim::fault::LoadFaults;
use llmpilot_sim::gpu::{a100_80, GpuProfile};
use llmpilot_sim::llm::llama2_13b;
use llmpilot_sim::load::{run_load_test_observed, LoadMetrics, LoadTestConfig};
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};
use llmpilot_sim::perf_model::{PerfModel, PerfModelConfig};
use llmpilot_sim::request::RequestSource;
use llmpilot_sim::tuner::tune_max_batch_weight;
use llmpilot_workload::IndependentSampler;

use crate::{build_sampler, build_traces, header, DEFAULT_TRACE_REQUESTS};

/// Per-user-count metrics for both sampling modes.
pub struct CorrAblation {
    /// User counts of the sweep.
    pub users: Vec<u32>,
    /// Metrics under the joint model.
    pub joint: Vec<LoadMetrics>,
    /// Metrics under independent marginals.
    pub independent: Vec<LoadMetrics>,
}

/// Run the sweep.
pub fn ablation() -> CorrAblation {
    let traces = build_traces(DEFAULT_TRACE_REQUESTS);
    let sampler = build_sampler(&traces);
    let independent = IndependentSampler::new(sampler.model());
    let llm = llama2_13b();
    let profile = GpuProfile::new(a100_80(), 1);
    let mem = MemoryModel::new(llm.clone(), profile.clone(), MemoryConfig::default());
    let weight = tune_max_batch_weight(&mem).expect("feasible").max_batch_weight;

    let users: Vec<u32> = (0..8).map(|i| 1u32 << i).collect();
    let run = |source: &mut dyn RequestSource, users: u32| {
        let perf = PerfModel::new(llm.clone(), profile.clone(), PerfModelConfig::default());
        let mut engine = Engine::new(perf, weight);
        run_load_test_observed(
            &mut engine,
            &mem,
            source,
            &LoadTestConfig { duration_s: 2_400.0, warmup_s: 120.0, concurrent_users: users },
            &mut LoadFaults::none(),
            None,
        )
        .expect("load test")
    };

    let joint_metrics: Vec<LoadMetrics> = users
        .iter()
        .map(|&u| {
            let mut s = WorkloadRequestSource::new(sampler.clone(), 0xC0 ^ u64::from(u));
            run(&mut s, u)
        })
        .collect();
    let indep_metrics: Vec<LoadMetrics> = users
        .iter()
        .map(|&u| {
            let mut s = IndependentRequestSource::new(independent.clone(), 0xC0 ^ u64::from(u));
            run(&mut s, u)
        })
        .collect();
    CorrAblation { users, joint: joint_metrics, independent: indep_metrics }
}

fn deltas(joint: &[f64], indep: &[f64]) -> (f64, f64) {
    let rel: Vec<f64> = joint.iter().zip(indep).map(|(j, i)| (i - j) / j * 100.0).collect();
    let mean = rel.iter().sum::<f64>() / rel.len() as f64;
    let extreme = rel.iter().copied().max_by(|a, b| a.abs().total_cmp(&b.abs())).unwrap_or(0.0);
    (mean, extreme)
}

/// Run and print the experiment.
pub fn run() {
    header("Sec. V-A - joint vs independent request sampling (Llama-2-13b, 1xA100-80GB)");
    let a = ablation();
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "users", "tput joint", "tput indep", "TTFT joint", "TTFT indep", "ITL joint", "ITL indep"
    );
    for (i, &u) in a.users.iter().enumerate() {
        println!(
            "{u:>6} {:>12.1} {:>12.1} {:>12.3} {:>12.3} {:>12.4} {:>12.4}",
            a.joint[i].throughput_tokens_per_s,
            a.independent[i].throughput_tokens_per_s,
            a.joint[i].ttft_median_s,
            a.independent[i].ttft_median_s,
            a.joint[i].itl_median_s,
            a.independent[i].itl_median_s,
        );
    }
    let (tput_mean, tput_max) = deltas(
        &a.joint.iter().map(|m| m.throughput_tokens_per_s).collect::<Vec<_>>(),
        &a.independent.iter().map(|m| m.throughput_tokens_per_s).collect::<Vec<_>>(),
    );
    let (ttft_mean, ttft_max) = deltas(
        &a.joint.iter().map(|m| m.ttft_median_s).collect::<Vec<_>>(),
        &a.independent.iter().map(|m| m.ttft_median_s).collect::<Vec<_>>(),
    );
    let (itl_mean, itl_max) = deltas(
        &a.joint.iter().map(|m| m.itl_median_s).collect::<Vec<_>>(),
        &a.independent.iter().map(|m| m.itl_median_s).collect::<Vec<_>>(),
    );
    println!(
        "\nindependent vs joint: throughput {tput_mean:+.0}% (extreme {tput_max:+.0}%), \
         TTFT {ttft_mean:+.0}% (extreme {ttft_max:+.0}%), ITL {itl_mean:+.0}% (extreme {itl_max:+.0}%)"
    );
    println!("paper: throughput -13% (to -19%), TTFT +30% (to +98%), ITL -25% (to -58%)");
}
