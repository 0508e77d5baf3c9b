//! Fig. 1: median end-to-end latency of bigcode/starcoder on one A100 with
//! varying maximum batch weight, under 128 concurrent users. The paper
//! observes ~2.8× lower latency at the largest weight than at the smallest.

use llmpilot_core::characterize::WorkloadRequestSource;
use llmpilot_sim::engine::Engine;
use llmpilot_sim::fault::LoadFaults;
use llmpilot_sim::gpu::{a100_80, GpuProfile};
use llmpilot_sim::llm::starcoder;
use llmpilot_sim::load::{run_load_test_observed, LoadTestConfig};
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};
use llmpilot_sim::perf_model::{PerfModel, PerfModelConfig};
use llmpilot_sim::tuner::tune_max_batch_weight;

use crate::{build_sampler, build_traces, fmt, header, DEFAULT_TRACE_REQUESTS};

/// The sweep result: `(max batch weight, median e2e latency seconds,
/// throughput tokens/s)`.
pub fn sweep() -> Vec<(u64, f64, f64)> {
    let traces = build_traces(DEFAULT_TRACE_REQUESTS);
    let sampler = build_sampler(&traces);
    let llm = starcoder();
    let profile = GpuProfile::new(a100_80(), 1);
    let mem = MemoryModel::new(llm.clone(), profile.clone(), MemoryConfig::default());
    let tuned = tune_max_batch_weight(&mem).expect("feasible").max_batch_weight;

    // Sweep from the smallest usable weight (one largest request) to the
    // tuned maximum, in powers of two like the paper's x-axis.
    let (cap_in, cap_out) = mem.largest_request();
    let floor = u64::from(cap_in) + u64::from(cap_out);
    let mut weights = Vec::new();
    let mut w = floor;
    while w < tuned {
        weights.push(w);
        w *= 2;
    }
    weights.push(tuned);

    weights
        .into_iter()
        .map(|weight| {
            let perf = PerfModel::new(llm.clone(), profile.clone(), PerfModelConfig::default());
            let mut engine = Engine::new(perf, weight);
            let mut source = WorkloadRequestSource::new(sampler.clone(), 0xF161);
            // Steady-state window: long run with warm-up so the median e2e
            // latency reflects queueing equilibrium rather than the cold
            // start (the paper load-tests a warmed service).
            let metrics = run_load_test_observed(
                &mut engine,
                &mem,
                &mut source,
                &LoadTestConfig { duration_s: 1_800.0, warmup_s: 600.0, concurrent_users: 128 },
                &mut LoadFaults::none(),
                None,
            )
            .expect("load test");
            (weight, metrics.e2e_median_s, metrics.throughput_tokens_per_s)
        })
        .collect()
}

/// Run and print the experiment.
pub fn run() {
    header("Fig. 1 - median e2e latency vs maximum batch weight");
    println!("LLM: bigcode/starcoder, GPU: 1xA100-80GB, 128 concurrent users");
    println!("{:>18} {:>22} {:>14}", "max batch weight", "median e2e latency [s]", "tput [tok/s]");
    let points = sweep();
    for (w, e2e, tput) in &points {
        println!("{w:>18} {:>22} {:>14}", fmt(*e2e), fmt(*tput));
    }
    let worst = points.first().expect("nonempty").1;
    let best = points.last().expect("nonempty").1;
    println!("largest/smallest weight latency ratio: {:.2}x better (paper: ~2.8x)", worst / best);
}
