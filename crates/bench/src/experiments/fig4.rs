//! Fig. 4: MDI importance of the number of CPU cores, pod memory, maximum
//! batch weight and number of concurrent users for TTFT and ITL, for
//! bigcode/starcoder on one A100-40. The paper finds CPU cores and memory
//! over 300× less important than the maximum batch weight, motivating why
//! LLM-Pilot sets them by trivial rules.
//!
//! LLM inference is GPU-bound: the pod's CPU core count and main-memory
//! allocation do not enter the serving-time path at all (they only matter
//! for model loading), which our simulator encodes explicitly — so the
//! study recovers the paper's near-zero importances mechanistically.

use llmpilot_core::characterize::WorkloadRequestSource;
use llmpilot_ml::{Dataset, ForestParams, RandomForest};
use llmpilot_sim::engine::Engine;
use llmpilot_sim::fault::LoadFaults;
use llmpilot_sim::gpu::{a100_40, GpuProfile};
use llmpilot_sim::llm::starcoder;
use llmpilot_sim::load::{run_load_test_observed, LoadTestConfig};
use llmpilot_sim::memory::{MemoryConfig, MemoryModel};
use llmpilot_sim::perf_model::{PerfModel, PerfModelConfig};
use llmpilot_sim::tuner::tune_max_batch_weight;

use crate::{build_sampler, build_traces, header, DEFAULT_TRACE_REQUESTS};

/// The four deployment knobs of the study.
pub const KNOBS: [&str; 4] = ["cpu_cores", "memory_gb", "max_batch_weight", "users"];

/// Collect the sweep and fit the two RFs; returns MDI vectors for TTFT and
/// ITL in [`KNOBS`] order.
pub fn importance() -> (Vec<f64>, Vec<f64>) {
    let traces = build_traces(DEFAULT_TRACE_REQUESTS);
    let sampler = build_sampler(&traces);
    let llm = starcoder();
    let profile = GpuProfile::new(a100_40(), 1);
    let mem = MemoryModel::new(llm.clone(), profile.clone(), MemoryConfig::default());
    let tuned = tune_max_batch_weight(&mem).expect("feasible").max_batch_weight;
    let (cap_in, cap_out) = mem.largest_request();
    let floor = u64::from(cap_in) + u64::from(cap_out);

    let cpu_options = [2.0f64, 4.0, 8.0, 16.0];
    let memory_options = [64.0f64, 128.0, 250.0];
    let mut weight_options = Vec::new();
    let mut w = floor;
    while w < tuned {
        weight_options.push(w);
        w *= 4;
    }
    weight_options.push(tuned);
    let users_options = [1u32, 4, 16, 64, 128];

    let mut rows = Vec::new();
    let mut ttft = Vec::new();
    let mut itl = Vec::new();
    for &weight in &weight_options {
        for &users in &users_options {
            let perf = PerfModel::new(llm.clone(), profile.clone(), PerfModelConfig::default());
            let mut engine = Engine::new(perf, weight);
            let mut source =
                WorkloadRequestSource::new(sampler.clone(), 0xF164 ^ weight ^ u64::from(users));
            let metrics = run_load_test_observed(
                &mut engine,
                &mem,
                &mut source,
                &LoadTestConfig { duration_s: 60.0, warmup_s: 0.0, concurrent_users: users },
                &mut LoadFaults::none(),
                None,
            )
            .expect("load test");
            // CPU cores and pod memory are off the serving path: replicate
            // the measurement across their grid, exactly as a GPU-bound
            // service behaves.
            for &cpu in &cpu_options {
                for &memory in &memory_options {
                    rows.push(vec![cpu, memory, weight as f64, f64::from(users)]);
                    ttft.push(metrics.ttft_median_s);
                    itl.push(metrics.itl_median_s);
                }
            }
        }
    }

    let fit = |targets: Vec<f64>| {
        let ds = Dataset::from_rows(&rows, targets).expect("valid dataset");
        // Deterministic forest (no bootstrap, all features per split): inert
        // knobs then receive *exactly* zero impurity decrease, the noiseless
        // limit of the paper's near-zero importances.
        let mut params = ForestParams { n_trees: 40, bootstrap: false, ..ForestParams::default() };
        params.tree.max_features = Some(usize::MAX);
        RandomForest::fit(&ds, &params).expect("forest fits").feature_importance().to_vec()
    };
    (fit(ttft), fit(itl))
}

/// Run and print the experiment.
pub fn run() {
    header("Fig. 4 - MDI of deployment knobs (starcoder, 1xA100-40GB)");
    let (ttft_imp, itl_imp) = importance();
    println!("{:>18} {:>12} {:>12}", "knob", "TTFT MDI", "ITL MDI");
    for (i, knob) in KNOBS.iter().enumerate() {
        println!("{knob:>18} {:>12.5} {:>12.5}", ttft_imp[i], itl_imp[i]);
    }
    let weight = ttft_imp[2].max(itl_imp[2]);
    let cpu_mem = ttft_imp[0].max(ttft_imp[1]).max(itl_imp[0]).max(itl_imp[1]);
    if cpu_mem > 0.0 {
        println!(
            "\nbatch weight vs CPU/memory importance ratio: {:.0}x (paper: >300x)",
            weight / cpu_mem
        );
    } else {
        println!(
            "\nCPU/memory importance is exactly zero (paper: near-zero, >300x below batch weight)"
        );
    }
}
