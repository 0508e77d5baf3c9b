//! Table I: average throughput per pod for 1/2/4/8 Llama-2-13b pods on
//! A100-80 GPUs under 1..128 total concurrent users — near-perfect scaling
//! along the equal users-per-pod diagonals (relative std ≤ 5%).

use llmpilot_core::characterize::WorkloadRequestSource;
use llmpilot_sim::cluster::Deployment;
use llmpilot_sim::fault::FaultPlan;
use llmpilot_sim::gpu::{a100_80, GpuProfile};
use llmpilot_sim::llm::llama2_13b;

use crate::{build_sampler, build_traces, header, DEFAULT_TRACE_REQUESTS};

/// The table: `result[pods_idx][users_idx]` = mean throughput per pod.
pub fn table(pods_list: &[u32], users_list: &[u32]) -> Vec<Vec<f64>> {
    let traces = build_traces(DEFAULT_TRACE_REQUESTS);
    let sampler = build_sampler(&traces);
    pods_list
        .iter()
        .map(|&pods| {
            let deployment = Deployment::new(llama2_13b(), GpuProfile::new(a100_80(), 1), pods)
                .expect("feasible");
            users_list
                .iter()
                .map(|&users| {
                    // Longer steady-state window than the paper's 2 minutes:
                    // virtual time is free and the diagonal-variance claim
                    // needs the workload-mix noise averaged out.
                    let metrics = deployment
                        .run_load_test(
                            users,
                            600.0,
                            |pod| {
                                WorkloadRequestSource::new(
                                    sampler.clone(),
                                    0x7AB1 ^ (u64::from(pods) << 32) ^ pod as u64,
                                )
                            },
                            &FaultPlan::none(),
                            "",
                        )
                        .expect("load test");
                    metrics.throughput_per_pod
                })
                .collect()
        })
        .collect()
}

/// Relative standard deviation of per-pod throughput across cells with the
/// same users-per-pod ratio.
pub fn diagonal_rel_std(
    table: &[Vec<f64>],
    pods_list: &[u32],
    users_list: &[u32],
) -> Vec<(f64, f64)> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (i, &pods) in pods_list.iter().enumerate() {
        for (j, &users) in users_list.iter().enumerate() {
            if users % pods == 0 {
                groups.entry(u64::from(users / pods)).or_default().push(table[i][j]);
            }
        }
    }
    groups
        .into_iter()
        .filter(|(_, v)| v.len() >= 2)
        .map(|(ratio, v)| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
            (ratio as f64, var.sqrt() / mean)
        })
        .collect()
}

/// Run and print the experiment.
pub fn run() {
    header("Table I - throughput per pod: Llama-2-13b on 1xA100-80GB pods");
    let pods_list = [1u32, 2, 4, 8];
    let users_list = [1u32, 2, 4, 8, 16, 32, 64, 128];
    let t = table(&pods_list, &users_list);
    print!("{:>5}", "pods");
    for u in users_list {
        print!("{u:>8}");
    }
    println!();
    for (i, &pods) in pods_list.iter().enumerate() {
        print!("{pods:>5}");
        for v in &t[i] {
            print!("{v:>8.1}");
        }
        println!();
    }
    let stds = diagonal_rel_std(&t, &pods_list, &users_list);
    let max_std = stds.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
    let mean_std = stds.iter().map(|&(_, s)| s).sum::<f64>() / stds.len().max(1) as f64;
    println!(
        "diagonal (same users:pods ratio) relative std: max {:.1}%, mean {:.1}% (paper: <=5%, avg 2%)",
        100.0 * max_std,
        100.0 * mean_std
    );
}
