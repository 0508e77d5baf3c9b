//! Autoscaling what-if: play a diurnal demand curve against the pod
//! autoscaler for one service, comparing headroom policies on SLA
//! attainment vs cost (Sec. II-C's "scaled up or down based on demand").
//!
//! ```text
//! cargo run --release --example autoscale_simulation
//! ```

use llm_pilot::core::autoscale::{diurnal_demand, simulate_autoscaler, AutoscalerConfig};
use llm_pilot::core::evaluate::true_u_max;
use llm_pilot::core::recommend::{parse_profile, LatencyConstraints};
use llm_pilot::core::SweepDriver;
use llm_pilot::sim::llm::llama2_13b;
use llm_pilot::traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};

fn main() -> Result<(), llm_pilot::Error> {
    // 1. Measure the service's per-pod capacity under the SLA.
    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: 60_000,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    let sampler = WorkloadSampler::new(
        WorkloadModel::fit(&traces, &Param::core()).expect("non-empty traces"),
    );
    let llm = llama2_13b();
    let profile_name = "2xA10-24GB";
    let profile = parse_profile(profile_name).expect("known profile");
    let (dataset, _) =
        SweepDriver::builder(std::slice::from_ref(&llm), std::slice::from_ref(&profile), &sampler)
            .build()?
            .run()?;
    let constraints = LatencyConstraints::paper_defaults();
    let u_max = true_u_max(&dataset, llm.name, profile_name, &constraints)
        .expect("profile satisfies the SLA at some load");
    println!(
        "{} on {profile_name}: u_max = {u_max} users/pod under nTTFT<=100ms, ITL<=50ms",
        llm.name
    );

    // 2. Play a diurnal day (base 20 users, peak ~200) against the
    //    autoscaler with different headroom policies.
    let demand = diurnal_demand(20, 180);
    println!(
        "\n{:>9} {:>16} {:>12} {:>11} {:>11} {:>12}",
        "headroom", "SLA attainment", "pod-hours", "scale-ups", "downs", "cost [$/day]"
    );
    for headroom in [1.0f64, 1.25, 1.5, 2.0] {
        let config = AutoscalerConfig { headroom, max_pods: 64, ..AutoscalerConfig::default() };
        let outcome = simulate_autoscaler(&config, u_max, 86_400.0, &demand).expect("valid config");
        println!(
            "{headroom:>9.2} {:>15.1}% {:>12.1} {:>11} {:>11} {:>12.2}",
            outcome.sla_attainment * 100.0,
            outcome.pod_hours,
            outcome.scale_ups,
            outcome.scale_downs,
            outcome.cost(profile.cost_per_hour())
        );
    }
    println!(
        "\nmore headroom buys attainment (covering the startup lag on the\n\
         morning ramp) at a proportional cost premium"
    );
    Ok(())
}
