//! Fig. 7: the TTFT-vs-throughput, ITL-vs-throughput and
//! ITL-vs-throughput-per-dollar curves of google/flan-t5-xxl across GPU
//! profiles, with markers at 1, 2, 4, …, 128 users. The paper's shapes:
//! TTFT grows with users (queueing jump on weak GPUs), ITL stays flat until
//! memory saturates then rises while throughput stops improving, larger
//! memory saturates later, and the highest-memory profiles are *not* the
//! most cost-effective (A100/T4 beat H100 on throughput per dollar).

use llmpilot_core::{CharacterizationDataset, SweepDriver};
use llmpilot_sim::gpu::paper_profiles;
use llmpilot_sim::llm::flan_t5_xxl;

use crate::{build_sampler, build_traces, header, DEFAULT_TRACE_REQUESTS};

/// Characterize flan-t5-xxl on all feasible paper profiles.
pub fn characterization() -> CharacterizationDataset {
    let traces = build_traces(DEFAULT_TRACE_REQUESTS);
    let sampler = build_sampler(&traces);
    let (llms, profiles) = ([flan_t5_xxl()], paper_profiles());
    let driver =
        SweepDriver::builder(&llms, &profiles, &sampler).build().expect("valid sweep config");
    driver.run().expect("a sweep without a journal does no I/O").0
}

/// Run and print the experiment.
pub fn run() {
    header("Fig. 7 - flan-t5-xxl across GPU profiles (markers: 1..128 users)");
    let ds = characterization();
    let profiles = ds.profiles();
    for profile_name in &profiles {
        let spec = llmpilot_core::recommend::parse_profile(profile_name).expect("known profile");
        let cost = spec.cost_per_hour();
        println!("\nprofile {profile_name}  (cost ${cost:.2}/h)");
        println!(
            "{:>6} {:>12} {:>10} {:>10} {:>14}",
            "users", "tput [tok/s]", "TTFT [s]", "ITL [s]", "tput per $/h"
        );
        let mut rows: Vec<_> = ds.rows.iter().filter(|r| &r.profile == profile_name).collect();
        rows.sort_by_key(|r| r.users);
        for r in rows {
            println!(
                "{:>6} {:>12.1} {:>10.3} {:>10.4} {:>14.1}",
                r.users,
                r.throughput,
                r.ttft_s,
                r.itl_s,
                r.throughput / cost
            );
        }
    }

    // Headline comparison: best throughput vs best throughput-per-dollar.
    let mut best_tput: Option<(&str, f64)> = None;
    let mut best_value: Option<(&str, f64)> = None;
    for profile_name in &profiles {
        let spec = llmpilot_core::recommend::parse_profile(profile_name).expect("known profile");
        let max_tput = ds
            .rows
            .iter()
            .filter(|r| &r.profile == profile_name)
            .map(|r| r.throughput)
            .fold(0.0f64, f64::max);
        if best_tput.is_none_or(|(_, t)| max_tput > t) {
            best_tput = Some((profile_name, max_tput));
        }
        let value = max_tput / spec.cost_per_hour();
        if best_value.is_none_or(|(_, v)| value > v) {
            best_value = Some((profile_name, value));
        }
    }
    if let (Some((tp, tv)), Some((vp, vv))) = (best_tput, best_value) {
        println!(
            "\nhighest raw throughput: {tp} ({tv:.0} tok/s); \
             highest throughput per dollar: {vp} ({vv:.0} tok/s per $/h)"
        );
        println!(
            "paper: H100 profiles win on raw throughput; A100/T4 win on throughput per dollar"
        );
    }
}
