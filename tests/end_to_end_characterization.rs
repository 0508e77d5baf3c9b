//! Integration: traces → workload generator → simulator → characterization
//! dataset, spanning four crates.

use llm_pilot::core::{CharacterizationDataset, CharacterizeConfig, SweepDriver};
use llm_pilot::sim::gpu::{a100_40, h100, t4, GpuProfile};
use llm_pilot::sim::llm::{flan_t5_xl, flan_ul2, llama2_13b, llama2_7b};
use llm_pilot::sim::memory::{MemoryConfig, MemoryModel};
use llm_pilot::traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};

fn sampler() -> WorkloadSampler {
    let traces = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: 20_000,
        seed: 99,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    WorkloadSampler::new(WorkloadModel::fit(&traces, &Param::core()).unwrap())
}

fn small_config() -> CharacterizeConfig {
    CharacterizeConfig {
        duration_s: 40.0,
        user_sweep: vec![1, 8, 64],
        ..CharacterizeConfig::default()
    }
}

fn small_grid() -> CharacterizationDataset {
    let llms = vec![flan_t5_xl(), llama2_7b(), llama2_13b(), flan_ul2()];
    let profiles =
        vec![GpuProfile::new(t4(), 1), GpuProfile::new(a100_40(), 1), GpuProfile::new(h100(), 2)];
    let sampler = sampler();
    let driver =
        SweepDriver::builder(&llms, &profiles, &sampler).config(small_config()).build().unwrap();
    driver.run().unwrap().0
}

#[test]
fn characterization_covers_exactly_the_feasible_cells() {
    let ds = small_grid();
    let llms = vec![flan_t5_xl(), llama2_7b(), llama2_13b(), flan_ul2()];
    let profiles =
        vec![GpuProfile::new(t4(), 1), GpuProfile::new(a100_40(), 1), GpuProfile::new(h100(), 2)];
    for llm in &llms {
        for profile in &profiles {
            let feasible = MemoryModel::new(llm.clone(), profile.clone(), MemoryConfig::default())
                .feasibility()
                .is_feasible();
            assert_eq!(
                ds.cell_feasible(llm.name, &profile.name()),
                feasible,
                "{} on {}",
                llm.name,
                profile
            );
        }
    }
}

#[test]
fn all_metrics_are_positive_and_finite() {
    let ds = small_grid();
    assert!(!ds.is_empty());
    for r in &ds.rows {
        assert!(r.ttft_s > 0.0 && r.ttft_s.is_finite(), "{r:?}");
        assert!(r.nttft_s > 0.0 && r.nttft_s.is_finite(), "{r:?}");
        assert!(r.itl_s > 0.0 && r.itl_s.is_finite(), "{r:?}");
        assert!(r.throughput > 0.0 && r.throughput.is_finite(), "{r:?}");
    }
}

#[test]
fn bigger_gpus_tune_bigger_weights_for_the_same_llm() {
    let ds = small_grid();
    let key = |p: &str| (String::from("Llama-2-7b"), String::from(p));
    // (Llama-2-7b does not fit 1xT4 — an × cell — so only the larger
    // profiles appear in the tuned-weight map.)
    assert!(!ds.tuned_weights.contains_key(&key("1xT4-16GB")));
    let a100_weight = ds.tuned_weights[&key("1xA100-40GB")];
    let h100_weight = ds.tuned_weights[&key("2xH100-80GB")];
    assert!(h100_weight > a100_weight);
}

#[test]
fn csv_round_trips_through_disk_format() {
    let ds = small_grid();
    let parsed = CharacterizationDataset::from_csv(&ds.to_csv()).unwrap();
    assert_eq!(parsed.rows, ds.rows);
}

#[test]
fn latency_degrades_and_throughput_grows_with_load() {
    let ds = small_grid();
    for llm in ds.llms() {
        for profile in ds.profiles() {
            let rows: Vec<_> =
                ds.rows.iter().filter(|r| r.llm == llm && r.profile == profile).collect();
            if rows.len() < 3 {
                continue;
            }
            let first = rows.iter().find(|r| r.users == 1).unwrap();
            let last = rows.iter().find(|r| r.users == 64).unwrap();
            assert!(
                last.ttft_s >= first.ttft_s * 0.8,
                "{llm} on {profile}: TTFT fell from {} to {}",
                first.ttft_s,
                last.ttft_s
            );
            assert!(last.throughput > first.throughput, "{llm} on {profile}: no throughput gain");
        }
    }
}
