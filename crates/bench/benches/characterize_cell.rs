//! Criterion bench of one characterization grid cell (tune + 8 load tests)
//! — the unit of work behind Fig. 7 / Table III and the Sec. V-B overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use llmpilot_bench::{build_sampler, build_traces};
use llmpilot_core::characterize::{characterize_cell, CellContext, CharacterizeConfig};
use llmpilot_sim::gpu::{a100_40, h100, GpuProfile};
use llmpilot_sim::llm::{flan_t5_xl, llama2_13b};

fn bench_cell(c: &mut Criterion) {
    let traces = build_traces(40_000);
    let sampler = build_sampler(&traces);
    let config = CharacterizeConfig::default();
    let ctx = CellContext::default();

    let mut group = c.benchmark_group("characterize_cell");
    group.sample_size(10);
    for (name, llm, profile) in [
        ("t5xl_1xA100-40", flan_t5_xl(), GpuProfile::new(a100_40(), 1)),
        ("llama13b_2xH100", llama2_13b(), GpuProfile::new(h100(), 2)),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(characterize_cell(&llm, &profile, &sampler, &config, &ctx)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cell);
criterion_main!(benches);
