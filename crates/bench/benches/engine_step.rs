//! Criterion bench of the continuous-batching engine: per-iteration cost at
//! several batch occupancies (the simulator cost behind Figs. 1/7 and
//! Tables I/III).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use llmpilot_obs::Recorder;
use llmpilot_sim::engine::{Engine, PhaseHists};
use llmpilot_sim::gpu::{a100_80, GpuProfile};
use llmpilot_sim::llm::llama2_13b;
use llmpilot_sim::perf_model::{PerfModel, PerfModelConfig};
use llmpilot_sim::request::RequestSpec;

fn engine_with_batch(batch: u32, recorder: Option<Recorder>) -> Engine {
    let perf =
        PerfModel::new(llama2_13b(), GpuProfile::new(a100_80(), 1), PerfModelConfig::default());
    let mut engine = Engine::new(perf, 1_000_000);
    if let Some(recorder) = recorder {
        engine = engine.with_recorder(recorder);
    }
    for _ in 0..batch {
        engine.submit(RequestSpec::new(300, 1_000)).expect("fits");
    }
    // Admit everything.
    engine.step();
    engine
}

fn bench_batch(group: &mut criterion::BenchmarkGroup<'_>, batch: u32, mut engine: Engine) {
    group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
        b.iter(|| {
            // Keep the closed loop full: once the batch drains, submit a
            // fresh wave so every measured step does real decode work.
            if !engine.has_work() {
                for _ in 0..batch {
                    engine.submit(RequestSpec::new(300, 1_000)).expect("fits");
                }
            }
            black_box(engine.step())
        });
    });
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step");
    for batch in [1u32, 8, 32, 128] {
        bench_batch(&mut group, batch, engine_with_batch(batch, None));
    }
    group.finish();
}

/// The observability acceptance gate: stepping an engine that carries a
/// `Recorder::disabled()` must cost within noise of one with no recorder
/// at all (the span macro-free hot path is a branch on an `Option`).
fn bench_engine_recorder_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step_no_recorder");
    bench_batch(&mut group, 32, engine_with_batch(32, None));
    group.finish();
    let mut group = c.benchmark_group("engine_step_disabled_recorder");
    bench_batch(&mut group, 32, engine_with_batch(32, Some(Recorder::disabled())));
    group.finish();
}

/// Cost of the per-phase HDR histograms: an engine recording every
/// prefill/decode duration into its own non-atomic buffers (added into
/// the shared `PhaseHists` when it drops) vs. the plain engine. Recording
/// is a few plain adds per step, so this should sit within a few percent
/// of the `engine_step_no_recorder` group.
fn bench_engine_phase_hists(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step_phase_hists");
    let engine = engine_with_batch(32, None).with_phase_hists(Arc::new(PhaseHists::default()));
    bench_batch(&mut group, 32, engine);
    group.finish();
}

criterion_group!(benches, bench_engine, bench_engine_recorder_overhead, bench_engine_phase_hists);
criterion_main!(benches);
