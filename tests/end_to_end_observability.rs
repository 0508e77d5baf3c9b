//! End-to-end exercise of the observability layer on a real sweep:
//!
//! * a fault-injected sweep that exhausts its retry budget leaves a
//!   flight-recorder dump for **exactly** the failed cells, and each dump
//!   is a structurally valid Chrome trace holding the failing cell's
//!   final spans;
//! * the same sweep's `--events-out` stream validates end to end and the
//!   `watch` consumer renders it at 100% completeness (failed cells are
//!   still *done* cells — the sweep completed over the whole grid);
//! * a healthy sweep emits tail quantiles on every measured cell and
//!   leaves no flight dumps behind.

use std::sync::OnceLock;

use llm_pilot::core::sweep::{CellStatus, SweepDriver, SweepOptions};
use llm_pilot::core::CharacterizeConfig;
use llm_pilot::obs::check::{check_chrome_trace, check_events};
use llm_pilot::obs::events::{EventSink, WatchState};
use llm_pilot::obs::flight;
use llm_pilot::sim::fault::{FaultConfig, FaultPlan};
use llm_pilot::sim::gpu::{a100_40, t4, GpuProfile};
use llm_pilot::sim::llm::{flan_t5_xl, llama2_7b, LlmSpec};
use llm_pilot::traces::{Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};

fn sampler() -> &'static WorkloadSampler {
    static SAMPLER: OnceLock<WorkloadSampler> = OnceLock::new();
    SAMPLER.get_or_init(|| {
        let traces = TraceGenerator::new(TraceGeneratorConfig {
            num_requests: 8_000,
            seed: 55,
            ..TraceGeneratorConfig::default()
        })
        .generate();
        let model = WorkloadModel::fit(
            &traces,
            &[Param::InputTokens, Param::OutputTokens, Param::BatchSize],
        )
        .unwrap();
        WorkloadSampler::new(model)
    })
}

fn quick_config() -> CharacterizeConfig {
    CharacterizeConfig { duration_s: 8.0, user_sweep: vec![1, 4], ..CharacterizeConfig::default() }
}

fn grid() -> (Vec<LlmSpec>, Vec<GpuProfile>) {
    // llama2-7b on 1xT4 is infeasible, so the grid exercises every
    // outcome kind.
    (vec![flan_t5_xl(), llama2_7b()], vec![GpuProfile::new(t4(), 1), GpuProfile::new(a100_40(), 1)])
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("llmpilot-e2e-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn failed_sweep_leaves_valid_flight_dumps_and_a_watchable_event_stream() {
    let s = sampler();
    let (llms, profiles) = grid();
    let dir = scratch_dir("fail");
    let events_path = dir.join("events.jsonl");
    let options = SweepOptions {
        // Deployment always fails: every feasible cell exhausts retries.
        plan: FaultPlan::new(FaultConfig { deploy_failure_prob: 1.0, ..FaultConfig::disabled() }),
        max_attempts: 2,
        flight_dir: Some(dir.clone()),
        events: EventSink::create(events_path.to_str().unwrap()).unwrap(),
        ..SweepOptions::default()
    };
    let driver = SweepDriver::builder(&llms, &profiles, s)
        .config(quick_config())
        .options(options)
        .build()
        .unwrap();
    let (dataset, report) = driver.run().unwrap();
    assert!(dataset.is_empty(), "nothing measured when every deploy fails");
    assert!(report.failed() > 0);

    // Flight dumps for exactly the failed cells; each is a valid Chrome
    // trace containing the failing cell's final attempt spans.
    for (llm, profile, status) in &report.cells {
        let dump = dir.join(flight::dump_file_name(llm, profile));
        match status {
            CellStatus::Failed { .. } => {
                let doc = std::fs::read_to_string(&dump)
                    .unwrap_or_else(|e| panic!("missing flight dump {dump:?}: {e}"));
                let stats = check_chrome_trace(&doc, &[]).unwrap();
                assert!(stats.span_events > 0, "dump for {llm}/{profile} holds spans");
                assert!(doc.contains("sweep.attempt"), "dump holds the cell's attempt spans");
            }
            _ => assert!(!dump.exists(), "unexpected dump for non-failed cell {llm}/{profile}"),
        }
    }

    // The event stream validates and covers the whole grid: a sweep that
    // visited every cell is 100% complete even when cells failed.
    let doc = std::fs::read_to_string(&events_path).unwrap();
    let stats = check_events(&doc).unwrap();
    assert!(stats.finished, "sweep.finished must be emitted");
    assert!(!stats.truncated_tail);
    assert_eq!(stats.completeness_pct, Some(100.0));
    assert_eq!(stats.types["cell.retried"], report.failed());

    // The `watch` consumer renders the same picture.
    let mut watch = WatchState::new();
    watch.ingest_document(&doc);
    assert!(watch.finished());
    let rendered = watch.render();
    assert!(rendered.contains("100.0% complete"), "got:\n{rendered}");
    assert!(rendered.contains("sweep finished"), "got:\n{rendered}");
    assert!(rendered.contains("failed"), "failed cells are visible:\n{rendered}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthy_sweep_reports_tails_and_arms_no_dumps() {
    let s = sampler();
    let (llms, profiles) = grid();
    let dir = scratch_dir("ok");
    let events_path = dir.join("events.jsonl");
    let options = SweepOptions {
        flight_dir: Some(dir.clone()),
        events: EventSink::create(events_path.to_str().unwrap()).unwrap(),
        ..SweepOptions::default()
    };
    let driver = SweepDriver::builder(&llms, &profiles, s)
        .config(quick_config())
        .options(options)
        .build()
        .unwrap();
    let (dataset, report) = driver.run().unwrap();
    assert!(!dataset.is_empty());
    assert_eq!(report.failed(), 0);

    // No failures → no flight dumps, only the event stream in the dir.
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("flight-"))
        .collect();
    assert!(dumps.is_empty(), "healthy sweep must not dump: {dumps:?}");

    // Every measured cell carries true tail quantiles, and they surface
    // both in the report text (the CI greps for p99) and in the stream.
    let rendered = format!("{report}");
    assert!(rendered.contains("p99"), "report prints tail quantiles:\n{rendered}");
    for (llm, profile, status) in &report.cells {
        if matches!(status, CellStatus::Measured { .. }) {
            let tails = &report.tails[&(llm.clone(), profile.clone())];
            assert!(tails.nttft.count > 0, "{llm}/{profile} has nTTFT samples");
            assert!(tails.itl.count > 0, "{llm}/{profile} has ITL samples");
            assert!(tails.nttft.p99 >= tails.nttft.p50);
            assert!(tails.itl.p99 >= tails.itl.p50);
        }
    }
    let doc = std::fs::read_to_string(&events_path).unwrap();
    let stats = check_events(&doc).unwrap();
    assert!(stats.finished);
    assert!(doc.contains("nttft_p99_ms"), "measured cells stream their tails");

    let _ = std::fs::remove_dir_all(&dir);
}
