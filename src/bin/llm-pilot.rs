//! `llm-pilot` — command-line front end for the LLM-Pilot reproduction.
//!
//! ```text
//! llm-pilot traces      --requests 100000 --out traces.csv
//! llm-pilot workload    fit --traces traces.csv --out model.txt
//! llm-pilot workload    sample --model model.txt -n 10
//! llm-pilot feasibility
//! llm-pilot characterize --out data.csv [--duration 120] [--llm NAME]
//!                       [--trace-out trace.json] [--trace-summary]
//!                       [--events-out events.jsonl|-] [--flight-dir DIR]
//! llm-pilot recommend   --data data.csv --llm NAME [--users 200]
//!                       [--nttft-ms 100] [--itl-ms 50] [--events-out FILE]
//! llm-pilot serve       --data data.csv [--addr 127.0.0.1:8008] [--workers 4]
//!                       [--queue 128] [--cache 4096] [--watch-secs 2]
//!                       [--events-out FILE]
//! llm-pilot watch       events.jsonl [--follow] [--interval-ms 200]
//! ```
//!
//! Every subcommand declares typed flags via [`llm_pilot::cli`] (generated
//! `--help`, exit 2 on usage errors) and reports runtime failures through
//! [`llm_pilot::Error`] as one `error: …` line (exit 1).

use std::path::{Path, PathBuf};
use std::process::exit;

use rand::rngs::StdRng;
use rand::SeedableRng;

use llm_pilot::cli::{Command, Flag, Parsed};
use llm_pilot::core::recommend::{
    recommend, LatencyConstraints, RecommendationRequest, PAPER_USER_GRID,
};
use llm_pilot::core::sweep::write_atomic;
use llm_pilot::core::{
    CharacterizationDataset, CharacterizeConfig, PerformancePredictor, PredictorConfig,
    SweepDriver, SweepOptions,
};
use llm_pilot::obs::events::{EventSink, WatchState};
use llm_pilot::obs::Recorder;
use llm_pilot::sim::fault::{FaultConfig, FaultPlan};
use llm_pilot::sim::gpu::paper_profiles;
use llm_pilot::sim::llm::{llm_by_name, llm_catalog};
use llm_pilot::sim::memory::{feasibility_matrix, MemoryConfig, MemoryModel};
use llm_pilot::traces::{self, Param, TraceGenerator, TraceGeneratorConfig};
use llm_pilot::workload::{WorkloadModel, WorkloadSampler};
use llm_pilot::Error;

const COMMANDS: &str = "\
commands:
  traces        generate synthetic production traces
  workload      fit or sample the workload model (fit | sample)
  feasibility   print the LLM x GPU memory-feasibility matrix
  characterize  run the characterization sweep
  recommend     recommend the cheapest deployment for one LLM
  serve         run the online recommendation daemon
  watch         render live progress from a sweep telemetry stream";

fn root_usage(code: i32) -> ! {
    eprintln!("usage: llm-pilot <command> [flags]\n{COMMANDS}");
    eprintln!("\nrun `llm-pilot <command> --help` for per-command flags");
    exit(code)
}

// ---------------------------------------------------------------------------
// Tracing flags, shared by the long-running subcommands.
// ---------------------------------------------------------------------------

/// Where a traced run should deliver its spans.
struct TraceOpts {
    recorder: Recorder,
    out: Option<PathBuf>,
    summary: bool,
}

fn trace_flags(cmd: &mut Command) -> (Flag<Option<PathBuf>>, Flag<bool>) {
    let out = cmd.optional::<PathBuf>(
        "trace-out",
        "FILE",
        "write a Chrome trace_event JSON of the run (open in about:tracing / Perfetto)",
    );
    let summary =
        cmd.switch("trace-summary", "print a hierarchical span summary when the run ends");
    (out, summary)
}

fn trace_opts(parsed: &Parsed, out: Flag<Option<PathBuf>>, summary: Flag<bool>) -> TraceOpts {
    let out = parsed.get(&out);
    let summary = parsed.get(&summary);
    let recorder =
        if out.is_some() || summary { Recorder::enabled() } else { Recorder::disabled() };
    TraceOpts { recorder, out, summary }
}

impl TraceOpts {
    /// Export whatever the recorder captured. No-op when tracing is off.
    fn finish(self) -> Result<(), Error> {
        if self.out.is_none() && !self.summary {
            return Ok(());
        }
        let trace = self.recorder.snapshot();
        if let Some(path) = &self.out {
            std::fs::write(path, llm_pilot::obs::chrome::to_chrome_json(&trace))?;
            eprintln!("wrote trace to {}", path.display());
        }
        if self.summary {
            print!("{}", llm_pilot::obs::summary::summarize(&trace));
        }
        Ok(())
    }
}

/// Declare the shared `--events-out` flag.
fn events_flag(cmd: &mut Command) -> Flag<Option<String>> {
    cmd.optional::<String>(
        "events-out",
        "FILE",
        "append versioned JSONL telemetry events here (use - for stdout)",
    )
}

/// Open the telemetry sink behind `--events-out` (disabled when absent).
fn events_sink(parsed: &Parsed, flag: Flag<Option<String>>) -> Result<EventSink, Error> {
    match parsed.get(&flag) {
        Some(path) => Ok(EventSink::create(&path)?),
        None => Ok(EventSink::disabled()),
    }
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

fn cmd_traces(args: &[String]) -> Result<(), Error> {
    let mut cmd = Command::new("llm-pilot traces", "generate synthetic production traces");
    let requests = cmd.flag("requests", "N", "number of requests", 100_000usize);
    let out = cmd.required::<String>("out", "FILE", "output CSV path");
    let seed = cmd.flag("seed", "S", "RNG seed", 0xC0FFEEu64);
    let p = cmd.parse_or_exit(args);

    let requests = p.get(&requests);
    let out = p.get(&out);
    let ds = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: requests,
        seed: p.get(&seed),
        ..TraceGeneratorConfig::default()
    })
    .generate();
    std::fs::write(&out, traces::to_csv(&ds))?;
    println!("wrote {requests} trace records to {out}");
    Ok(())
}

fn cmd_workload_fit(args: &[String]) -> Result<(), Error> {
    let mut cmd = Command::new("llm-pilot workload fit", "fit the workload model to a trace CSV");
    let traces_path = cmd.required::<String>("traces", "FILE", "input traces CSV");
    let out = cmd.required::<String>("out", "FILE", "output model path");
    let p = cmd.parse_or_exit(args);

    let traces_path = p.get(&traces_path);
    let out = p.get(&out);
    let text = std::fs::read_to_string(&traces_path)?;
    let ds = traces::from_csv(&text).map_err(|e| format!("bad traces CSV: {e}"))?;
    let model = WorkloadModel::fit(&ds, &Param::core())?;
    println!(
        "fitted: {} non-empty bins of {:.2e} possible ({} bytes)",
        model.num_nonempty_bins(),
        model.num_possible_bins(),
        model.approx_size_bytes()
    );
    std::fs::write(&out, model.to_text())?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_workload_sample(args: &[String]) -> Result<(), Error> {
    let mut cmd = Command::new("llm-pilot workload sample", "sample requests from a fitted model");
    let model_path = cmd.required::<String>("model", "FILE", "fitted model path");
    let n = cmd.flag("n", "N", "number of samples", 10usize);
    let seed = cmd.flag("seed", "S", "RNG seed", 7u64);
    let p = cmd.parse_or_exit(args);

    let text = std::fs::read_to_string(p.get(&model_path))?;
    let model = WorkloadModel::from_text(&text)?;
    let sampler = WorkloadSampler::new(model);
    let mut rng = StdRng::seed_from_u64(p.get(&seed));
    println!("input_tokens,output_tokens,batch_size");
    for _ in 0..p.get(&n) {
        let r = sampler.sample(&mut rng);
        println!(
            "{},{},{}",
            r.input_tokens().unwrap_or(1),
            r.output_tokens().unwrap_or(1),
            r.batch_size().unwrap_or(1)
        );
    }
    Ok(())
}

fn cmd_workload(args: &[String]) -> Result<(), Error> {
    match args.first().map(String::as_str) {
        Some("fit") => cmd_workload_fit(&args[1..]),
        Some("sample") => cmd_workload_sample(&args[1..]),
        _ => {
            eprintln!("usage: llm-pilot workload <fit|sample> [flags]");
            exit(2)
        }
    }
}

fn cmd_feasibility(args: &[String]) -> Result<(), Error> {
    let cmd =
        Command::new("llm-pilot feasibility", "print the LLM x GPU memory-feasibility matrix");
    let _ = cmd.parse_or_exit(args);

    let llms = llm_catalog();
    let profiles = paper_profiles();
    let matrix = feasibility_matrix(&llms, &profiles, &MemoryConfig::default());
    print!("{:<26}", "LLM");
    for p in &profiles {
        print!(" {:>4}", p.name().split('-').next().unwrap_or("?"));
    }
    println!();
    for (i, llm) in llms.iter().enumerate() {
        print!("{:<26}", llm.name);
        for cell in &matrix[i] {
            print!(" {:>4}", cell.glyph());
        }
        println!();
    }
    Ok(())
}

fn build_sampler(seed: u64) -> WorkloadSampler {
    let ds = TraceGenerator::new(TraceGeneratorConfig {
        num_requests: 60_000,
        seed,
        ..TraceGeneratorConfig::default()
    })
    .generate();
    WorkloadSampler::new(WorkloadModel::fit(&ds, &Param::core()).expect("non-empty traces"))
}

fn cmd_characterize(args: &[String]) -> Result<(), Error> {
    let mut cmd = Command::new("llm-pilot characterize", "run the characterization sweep");
    let out = cmd.required::<String>("out", "FILE", "output dataset CSV path");
    let duration = cmd.flag_checked(
        "duration",
        "SECS",
        "virtual seconds per load test",
        120.0f64,
        |v| v.is_finite() && *v > 0.0,
        "a positive number of seconds",
    );
    let seed = cmd.flag("seed", "S", "workload RNG seed", 0xC0FFEEu64);
    let llm = cmd.optional::<String>("llm", "NAME", "restrict the sweep to one LLM");
    let journal = cmd.optional::<PathBuf>("journal", "FILE", "resumable sweep journal path");
    let retries = cmd.flag_checked(
        "retries",
        "N",
        "attempts per cell (deploy, tuning and every load test)",
        3u32,
        |v| *v >= 1,
        "a nonzero retry budget",
    );
    let fault_prob = cmd.flag_checked(
        "fault-prob",
        "P",
        "per-load-test transient fault probability",
        0.0f64,
        |v| (0.0..=1.0).contains(v),
        "a probability in [0, 1]",
    );
    let fault_seed = cmd.flag("fault-seed", "S", "fault-injection seed", 1u64);
    let max_steps = cmd.optional::<u64>("max-steps", "N", "step budget per cell");
    let events_out = events_flag(&mut cmd);
    let flight_dir = cmd.optional::<PathBuf>(
        "flight-dir",
        "DIR",
        "dump a flight-recorder trace here for every cell that fails",
    );
    let (trace_out, trace_summary) = trace_flags(&mut cmd);
    let p = cmd.parse_or_exit(args);

    let topts = trace_opts(&p, trace_out, trace_summary);
    let events = events_sink(&p, events_out)?;
    let flight_dir = p.get(&flight_dir);
    if let Some(dir) = &flight_dir {
        std::fs::create_dir_all(dir)?;
    }
    let sampler = build_sampler(p.get(&seed));
    let llms = match p.get(&llm) {
        Some(name) => {
            vec![llm_by_name(&name).ok_or_else(|| format!("unknown LLM {name:?}"))?]
        }
        None => llm_catalog(),
    };
    let config =
        CharacterizeConfig { duration_s: p.get(&duration), ..CharacterizeConfig::default() };

    let fault_prob = p.get(&fault_prob);
    let plan = if fault_prob > 0.0 {
        FaultPlan::new(FaultConfig::transient(p.get(&fault_seed), fault_prob))
    } else {
        FaultPlan::none()
    };
    let options = SweepOptions {
        plan,
        max_attempts: p.get(&retries),
        journal_path: p.get(&journal),
        max_steps_per_cell: p.get(&max_steps),
        recorder: topts.recorder.clone(),
        events: events.clone(),
        flight_dir,
        ..SweepOptions::default()
    };
    let profiles = paper_profiles();
    let driver =
        SweepDriver::builder(&llms, &profiles, &sampler).config(config).options(options).build()?;
    let (ds, report) = driver.run()?;
    let dropped = events.events_dropped();
    if dropped > 0 {
        eprintln!("warning: {dropped} telemetry events were not written (--events-out failed)");
    }
    print!("{report}");
    println!("{} rows over {} measured cells", ds.len(), ds.tuned_weights.len());
    let out = p.get(&out);
    // `llm-pilot serve` may be watching this file: never expose a torn one.
    write_atomic(Path::new(&out), ds.to_csv().as_bytes())?;
    println!("wrote {out}");
    topts.finish()
}

fn cmd_recommend(args: &[String]) -> Result<(), Error> {
    let mut cmd =
        Command::new("llm-pilot recommend", "recommend the cheapest deployment for one LLM");
    let data = cmd.required::<String>("data", "FILE", "characterization dataset CSV");
    let llm = cmd.required::<String>("llm", "NAME", "the LLM to deploy");
    let users = cmd.flag("users", "N", "total concurrent users", 200u32);
    let nttft_ms = cmd.flag("nttft-ms", "MS", "normalized time-to-first-token SLA", 100.0f64);
    let itl_ms = cmd.flag("itl-ms", "MS", "inter-token latency SLA", 50.0f64);
    let events_out = events_flag(&mut cmd);
    let (trace_out, trace_summary) = trace_flags(&mut cmd);
    let p = cmd.parse_or_exit(args);

    let topts = trace_opts(&p, trace_out, trace_summary);
    let events = events_sink(&p, events_out)?;
    let llm_name = p.get(&llm);
    let llm = llm_by_name(&llm_name).ok_or_else(|| format!("unknown LLM {llm_name:?}"))?;
    let text = std::fs::read_to_string(p.get(&data))?;
    let dataset =
        CharacterizationDataset::from_csv(&text).map_err(|e| format!("bad dataset CSV: {e}"))?;
    let train_rows: Vec<_> = dataset.rows_excluding_llm(&llm_name);
    if train_rows.is_empty() {
        return Err("dataset has no rows from other LLMs to learn from".to_string().into());
    }
    let request = RecommendationRequest {
        total_users: p.get(&users),
        constraints: LatencyConstraints {
            nttft_s: p.get(&nttft_ms) / 1e3,
            itl_s: p.get(&itl_ms) / 1e3,
        },
        user_grid: PAPER_USER_GRID.to_vec(),
    };
    let candidates: Vec<_> = paper_profiles()
        .into_iter()
        .filter(|profile| {
            MemoryModel::new(llm.clone(), profile.clone(), MemoryConfig::default())
                .feasibility()
                .is_feasible()
        })
        .collect();

    // The LLM-Pilot method without inner HP tuning: train on every other
    // LLM's rows, predict over the user grid, solve Eq. (1)–(3).
    events.emit(
        "recommend.started",
        &[
            ("llm", llm.name.into()),
            ("users", request.total_users.into()),
            ("train_rows", train_rows.len().into()),
        ],
    );
    let _run_span = topts.recorder.span("recommend.run").arg("llm", llm.name);
    let predictor = PerformancePredictor::train_traced(
        &train_rows,
        &request.constraints,
        &PredictorConfig::default(),
        &topts.recorder,
    )?;
    let rec =
        recommend(&candidates, &request, |profile, u| Some(predictor.predict(&llm, profile, u)))?;
    println!(
        "{}: {} pods of {} (predicted {} users/pod), ${:.2}/h",
        llm.name, rec.pods, rec.profile, rec.u_max, rec.cost_per_hour
    );
    events.emit(
        "recommend.finished",
        &[
            ("llm", llm.name.into()),
            ("profile", rec.profile.as_str().into()),
            ("pods", rec.pods.into()),
            ("u_max", rec.u_max.into()),
            ("cost_per_hour", rec.cost_per_hour.into()),
        ],
    );
    drop(_run_span);
    topts.finish()
}

fn cmd_serve(args: &[String]) -> Result<(), Error> {
    let mut cmd = Command::new("llm-pilot serve", "run the online recommendation daemon");
    let data = cmd.required::<String>("data", "FILE", "characterization dataset CSV");
    let addr = cmd.flag("addr", "HOST:PORT", "listen address", "127.0.0.1:8008".to_string());
    let workers =
        cmd.flag_checked("workers", "N", "worker threads", 4usize, |v| *v >= 1, "at least 1");
    let queue = cmd.flag_checked(
        "queue",
        "N",
        "admission queue capacity",
        128usize,
        |v| *v >= 1,
        "at least 1",
    );
    let cache = cmd.flag("cache", "N", "response cache capacity", 4096usize);
    let watch_secs = cmd.flag_checked(
        "watch-secs",
        "S",
        "dataset mtime watch interval (0 disables)",
        2.0f64,
        |v| v.is_finite() && *v >= 0.0,
        "a non-negative number of seconds",
    );
    let events_out = events_flag(&mut cmd);
    let p = cmd.parse_or_exit(args);

    let data = p.get(&data);
    let mut config = llm_pilot::serve::ServeConfig::new(&data);
    config.events = events_sink(&p, events_out)?;
    config.addr = p.get(&addr);
    config.workers = p.get(&workers);
    config.queue_capacity = p.get(&queue);
    config.cache_capacity = p.get(&cache);
    let watch_secs = p.get(&watch_secs);
    config.watch_interval =
        (watch_secs > 0.0).then(|| std::time::Duration::from_secs_f64(watch_secs));

    eprintln!("loading {data} and training the initial model...");
    let handle = llm_pilot::serve::Server::start(config)?;
    println!("llm-pilot serving recommendations on http://{}", handle.addr());
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn cmd_watch(args: &[String]) -> Result<(), Error> {
    let mut cmd =
        Command::new("llm-pilot watch", "render live progress from a sweep telemetry stream");
    cmd.positionals(1, "EVENTS_FILE");
    let follow = cmd.switch("follow", "keep polling the file until the sweep finishes");
    let interval_ms = cmd.flag_checked(
        "interval-ms",
        "MS",
        "poll interval while following",
        200u64,
        |v| *v >= 1,
        "at least 1 millisecond",
    );
    let p = cmd.parse_or_exit(args);
    let Some(path) = p.positionals().first().cloned() else {
        eprintln!("error: missing events file");
        eprintln!("usage: llm-pilot watch EVENTS_FILE [--follow] [--interval-ms MS]");
        exit(2)
    };
    let follow = p.get(&follow);
    let interval = std::time::Duration::from_millis(p.get(&interval_ms));

    let mut state = WatchState::new();
    if !follow {
        state.ingest_document(&std::fs::read_to_string(&path)?);
        print!("{}", state.render());
        return Ok(());
    }

    // Follow mode: poll for appended bytes, feed only complete lines (the
    // writer may be mid-line), re-render on change, stop at sweep.finished.
    // The file may not exist yet when the watcher starts before the sweep.
    let mut offset = 0usize;
    let mut pending = String::new();
    loop {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::thread::sleep(interval);
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        let mut changed = false;
        if bytes.len() > offset {
            pending.push_str(&String::from_utf8_lossy(&bytes[offset..]));
            offset = bytes.len();
            while let Some(nl) = pending.find('\n') {
                let line: String = pending.drain(..=nl).collect();
                state.ingest(&line);
                changed = true;
            }
        }
        if changed {
            print!("{}", state.render());
        }
        if state.finished() {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else { root_usage(2) };
    let rest = &args[1..];
    let result = match command.as_str() {
        "traces" => cmd_traces(rest),
        "workload" => cmd_workload(rest),
        "feasibility" => cmd_feasibility(rest),
        "characterize" => cmd_characterize(rest),
        "recommend" => cmd_recommend(rest),
        "serve" => cmd_serve(rest),
        "watch" => cmd_watch(rest),
        "--help" | "-h" | "help" => {
            println!("usage: llm-pilot <command> [flags]\n{COMMANDS}");
            println!("\nrun `llm-pilot <command> --help` for per-command flags");
            return;
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            root_usage(2)
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1)
    }
}
