//! Load test of the llmpilot-serve daemon: a closed-loop client pool over
//! loopback measuring sustained throughput and tail latency of the
//! `/recommend` query path, cold (every query misses the LRU response
//! cache and runs the full predictor search) versus cached (the same
//! query mix repeated, served from the cache).
//!
//! It exercises the whole daemon — HTTP parsing, the bounded worker pool,
//! cache and metrics — not just the search loop, whose per-query cost
//! perfbench reports as `serving.recommend_us`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use llmpilot_core::{CharacterizationDataset, PerfRow, PredictorConfig};
use llmpilot_ml::GbdtParams;
use llmpilot_serve::{http_request, HttpClient, ServeConfig, Server};

use crate::{fmt, header};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 250;

/// Synthetic characterization dataset: enough LLM × profile × users cells
/// for query diversity without a full sweep.
fn dataset() -> CharacterizationDataset {
    let mut rows = Vec::new();
    let profiles = [("1xA100-40GB", 0.0015), ("1xA100-80GB", 0.001), ("2xA100-40GB", 0.0008)];
    for llm in ["Llama-2-7b", "Llama-2-13b", "bigcode/starcoder", "google/flan-t5-xl"] {
        for (profile, itl_scale) in profiles {
            for users in [1u32, 2, 4, 8, 16, 32, 64, 128] {
                rows.push(PerfRow {
                    llm: llm.into(),
                    profile: profile.into(),
                    users,
                    ttft_s: 0.05 * f64::from(users),
                    nttft_s: 0.0001 * f64::from(users),
                    itl_s: itl_scale * f64::from(users),
                    throughput: 120.0 * f64::from(users),
                });
            }
        }
    }
    CharacterizationDataset { rows, ..Default::default() }
}

/// Latency percentiles of one phase, microseconds.
fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let rank = (p * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)] as f64
}

struct PhaseResult {
    latencies_us: Vec<u64>,
    wall: Duration,
    errors: u64,
}

/// Run one closed-loop phase: `CLIENTS` threads each issue
/// `REQUESTS_PER_CLIENT` keep-alive requests back-to-back. `unique_tag`
/// perturbs the query mix so a phase either always misses (fresh tag) or
/// always hits (repeated tag) the response cache.
fn run_phase(addr: std::net::SocketAddr, unique_tag: u32) -> PhaseResult {
    let errors = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let errors = Arc::clone(&errors);
        handles.push(std::thread::spawn(move || {
            let llms = ["Llama-2-7b", "Llama-2-13b", "bigcode%2Fstarcoder", "google%2Fflan-t5-xl"];
            let mut conn = HttpClient::connect(addr).expect("connect to local daemon");
            let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
            for i in 0..REQUESTS_PER_CLIENT {
                let llm = llms[(c + i) % llms.len()];
                // users varies per (client, request, tag): with a fresh tag
                // every key is new to the cache, with a repeated tag the
                // whole mix has been seen before.
                let users = 1 + ((c * REQUESTS_PER_CLIENT + i) as u32 % 200) + unique_tag * 200;
                let target = format!("/recommend?model={llm}&users={users}");
                let t0 = Instant::now();
                match conn.request("GET", &target) {
                    Ok(resp) if resp.status == 200 => {
                        latencies.push(t0.elapsed().as_micros() as u64)
                    }
                    Ok(_) | Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            latencies
        }));
    }
    let mut latencies_us = Vec::new();
    for h in handles {
        latencies_us.extend(h.join().expect("client thread"));
    }
    latencies_us.sort_unstable();
    PhaseResult { latencies_us, wall: started.elapsed(), errors: errors.load(Ordering::Relaxed) }
}

fn print_phase(name: &str, r: &PhaseResult) {
    let n = r.latencies_us.len() as f64;
    let throughput = n / r.wall.as_secs_f64();
    println!(
        "{:<8} {:>9} {:>6} {:>11} {:>10} {:>10} {:>10}",
        name,
        r.latencies_us.len(),
        r.errors,
        format!("{} req/s", fmt(throughput)),
        format!("{} us", fmt(percentile(&r.latencies_us, 0.50))),
        format!("{} us", fmt(percentile(&r.latencies_us, 0.99))),
        format!("{} ms", fmt(r.wall.as_secs_f64() * 1e3)),
    );
}

/// Run and print the experiment.
pub fn run() {
    header("serve_load - llmpilot-serve closed-loop load test over loopback");

    let data_path =
        std::env::temp_dir().join(format!("llmpilot-serve-load-{}.csv", std::process::id()));
    std::fs::write(&data_path, dataset().to_csv()).expect("write dataset");

    let mut config = ServeConfig::new(&data_path);
    config.addr = "127.0.0.1:0".into();
    config.workers = CLIENTS;
    config.queue_capacity = 2 * CLIENTS;
    config.cache_capacity = 16 * 1024;
    config.watch_interval = None;
    config.predictor = PredictorConfig {
        gbdt: GbdtParams { n_trees: 40, max_depth: 4, ..GbdtParams::default() },
        ..PredictorConfig::default()
    };

    let t0 = Instant::now();
    let handle = Server::start(config).expect("daemon starts");
    println!(
        "daemon up on {} ({} workers, initial training {} ms)",
        handle.addr(),
        CLIENTS,
        fmt(t0.elapsed().as_secs_f64() * 1e3)
    );
    println!(
        "{CLIENTS} closed-loop clients x {REQUESTS_PER_CLIENT} keep-alive requests per phase\n"
    );

    println!(
        "{:<8} {:>9} {:>6} {:>11} {:>10} {:>10} {:>10}",
        "phase", "ok", "err", "throughput", "p50", "p99", "wall"
    );
    // Phase 1 (cold): every (model, users) key is new — full predictor
    // search on each request.
    let cold = run_phase(handle.addr(), 0);
    print_phase("cold", &cold);
    // Phase 2 (cached): the identical query mix again — served from the
    // LRU cache.
    let cached = run_phase(handle.addr(), 0);
    print_phase("cached", &cached);

    let cold_p50 = percentile(&cold.latencies_us, 0.50);
    let cached_p50 = percentile(&cached.latencies_us, 0.50);
    println!(
        "\ncache-hit speedup: p50 {}x ({} us -> {} us)",
        fmt(cold_p50 / cached_p50),
        fmt(cold_p50),
        fmt(cached_p50)
    );

    let scrape = http_request(handle.addr(), "GET", "/metrics").expect("scrape metrics").text();
    let series = |name: &str| {
        scrape
            .lines()
            .find(|l| l.starts_with(name))
            .map(|l| l.to_string())
            .unwrap_or_else(|| format!("{name} <missing>"))
    };
    println!("\ndaemon-side counters:");
    for name in [
        "llmpilot_requests_total{route=\"recommend\"}",
        "llmpilot_cache_requests_total{result=\"hit\"}",
        "llmpilot_cache_requests_total{result=\"miss\"}",
        "llmpilot_queue_rejected_total",
        "llmpilot_request_duration_seconds_count",
    ] {
        println!("  {}", series(name));
    }

    handle.shutdown();
    std::fs::remove_file(&data_path).ok();
}
