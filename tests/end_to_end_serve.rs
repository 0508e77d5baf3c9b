//! End-to-end test of the `llm-pilot serve` daemon: start on an ephemeral
//! port, hammer `/recommend` from concurrent client threads, hot-reload
//! the dataset mid-load, and check that no response is dropped or
//! corrupted, that post-reload answers reflect the new dataset, and that
//! `/metrics` counters are consistent with the issued request count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use llm_pilot::core::{CharacterizationDataset, PerfRow, PredictorConfig};
use llm_pilot::ml::GbdtParams;
use llm_pilot::obs::events::EventSink;
use llm_pilot::obs::json::{parse as parse_json, Json};
use llm_pilot::serve::{http_request, HttpClient, ServeConfig, Server};

/// Synthetic characterization rows: `itl_scale[profile]` sets per-user
/// inter-token latency, so feasibility (ITL ≤ 50 ms) flips per profile.
fn dataset(itl_scale: &[(&str, f64)]) -> CharacterizationDataset {
    let mut rows = Vec::new();
    for llm in ["Llama-2-7b", "Llama-2-13b"] {
        for &(profile, scale) in itl_scale {
            for users in [1u32, 2, 4, 8, 16, 32, 64, 128] {
                rows.push(PerfRow {
                    llm: llm.into(),
                    profile: profile.into(),
                    users,
                    ttft_s: 0.05 * f64::from(users),
                    nttft_s: 0.0001 * f64::from(users),
                    itl_s: scale * f64::from(users),
                    throughput: 100.0 * f64::from(users),
                });
            }
        }
    }
    CharacterizationDataset { rows, ..Default::default() }
}

/// Both profiles feasible up to 16 users; the cheaper A100-40 wins.
fn dataset_v1() -> CharacterizationDataset {
    dataset(&[("1xA100-40GB", 0.002), ("1xA100-80GB", 0.002)])
}

/// A100-40 now violates ITL even at one user; A100-80 must win.
fn dataset_v2() -> CharacterizationDataset {
    dataset(&[("1xA100-40GB", 2.0), ("1xA100-80GB", 0.002)])
}

fn fast_predictor() -> PredictorConfig {
    PredictorConfig {
        gbdt: GbdtParams { n_trees: 20, max_depth: 3, ..GbdtParams::default() },
        ..PredictorConfig::default()
    }
}

fn extract_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = json.find(&needle)? + needle.len();
    let end = json[start..].find('"')? + start;
    Some(&json[start..end])
}

fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let digits: String = json[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Value of a Prometheus series (exact `name{labels}` match) in a scrape.
fn metric_value(scrape: &str, series: &str) -> Option<f64> {
    scrape
        .lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
        .and_then(|l| l[series.len() + 1..].trim().parse().ok())
}

#[test]
fn serve_end_to_end_with_hot_reload_under_concurrent_load() {
    let dir = std::env::temp_dir();
    let data_path = dir.join(format!("llmpilot-e2e-{}.csv", std::process::id()));
    std::fs::write(&data_path, dataset_v1().to_csv()).unwrap();

    let mut config = ServeConfig::new(&data_path);
    config.addr = "127.0.0.1:0".into();
    config.workers = 4;
    config.queue_capacity = 512;
    config.cache_capacity = 1024;
    config.watch_interval = None; // reloads are explicit POST /reload here
    config.predictor = fast_predictor();
    let handle = Server::start(config).expect("server should start");
    let addr = handle.addr();

    let issued_recommend = Arc::new(AtomicU64::new(0));

    // --- Phase 1: pre-reload answers come from dataset v1. -------------
    let resp = http_request(addr, "GET", "/recommend?model=Llama-2-13b").unwrap();
    issued_recommend.fetch_add(1, Ordering::SeqCst);
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let body = resp.text();
    assert_eq!(extract_str(&body, "profile"), Some("1xA100-40GB"));
    assert_eq!(extract_u64(&body, "dataset_generation"), Some(1));
    let pods_v1 = extract_u64(&body, "pods").unwrap();
    assert!(pods_v1 >= 1);

    // Identical repeat must be a cache hit with an identical body.
    let repeat = http_request(addr, "GET", "/recommend?model=Llama-2-13b").unwrap();
    issued_recommend.fetch_add(1, Ordering::SeqCst);
    assert_eq!(repeat.header("x-cache"), Some("hit"));
    assert_eq!(repeat.text(), body);

    // --- Phase 2: concurrent load with a hot reload in the middle. ----
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 60;
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        let issued = Arc::clone(&issued_recommend);
        clients.push(std::thread::spawn(move || {
            let mut conn = HttpClient::connect(addr).expect("client connect");
            let mut answers = Vec::new();
            for i in 0..REQUESTS_PER_CLIENT {
                let llm = if (c + i) % 2 == 0 { "Llama-2-7b" } else { "Llama-2-13b" };
                let users = 50 + ((c * REQUESTS_PER_CLIENT + i) % 4) * 50;
                let target = format!("/recommend?model={llm}&users={users}");
                let resp = conn.request("GET", &target).expect("request on live server");
                issued.fetch_add(1, Ordering::SeqCst);
                answers.push(resp);
                std::thread::sleep(Duration::from_millis(2));
            }
            answers
        }));
    }

    // Let the load ramp, then swap the dataset under it.
    std::thread::sleep(Duration::from_millis(40));
    std::fs::write(&data_path, dataset_v2().to_csv()).unwrap();
    let reload = http_request(addr, "POST", "/reload").unwrap();
    assert_eq!(reload.status, 200, "body: {}", reload.text());
    let reload_body = reload.text();
    assert!(reload_body.contains("\"reloaded\":true"), "body: {reload_body}");
    assert_eq!(extract_u64(&reload_body, "dataset_generation"), Some(2));
    assert_eq!(extract_u64(&reload_body, "model_generation"), Some(2));

    // Every concurrent response must be well-formed: HTTP 200, a known
    // profile, and generation tags from either the old or new generation
    // — never a mix, never a dropped/corrupted reply.
    let mut total = 0usize;
    for client in clients {
        for resp in client.join().expect("client thread must not panic") {
            total += 1;
            assert_eq!(resp.status, 200, "body: {}", resp.text());
            let body = resp.text();
            let profile = extract_str(&body, "profile").expect("profile field");
            assert!(
                profile == "1xA100-40GB" || profile == "1xA100-80GB",
                "unexpected profile {profile} in {body}"
            );
            let ds_gen = extract_u64(&body, "dataset_generation").unwrap();
            let model_gen = extract_u64(&body, "model_generation").unwrap();
            assert!(ds_gen == 1 || ds_gen == 2, "bad generation in {body}");
            assert_eq!(ds_gen, model_gen, "mixed generations in {body}");
            if ds_gen == 2 {
                assert_eq!(profile, "1xA100-80GB", "post-reload answer must use v2: {body}");
            }
            assert!(extract_u64(&body, "pods").unwrap() >= 1);
        }
    }
    assert_eq!(total, CLIENTS * REQUESTS_PER_CLIENT);

    // --- Phase 3: post-reload answers reflect dataset v2. -------------
    let resp = http_request(addr, "GET", "/recommend?model=Llama-2-13b&users=333").unwrap();
    issued_recommend.fetch_add(1, Ordering::SeqCst);
    assert_eq!(resp.status, 200, "body: {}", resp.text());
    let body = resp.text();
    assert_eq!(extract_str(&body, "profile"), Some("1xA100-80GB"));
    assert_eq!(extract_u64(&body, "dataset_generation"), Some(2));
    assert_eq!(extract_u64(&body, "model_generation"), Some(2));

    // --- Phase 4: /metrics is consistent with what we issued. ----------
    let issued = issued_recommend.load(Ordering::SeqCst);
    let scrape = http_request(addr, "GET", "/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    let text = scrape.text();
    assert_eq!(
        metric_value(&text, "llmpilot_requests_total{route=\"recommend\"}"),
        Some(issued as f64),
        "recommend counter must match issued requests"
    );
    assert_eq!(metric_value(&text, "llmpilot_requests_total{route=\"reload\"}"), Some(1.0));
    assert_eq!(metric_value(&text, "llmpilot_reloads_total"), Some(1.0));
    assert_eq!(metric_value(&text, "llmpilot_dataset_generation"), Some(2.0));
    assert_eq!(metric_value(&text, "llmpilot_model_generation"), Some(2.0));
    assert_eq!(metric_value(&text, "llmpilot_responses_total{class=\"5xx\"}"), Some(0.0));
    assert_eq!(metric_value(&text, "llmpilot_queue_rejected_total"), Some(0.0));
    let hits = metric_value(&text, "llmpilot_cache_requests_total{result=\"hit\"}").unwrap();
    let misses = metric_value(&text, "llmpilot_cache_requests_total{result=\"miss\"}").unwrap();
    assert_eq!(hits + misses, issued as f64, "every recommend request is exactly one cache lookup");
    assert!(hits >= 1.0, "the repeat query must have hit the cache");
    let count = metric_value(&text, "llmpilot_request_duration_seconds_count").unwrap();
    // Latency is observed for every handled request (recommend + reload +
    // this scrape's predecessors); at minimum all recommends are in it.
    assert!(count >= issued as f64);

    // --- Phase 5: error paths and graceful shutdown. -------------------
    let resp = http_request(addr, "GET", "/recommend").unwrap();
    assert_eq!(resp.status, 400);
    let resp = http_request(addr, "GET", "/recommend?model=no-such-llm").unwrap();
    assert_eq!(resp.status, 400);
    let resp = http_request(addr, "GET", "/recommend?model=Llama-2-13b&users=banana").unwrap();
    assert_eq!(resp.status, 400);
    let resp = http_request(addr, "GET", "/recommend?model=Llama-2-13b&itl=0.0001").unwrap();
    assert_eq!(resp.status, 404, "impossibly tight SLA must be NoFeasible");
    let resp = http_request(addr, "GET", "/nope").unwrap();
    assert_eq!(resp.status, 404);
    let resp = http_request(addr, "GET", "/healthz").unwrap();
    assert_eq!(resp.status, 200);

    handle.shutdown();
    std::fs::remove_file(&data_path).ok();
}

#[test]
fn serve_issues_trace_ids_and_records_spans_for_the_embedder_to_export() {
    let dir = std::env::temp_dir();
    let data_path = dir.join(format!("llmpilot-e2e-trace-{}.csv", std::process::id()));
    std::fs::write(&data_path, dataset_v1().to_csv()).unwrap();

    let recorder = llm_pilot::obs::Recorder::enabled();
    let mut config = ServeConfig::new(&data_path);
    config.addr = "127.0.0.1:0".into();
    config.workers = 2;
    config.watch_interval = None;
    config.predictor = PredictorConfig { recorder: recorder.clone(), ..fast_predictor() };
    let handle = Server::start(config).expect("server should start");
    let addr = handle.addr();

    // Every response carries a unique X-Trace-Id, across routes and
    // status codes (including errors).
    let mut trace_ids = Vec::new();
    for target in ["/healthz", "/recommend?model=Llama-2-13b", "/recommend", "/nope"] {
        let resp = http_request(addr, "GET", target).unwrap();
        let id = resp
            .header("x-trace-id")
            .unwrap_or_else(|| panic!("{target} response must carry X-Trace-Id"))
            .to_string();
        assert!(
            id.len() >= 8 && id.chars().all(|c| c.is_ascii_hexdigit()),
            "trace id {id:?} for {target} is not hex"
        );
        trace_ids.push(id);
    }
    let unique: std::collections::HashSet<_> = trace_ids.iter().collect();
    assert_eq!(unique.len(), trace_ids.len(), "trace ids must be unique: {trace_ids:?}");

    // The recorder saw the request spans plus the startup retraining, and
    // the /metrics scrape surfaces the span count as a gauge-style counter.
    let scrape = http_request(addr, "GET", "/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    let text = scrape.text();
    let spans = metric_value(&text, "llmpilot_trace_spans_total")
        .expect("llmpilot_trace_spans_total must be exported");
    assert!(spans >= 4.0, "expected at least the four request spans, got {spans}");

    handle.shutdown();

    // After shutdown the embedder's own export is a valid Chrome trace
    // containing the request spans and the startup `serve.retrain` with the
    // training phases beneath it.
    let snapshot = recorder.snapshot();
    let document = llm_pilot::obs::chrome::to_chrome_json(&snapshot);
    let stats = llm_pilot::obs::check::check_chrome_trace(
        &document,
        &["serve.request", "serve.retrain", "serving.train", "gbdt.fit"],
    )
    .expect("trace must validate");
    assert!(stats.span_events >= 4, "expected request + retrain spans, got {}", stats.span_events);

    let requests = snapshot.events.iter().filter(|s| s.name == "serve.request").count();
    assert_eq!(requests, 5, "four probes plus the /metrics scrape");
    let retrains = snapshot.events.iter().filter(|s| s.name == "serve.retrain").count();
    assert_eq!(retrains, 1, "exactly one startup training run");

    std::fs::remove_file(&data_path).ok();
}

#[test]
fn serve_writes_a_valid_telemetry_stream_with_startup_and_reload_events() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let data_path = dir.join(format!("llmpilot-e2e-events-{pid}.csv"));
    let events_path = dir.join(format!("llmpilot-e2e-events-{pid}.jsonl"));
    std::fs::write(&data_path, dataset_v1().to_csv()).unwrap();

    let mut config = ServeConfig::new(&data_path);
    config.addr = "127.0.0.1:0".into();
    config.workers = 2;
    config.watch_interval = None;
    config.predictor = fast_predictor();
    config.events = EventSink::create(events_path.to_str().unwrap()).unwrap();
    let handle = Server::start(config).expect("server should start");
    let addr = handle.addr();

    std::fs::write(&data_path, dataset_v2().to_csv()).unwrap();
    let reload = http_request(addr, "POST", "/reload").unwrap();
    assert_eq!(reload.status, 200, "body: {}", reload.text());
    assert_eq!(extract_u64(&reload.text(), "model_generation"), Some(2));
    handle.shutdown();

    let text = std::fs::read_to_string(&events_path).expect("events file written");
    let stats = llm_pilot::obs::check::check_events(&text).expect("stream must validate");
    assert_eq!(stats.events, 2, "stream: {text}");
    assert!(!stats.truncated_tail);
    let events: Vec<Json> = text.lines().map(|l| parse_json(l).unwrap()).collect();
    let text_field = |i: usize, key: &str| events[i].get(key).and_then(Json::as_str);
    let generation = |i: usize, key: &str| events[i].get(key).and_then(Json::as_u64);
    assert_eq!(text_field(0, "event"), Some("serve.started"));
    assert_eq!(text_field(0, "addr"), Some(addr.to_string().as_str()));
    assert_eq!(generation(0, "dataset_generation"), Some(1));
    assert_eq!(generation(0, "model_generation"), Some(1));
    assert_eq!(text_field(1, "event"), Some("serve.reloaded"));
    assert_eq!(text_field(1, "source"), Some("reload"));
    assert_eq!(generation(1, "dataset_generation"), Some(2));
    assert_eq!(generation(1, "model_generation"), Some(2));

    std::fs::remove_file(&data_path).ok();
    std::fs::remove_file(&events_path).ok();
}

#[test]
fn serve_admission_control_rejects_when_queue_is_full() {
    let dir = std::env::temp_dir();
    let data_path = dir.join(format!("llmpilot-e2e-admit-{}.csv", std::process::id()));
    std::fs::write(&data_path, dataset_v1().to_csv()).unwrap();

    let mut config = ServeConfig::new(&data_path);
    config.addr = "127.0.0.1:0".into();
    config.workers = 1;
    config.queue_capacity = 1;
    config.watch_interval = None;
    config.read_timeout = Duration::from_millis(500);
    config.predictor = fast_predictor();
    let handle = Server::start(config).expect("server should start");
    let addr = handle.addr();

    // Two idle connections: the single worker blocks reading the first,
    // the second fills the one-slot queue.
    let idle1 = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let idle2 = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // The third connection must be turned away by the acceptor itself. The
    // acceptor answers 503 without reading the request, so write the
    // request best-effort (the peer may already have closed) and read the
    // raw response.
    let mut rejected = std::net::TcpStream::connect(addr).unwrap();
    rejected.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = std::io::Write::write_all(&mut rejected, b"GET /healthz HTTP/1.1\r\n\r\n");
    let mut raw = Vec::new();
    let _ = std::io::Read::read_to_end(&mut rejected, &mut raw);
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 503 "), "expected a 503, got {raw:?}");
    assert!(raw.to_ascii_lowercase().contains("retry-after: 1"), "got {raw:?}");

    drop(idle1);
    drop(idle2);

    // After the idle connections drain, service resumes.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match http_request(addr, "GET", "/healthz") {
            Ok(resp) if resp.status == 200 => break,
            _ if std::time::Instant::now() > deadline => {
                panic!("server did not recover after overload")
            }
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    let scrape = http_request(addr, "GET", "/metrics").unwrap().text();
    assert!(
        metric_value(&scrape, "llmpilot_queue_rejected_total").unwrap() >= 1.0,
        "admission control must be visible in metrics"
    );

    handle.shutdown();
    std::fs::remove_file(&data_path).ok();
}
