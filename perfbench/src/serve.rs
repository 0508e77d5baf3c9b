//! The online path: an in-process `llmpilot-serve` daemon driven over
//! loopback by one closed-loop client on one keep-alive connection.
//!
//! * `serve_cold`: every query is a new key and the response cache is
//!   pre-filled to capacity, so every timed query misses, runs the
//!   recommendation search and evicts.
//! * `serve_hot_reload`: queries come from a small skewed hot set that fits
//!   the cache; every [`RELOAD_EVERY`] queries the client rewrites the
//!   dataset file and issues `POST /reload` on the same connection.

use std::io::BufReader;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use llmpilot_core::recommend::parse_profile;
use llmpilot_core::{
    online_predictor_config, CharacterizationDataset, LatencyConstraints, RecommendationRequest,
    ServingModel,
};
use llmpilot_obs::json::{parse as parse_json, Json};
use llmpilot_serve::{
    parse_request, ClientResponse, HttpClient, Limits, LruCache, ServeConfig, Server, ServerHandle,
};

use crate::host;
use crate::keys::{DistinctKeys, HotKeys, QueryKey};
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::{Phase, PhaseUse, SetupTime, REPS};

/// The daemon's default response-cache capacity, which the cold workload
/// fills before timing.
const CACHE_CAPACITY: usize = 4096;
/// Size of `serve_hot_reload`'s hot key set; it fits the cache many times.
const HOT_KEYS: usize = 256;
/// `serve_hot_reload` reloads the dataset once per this many queries.
const RELOAD_EVERY: u64 = 2000;
/// An untimed run reads the process's peak resident memory when this many
/// timed queries are done: a fixed point, after the cache has turned over
/// (and, on `serve_hot_reload`, after four reloads), that every run reaches.
const RSS_AT_QUERY: u64 = 10_000;
/// Timed queries of the fixed-length daemon phase of a traced run.
const TRACED_QUERIES: u64 = 6000;

/// The two query mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Distinct keys over a full cache: every query misses and evicts.
    Cold,
    /// A skewed hot set plus periodic dataset reloads.
    HotReload,
}

impl Mix {
    /// CPU time per query is taken over segments of this many timed
    /// queries, about 2 s of CPU time each, and the median segment is
    /// reported. On `serve_hot_reload` a segment holds four reloads, two of
    /// each dataset version.
    fn segment(self) -> u64 {
        match self {
            Mix::Cold => 4000,
            Mix::HotReload => 4 * RELOAD_EVERY,
        }
    }
}

/// One keep-alive connection that reconnects after the daemon closes it.
///
/// The daemon answers the last request it serves on a connection
/// (`max_requests_per_connection`) with `Connection: close`; the client then
/// opens a fresh connection for the next request. That is normal protocol
/// behaviour, not a failure.
struct Client {
    addr: SocketAddr,
    conn: Option<HttpClient>,
    /// Connections opened so far.
    pub connects: u64,
}

impl Client {
    /// A client for the daemon at `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None, connects: 0 }
    }

    /// Issue one request.
    pub fn request(&mut self, method: &str, target: &str) -> std::io::Result<ClientResponse> {
        if self.conn.is_none() {
            self.conn = Some(HttpClient::connect(self.addr)?);
            self.connects += 1;
        }
        let conn = self.conn.as_mut().expect("connected above");
        match conn.request(method, target) {
            Ok(resp) => {
                if resp.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// The value of one unlabelled or fully labelled series in a Prometheus
/// text scrape.
fn scrape_value(scrape: &str, series: &str) -> Option<f64> {
    scrape.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Generations the daemon serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Generations {
    dataset: u64,
    model: u64,
}

/// Validate one `/recommend` answer for `key`; returns whether the daemon
/// served it from its cache.
fn check_answer(resp: &ClientResponse, key: &QueryKey, live: Generations) -> Result<bool, String> {
    if resp.status != 200 {
        return Err(format!("{} -> HTTP {}: {}", key.target(), resp.status, resp.text()));
    }
    let body = resp.text();
    let json = parse_json(&body).map_err(|e| format!("malformed JSON ({e}): {body}"))?;
    let field = |k: &str| json.get(k).ok_or_else(|| format!("no {k} in {body}"));
    let text = |k: &str| field(k)?.as_str().ok_or_else(|| format!("bad {k} in {body}"));
    let int = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("bad {k} in {body}"));
    if text("llm")? != key.model {
        return Err(format!("answer for the wrong model: {body}"));
    }
    if parse_profile(text("profile")?).is_none() {
        return Err(format!("unknown profile in {body}"));
    }
    let cost = field("cost_per_hour")?.as_f64().ok_or_else(|| format!("bad cost in {body}"))?;
    if int("pods")? < 1
        || int("u_max")? < 1
        || cost.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return Err(format!("implausible deployment in {body}"));
    }
    let served =
        Generations { dataset: int("dataset_generation")?, model: int("model_generation")? };
    if served != live {
        return Err(format!("served generations {served:?}, live {live:?}"));
    }
    match resp.header("x-cache") {
        Some("hit") => Ok(true),
        Some("miss") => Ok(false),
        other => Err(format!("X-Cache header {other:?}")),
    }
}

/// A scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.perfbench-work/<pid>`.
    pub fn create() -> Result<Self, String> {
        let dir = Path::new(".perfbench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run still uses it.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// The second dataset version `serve_hot_reload` alternates with: `csv`
/// with the throughput of one seeded row raised by 1 %.
fn altered_csv(csv: &str, seed: u64) -> Result<String, String> {
    let mut ds = CharacterizationDataset::from_csv(csv).map_err(|e| e.to_string())?;
    let i = (seed % ds.rows.len() as u64) as usize;
    ds.rows[i].throughput *= 1.01;
    Ok(ds.to_csv())
}

/// The daemon configuration every serve workload uses: an ephemeral
/// loopback port, one worker per core, no file watcher (reloads happen only
/// through `POST /reload`), everything else at its default.
fn config(data: &Path) -> ServeConfig {
    let mut config = ServeConfig::new(data);
    config.addr = "127.0.0.1:0".into();
    config.workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    config.watch_interval = None;
    config
}

/// Start a daemon over `data`.
fn start_daemon(data: &Path) -> Result<ServerHandle, String> {
    Server::start(config(data)).map_err(|e| format!("daemon start: {e}"))
}

/// A running daemon plus the client's view of it.
struct Session<'a> {
    handle: ServerHandle,
    client: Client,
    data: PathBuf,
    live: Generations,
    report: &'a mut Report,
}

/// What the timed part of a daemon phase observed.
#[derive(Debug, Default)]
struct Observed {
    latencies_ms: Vec<f64>,
    hits: u64,
    reload_ms: Vec<f64>,
    /// Process CPU time of each reload, client and daemon threads, s.
    reload_cpu_s: Vec<f64>,
    /// Peak resident memory at [`RSS_AT_QUERY`] timed queries, MiB.
    peak_rss_mb: Option<f64>,
    /// Process CPU time per query of each whole segment
    /// ([`Mix::segment`]), s.
    segment_cpu_s: Vec<f64>,
    /// The untimed warm-up queries that preceded the timed part.
    warm: Vec<QueryKey>,
    /// The timed sequence, kept only when asked for: `Some(key)` per
    /// query, `None` per reload.
    events: Option<Vec<Option<QueryKey>>>,
}

impl Session<'_> {
    /// One `/recommend`; its latency and cache outcome go to `observed`
    /// when it is part of the timed sequence.
    fn query(&mut self, key: &QueryKey, observed: Option<&mut Observed>) {
        let t = Instant::now();
        let resp = self.client.request("GET", &key.target());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match resp
            .map_err(|e| format!("{}: {e}", key.target()))
            .and_then(|r| check_answer(&r, key, self.live))
        {
            Ok(hit) => {
                self.report.op_ok();
                if let Some(o) = observed {
                    o.latencies_ms.push(ms);
                    o.hits += u64::from(hit);
                    if let Some(events) = &mut o.events {
                        events.push(Some(key.clone()));
                    }
                }
            }
            Err(e) => self.report.op_failed(e),
        }
    }

    /// Rewrite the dataset file with `csv` and reload it synchronously.
    fn reload(&mut self, csv: &str, observed: &mut Observed) {
        if let Err(e) = std::fs::write(&self.data, csv) {
            self.report.op_failed(format!("rewriting the dataset: {e}"));
            return;
        }
        let cpu = host::cpu_seconds();
        let t = Instant::now();
        let resp = self.client.request("POST", "/reload");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu = host::cpu_seconds().and_then(|after| Ok(after - cpu?));
        let expected = Generations { dataset: self.live.dataset + 1, model: self.live.model + 1 };
        let outcome = resp.map_err(|e| format!("POST /reload: {e}")).and_then(|r| {
            let body = r.text();
            let json = parse_json(&body).map_err(|e| format!("malformed JSON ({e}): {body}"))?;
            let int = |k: &str| json.get(k).and_then(Json::as_u64);
            let got = int("dataset_generation").zip(int("model_generation"));
            if r.status == 200
                && json.get("reloaded") == Some(&Json::Bool(true))
                && got == Some((expected.dataset, expected.model))
            {
                Ok(())
            } else {
                Err(format!("POST /reload -> HTTP {}: {body}, expected {expected:?}", r.status))
            }
        });
        match outcome {
            Ok(()) => {
                self.report.op_ok();
                self.live = expected;
                observed.reload_ms.push(ms);
                match cpu {
                    Ok(cpu) => observed.reload_cpu_s.push(cpu),
                    Err(e) => self.report.check(false, || e),
                }
                if let Some(events) = &mut observed.events {
                    events.push(None);
                }
            }
            Err(e) => self.report.op_failed(e),
        }
    }

    /// Scrape `/metrics`.
    fn scrape(&mut self) -> String {
        match self.client.request("GET", "/metrics") {
            Ok(r) if r.status == 200 => r.text(),
            Ok(r) => {
                self.report.check(false, || format!("GET /metrics -> HTTP {}", r.status));
                String::new()
            }
            Err(e) => {
                self.report.check(false, || format!("GET /metrics: {e}"));
                String::new()
            }
        }
    }
}

/// Cache lookups the daemon counted in a scrape: `(hits, misses)`.
fn cache_counts(scrape: &str) -> (f64, f64) {
    let get = |result: &str| {
        scrape_value(scrape, &format!("llmpilot_cache_requests_total{{result=\"{result}\"}}"))
            .unwrap_or(f64::NAN)
    };
    (get("hit"), get("miss"))
}

/// What one daemon phase yields.
struct DaemonPhase {
    observed: Observed,
    /// Start-up times.
    setup: SetupTime,
    /// `/metrics` right after the timed part.
    scrape: String,
    /// Resource use of the timed part.
    timed: PhaseUse,
}

/// How a daemon phase ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this much wall time.
    After(Duration),
    /// After this many queries.
    Queries(u64),
}

/// Run one daemon phase over `csv`: start, warm, time queries (and
/// reloads) until `stop`, check the cache counters, shut down.
fn daemon_phase(
    mix: Mix,
    seed: u64,
    csv: &str,
    stop: Stop,
    record: bool,
    report: &mut Report,
) -> Result<DaemonPhase, String> {
    let work = WorkDir::create()?;
    let data = work.join("dataset.csv");
    // Further start-ups read their own copy, which reloads never rewrite,
    // so every start-up parses and trains on the same dataset.
    let setup_data = work.join("setup.csv");
    for path in [&data, &setup_data] {
        std::fs::write(path, csv).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let models = CharacterizationDataset::from_csv(csv).map_err(|e| e.to_string())?.llms();
    let altered = altered_csv(csv, seed)?;

    let mut setup = SetupTime::default();
    let handle = setup.time(|| start_daemon(&data))?;
    let client = Client::new(handle.addr());
    let mut s =
        Session { handle, client, data, live: Generations { dataset: 1, model: 1 }, report };

    let mut distinct = DistinctKeys::new(seed, models.clone());
    let mut hot = HotKeys::new(seed, models, HOT_KEYS);
    // Warm-up, untimed: fill the cache to capacity with keys the timed part
    // never asks for again, or touch every hot key once.
    let warm: Vec<QueryKey> = match mix {
        Mix::Cold => (0..CACHE_CAPACITY).map(|_| distinct.next_key()).collect(),
        Mix::HotReload => hot.keys().to_vec(),
    };
    let warming = Phase::begin()?;
    for key in &warm {
        s.query(key, None);
    }
    warming.end("warm-up")?;

    let before = s.scrape();
    // Sized up front, so that client-side memory does not step up with the
    // number of queries a run completes.
    let mut observed = Observed {
        latencies_ms: Vec::with_capacity(1 << 21),
        warm,
        events: record.then(Vec::new),
        ..Observed::default()
    };
    let mut phase = Phase::begin()?;
    let mut queries = 0u64;
    // Phase CPU time at the start of each segment.
    let mut segment_ends = Vec::new();
    loop {
        let done = match stop {
            Stop::After(d) => phase.elapsed() >= d,
            Stop::Queries(n) => queries >= n,
        };
        if done {
            break;
        }
        // Memory is read at a fixed query count rather than at the end: a
        // run's query count grows with the program's speed, and the daemon's
        // memory with it (the cache's hash table grows once after about
        // 30 000 evictions), so an end-of-run peak would read a faster
        // daemon as a memory regression.
        if queries == RSS_AT_QUERY {
            observed.peak_rss_mb = Some(host::peak_rss_mb()?);
        }
        // Time further start-ups of a second daemon through the timed
        // part, outside it, once memory has been read.
        if let Stop::After(d) = stop {
            let done = phase.elapsed().as_secs_f64() / d.as_secs_f64();
            if queries > RSS_AT_QUERY && setup.behind(done) {
                phase.exclude(|| {
                    setup.time(|| start_daemon(&setup_data)).map(ServerHandle::shutdown)
                })??;
            }
        }
        if queries % mix.segment() == 0 {
            segment_ends.push(phase.cpu_s()?);
        }
        if mix == Mix::HotReload && queries > 0 && queries % RELOAD_EVERY == 0 {
            let version = if observed.reload_ms.len() % 2 == 0 { &altered } else { csv };
            s.reload(version, &mut observed);
        }
        let key = match mix {
            Mix::Cold => distinct.next_key(),
            Mix::HotReload => hot.next_key(),
        };
        s.query(&key, Some(&mut observed));
        queries += 1;
    }
    let phase = phase.end("queries")?;
    observed.segment_cpu_s =
        segment_ends.windows(2).map(|w| (w[1] - w[0]) / mix.segment() as f64).collect();
    if let Stop::After(_) = stop {
        while setup.behind(1.0) {
            setup.time(|| start_daemon(&setup_data)).map(ServerHandle::shutdown)?;
        }
    }
    let after = s.scrape();

    // The daemon's cache counters must agree with what the client saw.
    let (hits0, misses0) = cache_counts(&before);
    let (hits1, misses1) = cache_counts(&after);
    let timed = observed.latencies_ms.len() as f64;
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    s.report.check(hits == observed.hits as f64 && hits + misses == timed, || {
        format!(
            "/metrics counted {hits} hits and {misses} misses over {timed} timed queries, \
             the client saw {} hits",
            observed.hits
        )
    });
    match mix {
        Mix::Cold => s
            .report
            .check(observed.hits == 0, || format!("{} cold queries hit the cache", observed.hits)),
        Mix::HotReload => {
            // Each reload can cost at most one miss per hot key.
            let floor = 1.0 - (HOT_KEYS * observed.reload_ms.len()) as f64 / timed;
            let ratio = observed.hits as f64 / timed;
            println!("  cache.hit_ratio = {ratio} (floor {floor})");
            s.report.check(ratio >= floor, || format!("hit ratio {ratio} below its floor {floor}"));
        }
    }
    println!("  connections opened = {}", s.client.connects);
    // Close the connection first: a worker blocked reading an idle
    // keep-alive connection would hold up the drain until its read timeout.
    let Session { handle, client, .. } = s;
    drop(client);
    ServerHandle::shutdown(handle);
    Ok(DaemonPhase { observed, setup, scrape: after, timed: phase })
}

/// The untraced end-to-end run of a serve workload.
pub fn run_e2e(
    mix: Mix,
    seed: u64,
    seconds: u64,
    csv: &str,
    report: &mut Report,
) -> Result<(), String> {
    let DaemonPhase { observed, setup, timed, .. } =
        daemon_phase(mix, seed, csv, Stop::After(Duration::from_secs(seconds)), false, report)?;
    let queries = observed.latencies_ms.len() as f64;
    setup.report(report);
    let peak_rss_mb = observed.peak_rss_mb.ok_or_else(|| {
        format!("the run ended after {queries} queries, before query {RSS_AT_QUERY}")
    })?;
    if observed.segment_cpu_s.len() < 3 {
        return Err(format!("the run ended after {queries} queries, before three segments"));
    }
    report.metric("op_cpu_us", "us", median(&observed.segment_cpu_s) * 1e6);
    report.metric("peak_rss_mb", "MB", peak_rss_mb);
    report.note("peak_rss_end_mb", "MB", host::peak_rss_mb()?);
    // The serving path's own names for these figures, and the ungated ones.
    report.note("query_p50_ms", "ms", median(&observed.latencies_ms));
    report.note("query_p99_ms", "ms", quantile(&observed.latencies_ms, 0.99));
    report.note("query_cpu_us", "us", timed.cpu_s / queries * 1e6);
    report.note("segments", "count", observed.segment_cpu_s.len() as f64);
    report.note("queries", "count", queries);
    report.note("query_rate", "1/s", queries / timed.wall_s);
    if mix == Mix::HotReload {
        report.note("reload_p50_ms", "ms", median(&observed.reload_ms));
        report.note("reloads", "count", observed.reload_ms.len() as f64);
        // How much of `op_cpu_us` the reloads' re-parsing and retraining are.
        let reload_cpu_s: f64 = observed.reload_cpu_s.iter().sum();
        report.note("reload_cpu_ms", "ms", median(&observed.reload_cpu_s) * 1e3);
        report.note("reload_cpu_share", "ratio", reload_cpu_s / timed.cpu_s);
    }
    Ok(())
}

/// Mean microseconds per call of `f` over `items`, each call timed alone.
fn mean_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut total = Duration::ZERO;
    for item in items {
        let t = Instant::now();
        f(item);
        total += t.elapsed();
    }
    total.as_secs_f64() * 1e6 / items.len().max(1) as f64
}

/// The per-layer run of the serving layers on `mix`'s query stream over
/// `csv`: a fixed-length daemon phase, then each layer's public entry point
/// timed on the same inputs.
pub fn run_layers(mix: Mix, seed: u64, csv: &str, report: &mut Report) -> Result<(), String> {
    let DaemonPhase { observed, scrape, .. } =
        daemon_phase(mix, seed, csv, Stop::Queries(TRACED_QUERIES), true, report)?;
    let events = observed.events.as_deref().unwrap_or_default();
    let queries: Vec<QueryKey> = events.iter().flatten().cloned().collect();
    let client_p50_ms = median(&observed.latencies_ms);
    let handle_p50_ms =
        scrape_value(&scrape, "llmpilot_request_latency_quantile_seconds{quantile=\"0.5\"}")
            .unwrap_or(f64::NAN)
            * 1e3;
    report.metric("server.handle_p50_ms", "ms", handle_p50_ms);
    report.metric("server.client_gap_us", "us", (client_p50_ms - handle_p50_ms) * 1e3);
    report.metric("serve.query_p50_ms", "ms", client_p50_ms);
    report.metric("serve.query_p99_ms", "ms", quantile(&observed.latencies_ms, 0.99));
    report.metric("serve.queries", "count", queries.len() as f64);
    report.metric(
        "serve.rejected",
        "count",
        scrape_value(&scrape, "llmpilot_queue_rejected_total").unwrap_or(f64::NAN),
    );

    // Store: parse and validate each dataset version.
    let versions = match mix {
        Mix::Cold => vec![csv.to_string()],
        Mix::HotReload => vec![csv.to_string(), altered_csv(csv, seed)?],
    };
    let mut load_ms = Vec::new();
    for text in &versions {
        for _ in 0..REPS {
            let t = Instant::now();
            let ds = CharacterizationDataset::from_csv(text).map_err(|e| e.to_string())?;
            ds.validate().map_err(|e| e.to_string())?;
            load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    report.metric("store.load_ms", "ms", median(&load_ms));

    // Serving model: train with the daemon's settings, then answer the
    // workload's own queries.
    let ds = CharacterizationDataset::from_csv(csv).map_err(|e| e.to_string())?;
    let constraints = LatencyConstraints::paper_defaults();
    let predictor = online_predictor_config();
    let mut train_ms = Vec::new();
    let mut model = None;
    for _ in 0..3 {
        let t = Instant::now();
        model =
            Some(ServingModel::train(&ds, &constraints, &predictor).map_err(|e| e.to_string())?);
        train_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("serving.train_ms", "ms", median(&train_ms));
    let model = model.expect("trained above");
    let user_grid: Vec<u32> = (0..8).map(|i| 1u32 << i).collect();
    let mut failures = 0;
    let recommend_us = mean_us(&queries, |k| {
        let req = RecommendationRequest {
            total_users: k.users,
            constraints: {
                let (nttft_s, itl_s) = k.sla_s();
                LatencyConstraints { nttft_s, itl_s }
            },
            user_grid: user_grid.clone(),
        };
        failures += u32::from(model.recommend(&k.model, &req).is_err());
    });
    report.check(failures == 0, || format!("{failures} direct recommend calls failed"));
    report.metric("serving.recommend_us", "us", recommend_us);

    lru_replay(&observed, report);
    http_parse(&queries, report);
    Ok(())
}

/// The daemon's response-cache key.
type CacheKey = (String, u32, u64, u64, u64, u64);

/// Replay the daemon phase's key sequence through `LruCache` at the
/// daemon's capacity, reloads bumping the generations as they did in the
/// daemon, and check that the replay hits exactly when the daemon did.
fn lru_replay(observed: &Observed, report: &mut Report) {
    let mut cache: LruCache<CacheKey, String> = LruCache::new(CACHE_CAPACITY);
    let mut generation = 1u64;
    let key_of = |k: &QueryKey, g: u64| -> CacheKey {
        (k.model.clone(), k.users, u64::from(k.ttft_us), u64::from(k.itl_us), g, g)
    };
    let body = |k: &QueryKey, g: u64| {
        format!(
            "{{\"llm\":\"{}\",\"profile\":\"1xA100-80GB\",\"pods\":{},\"u_max\":128,\
             \"cost_per_hour\":4.0960,\"dataset_generation\":{g},\"model_generation\":{g}}}",
            k.model, k.users
        )
    };
    let (mut get_t, mut put_t) = (Duration::ZERO, Duration::ZERO);
    let (mut gets, mut puts, mut hits) = (0u64, 0u64, 0u64);
    let warm = observed.warm.iter().map(Some);
    let timed = observed.events.iter().flatten().map(Option::as_ref);
    for (i, event) in warm.chain(timed).enumerate() {
        let is_timed = i >= observed.warm.len();
        let Some(k) = event else {
            generation += 1;
            continue;
        };
        let key = key_of(k, generation);
        let t = Instant::now();
        let hit = cache.get(&key).is_some();
        let get_elapsed = t.elapsed();
        if hit {
            hits += u64::from(is_timed);
        } else {
            let value = body(k, generation);
            let t = Instant::now();
            cache.put(key, value);
            if is_timed {
                put_t += t.elapsed();
                puts += 1;
            }
        }
        if is_timed {
            get_t += get_elapsed;
            gets += 1;
        }
    }
    report.check(hits == observed.hits, || {
        format!("the cache replay hit {hits} times, the daemon {} times", observed.hits)
    });
    report.metric("cache.get_us", "us", get_t.as_secs_f64() * 1e6 / gets.max(1) as f64);
    report.metric("cache.put_us", "us", put_t.as_secs_f64() * 1e6 / puts.max(1) as f64);
    report.metric("cache.hit_ratio", "ratio", hits as f64 / gets.max(1) as f64);
}

/// Parse the exact bytes the client sent for `queries` with the daemon's
/// HTTP parser, from memory.
fn http_parse(queries: &[QueryKey], report: &mut Report) {
    let mut bytes = Vec::new();
    for k in queries {
        bytes.extend_from_slice(
            format!(
                "GET {} HTTP/1.1\r\nHost: llmpilot\r\nConnection: keep-alive\r\n\r\n",
                k.target()
            )
            .as_bytes(),
        );
    }
    let limits = Limits::default();
    let mut per_request_us = Vec::new();
    let mut bad = 0u64;
    for _ in 0..REPS {
        let mut reader = BufReader::new(bytes.as_slice());
        let t = Instant::now();
        let mut parsed = 0usize;
        while let Ok(Some(req)) = parse_request(&mut reader, &limits) {
            if let Some(k) = queries.get(parsed) {
                bad += u64::from(
                    req.path != "/recommend" || req.query_param("model") != Some(k.model.as_str()),
                );
            }
            parsed += 1;
        }
        per_request_us.push(t.elapsed().as_secs_f64() * 1e6 / parsed.max(1) as f64);
        bad += u64::from(parsed != queries.len());
    }
    report.check(bad == 0, || format!("{bad} requests parsed differently from what was sent"));
    report.metric("http.parse_us", "us", median(&per_request_us));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::STORED_CSV;

    #[test]
    fn client_reconnects_after_the_daemon_closes_the_connection() {
        let work = WorkDir::create().unwrap();
        let data = work.join("dataset.csv");
        std::fs::write(&data, STORED_CSV).unwrap();
        let mut config = config(&data);
        config.max_requests_per_connection = 3;
        let handle = Server::start(config).unwrap();
        let mut client = Client::new(handle.addr());
        for _ in 0..10 {
            let resp = client.request("GET", "/healthz").unwrap();
            assert_eq!(resp.status, 200);
        }
        // Requests 3, 6 and 9 carried `Connection: close`.
        assert_eq!(client.connects, 4);
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn scraped_series_are_extracted() {
        let scrape = "# HELP x\nllmpilot_cache_requests_total{result=\"hit\"} 12\nllmpilot_x 3.5\n";
        assert_eq!(
            scrape_value(scrape, "llmpilot_cache_requests_total{result=\"hit\"}"),
            Some(12.0)
        );
        assert_eq!(scrape_value(scrape, "llmpilot_x"), Some(3.5));
        assert_eq!(scrape_value(scrape, "llmpilot"), None);
    }

    #[test]
    fn altered_dataset_differs_in_exactly_one_row() {
        let a = CharacterizationDataset::from_csv(STORED_CSV).unwrap();
        let b =
            CharacterizationDataset::from_csv(&altered_csv(STORED_CSV, 12345).unwrap()).unwrap();
        b.validate().unwrap();
        let differing = a.rows.iter().zip(&b.rows).filter(|(x, y)| x != y).count();
        assert_eq!((a.len(), differing), (b.len(), 1));
    }
}
