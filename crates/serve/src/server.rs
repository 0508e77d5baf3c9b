//! The recommendation daemon: a multi-threaded TCP server wiring the
//! dataset store, model registry, response cache and metrics behind the
//! hand-rolled HTTP layer.
//!
//! Concurrency model: one acceptor thread pushes connections into a
//! bounded queue (`std::sync::mpsc::sync_channel`); `workers` threads pop
//! and drive connections (keep-alive aware). When the queue is full the
//! acceptor answers `503` with `Retry-After` itself — admission control
//! costs one small write, never a worker. An optional watcher thread
//! polls the dataset file's mtime and retrains in the background on
//! change. Shutdown drains: the acceptor stops, the queue's sender drops,
//! workers finish their in-flight connections and exit, and every thread
//! is joined.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use llmpilot_core::{
    online_predictor_config, CoreError, LatencyConstraints, PredictorConfig, RecommendationRequest,
    PAPER_USER_GRID,
};
use llmpilot_obs::events::EventSink;
use llmpilot_obs::json::JsonWriter;
use llmpilot_obs::ArgValue;

use crate::cache::LruCache;
use crate::http::{parse_request, Limits, Request, Response};
use crate::metrics::{Metrics, Route};
use crate::registry::ModelRegistry;
use crate::store::DatasetStore;

/// Errors starting or running the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Dataset or training failure.
    Core(CoreError),
    /// Socket-level failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Characterization-dataset CSV to serve from (and hot-reload).
    pub data_path: PathBuf,
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded connection-queue capacity (admission control threshold).
    pub queue_capacity: usize,
    /// Response-cache capacity, entries (0 disables caching).
    pub cache_capacity: usize,
    /// Poll interval of the dataset-file watcher; `None` disables watching
    /// (reloads then only happen via `POST /reload`).
    pub watch_interval: Option<Duration>,
    /// SLA used for the Eq.-(4) training weights.
    pub train_constraints: LatencyConstraints,
    /// Predictor configuration for (re)training. Its `recorder` is the
    /// daemon's observability sink: request handling and retraining record
    /// spans there, and `/metrics` reports how many. Disabled by default;
    /// embedders that enable it export
    /// [`Recorder::snapshot`](llmpilot_obs::Recorder::snapshot) themselves.
    /// Every response carries an `X-Trace-Id` header regardless.
    pub predictor: PredictorConfig,
    /// HTTP parser limits.
    pub limits: Limits,
    /// Per-connection read timeout (bounds idle keep-alive sessions).
    pub read_timeout: Duration,
    /// Maximum requests served on one keep-alive connection.
    pub max_requests_per_connection: u32,
    /// JSONL telemetry stream: startup, hot reloads, and retrains are
    /// appended here as versioned events. Disabled by default.
    pub events: EventSink,
}

impl ServeConfig {
    /// Sensible defaults for serving `data_path`.
    pub fn new(data_path: impl Into<PathBuf>) -> Self {
        Self {
            data_path: data_path.into(),
            addr: "127.0.0.1:8008".into(),
            workers: 4,
            queue_capacity: 128,
            cache_capacity: 4096,
            watch_interval: Some(Duration::from_secs(2)),
            train_constraints: LatencyConstraints::paper_defaults(),
            predictor: online_predictor_config(),
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            max_requests_per_connection: 10_000,
            events: EventSink::disabled(),
        }
    }
}

type CacheKey = (String, u32, u64, u64, u64, u64);

/// Shared state of the running daemon.
struct Ctx {
    store: DatasetStore,
    registry: ModelRegistry,
    metrics: Metrics,
    cache: Mutex<LruCache<CacheKey, String>>,
    config: ServeConfig,
    shutdown: AtomicBool,
    /// Monotone request ids, issued even when tracing is disabled so every
    /// response carries a usable `X-Trace-Id`.
    next_trace_id: AtomicU64,
}

/// Handle to a running daemon; dropping it does NOT stop the server —
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// connections, join every thread.
    pub fn shutdown(self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept` with one throwaway
        // connection; it checks the flag before queueing anything.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// The llmpilot-serve daemon.
pub struct Server;

impl Server {
    /// Load the dataset, train the initial model (blocking), bind the
    /// listener and spin up the acceptor/worker/watcher threads.
    pub fn start(config: ServeConfig) -> Result<ServerHandle, ServeError> {
        let store = DatasetStore::open(&config.data_path)?;
        let registry = ModelRegistry::new(config.train_constraints, config.predictor.clone());
        let metrics = Metrics::new();

        let (dataset, generation) = store.snapshot();
        let model_generation = registry.train_and_swap(&dataset, generation)?;
        metrics.set_dataset_generation(generation);
        metrics.record_retrain(true, model_generation);

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let cache = Mutex::new(LruCache::new(config.cache_capacity));
        let ctx = Arc::new(Ctx {
            store,
            registry,
            metrics,
            cache,
            config,
            shutdown: AtomicBool::new(false),
            next_trace_id: AtomicU64::new(1),
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(ctx.config.queue_capacity);
        let rx = Arc::new(Mutex::new(rx));

        let mut threads = Vec::new();
        for i in 0..ctx.config.workers.max(1) {
            let ctx = Arc::clone(&ctx);
            let rx = Arc::clone(&rx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("llmpilot-worker-{i}"))
                    .spawn(move || worker_loop(&ctx, &rx))
                    .map_err(ServeError::Io)?,
            );
        }

        {
            let ctx = Arc::clone(&ctx);
            threads.push(
                std::thread::Builder::new()
                    .name("llmpilot-acceptor".into())
                    .spawn(move || acceptor_loop(&ctx, &listener, tx))
                    .map_err(ServeError::Io)?,
            );
        }

        if ctx.config.watch_interval.is_some() {
            let ctx = Arc::clone(&ctx);
            threads.push(
                std::thread::Builder::new()
                    .name("llmpilot-watcher".into())
                    .spawn(move || watcher_loop(&ctx))
                    .map_err(ServeError::Io)?,
            );
        }

        ctx.config.events.emit(
            "serve.started",
            &[
                ("addr", ArgValue::Str(addr.to_string())),
                ("workers", ArgValue::U64(ctx.config.workers as u64)),
                ("dataset_generation", ArgValue::U64(generation)),
                ("model_generation", ArgValue::U64(model_generation)),
            ],
        );
        Ok(ServerHandle { addr, ctx, threads })
    }
}

/// After a reload that changed the dataset to `reloaded_generation`:
/// retrain on the store's current dataset, record the reload and the
/// retrain in the metrics and the telemetry stream, and return the new
/// model generation. `source` is `"watch"` (mtime watcher) or `"reload"`
/// (`POST /reload`). On failure the previous model keeps serving.
fn retrain_after_reload(
    ctx: &Ctx,
    source: &str,
    reloaded_generation: u64,
) -> Result<u64, CoreError> {
    ctx.metrics.record_reload(reloaded_generation);
    let (dataset, generation) = ctx.store.snapshot();
    let trained = ctx.registry.train_and_swap(&dataset, generation);
    let model_generation = trained.as_ref().copied().unwrap_or(0);
    ctx.metrics.record_retrain(trained.is_ok(), model_generation);
    ctx.config.events.emit(
        if trained.is_ok() { "serve.reloaded" } else { "serve.retrain_failed" },
        &[
            ("source", ArgValue::Str(source.to_string())),
            ("dataset_generation", ArgValue::U64(generation)),
            ("model_generation", ArgValue::U64(model_generation)),
        ],
    );
    trained
}

/// Accept connections and queue them; answer 503 when the queue is full.
/// Owns the channel sender: when this returns, workers drain and exit.
fn acceptor_loop(ctx: &Ctx, listener: &TcpListener, tx: SyncSender<TcpStream>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match tx.try_send(stream) {
            Ok(()) => ctx.metrics.record_enqueued(),
            Err(TrySendError::Full(mut stream)) => {
                ctx.metrics.record_rejected();
                ctx.metrics.record_response(503);
                let trace_id = ctx.next_trace_id.fetch_add(1, Ordering::Relaxed);
                let resp =
                    Response::json(503, "{\"error\":\"server overloaded, retry later\"}".into())
                        .with_header("Retry-After", "1")
                        .with_header("X-Trace-Id", format!("{trace_id:08x}"));
                let _ = resp.write_to(&mut stream, false);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Pop connections off the queue and serve them until the sender drops.
fn worker_loop(ctx: &Ctx, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // Take the receiver lock only to pop; release before serving so
        // other workers keep draining the queue.
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        match stream {
            Ok(stream) => {
                ctx.metrics.record_dequeued();
                handle_connection(ctx, stream);
            }
            Err(_) => return, // sender dropped: shutdown drain complete
        }
    }
}

/// Poll the dataset file's mtime; reload + retrain in the background on
/// change. Errors (mid-write partial files, invalid data) leave the
/// previous generation serving and are retried next tick.
fn watcher_loop(ctx: &Ctx) {
    let interval = ctx.config.watch_interval.unwrap_or(Duration::from_secs(2));
    let tick = Duration::from_millis(50);
    let mut elapsed = Duration::ZERO;
    while !ctx.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(tick);
        elapsed += tick;
        if elapsed < interval {
            continue;
        }
        elapsed = Duration::ZERO;
        if let Ok(outcome) = ctx.store.reload_if_modified() {
            if outcome.changed {
                let _ = retrain_after_reload(ctx, "watch", outcome.generation);
            }
        }
    }
}

/// Serve one (possibly keep-alive) connection.
fn handle_connection(ctx: &Ctx, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ctx.config.read_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut served: u32 = 0;
    loop {
        match parse_request(&mut reader, &ctx.config.limits) {
            Ok(None) => return, // peer closed cleanly
            Ok(Some(request)) => {
                served += 1;
                let trace_id = ctx.next_trace_id.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let response = {
                    let mut span = ctx
                        .config
                        .predictor
                        .recorder
                        .span("serve.request")
                        .arg("trace_id", trace_id)
                        .arg("method", request.method.clone())
                        .arg("path", request.path.clone());
                    let response = route(ctx, &request);
                    span.set_arg("status", u64::from(response.status));
                    response
                };
                let response = response.with_header("X-Trace-Id", format!("{trace_id:08x}"));
                ctx.metrics.record_response(response.status);
                ctx.metrics.record_latency(started.elapsed());
                let keep_alive = request.keep_alive()
                    && served < ctx.config.max_requests_per_connection
                    && !ctx.shutdown.load(Ordering::SeqCst);
                if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    let trace_id = ctx.next_trace_id.fetch_add(1, Ordering::Relaxed);
                    ctx.metrics.record_request(Route::Other);
                    ctx.metrics.record_response(status);
                    let body = error_body(&e.to_string());
                    let _ = Response::json(status, body)
                        .with_header("X-Trace-Id", format!("{trace_id:08x}"))
                        .write_to(&mut writer, false);
                }
                return;
            }
        }
    }
}

/// Dispatch one parsed request.
fn route(ctx: &Ctx, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/recommend") => {
            ctx.metrics.record_request(Route::Recommend);
            handle_recommend(ctx, request)
        }
        ("POST", "/reload") => {
            ctx.metrics.record_request(Route::Reload);
            handle_reload(ctx)
        }
        ("GET", "/metrics") => {
            ctx.metrics.record_request(Route::Metrics);
            ctx.metrics.set_trace_spans(ctx.config.predictor.recorder.spans_recorded());
            Response::text(200, ctx.metrics.render())
        }
        ("GET", "/healthz") => {
            ctx.metrics.record_request(Route::Health);
            let ready = ctx.registry.current().is_some();
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("ready");
            w.bool(ready);
            w.end_object();
            Response::json(if ready { 200 } else { 503 }, w.finish())
        }
        ("GET" | "POST", _) => {
            ctx.metrics.record_request(Route::Other);
            Response::json(404, "{\"error\":\"no such endpoint\"}".into())
        }
        _ => {
            ctx.metrics.record_request(Route::Other);
            Response::json(405, "{\"error\":\"method not allowed\"}".into())
        }
    }
}

/// `{"error": msg}` rendered through the shared JSON writer.
fn error_body(msg: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("error");
    w.string(msg);
    w.end_object();
    w.finish()
}

/// Parse a positive float query parameter.
fn float_param(request: &Request, key: &str, default: f64) -> Result<f64, Response> {
    match request.query_param(key) {
        None => Ok(default),
        Some(raw) => match raw.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
            _ => Err(Response::json(
                400,
                error_body(&format!("{key} must be a positive number, got {raw}")),
            )),
        },
    }
}

/// `GET /recommend?model=NAME&users=N&ttft=MS&itl=MS`.
fn handle_recommend(ctx: &Ctx, request: &Request) -> Response {
    let Some(model_name) = request.query_param("model") else {
        return Response::json(400, "{\"error\":\"missing required query param: model\"}".into());
    };
    let users = match request.query_param("users") {
        None => 200u32,
        Some(raw) => match raw.parse::<u32>() {
            Ok(v) if (1..=10_000_000).contains(&v) => v,
            _ => {
                return Response::json(
                    400,
                    error_body(&format!("users must be an integer in [1, 1e7], got {raw}")),
                )
            }
        },
    };
    let nttft_ms = match float_param(request, "ttft", 100.0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let itl_ms = match float_param(request, "itl", 50.0) {
        Ok(v) => v,
        Err(resp) => return resp,
    };

    let Some(trained) = ctx.registry.current() else {
        return Response::json(503, "{\"error\":\"model not trained yet\"}".into())
            .with_header("Retry-After", "1");
    };
    // The model's own generation, not the store's: a reload landing after
    // `current()` would otherwise tag an old model's answer with a new
    // dataset generation.
    let dataset_generation = trained.dataset_generation;

    let key: CacheKey = (
        model_name.to_string(),
        users,
        (nttft_ms * 1e3) as u64, // microsecond resolution
        (itl_ms * 1e3) as u64,
        dataset_generation,
        trained.model_generation,
    );
    if let Ok(mut cache) = ctx.cache.lock() {
        if let Some(body) = cache.get(&key) {
            ctx.metrics.record_cache(true);
            return Response::json(200, body).with_header("X-Cache", "hit");
        }
    }
    ctx.metrics.record_cache(false);

    let req = RecommendationRequest {
        total_users: users,
        constraints: LatencyConstraints { nttft_s: nttft_ms / 1e3, itl_s: itl_ms / 1e3 },
        // The grid the serving model tables, so the query reads its cache.
        user_grid: PAPER_USER_GRID.to_vec(),
    };
    match trained.serving.recommend(model_name, &req) {
        Ok(rec) => {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("llm");
            w.string(model_name);
            w.key("profile");
            w.string(&rec.profile);
            w.key("pods");
            w.u64(rec.pods as u64);
            w.key("u_max");
            w.u64(rec.u_max as u64);
            w.key("cost_per_hour");
            // Keep the historical 4-decimal rendering of the dollar figure.
            w.raw(&format!("{:.4}", rec.cost_per_hour));
            w.key("dataset_generation");
            w.u64(dataset_generation);
            w.key("model_generation");
            w.u64(trained.model_generation);
            w.end_object();
            let body = w.finish();
            if let Ok(mut cache) = ctx.cache.lock() {
                cache.put(key, body.clone());
            }
            Response::json(200, body).with_header("X-Cache", "miss")
        }
        Err(CoreError::Parse(msg)) => Response::json(400, error_body(&msg)),
        Err(CoreError::NoFeasibleRecommendation) => {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("error");
            w.string("no GPU profile satisfies the requirements");
            w.key("dataset_generation");
            w.u64(dataset_generation);
            w.key("model_generation");
            w.u64(trained.model_generation);
            w.end_object();
            Response::json(404, w.finish())
        }
        Err(e) => Response::json(500, error_body(&e.to_string())),
    }
}

/// `POST /reload`: force a dataset re-read; on change, retrain before
/// responding (queries on other workers keep using the old model until
/// the swap). Returns the generations now live.
fn handle_reload(ctx: &Ctx) -> Response {
    match ctx.store.reload() {
        Ok(outcome) => {
            if outcome.changed {
                if let Err(e) = retrain_after_reload(ctx, "reload", outcome.generation) {
                    return Response::json(500, error_body(&format!("retraining failed: {e}")));
                }
            }
            let model_generation = ctx.registry.current().map_or(0, |m| m.model_generation);
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("reloaded");
            w.bool(outcome.changed);
            w.key("dataset_generation");
            w.u64(outcome.generation);
            w.key("model_generation");
            w.u64(model_generation);
            w.end_object();
            Response::json(200, w.finish())
        }
        Err(e) => Response::json(
            400,
            error_body(&format!("reload rejected, previous dataset still serving: {e}")),
        ),
    }
}
