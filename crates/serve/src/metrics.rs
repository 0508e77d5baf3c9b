//! Service metrics, exported in Prometheus text exposition format.
//!
//! Everything is a lock-free atomic: counters are monotonically
//! increasing, gauges are last-write-wins, and the request-latency
//! histogram is an HDR [`Histogram`] (log-linear buckets, ≤1% relative
//! error), rendered both as classic cumulative Prometheus buckets at the
//! [`LATENCY_BUCKETS_S`] bounds and as p50/p95/p99/p999 quantile gauges.
//! A scrape renders the whole registry with relaxed loads — values may be
//! a few nanoseconds apart, which Prometheus semantics explicitly allow.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use llmpilot_obs::hist::Histogram;

/// Histogram bucket upper bounds, seconds.
pub const LATENCY_BUCKETS_S: [f64; 12] =
    [0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0];

/// Quantiles exported as gauges from the latency histogram.
const LATENCY_QUANTILES: [(f64, &str); 4] =
    [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99"), (0.999, "0.999")];

/// Routes the daemon distinguishes in its request counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /recommend`.
    Recommend,
    /// `POST /reload`.
    Reload,
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Health,
    /// Anything else (404s, parse errors, …).
    Other,
}

impl Route {
    const ALL: [Route; 5] =
        [Route::Recommend, Route::Reload, Route::Metrics, Route::Health, Route::Other];

    fn label(self) -> &'static str {
        match self {
            Route::Recommend => "recommend",
            Route::Reload => "reload",
            Route::Metrics => "metrics",
            Route::Health => "healthz",
            Route::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Route::Recommend => 0,
            Route::Reload => 1,
            Route::Metrics => 2,
            Route::Health => 3,
            Route::Other => 4,
        }
    }
}

/// The daemon's metric registry.
#[derive(Debug, Default)]
pub struct Metrics {
    requests_by_route: [AtomicU64; 5],
    responses_by_class: [AtomicU64; 5], // 1xx..5xx
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    queue_depth: AtomicU64,
    queue_rejected: AtomicU64,
    connections_total: AtomicU64,
    dataset_generation: AtomicU64,
    model_generation: AtomicU64,
    reloads: AtomicU64,
    retrains_ok: AtomicU64,
    retrains_failed: AtomicU64,
    latency: Histogram,
    latency_sum_us: AtomicU64,
    trace_spans: AtomicU64,
}

impl Metrics {
    /// Fresh registry with all series at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one request on `route`.
    pub fn record_request(&self, route: Route) {
        self.requests_by_route[route.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one response with the given status code.
    pub fn record_response(&self, status: u16) {
        let class = (status / 100).clamp(1, 5) as usize - 1;
        self.responses_by_class[class].fetch_add(1, Ordering::Relaxed);
    }

    /// Count a recommendation-cache lookup.
    pub fn record_cache(&self, hit: bool) {
        if hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Observe one request's service latency.
    pub fn record_latency(&self, elapsed: Duration) {
        self.latency.record_secs(elapsed.as_secs_f64());
        self.latency_sum_us.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
    }

    /// A connection was admitted to the worker queue.
    pub fn record_enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker dequeued a connection.
    pub fn record_dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// A connection was turned away because the queue was full.
    pub fn record_rejected(&self) {
        self.queue_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A dataset reload succeeded (`generation` is the new value).
    pub fn record_reload(&self, generation: u64) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
        self.dataset_generation.store(generation, Ordering::Relaxed);
    }

    /// Record the outcome of a (re)training run.
    pub fn record_retrain(&self, ok: bool, model_generation: u64) {
        if ok {
            self.retrains_ok.fetch_add(1, Ordering::Relaxed);
            self.model_generation.store(model_generation, Ordering::Relaxed);
        } else {
            self.retrains_failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Set the dataset-generation gauge (used at startup).
    pub fn set_dataset_generation(&self, generation: u64) {
        self.dataset_generation.store(generation, Ordering::Relaxed);
    }

    /// Set the trace-span gauge (total spans recorded by the daemon's
    /// tracing recorder; stays 0 when tracing is disabled).
    pub fn set_trace_spans(&self, spans: u64) {
        self.trace_spans.store(spans, Ordering::Relaxed);
    }

    /// Render the registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let g = |v: &AtomicU64| v.load(Ordering::Relaxed);

        out.push_str("# HELP llmpilot_requests_total Requests received, by route.\n");
        out.push_str("# TYPE llmpilot_requests_total counter\n");
        for route in Route::ALL {
            let _ = writeln!(
                out,
                "llmpilot_requests_total{{route=\"{}\"}} {}",
                route.label(),
                g(&self.requests_by_route[route.index()])
            );
        }

        out.push_str("# HELP llmpilot_responses_total Responses sent, by status class.\n");
        out.push_str("# TYPE llmpilot_responses_total counter\n");
        for (i, v) in self.responses_by_class.iter().enumerate() {
            let _ = writeln!(out, "llmpilot_responses_total{{class=\"{}xx\"}} {}", i + 1, g(v));
        }

        out.push_str("# HELP llmpilot_cache_requests_total Recommendation cache lookups.\n");
        out.push_str("# TYPE llmpilot_cache_requests_total counter\n");
        let _ = writeln!(
            out,
            "llmpilot_cache_requests_total{{result=\"hit\"}} {}",
            g(&self.cache_hits)
        );
        let _ = writeln!(
            out,
            "llmpilot_cache_requests_total{{result=\"miss\"}} {}",
            g(&self.cache_misses)
        );

        out.push_str("# HELP llmpilot_queue_depth Connections waiting for a worker.\n");
        out.push_str("# TYPE llmpilot_queue_depth gauge\n");
        let _ = writeln!(out, "llmpilot_queue_depth {}", g(&self.queue_depth));

        out.push_str(
            "# HELP llmpilot_queue_rejected_total Connections refused with 503 (queue full).\n",
        );
        out.push_str("# TYPE llmpilot_queue_rejected_total counter\n");
        let _ = writeln!(out, "llmpilot_queue_rejected_total {}", g(&self.queue_rejected));

        out.push_str("# HELP llmpilot_connections_total Connections admitted.\n");
        out.push_str("# TYPE llmpilot_connections_total counter\n");
        let _ = writeln!(out, "llmpilot_connections_total {}", g(&self.connections_total));

        out.push_str("# HELP llmpilot_dataset_generation Generation of the live dataset.\n");
        out.push_str("# TYPE llmpilot_dataset_generation gauge\n");
        let _ = writeln!(out, "llmpilot_dataset_generation {}", g(&self.dataset_generation));

        out.push_str("# HELP llmpilot_model_generation Generation of the live model.\n");
        out.push_str("# TYPE llmpilot_model_generation gauge\n");
        let _ = writeln!(out, "llmpilot_model_generation {}", g(&self.model_generation));

        out.push_str("# HELP llmpilot_trace_spans_total Spans recorded by the tracing recorder.\n");
        out.push_str("# TYPE llmpilot_trace_spans_total counter\n");
        let _ = writeln!(out, "llmpilot_trace_spans_total {}", g(&self.trace_spans));

        out.push_str("# HELP llmpilot_reloads_total Successful dataset reloads.\n");
        out.push_str("# TYPE llmpilot_reloads_total counter\n");
        let _ = writeln!(out, "llmpilot_reloads_total {}", g(&self.reloads));

        out.push_str("# HELP llmpilot_retrains_total Model retraining runs, by outcome.\n");
        out.push_str("# TYPE llmpilot_retrains_total counter\n");
        let _ = writeln!(
            out,
            "llmpilot_retrains_total{{outcome=\"success\"}} {}",
            g(&self.retrains_ok)
        );
        let _ = writeln!(
            out,
            "llmpilot_retrains_total{{outcome=\"failure\"}} {}",
            g(&self.retrains_failed)
        );

        out.push_str(
            "# HELP llmpilot_request_duration_seconds Service latency of handled requests.\n",
        );
        out.push_str("# TYPE llmpilot_request_duration_seconds histogram\n");
        // Cumulative buckets at the classic bounds, backed by the HDR
        // histogram: `count_le` counts every sample recorded at or below
        // each bound (to the histogram's ≤1% value resolution).
        let count = self.latency.count();
        for ub in LATENCY_BUCKETS_S {
            let le = self.latency.count_le((ub * 1e9).round() as u64);
            let _ = writeln!(out, "llmpilot_request_duration_seconds_bucket{{le=\"{ub}\"}} {le}");
        }
        let _ = writeln!(out, "llmpilot_request_duration_seconds_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(
            out,
            "llmpilot_request_duration_seconds_sum {}",
            g(&self.latency_sum_us) as f64 / 1e6
        );
        let _ = writeln!(out, "llmpilot_request_duration_seconds_count {count}");

        out.push_str(
            "# HELP llmpilot_request_latency_quantile_seconds Service latency tail quantiles \
             (HDR histogram, <=1% relative error).\n",
        );
        out.push_str("# TYPE llmpilot_request_latency_quantile_seconds gauge\n");
        for (q, label) in LATENCY_QUANTILES {
            let _ = writeln!(
                out,
                "llmpilot_request_latency_quantile_seconds{{quantile=\"{label}\"}} {}",
                self.latency.quantile(q) as f64 / 1e9
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_render() {
        let m = Metrics::new();
        m.record_request(Route::Recommend);
        m.record_request(Route::Recommend);
        m.record_request(Route::Metrics);
        m.record_response(200);
        m.record_response(404);
        m.record_cache(true);
        m.record_cache(false);
        m.record_enqueued();
        m.record_enqueued();
        m.record_dequeued();
        m.record_rejected();
        m.record_reload(2);
        m.record_retrain(true, 3);
        m.record_retrain(false, 0);
        m.record_latency(Duration::from_micros(300));
        m.record_latency(Duration::from_secs(5));

        let text = m.render();
        assert!(text.contains("llmpilot_requests_total{route=\"recommend\"} 2"));
        assert!(text.contains("llmpilot_requests_total{route=\"metrics\"} 1"));
        assert!(text.contains("llmpilot_responses_total{class=\"2xx\"} 1"));
        assert!(text.contains("llmpilot_responses_total{class=\"4xx\"} 1"));
        assert!(text.contains("llmpilot_cache_requests_total{result=\"hit\"} 1"));
        assert!(text.contains("llmpilot_cache_requests_total{result=\"miss\"} 1"));
        assert!(text.contains("llmpilot_queue_depth 1\n"));
        assert!(text.contains("llmpilot_queue_rejected_total 1\n"));
        assert!(text.contains("llmpilot_connections_total 2\n"));
        assert!(text.contains("llmpilot_dataset_generation 2"));
        assert!(text.contains("llmpilot_model_generation 3"));
        assert!(text.contains("llmpilot_retrains_total{outcome=\"failure\"} 1"));
        assert!(text.contains("llmpilot_request_duration_seconds_count 2"));
        assert!(text.contains("llmpilot_request_duration_seconds_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.record_latency(Duration::from_micros(50)); // <= 0.0001
        m.record_latency(Duration::from_micros(400)); // <= 0.0005
        let text = m.render();
        assert!(text.contains("llmpilot_request_duration_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("llmpilot_request_duration_seconds_bucket{le=\"0.0005\"} 2"));
        assert!(text.contains("llmpilot_request_duration_seconds_bucket{le=\"1\"} 2"));
        // Each bucket count never decreases as the bound grows.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("llmpilot_request_duration_seconds_bucket"))
            .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), LATENCY_BUCKETS_S.len() + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn latency_quantile_gauges_are_accurate_and_ordered() {
        let m = Metrics::new();
        // 1..=1000 µs uniformly: p50 ≈ 500 µs, p99 ≈ 990 µs.
        for us in 1..=1000u64 {
            m.record_latency(Duration::from_micros(us));
        }
        let text = m.render();
        let q = |label: &str| -> f64 {
            let needle =
                format!("llmpilot_request_latency_quantile_seconds{{quantile=\"{label}\"}}");
            text.lines()
                .find(|l| l.starts_with(&needle))
                .unwrap_or_else(|| panic!("missing {needle} in {text}"))
                .split_whitespace()
                .last()
                .unwrap()
                .parse()
                .unwrap()
        };
        let (p50, p95, p99, p999) = (q("0.5"), q("0.95"), q("0.99"), q("0.999"));
        assert!((p50 - 500e-6).abs() / 500e-6 < 0.01, "p50 = {p50}");
        assert!((p99 - 990e-6).abs() / 990e-6 < 0.01, "p99 = {p99}");
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p999);
    }
}
