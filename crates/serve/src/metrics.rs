//! The serving layer's metric schema, plus the slow-request flight
//! recorder and the NDJSON access log.
//!
//! One [`ServeMetrics`] per server instance owns the
//! [`MetricsRegistry`] and every slot id.  It is the *single source of
//! truth* for service counters: [`crate::TargetCache`] and
//! [`crate::SessionPool`] record through views ([`CacheCounters`],
//! [`PoolCounters`]) over this registry, the NDJSON `stats` op reads the
//! merged values back out of it, and the `/metrics` HTTP listener
//! renders the same registry in Prometheus text exposition format —
//! three read paths, one set of numbers.
//!
//! Recording is lock-free on the request path: each worker thread gets
//! its own [`MetricsShard`] at startup and every counter bump or
//! histogram observation is a relaxed atomic op.  Only rare events
//! (per-class failure counts) and scrape-time merging touch a mutex.

use record_core::{FailureClass, Report};
use record_probe::json::Json;
use record_probe::metrics::{
    CounterId, FamilyId, GaugeId, HistogramId, MetricsBuilder, MetricsRegistry, MetricsShard,
};
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Compile phase labels, in pipeline order (the same vocabulary as
/// [`record_core::CompilePhase`] plus the select/emit split the
/// [`Report`] records).
const COMPILE_PHASES: [&str; 7] = [
    "parse", "lower", "bind", "select", "emit", "allocate", "compact",
];

/// Retarget phase labels, in pipeline order.
const RETARGET_PHASES: [&str; 6] = [
    "parse",
    "extract",
    "template-gen",
    "rule-gen",
    "selector-gen",
    "freeze",
];

/// The full metric schema of one server instance.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: MetricsRegistry,
    /// Shard for increments that do not happen on a worker thread (the
    /// accept loop, the cache, the pools).  Shared-shard increments are
    /// still lock-free, just potentially contended.
    base: Arc<MetricsShard>,
    cache_hits: CounterId,
    cache_misses: CounterId,
    cache_retargets: CounterId,
    cache_inflight_waits: CounterId,
    cache_evictions: CounterId,
    pool_created: CounterId,
    pool_reused: CounterId,
    pool_returned: CounterId,
    pool_dropped: CounterId,
    served: CounterId,
    rejected: CounterId,
    slow_traces: CounterId,
    cache_entries: GaugeId,
    pool_count: GaugeId,
    queue_depth: GaugeId,
    inflight: GaugeId,
    request_latency: HistogramId,
    compile_phase: Vec<(&'static str, HistogramId)>,
    retarget_phase: Arc<Vec<(&'static str, HistogramId)>>,
    failures: FamilyId,
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Builds the schema and its base shard.
    pub fn new() -> ServeMetrics {
        let mut b = MetricsBuilder::new();
        let cache_hits = b.counter(
            "record_cache_hits_total",
            "Artifact-cache lookups served from a ready entry",
            &[],
        );
        let cache_misses = b.counter(
            "record_cache_misses_total",
            "Artifact-cache lookups that found nothing",
            &[],
        );
        let cache_retargets = b.counter(
            "record_cache_retargets_total",
            "Retargets actually run (misses minus in-flight coalescing)",
            &[],
        );
        let cache_inflight_waits = b.counter(
            "record_cache_inflight_waits_total",
            "Waits behind another requester's in-flight retarget",
            &[],
        );
        let cache_evictions = b.counter(
            "record_cache_evictions_total",
            "Ready artifacts discarded to respect the capacity bound",
            &[],
        );
        let pool_created = b.counter(
            "record_pool_sessions_created_total",
            "Sessions opened cold (no idle pages available)",
            &[],
        );
        let pool_reused = b.counter(
            "record_pool_sessions_reused_total",
            "Sessions rebuilt warm from pooled pages",
            &[],
        );
        let pool_returned = b.counter(
            "record_pool_sessions_returned_total",
            "Sessions whose pages went back to the pool on drop",
            &[],
        );
        let pool_dropped = b.counter(
            "record_pool_sessions_dropped_total",
            "Sessions dropped (pool full or poisoned by a contained panic)",
            &[],
        );
        let served = b.counter(
            "record_requests_served_total",
            "Requests handled (all ops, success or failure)",
            &[],
        );
        let rejected = b.counter(
            "record_requests_rejected_total",
            "Connections rejected by admission control",
            &[],
        );
        let slow_traces = b.counter(
            "record_slow_traces_total",
            "Requests whose latency crossed the flight-recorder threshold",
            &[],
        );
        let cache_entries = b.gauge(
            "record_cache_entries",
            "Ready artifacts currently cached",
            &[],
        );
        let pool_count = b.gauge("record_pools", "Session pools currently open", &[]);
        let queue_depth = b.gauge(
            "record_queue_depth",
            "Connections waiting in the admission queue",
            &[],
        );
        let inflight = b.gauge(
            "record_inflight_requests",
            "Requests currently being handled by workers",
            &[],
        );
        let request_latency = b.histogram(
            "record_request_latency_ns",
            "End-to-end request handling latency in nanoseconds",
            &[],
        );
        let compile_phase = COMPILE_PHASES
            .iter()
            .map(|&phase| {
                (
                    phase,
                    b.histogram(
                        "record_compile_phase_latency_ns",
                        "Per-phase compile latency in nanoseconds",
                        &[("phase", phase)],
                    ),
                )
            })
            .collect();
        let retarget_phase = Arc::new(
            RETARGET_PHASES
                .iter()
                .map(|&phase| {
                    (
                        phase,
                        b.histogram(
                            "record_retarget_phase_latency_ns",
                            "Per-phase retarget latency in nanoseconds",
                            &[("phase", phase)],
                        ),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let failures = b.counter_family(
            "record_failures_total",
            "Compile failures by failure class (phase/kind)",
            "class",
        );
        let registry = b.build();
        let base = registry.shard();
        ServeMetrics {
            registry,
            base,
            cache_hits,
            cache_misses,
            cache_retargets,
            cache_inflight_waits,
            cache_evictions,
            pool_created,
            pool_reused,
            pool_returned,
            pool_dropped,
            served,
            rejected,
            slow_traces,
            cache_entries,
            pool_count,
            queue_depth,
            inflight,
            request_latency,
            compile_phase,
            retarget_phase,
            failures,
        }
    }

    /// The underlying registry (scrape rendering, gauges).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A fresh recording shard for one worker thread.
    pub fn worker_shard(&self) -> Arc<MetricsShard> {
        self.registry.shard()
    }

    /// The cache's view over this registry.
    pub fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            registry: self.registry.clone(),
            shard: Arc::clone(&self.base),
            hits: self.cache_hits,
            misses: self.cache_misses,
            retargets: self.cache_retargets,
            inflight_waits: self.cache_inflight_waits,
            evictions: self.cache_evictions,
            entries: self.cache_entries,
            retarget_phase: Arc::clone(&self.retarget_phase),
        }
    }

    /// The pools' view over this registry.  Every pool of one server
    /// shares this view, so the counters aggregate across pools — the
    /// same aggregation the `stats` op always reported.
    pub fn pool_counters(&self) -> PoolCounters {
        PoolCounters {
            registry: self.registry.clone(),
            shard: Arc::clone(&self.base),
            created: self.pool_created,
            reused: self.pool_reused,
            returned: self.pool_returned,
            dropped: self.pool_dropped,
        }
    }

    /// Counts one handled request and observes its end-to-end latency.
    pub fn record_request(&self, shard: &MetricsShard, latency_ns: u64) {
        shard.incr(self.served);
        shard.observe(self.request_latency, latency_ns);
    }

    /// Counts one admission rejection (accept-loop thread; base shard).
    pub fn record_rejection(&self) {
        self.base.incr(self.rejected);
    }

    /// Counts one flight-recorder capture.
    pub fn record_slow_trace(&self, shard: &MetricsShard) {
        shard.incr(self.slow_traces);
    }

    /// Observes every phase of a compile [`Report`] into the per-phase
    /// latency histograms.
    pub fn record_compile_phases(&self, shard: &MetricsShard, report: &Report) {
        for p in &report.phases {
            if let Some(&(_, id)) = self
                .compile_phase
                .iter()
                .find(|(label, _)| *label == p.label)
            {
                shard.observe(id, p.ns);
            }
        }
    }

    /// Counts one classified compile failure (rare path; takes the
    /// family mutex).
    pub fn record_failure(&self, class: &FailureClass) {
        self.registry.incr_family(self.failures, &class.to_string());
    }

    /// Sets the pool-count gauge.
    pub fn set_pool_count(&self, n: usize) {
        self.registry.gauge_set(self.pool_count, n as i64);
    }

    /// Sets the admission-queue depth gauge.
    pub fn set_queue_depth(&self, n: usize) {
        self.registry.gauge_set(self.queue_depth, n as i64);
    }

    /// Adjusts the inflight-requests gauge.
    pub fn inflight_add(&self, delta: i64) {
        self.registry.gauge_add(self.inflight, delta);
    }

    /// Merged served/rejected counters (the `stats` op's `server`
    /// section).
    pub fn server_counters(&self) -> (u64, u64) {
        (
            self.registry.counter_value(self.served),
            self.registry.counter_value(self.rejected),
        )
    }

    /// Renders the whole registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

/// The [`crate::TargetCache`]'s counter view: increments land on the
/// shared registry, snapshots merge back out of it.
#[derive(Debug, Clone)]
pub struct CacheCounters {
    registry: MetricsRegistry,
    shard: Arc<MetricsShard>,
    hits: CounterId,
    misses: CounterId,
    retargets: CounterId,
    inflight_waits: CounterId,
    evictions: CounterId,
    entries: GaugeId,
    retarget_phase: Arc<Vec<(&'static str, HistogramId)>>,
}

impl CacheCounters {
    /// A standalone view over a private registry, for caches used
    /// outside a server (tests, tools).
    pub fn standalone() -> CacheCounters {
        ServeMetrics::new().cache_counters()
    }

    pub(crate) fn hit(&self) {
        self.shard.incr(self.hits);
    }

    pub(crate) fn miss(&self) {
        self.shard.incr(self.misses);
    }

    pub(crate) fn retarget(&self) {
        self.shard.incr(self.retargets);
    }

    pub(crate) fn inflight_wait(&self) {
        self.shard.incr(self.inflight_waits);
    }

    pub(crate) fn eviction(&self) {
        self.shard.incr(self.evictions);
    }

    pub(crate) fn set_entries(&self, n: usize) {
        self.registry.gauge_set(self.entries, n as i64);
    }

    /// Observes the phases of one *actually executed* retarget into the
    /// per-phase latency histograms.  Lives on the cache's view because
    /// only the cache knows a lookup ran the pipeline rather than
    /// hitting (or coalescing onto) an existing artifact.
    pub(crate) fn retarget_report(&self, report: &Report) {
        for p in &report.phases {
            if let Some(&(_, id)) = self
                .retarget_phase
                .iter()
                .find(|(label, _)| *label == p.label)
            {
                self.shard.observe(id, p.ns);
            }
        }
    }

    /// The merged counter values.
    pub fn snapshot(&self) -> crate::CacheStats {
        crate::CacheStats {
            hits: self.registry.counter_value(self.hits),
            misses: self.registry.counter_value(self.misses),
            retargets: self.registry.counter_value(self.retargets),
            inflight_waits: self.registry.counter_value(self.inflight_waits),
            evictions: self.registry.counter_value(self.evictions),
        }
    }
}

/// The [`crate::SessionPool`]s' counter view.  Pools sharing a view
/// (every pool of one server) report shared totals.
#[derive(Debug, Clone)]
pub struct PoolCounters {
    registry: MetricsRegistry,
    shard: Arc<MetricsShard>,
    created: CounterId,
    reused: CounterId,
    returned: CounterId,
    dropped: CounterId,
}

impl PoolCounters {
    /// A standalone view over a private registry, for pools used outside
    /// a server.
    pub fn standalone() -> PoolCounters {
        ServeMetrics::new().pool_counters()
    }

    pub(crate) fn created(&self) {
        self.shard.incr(self.created);
    }

    pub(crate) fn reused(&self) {
        self.shard.incr(self.reused);
    }

    pub(crate) fn returned(&self) {
        self.shard.incr(self.returned);
    }

    pub(crate) fn dropped(&self) {
        self.shard.incr(self.dropped);
    }

    /// The merged counter values.
    pub fn snapshot(&self) -> crate::PoolStats {
        crate::PoolStats {
            created: self.registry.counter_value(self.created),
            reused: self.registry.counter_value(self.reused),
            returned: self.registry.counter_value(self.returned),
            dropped: self.registry.counter_value(self.dropped),
        }
    }
}

/// One captured slow request: its correlation id and the full Chrome
/// trace of its compile, ready for Perfetto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowTrace {
    /// Correlation id of the request that crossed the threshold.
    pub request_id: String,
    /// The function that was being compiled.
    pub function: String,
    /// End-to-end latency of the request, in nanoseconds.
    pub latency_ns: u64,
    /// Chrome trace-event JSON of the compile (Perfetto-loadable).
    pub chrome_json: String,
}

/// A bounded ring of [`SlowTrace`]s: requests slower than the threshold
/// get their full trace captured here for postmortems, oldest evicted
/// first.  Dump it over the wire with the `debug-traces` op.
#[derive(Debug)]
pub struct FlightRecorder {
    threshold_ns: u64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowTrace>>,
}

impl FlightRecorder {
    /// A recorder capturing requests slower than `threshold_ns`, keeping
    /// the most recent `capacity` traces (clamped to at least 1).
    pub fn new(threshold_ns: u64, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            threshold_ns,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The capture threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// Records one slow request, evicting the oldest beyond capacity.
    pub fn record(&self, trace: SlowTrace) {
        let mut ring = self.ring.lock().expect("flight recorder lock");
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn dump(&self) -> Vec<SlowTrace> {
        self.ring
            .lock()
            .expect("flight recorder lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight recorder lock").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A per-request NDJSON access log: one JSON object per line, flushed
/// per line so tail -f works mid-request-storm.
pub struct AccessLog {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog").finish_non_exhaustive()
    }
}

impl AccessLog {
    /// An access log writing to stderr.
    pub fn stderr() -> AccessLog {
        AccessLog::to_writer(Box::new(std::io::stderr()))
    }

    /// An access log writing to an arbitrary sink (tests).
    pub fn to_writer(sink: Box<dyn Write + Send>) -> AccessLog {
        AccessLog {
            sink: Mutex::new(sink),
        }
    }

    /// Writes one NDJSON line.  Log I/O failures are swallowed — the log
    /// must never fail a request.
    pub fn write_line(&self, entry: &Json) {
        let mut sink = self.sink.lock().expect("access log lock");
        let _ = writeln!(sink, "{entry}");
        let _ = sink.flush();
    }
}

/// Request-id generation: a per-server sequence fed through SplitMix64
/// (a bijection, so ids never collide within a process) and salted with
/// the server's start time so ids from restarts do not repeat either.
#[derive(Debug)]
pub struct RequestIds {
    seq: AtomicU64,
    salt: u64,
}

impl Default for RequestIds {
    fn default() -> RequestIds {
        RequestIds::new()
    }
}

impl RequestIds {
    /// A generator salted with the current trace-epoch offset.
    pub fn new() -> RequestIds {
        RequestIds {
            seq: AtomicU64::new(0),
            salt: splitmix64(record_probe::now_ns() | 1),
        }
    }

    /// The next id: 16 lowercase hex digits.
    pub fn next_id(&self) -> String {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        format!("{:016x}", splitmix64(seq) ^ self.salt)
    }
}

/// SplitMix64: a tiny, well-mixed bijective PRNG step (request ids here,
/// retry jitter in the client).
pub(crate) fn splitmix64(index: u64) -> u64 {
    let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_recorder_ring_is_bounded() {
        let recorder = FlightRecorder::new(1_000_000, 2);
        for i in 0..5u64 {
            recorder.record(SlowTrace {
                request_id: format!("{i:016x}"),
                function: "f".to_owned(),
                latency_ns: i,
                chrome_json: "{}".to_owned(),
            });
        }
        let dump = recorder.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].latency_ns, 3, "oldest beyond capacity evicted");
        assert_eq!(dump[1].latency_ns, 4);
    }

    #[test]
    fn request_ids_are_distinct_hex() {
        let ids = RequestIds::new();
        let a = ids.next_id();
        let b = ids.next_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn exposition_contains_every_family() {
        let metrics = ServeMetrics::new();
        let shard = metrics.worker_shard();
        metrics.record_request(&shard, 1_500);
        metrics.record_failure(
            &record_core::CompileError::NoDataMemory {
                processor: "p".to_owned(),
            }
            .classify(),
        );
        let text = metrics.render_prometheus();
        for family in [
            "record_cache_hits_total",
            "record_cache_misses_total",
            "record_cache_retargets_total",
            "record_cache_inflight_waits_total",
            "record_cache_evictions_total",
            "record_pool_sessions_created_total",
            "record_pool_sessions_reused_total",
            "record_requests_served_total",
            "record_requests_rejected_total",
            "record_slow_traces_total",
            "record_cache_entries",
            "record_pools",
            "record_queue_depth",
            "record_inflight_requests",
            "record_request_latency_ns",
            "record_compile_phase_latency_ns",
            "record_retarget_phase_latency_ns",
            "record_failures_total",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        assert!(text.contains("record_failures_total{class=\"bind/no-data-memory\"} 1"));
        assert!(text.contains("record_request_latency_ns_count 1"));
    }

    #[test]
    fn stats_views_read_what_counters_wrote() {
        let metrics = ServeMetrics::new();
        let cache = metrics.cache_counters();
        cache.hit();
        cache.hit();
        cache.miss();
        cache.retarget();
        let pools = metrics.pool_counters();
        pools.created();
        pools.reused();
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.retargets), (2, 1, 1));
        let snap = pools.snapshot();
        assert_eq!((snap.created, snap.reused), (1, 1));
    }
}
