//! The serving layer's metrics store, plus the slow-compile flight
//! recorder and the NDJSON access log.
//!
//! One [`ServeMetrics`] per server instance holds every service counter
//! and latency histogram as a named atomic field.  Workers, the
//! [`crate::TargetCache`] and the [`crate::SessionPool`]s update the
//! fields in place, and the NDJSON `stats` op and the `/metrics` HTTP
//! listener read the same fields, so the two can never disagree.  The
//! gauges that restate server state (cached entries, open pools, queued
//! connections) are not stored at all: the server reads them from that
//! state when it renders.
//!
//! Recording is lock-free on the request path: a counter bump or a
//! histogram observation is a relaxed atomic op.  Only the rare
//! per-class failure counts take a mutex.

use crate::{CacheStats, PoolStats};
use record_core::{FailureClass, Report};
use record_probe::json::Json;
use record_probe::metrics::{AtomicHistogram, TextWriter};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// Every counter and latency histogram of one server instance.
///
/// A server makes one and hands it to its cache and pools.  A cache or
/// pool used on its own counts into one of its own, or into a shared one
/// passed to [`crate::TargetCache::with_counters`] or
/// [`crate::SessionPool::with_counters`]; their `stats` methods read it
/// back.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) cache_retargets: AtomicU64,
    pub(crate) cache_inflight_waits: AtomicU64,
    pub(crate) cache_evictions: AtomicU64,
    pub(crate) pool_created: AtomicU64,
    pub(crate) pool_reused: AtomicU64,
    pub(crate) pool_returned: AtomicU64,
    pub(crate) pool_dropped: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) slow_traces: AtomicU64,
    /// Requests being handled right now.
    pub(crate) inflight: AtomicI64,
    request_latency: AtomicHistogram,
    compile_phases: [AtomicHistogram; COMPILE_PHASES.len()],
    retarget_phases: [AtomicHistogram; RETARGET_PHASES.len()],
    /// Compile failures by class (`phase/kind`), sorted for rendering.
    failures: Mutex<BTreeMap<String, u64>>,
}

/// Adds one to a counter.
#[inline]
pub(crate) fn incr(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// A counter's value.
fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Observes each phase of `report` whose label is in `labels` into the
/// histogram at the same index.
fn observe_phases(labels: &[&str], histograms: &[AtomicHistogram], report: &Report) {
    for p in &report.phases {
        if let Some(i) = labels.iter().position(|&label| label == p.label) {
            histograms[i].observe(p.ns);
        }
    }
}

impl ServeMetrics {
    /// A store with every counter at zero.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }

    /// Counts one handled request and observes its end-to-end latency.
    pub(crate) fn record_request(&self, latency_ns: u64) {
        incr(&self.served);
        self.request_latency.observe(latency_ns);
    }

    /// Observes every phase of a compile [`Report`] into the per-phase
    /// latency histograms.
    pub(crate) fn record_compile_phases(&self, report: &Report) {
        observe_phases(&COMPILE_PHASES, &self.compile_phases, report);
    }

    /// Observes the phases of one retarget that actually ran (not a hit
    /// or a wait on another requester's retarget) into the per-phase
    /// latency histograms.
    pub(crate) fn record_retarget_phases(&self, report: &Report) {
        observe_phases(&RETARGET_PHASES, &self.retarget_phases, report);
    }

    /// Counts one classified compile failure (rare path; takes a mutex).
    pub(crate) fn record_failure(&self, class: &FailureClass) {
        let mut failures = self.failures.lock().expect("failures lock poisoned");
        *failures.entry(class.to_string()).or_insert(0) += 1;
    }

    /// The cache counters.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: read(&self.cache_hits),
            misses: read(&self.cache_misses),
            retargets: read(&self.cache_retargets),
            inflight_waits: read(&self.cache_inflight_waits),
            evictions: read(&self.cache_evictions),
        }
    }

    /// The session-pool counters, summed over every pool of the server.
    pub(crate) fn pool_stats(&self) -> PoolStats {
        PoolStats {
            created: read(&self.pool_created),
            reused: read(&self.pool_reused),
            returned: read(&self.pool_returned),
            dropped: read(&self.pool_dropped),
        }
    }

    /// Requests handled and connections rejected.
    pub(crate) fn server_counters(&self) -> (u64, u64) {
        (read(&self.served), read(&self.rejected))
    }

    /// Renders the store in Prometheus text exposition format.  The
    /// server passes the gauges it reads from its own state: ready cache
    /// entries, open session pools and queued connections.
    pub(crate) fn render_prometheus(
        &self,
        cache_entries: usize,
        pools: usize,
        queue_depth: usize,
    ) -> String {
        let mut w = TextWriter::new();
        let cache = self.cache_stats();
        let pool = self.pool_stats();
        let (served, rejected) = self.server_counters();
        for (name, help, value) in [
            (
                "record_cache_hits_total",
                "Artifact-cache lookups served from a ready entry",
                cache.hits,
            ),
            (
                "record_cache_misses_total",
                "Artifact-cache lookups that found nothing",
                cache.misses,
            ),
            (
                "record_cache_retargets_total",
                "Retargets actually run (misses minus in-flight coalescing)",
                cache.retargets,
            ),
            (
                "record_cache_inflight_waits_total",
                "Waits behind another requester's in-flight retarget",
                cache.inflight_waits,
            ),
            (
                "record_cache_evictions_total",
                "Ready artifacts discarded to respect the capacity bound",
                cache.evictions,
            ),
            (
                "record_pool_sessions_created_total",
                "Sessions opened cold (no idle pages available)",
                pool.created,
            ),
            (
                "record_pool_sessions_reused_total",
                "Sessions rebuilt warm from pooled pages",
                pool.reused,
            ),
            (
                "record_pool_sessions_returned_total",
                "Sessions whose pages went back to the pool on drop",
                pool.returned,
            ),
            (
                "record_pool_sessions_dropped_total",
                "Sessions dropped (pool full or poisoned by a contained panic)",
                pool.dropped,
            ),
            (
                "record_requests_served_total",
                "Requests handled (all ops, success or failure)",
                served,
            ),
            (
                "record_requests_rejected_total",
                "Connections rejected by admission control",
                rejected,
            ),
            (
                "record_slow_traces_total",
                "Compiles whose time reached the flight-recorder threshold",
                read(&self.slow_traces),
            ),
        ] {
            w.family(name, help, "counter");
            w.sample(name, &[], value);
        }

        let name = "record_failures_total";
        w.family(
            name,
            "Compile failures by failure class (phase/kind)",
            "counter",
        );
        for (class, count) in self.failures.lock().expect("failures lock poisoned").iter() {
            w.sample(name, &[("class", class)], count);
        }

        for (name, help, value) in [
            (
                "record_cache_entries",
                "Ready artifacts currently cached",
                cache_entries as i64,
            ),
            ("record_pools", "Session pools currently open", pools as i64),
            (
                "record_queue_depth",
                "Connections waiting in the admission queue",
                queue_depth as i64,
            ),
            (
                "record_inflight_requests",
                "Requests currently being handled by workers",
                self.inflight.load(Ordering::Relaxed),
            ),
        ] {
            w.family(name, help, "gauge");
            w.sample(name, &[], value);
        }

        let name = "record_request_latency_ns";
        w.family(
            name,
            "End-to-end request handling latency in nanoseconds",
            "histogram",
        );
        w.histogram(name, &[], &self.request_latency.snapshot());
        for (name, help, labels, histograms) in [
            (
                "record_compile_phase_latency_ns",
                "Per-phase compile latency in nanoseconds",
                &COMPILE_PHASES[..],
                &self.compile_phases[..],
            ),
            (
                "record_retarget_phase_latency_ns",
                "Per-phase retarget latency in nanoseconds",
                &RETARGET_PHASES[..],
                &self.retarget_phases[..],
            ),
        ] {
            w.family(name, help, "histogram");
            for (&phase, h) in labels.iter().zip(histograms) {
                w.histogram(name, &[("phase", phase)], &h.snapshot());
            }
        }
        w.finish()
    }
}

/// One captured slow compile: the correlation id of its request and the
/// full Chrome trace of the compile, ready for Perfetto.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowTrace {
    /// Correlation id of the request whose compile crossed the threshold.
    pub request_id: String,
    /// The function that was being compiled.
    pub function: String,
    /// Time the compile took, in nanoseconds (not the whole request: a
    /// batch request times, and may record, each of its compiles).
    pub latency_ns: u64,
    /// Chrome trace-event JSON of the compile (Perfetto-loadable).
    pub chrome_json: String,
}

/// A bounded ring of [`SlowTrace`]s: compiles that take at least the
/// threshold get their full trace captured here for postmortems, oldest
/// evicted first.  Dump it over the wire with the `debug-traces` op.
#[derive(Debug)]
pub struct FlightRecorder {
    threshold_ns: u64,
    capacity: usize,
    ring: Mutex<VecDeque<SlowTrace>>,
}

impl FlightRecorder {
    /// A recorder capturing compiles that take at least `threshold_ns`,
    /// keeping the most recent `capacity` traces (clamped to at least 1).
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

    /// Records one slow compile, evicting the oldest beyond capacity.
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
/// the wall-clock time the generator was made, so ids from restarts do
/// not repeat either.
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
    /// A generator salted with the wall clock's nanoseconds since the
    /// Unix epoch.  (The trace clock, [`record_probe::now_ns`], would not
    /// do: it counts from the process's first read, so every fresh
    /// process starts it near zero.)
    pub fn new() -> RequestIds {
        let wall_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        RequestIds {
            seq: AtomicU64::new(0),
            salt: splitmix64(wall_ns | 1),
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
        metrics.record_request(1_500);
        let class = |phase, kind: &str| FailureClass {
            phase,
            kind: kind.to_owned(),
        };
        let no_data_memory = record_core::CompileError::NoDataMemory {
            processor: "p".to_owned(),
        }
        .classify();
        use record_core::CompilePhase::Select;
        for failure in [
            class(Select, "selector-gap"),
            no_data_memory,
            class(Select, "selector-gap"),
        ] {
            metrics.record_failure(&failure);
        }
        let text = metrics.render_prometheus(2, 1, 3);
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
        // Failure classes render sorted, each counted once per failure.
        assert!(
            text.contains(
                "record_failures_total{class=\"bind/no-data-memory\"} 1\n\
                 record_failures_total{class=\"select/selector-gap\"} 2\n"
            ),
            "{text}"
        );
        assert!(text.contains("record_request_latency_ns_count 1"));
        assert!(text.contains("record_cache_entries 2\n"));
        assert!(text.contains("record_pools 1\n"));
        assert!(text.contains("record_queue_depth 3\n"));
    }

    #[test]
    fn stats_views_read_what_counters_wrote() {
        let metrics = std::sync::Arc::new(ServeMetrics::new());
        let cache = crate::TargetCache::with_counters(
            1,
            record_core::RetargetOptions::default(),
            std::sync::Arc::clone(&metrics),
        );
        incr(&metrics.cache_hits);
        incr(&metrics.cache_hits);
        incr(&metrics.cache_misses);
        incr(&metrics.cache_retargets);
        incr(&metrics.pool_created);
        incr(&metrics.pool_reused);
        incr(&metrics.rejected);
        let snap = cache.stats();
        assert_eq!(snap, metrics.cache_stats());
        assert_eq!((snap.hits, snap.misses, snap.retargets), (2, 1, 1));
        let snap = metrics.pool_stats();
        assert_eq!((snap.created, snap.reused), (1, 1));
        assert_eq!(metrics.server_counters(), (0, 1));
        // The exposition reads the same fields.
        let text = metrics.render_prometheus(0, 0, 0);
        for line in [
            "record_cache_hits_total 2\n",
            "record_cache_misses_total 1\n",
            "record_cache_retargets_total 1\n",
            "record_pool_sessions_created_total 1\n",
            "record_pool_sessions_reused_total 1\n",
            "record_requests_rejected_total 1\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
    }
}
