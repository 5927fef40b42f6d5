//! Pins what the server reports: one client runs a fixed request
//! sequence against an in-process server, then the `/metrics` body (less
//! the timing-dependent latency buckets and sums) and the `stats`
//! response (less its request id) must equal the texts pinned here, and
//! every number `stats` reports must equal its `/metrics` series.

use record_serve::{local_key, Client, CompileSpec, Json, Model, ServeError, Server, ServerConfig};
use record_targets::{kernels, models};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// The `/metrics` body after the sequence, without `*_latency_ns_bucket`
/// and `*_latency_ns_sum` lines.
const PINNED_METRICS: &str = r#"# HELP record_cache_hits_total Artifact-cache lookups served from a ready entry
# TYPE record_cache_hits_total counter
record_cache_hits_total 4
# HELP record_cache_misses_total Artifact-cache lookups that found nothing
# TYPE record_cache_misses_total counter
record_cache_misses_total 2
# HELP record_cache_retargets_total Retargets actually run (misses minus in-flight coalescing)
# TYPE record_cache_retargets_total counter
record_cache_retargets_total 1
# HELP record_cache_inflight_waits_total Waits behind another requester's in-flight retarget
# TYPE record_cache_inflight_waits_total counter
record_cache_inflight_waits_total 0
# HELP record_cache_evictions_total Ready artifacts discarded to respect the capacity bound
# TYPE record_cache_evictions_total counter
record_cache_evictions_total 0
# HELP record_pool_sessions_created_total Sessions opened cold (no idle pages available)
# TYPE record_pool_sessions_created_total counter
record_pool_sessions_created_total 1
# HELP record_pool_sessions_reused_total Sessions rebuilt warm from pooled pages
# TYPE record_pool_sessions_reused_total counter
record_pool_sessions_reused_total 3
# HELP record_pool_sessions_returned_total Sessions whose pages went back to the pool on drop
# TYPE record_pool_sessions_returned_total counter
record_pool_sessions_returned_total 4
# HELP record_pool_sessions_dropped_total Sessions dropped (pool full or poisoned by a contained panic)
# TYPE record_pool_sessions_dropped_total counter
record_pool_sessions_dropped_total 0
# HELP record_requests_served_total Requests handled (all ops, success or failure)
# TYPE record_requests_served_total counter
record_requests_served_total 6
# HELP record_requests_rejected_total Connections rejected by admission control
# TYPE record_requests_rejected_total counter
record_requests_rejected_total 0
# HELP record_slow_traces_total Compiles whose time reached the flight-recorder threshold
# TYPE record_slow_traces_total counter
record_slow_traces_total 5
# HELP record_failures_total Compile failures by failure class (phase/kind)
# TYPE record_failures_total counter
record_failures_total{class="parse/frontend"} 1
# HELP record_cache_entries Ready artifacts currently cached
# TYPE record_cache_entries gauge
record_cache_entries 1
# HELP record_pools Session pools currently open
# TYPE record_pools gauge
record_pools 1
# HELP record_queue_depth Connections waiting in the admission queue
# TYPE record_queue_depth gauge
record_queue_depth 0
# HELP record_inflight_requests Requests currently being handled by workers
# TYPE record_inflight_requests gauge
record_inflight_requests 0
# HELP record_request_latency_ns End-to-end request handling latency in nanoseconds
# TYPE record_request_latency_ns histogram
record_request_latency_ns_count 6
# HELP record_compile_phase_latency_ns Per-phase compile latency in nanoseconds
# TYPE record_compile_phase_latency_ns histogram
record_compile_phase_latency_ns_count{phase="parse"} 4
record_compile_phase_latency_ns_count{phase="lower"} 4
record_compile_phase_latency_ns_count{phase="bind"} 4
record_compile_phase_latency_ns_count{phase="select"} 4
record_compile_phase_latency_ns_count{phase="emit"} 4
record_compile_phase_latency_ns_count{phase="allocate"} 4
record_compile_phase_latency_ns_count{phase="compact"} 4
# HELP record_retarget_phase_latency_ns Per-phase retarget latency in nanoseconds
# TYPE record_retarget_phase_latency_ns histogram
record_retarget_phase_latency_ns_count{phase="parse"} 1
record_retarget_phase_latency_ns_count{phase="extract"} 1
record_retarget_phase_latency_ns_count{phase="template-gen"} 1
record_retarget_phase_latency_ns_count{phase="rule-gen"} 1
record_retarget_phase_latency_ns_count{phase="selector-gen"} 1
record_retarget_phase_latency_ns_count{phase="freeze"} 1
"#;

/// The `stats` response after the sequence, without `request_id`.
const PINNED_STATS: &str = concat!(
    r#"{"ok":true,"#,
    r#""cache":{"hits":4,"misses":2,"retargets":1,"inflight_waits":0,"evictions":0,"entries":1},"#,
    r#""pools":{"count":1,"created":1,"reused":3,"returned":4,"dropped":0},"#,
    r#""server":{"served":6,"rejected":0}}"#,
);

/// Each number of the `stats` response and the `/metrics` series that
/// reports it.
const SHARED_NUMBERS: [(&str, &str, &str); 13] = [
    ("cache", "hits", "record_cache_hits_total"),
    ("cache", "misses", "record_cache_misses_total"),
    ("cache", "retargets", "record_cache_retargets_total"),
    (
        "cache",
        "inflight_waits",
        "record_cache_inflight_waits_total",
    ),
    ("cache", "evictions", "record_cache_evictions_total"),
    ("cache", "entries", "record_cache_entries"),
    ("pools", "count", "record_pools"),
    ("pools", "created", "record_pool_sessions_created_total"),
    ("pools", "reused", "record_pool_sessions_reused_total"),
    ("pools", "returned", "record_pool_sessions_returned_total"),
    ("pools", "dropped", "record_pool_sessions_dropped_total"),
    ("server", "served", "record_requests_served_total"),
    ("server", "rejected", "record_requests_rejected_total"),
];

#[test]
fn served_numbers_are_pinned_and_agree() {
    // A zero slow threshold makes every compile record a trace, so the
    // slow-trace counter is pinned at a known, non-zero value.
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            slow_threshold_ms: Some(0),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(server.addr()).expect("connect");
    let hdl = models::model("tms320c25").unwrap().hdl;
    let kernel = |name: &str| kernels::kernel(name).unwrap();
    let spec = |k: &kernels::Kernel| CompileSpec::new(k.source, k.function);

    let key = client.retarget(hdl).expect("retarget").key;
    let by_key = Model::Key(&key);
    let (fir, dot, real) = (kernel("fir"), kernel("dot_product"), kernel("real_update"));
    client
        .compile(&by_key, &spec(&fir))
        .expect("compile by key");
    client
        .compile(&Model::Hdl(hdl), &spec(&dot))
        .expect("compile by inline HDL");
    let batch = client
        .batch_compile(&by_key, &[spec(&real), spec(&fir)])
        .expect("batch of two");
    assert!(batch.iter().all(Result::is_ok), "{batch:?}");
    let err = client
        .compile(
            &by_key,
            &CompileSpec::new("int x; void bad() { x = ; }", "bad"),
        )
        .expect_err("syntax error");
    assert!(
        matches!(&err, ServeError::Remote { kind, .. } if kind == "compile"),
        "{err}"
    );
    let unknown = local_key(models::model("ref").unwrap().hdl);
    let err = client
        .compile(&Model::Key(&unknown), &spec(&fir))
        .expect_err("never retargeted");
    assert!(
        matches!(&err, ServeError::Remote { kind, .. } if kind == "unknown-key"),
        "{err}"
    );

    // Scrape before `stats`, so that neither counts the other.
    let metrics = scrape(server.metrics_addr().expect("metrics listener is on"));
    let mut stats = client.stats().expect("stats");
    if let Json::Obj(fields) = &mut stats {
        fields.retain(|(name, _)| name != "request_id");
    }

    let masked: String = metrics
        .lines()
        .filter(|line| {
            let name = line.split([' ', '{']).next().unwrap_or("");
            !name.ends_with("_latency_ns_bucket") && !name.ends_with("_latency_ns_sum")
        })
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(masked, PINNED_METRICS, "masked /metrics body");
    assert_eq!(stats.to_string(), PINNED_STATS, "stats response");

    for (section, field, series) in SHARED_NUMBERS {
        let from_stats = stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{section}.{field} in {stats}"));
        assert_eq!(
            Some(from_stats),
            sample(&metrics, series),
            "stats {section}.{field} against {series}"
        );
    }
    // The pinned response is the whole `stats` vocabulary: no number
    // escapes the agreement check.
    let reported: usize = ["cache", "pools", "server"]
        .iter()
        .filter_map(|s| match stats.get(s) {
            Some(Json::Obj(fields)) => Some(fields.len()),
            _ => None,
        })
        .sum();
    assert_eq!(reported, SHARED_NUMBERS.len(), "{stats}");

    drop(client);
    server.shutdown();
}

/// One `GET /metrics`; the response body.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: pin\r\n\r\n")
        .expect("write scrape");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read scrape");
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP body");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_owned()
}

/// The value of an unlabeled series.
fn sample(text: &str, series: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
}
