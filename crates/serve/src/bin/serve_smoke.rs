//! CI smoke test for the compile service: starts a server on a loopback
//! socket, retargets, batch-compiles on a warm session, checks cache
//! hits, proves a worker survives an injected mid-compile panic, drives
//! a deliberately overloaded request, rides out that overload with the
//! client retry policy, scrapes `GET /metrics` while eight concurrent
//! clients compile (validating the Prometheus exposition shape, then
//! checking that `stats` reports the numbers the final scrape did), and
//! dumps the slow-compile flight recorder through the `debug-traces`
//! op.  Exits non-zero with a message on any failure.

use record_core::validate_chrome_json;
use record_serve::{
    call_with_retry, Client, CompileSpec, Json, Model, RetryPolicy, ServeError, Server,
    ServerConfig,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

// A minimal accumulator machine (same shape as record-core's unit-test
// model); the smoke test is about the service plumbing, not codegen.
const TINY: &str = r#"
    module Acc {
        in d: bit(8);
        ctrl en: bit(1);
        out q: bit(8);
        register q = d when en == 1;
    }
    module Ram {
        in addr: bit(3);
        in din: bit(8);
        ctrl w: bit(1);
        out dout: bit(8);
        memory cells[8]: bit(8);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor Tiny {
        instruction word: bit(8);
        parts { acc: Acc; ram: Ram; }
        connections {
            acc.d = ram.dout;
            acc.en = I[7];
            ram.addr = I[2:0];
            ram.din = acc.q;
            ram.w = I[6];
        }
    }
"#;

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

/// Kernels the concurrent clients cycle through.
const SOURCES: [(&str, &str); 2] = [
    ("int x, y; void f() { x = y; }", "f"),
    ("int a, b, c; void g() { a = b; c = a; }", "g"),
];

fn main() {
    // The fault-injection check below panics *on purpose* inside a
    // contained worker; keep that expected unwind out of the CI log
    // while still printing anything unexpected.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected panic"));
        if !injected {
            default_hook(info);
        }
    }));

    // Metrics sidecar on, slow threshold zero so *every* compile lands in
    // the flight recorder, and enough workers/queue for the eight
    // concurrent scrape-phase clients plus the main connection.
    let config = ServerConfig {
        workers: 12,
        queue_depth: 16,
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        slow_threshold_ms: Some(0),
        trace_ring: 32,
        ..ServerConfig::default()
    };
    let handle = Server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr();
    let metrics_addr = handle.metrics_addr().expect("metrics listener is on");
    let mut client = Client::connect(addr).expect("connect");

    // Retarget, then again: second one must be a cache hit (same key).
    let first = client.retarget(TINY).expect("retarget");
    let second = client.retarget(TINY).expect("retarget again");
    assert_eq!(first.key, second.key, "content key is stable");
    assert_eq!(first.processor, "Tiny");
    // Every wire response carries a request id, and ids never repeat.
    let id_a = first.request_id.clone().expect("retarget request id");
    let id_b = second.request_id.clone().expect("retarget request id");
    assert_ne!(id_a, id_b, "request ids are unique");

    // Batch compile by key on one warm session.
    let specs = [
        CompileSpec::new(SOURCES[0].0, SOURCES[0].1).listing(true),
        CompileSpec::new(SOURCES[1].0, SOURCES[1].1),
        CompileSpec::new("int x; void bad() { x = ; }", "bad"),
    ];
    let results = client
        .batch_compile(&Model::Key(&first.key), &specs)
        .expect("batch");
    assert_eq!(results.len(), 3);
    let ok = results[0].as_ref().expect("first kernel compiles");
    assert!(ok.code_size > 0 && ok.listing.is_some());
    assert!(results[1].is_ok(), "second kernel compiles");
    assert!(
        matches!(&results[2], Err(ServeError::Remote { kind, .. }) if kind == "compile"),
        "syntax error is a structured compile failure"
    );

    // A zero deadline must come back as a structured timeout.
    let err = client
        .compile(
            &Model::Key(&first.key),
            &CompileSpec::new(SOURCES[0].0, SOURCES[0].1).deadline_ms(0),
        )
        .expect_err("zero deadline");
    assert!(matches!(err, ServeError::Timeout { .. }), "{err}");

    // An injected mid-compile panic must surface as a structured
    // `internal` error on the wire — and the worker must survive it: the
    // same connection compiles normally right after.
    let err = client
        .compile(
            &Model::Key(&first.key),
            &CompileSpec::new(SOURCES[0].0, SOURCES[0].1).inject_panic("emit"),
        )
        .expect_err("injected panic");
    assert!(
        matches!(&err, ServeError::Remote { kind, message, .. }
            if kind == "internal" && message.contains("injected panic")),
        "expected structured internal error, got: {err}"
    );
    let ok = client
        .compile(
            &Model::Key(&first.key),
            &CompileSpec::new(SOURCES[0].0, SOURCES[0].1),
        )
        .expect("worker serves normally after a contained panic");
    assert!(ok.code_size > 0);
    assert!(ok.request_id.is_some(), "compile summary carries its id");

    // Stats prove the cache coalesced: one retarget, several hits.
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("retargets").and_then(Json::as_u64), Some(1));
    assert!(cache.get("hits").and_then(Json::as_u64).unwrap_or(0) >= 2);
    assert!(
        stats.get("request_id").and_then(Json::as_str).is_some(),
        "stats response carries a request id: {stats}"
    );

    metrics_under_load_check(addr, metrics_addr, &first.key);
    debug_traces_check(&mut client);

    drop(client);
    overload_check();
    handle.shutdown();
    println!("serve smoke OK");
}

/// Scrapes `/metrics` repeatedly while eight concurrent clients compile,
/// validating the exposition shape every time, then checks the final
/// counter values against what the load must have produced.
fn metrics_under_load_check(addr: SocketAddr, metrics_addr: SocketAddr, key: &str) {
    const CLIENTS: usize = 8;
    const COMPILES_PER_CLIENT: usize = 6;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let key = key.to_owned();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("scrape-phase connect");
                for i in 0..COMPILES_PER_CLIENT {
                    let (source, function) = SOURCES[(c + i) % SOURCES.len()];
                    let ok = client
                        .compile(&Model::Key(&key), &CompileSpec::new(source, function))
                        .expect("scrape-phase compile");
                    assert!(ok.code_size > 0);
                }
            })
        })
        .collect();

    // The scrape endpoint must stay valid while every worker is busy.
    for _ in 0..5 {
        validate_exposition(&scrape_metrics(metrics_addr));
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    for worker in workers {
        worker.join().expect("scrape-phase client");
    }

    // Final scrape: the counters reflect the load that just ran.
    let text = scrape_metrics(metrics_addr);
    validate_exposition(&text);
    let served = sample_value(&text, "record_requests_served_total ");
    assert!(
        served >= (CLIENTS * COMPILES_PER_CLIENT) as i64,
        "served {served} requests"
    );
    assert!(
        sample_value(&text, "record_cache_hits_total ") >= CLIENTS as i64,
        "concurrent compiles by key must hit the cache"
    );
    assert!(
        sample_value(&text, "record_cache_retargets_total ") == 1,
        "still exactly one retarget"
    );
    assert!(
        sample_value(&text, "record_slow_traces_total ") >= 1,
        "zero threshold must have recorded slow traces"
    );
    assert!(
        text.contains("record_failures_total{class="),
        "the syntax-error compile must show up as a failure class:\n{text}"
    );
    assert!(
        sample_value(&text, "record_request_latency_ns_count ") >= served,
        "every served request is one latency observation"
    );

    // With the load over, `stats` reports what the scrape just did: it
    // reads the same store, and the scrape came first, so neither
    // counts the other.
    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats after the load");
    for (section, field, series) in SHARED_NUMBERS {
        let from_stats = stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{section}.{field} in {stats}"));
        assert_eq!(
            from_stats as i64,
            sample_value(&text, &format!("{series} ")),
            "stats {section}.{field} disagrees with {series}"
        );
    }
}

/// One plain-HTTP `GET /metrics` against the sidecar listener; returns
/// the exposition body after checking status and content type.
fn scrape_metrics(metrics_addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(metrics_addr).expect("connect metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n")
        .expect("write metrics request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read metrics response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "metrics status: {head}");
    assert!(
        head.to_ascii_lowercase()
            .contains("text/plain; version=0.0.4"),
        "exposition content type: {head}"
    );
    body.to_owned()
}

/// Structural validation of the Prometheus text exposition: every sample
/// belongs to a declared family (HELP + TYPE, in that order), histogram
/// series are cumulative and end in `le="+Inf"`, and `+Inf` always
/// equals the `_count` sample of the same series.
fn validate_exposition(text: &str) {
    let mut helped: Vec<&str> = Vec::new();
    let mut types: HashMap<&str, &str> = HashMap::new();
    // series key (name + labels minus `le`) -> (last cumulative, +Inf).
    let mut buckets: HashMap<String, (i64, Option<i64>)> = HashMap::new();
    let mut counts: HashMap<String, i64> = HashMap::new();

    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.push(rest.split(' ').next().expect("HELP has a name"));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("TYPE has a name");
            let kind = parts.next().expect("TYPE has a kind");
            assert!(helped.contains(&name), "TYPE before HELP: {line}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE: {line}"
            );
            types.insert(name, kind);
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: i64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        let name = series.split('{').next().unwrap();
        if types.contains_key(name) {
            continue; // plain counter / gauge / family sample
        }
        // Histogram-suffixed sample: must resolve to a histogram family.
        let (base, suffix) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| name.strip_suffix(s).map(|b| (b, *s)))
            .unwrap_or_else(|| panic!("sample of undeclared family: {line}"));
        assert_eq!(
            types.get(base).copied(),
            Some("histogram"),
            "suffixed sample of a non-histogram family: {line}"
        );
        match suffix {
            "_bucket" => {
                let labels = series
                    .strip_prefix(name)
                    .unwrap()
                    .trim_start_matches('{')
                    .trim_end_matches('}');
                let (rest, le) = match labels.split_once("le=\"") {
                    Some((prefix, le)) => (
                        prefix.trim_end_matches(','),
                        le.trim_end_matches('"').to_owned(),
                    ),
                    None => panic!("bucket without le: {line}"),
                };
                let series_key = format!("{base}{{{rest}}}");
                let entry = buckets.entry(series_key).or_insert((0, None));
                assert!(
                    entry.1.is_none(),
                    "bucket after le=\"+Inf\" in {base}: {line}"
                );
                assert!(
                    value >= entry.0,
                    "non-cumulative bucket in {base}: {line} after {}",
                    entry.0
                );
                entry.0 = value;
                if le == "+Inf" {
                    entry.1 = Some(value);
                }
            }
            "_count" => {
                let labels = series
                    .strip_prefix(name)
                    .unwrap()
                    .trim_start_matches('{')
                    .trim_end_matches('}');
                counts.insert(format!("{base}{{{labels}}}"), value);
            }
            _ => {} // `_sum`: any integer is fine
        }
    }

    for (series, (_, inf)) in &buckets {
        let inf = inf.unwrap_or_else(|| panic!("{series} has no le=\"+Inf\" bucket"));
        assert_eq!(
            counts.get(series).copied(),
            Some(inf),
            "{series}: +Inf bucket disagrees with _count"
        );
    }

    // The full serving-layer schema is present regardless of load.
    for name in [
        "record_cache_hits_total",
        "record_cache_misses_total",
        "record_cache_retargets_total",
        "record_cache_inflight_waits_total",
        "record_cache_evictions_total",
        "record_pool_sessions_created_total",
        "record_pool_sessions_reused_total",
        "record_pool_sessions_returned_total",
        "record_pool_sessions_dropped_total",
        "record_requests_served_total",
        "record_requests_rejected_total",
        "record_slow_traces_total",
        "record_failures_total",
        "record_cache_entries",
        "record_pools",
        "record_queue_depth",
        "record_inflight_requests",
        "record_request_latency_ns",
        "record_compile_phase_latency_ns",
        "record_retarget_phase_latency_ns",
    ] {
        assert!(types.contains_key(name), "family `{name}` missing");
    }
}

/// Reads the value of an unlabeled sample line (`prefix` includes the
/// trailing space, so `foo ` cannot match `foo_bar `).
fn sample_value(text: &str, prefix: &str) -> i64 {
    text.lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no sample `{prefix}`"))
        .parse()
        .unwrap_or_else(|_| panic!("bad sample `{prefix}`"))
}

/// Dumps the flight recorder over the wire: with a zero slow threshold
/// every compile so far was captured, so the ring must hold well-formed
/// Chrome traces attributed to real request ids.
fn debug_traces_check(client: &mut Client) {
    let traces = client.debug_traces().expect("debug-traces");
    assert!(!traces.is_empty(), "zero threshold but empty recorder");
    assert!(traces.len() <= 32, "ring exceeded its bound");
    for trace in &traces {
        assert_eq!(trace.request_id.len(), 16, "id: {}", trace.request_id);
        assert!(
            trace.request_id.chars().all(|c| c.is_ascii_hexdigit()),
            "id: {}",
            trace.request_id
        );
        assert!(!trace.function.is_empty(), "trace has its function");
        validate_chrome_json(&trace.chrome_json)
            .unwrap_or_else(|e| panic!("slow trace for {}: {e}", trace.function));
    }
}

/// Drives a tiny server (1 worker, queue depth 1) into overload: one
/// connection parks the worker, one fills the queue, the third must be
/// rejected with an `overloaded` line — which still carries a request
/// id, so rejected calls stay attributable in the access log.
fn overload_check() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let handle = Server::start("127.0.0.1:0", config).expect("bind loopback");
    let addr = handle.addr();

    // Park the single worker: connect and send nothing (the worker blocks
    // reading the first request line).
    let parked = TcpStream::connect(addr).expect("park worker");
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Fill the queue.
    let queued = TcpStream::connect(addr).expect("fill queue");
    std::thread::sleep(std::time::Duration::from_millis(100));

    // This one must be rejected at admission.
    let mut rejected = TcpStream::connect(addr).expect("third connection");
    rejected
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("write on rejected connection");
    let mut line = String::new();
    BufReader::new(&rejected)
        .read_line(&mut line)
        .expect("read rejection");
    assert!(
        line.contains("overloaded"),
        "expected overloaded rejection, got: {line}"
    );
    assert!(
        line.contains("request_id"),
        "rejection must carry a request id, got: {line}"
    );

    // The retry policy rides out the overload: the parked connections
    // are released during the first backoff, so a later attempt lands.
    let mut parked = Some((parked, queued));
    let mut attempts = 0u32;
    let policy = RetryPolicy {
        max_attempts: 5,
        base_delay_ms: 10,
        max_delay_ms: 100,
        ..RetryPolicy::default()
    };
    let stats = call_with_retry(addr, &policy, |client| {
        attempts += 1;
        if attempts == 2 {
            // Free the worker and the queue slot between attempts.
            parked.take();
        }
        client.stats()
    })
    .expect("retry must recover once the overload clears");
    assert!(attempts >= 2, "first attempt must have been rejected");
    assert!(stats.get("server").is_some(), "stats response: {stats}");

    handle.shutdown();
}
