//! End-to-end service test: a real server on a loopback socket, eight
//! concurrent clients across two HDL models, exactly one retarget per
//! model (proved by the served counters), listings byte-identical to
//! local fresh compiles, structured timeouts, and admission control.

use record_core::{CompileRequest, Record, RetargetOptions};
use record_serve::{
    call_with_retry, local_key, parse_json, Client, CompileSpec, Json, Model, RetryPolicy,
    ServeError, Server, ServerConfig, MAX_LINE_BYTES,
};
use record_targets::{kernels, models};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

#[test]
fn eight_concurrent_clients_two_models_one_retarget_each() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();

    let model_names = ["ref", "tms320c25"];
    let picks: Vec<_> = kernels::kernels().into_iter().take(4).collect();

    // Local reference listings, compiled on fresh sessions: what the
    // server's pooled sessions must reproduce byte for byte.
    let mut expected: Vec<Vec<String>> = Vec::new();
    for name in model_names {
        let hdl = models::model(name).unwrap().hdl;
        let target = Record::retarget(hdl, &RetargetOptions::default()).unwrap();
        expected.push(
            picks
                .iter()
                .map(|k| {
                    let kernel = target
                        .compile(&CompileRequest::new(k.source, k.function))
                        .unwrap();
                    target.listing(&kernel)
                })
                .collect(),
        );
    }

    // Eight clients, four per model, all hammering the server at once.
    std::thread::scope(|scope| {
        for client_id in 0..8 {
            let model_idx = client_id % 2;
            let expected = &expected[model_idx];
            let picks = &picks;
            scope.spawn(move || {
                let hdl = models::model(model_names[model_idx]).unwrap().hdl;
                let mut client = Client::connect(addr).expect("connect");

                // Half the clients go through explicit retarget + key
                // addressing, half send inline HDL; both routes must
                // coalesce on the cache.
                let key_storage;
                let model = if client_id < 4 {
                    let summary = client.retarget(hdl).expect("retarget");
                    assert_eq!(summary.key, local_key(hdl), "client {client_id}");
                    key_storage = summary.key;
                    Model::Key(&key_storage)
                } else {
                    Model::Hdl(hdl)
                };

                for (kernel, want) in picks.iter().zip(expected) {
                    let got = client
                        .compile(
                            &model,
                            &CompileSpec::new(kernel.source, kernel.function).listing(true),
                        )
                        .unwrap_or_else(|e| panic!("client {client_id} {}: {e}", kernel.name));
                    assert_eq!(
                        got.listing.as_deref(),
                        Some(want.as_str()),
                        "client {client_id} {}: served listing differs from fresh local compile",
                        kernel.name
                    );
                }

                // And a batch on one warm session, same guarantee.
                let specs: Vec<_> = picks
                    .iter()
                    .map(|k| CompileSpec::new(k.source, k.function).listing(true))
                    .collect();
                let results = client.batch_compile(&model, &specs).expect("batch");
                for ((result, want), kernel) in results.iter().zip(expected).zip(picks.iter()) {
                    let got = result.as_ref().unwrap_or_else(|e| {
                        panic!("client {client_id} batch {}: {e}", kernel.name)
                    });
                    assert_eq!(
                        got.listing.as_deref(),
                        Some(want.as_str()),
                        "{}",
                        kernel.name
                    );
                }
            });
        }
    });

    // The cache retargeted each model exactly once, everything else hit.
    let mut client = Client::connect(addr).expect("connect for stats");
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(
        cache.get("retargets").and_then(Json::as_u64),
        Some(2),
        "one retarget per model: {stats}"
    );
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(2));
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
    let waits = cache.get("inflight_waits").and_then(Json::as_u64).unwrap();
    assert!(hits >= 8, "coalesced requests hit the cache: {stats}");
    let pools = stats.get("pools").expect("pools section");
    assert_eq!(pools.get("count").and_then(Json::as_u64), Some(2));
    assert!(
        pools.get("reused").and_then(Json::as_u64).unwrap() > 0,
        "warm sessions were reused: {stats}"
    );
    let _ = waits;

    drop(client);
    server.shutdown();
}

#[test]
fn injected_panic_is_contained_and_worker_survives() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let hdl = models::model("ref").unwrap().hdl;
    let kernel = kernels::kernels()[0];
    let mut client = Client::connect(addr).expect("connect");

    // A mid-compile panic (injected at the emit phase) must come back as
    // a structured `internal` error, not a dead connection.
    for phase in ["parse", "bind", "emit", "compact"] {
        let err = client
            .compile(
                &Model::Hdl(hdl),
                &CompileSpec::new(kernel.source, kernel.function).inject_panic(phase),
            )
            .expect_err("injected panic must fail the request");
        match &err {
            ServeError::Remote {
                kind,
                message,
                class,
            } => {
                assert_eq!(kind, "internal", "{err}");
                assert!(message.contains("injected panic"), "{message}");
                assert_eq!(class.as_deref(), Some("internal"), "{err}");
            }
            other => panic!("expected internal error, got {other}"),
        }
    }

    // The single worker survived all four panics: the same connection
    // compiles normally afterwards, byte-identical to a local compile.
    let target = Record::retarget(hdl, &RetargetOptions::default()).unwrap();
    let want = {
        let k = target
            .compile(&CompileRequest::new(kernel.source, kernel.function))
            .unwrap();
        target.listing(&k)
    };
    let got = client
        .compile(
            &Model::Hdl(hdl),
            &CompileSpec::new(kernel.source, kernel.function).listing(true),
        )
        .expect("worker serves normally after contained panics");
    assert_eq!(got.listing.as_deref(), Some(want.as_str()));

    // Poisoned sessions were discarded, never recycled into the pool.
    let stats = client.stats().expect("stats");
    let pools = stats.get("pools").expect("pools section");
    assert!(
        pools.get("dropped").and_then(Json::as_u64).unwrap() >= 4,
        "poisoned sessions must be dropped: {stats}"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_queued_connections() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let hdl = models::model("ref").unwrap().hdl;
    let kernel = kernels::kernels()[0];

    // Client A occupies the single worker: one served request, then the
    // connection idles open (a worker stays on a connection until it
    // closes or shutdown begins).
    let mut held = Client::connect(addr).expect("connect A");
    held.compile(
        &Model::Hdl(hdl),
        &CompileSpec::new(kernel.source, kernel.function),
    )
    .expect("warm-up compile");

    // Client B is admitted and queued behind A, with a request already
    // pipelined; no worker will reach it until shutdown releases A.
    let mut queued = Client::connect(addr).expect("connect B");
    std::thread::sleep(std::time::Duration::from_millis(100));

    let shutdown = std::thread::spawn(move || server.shutdown());

    // The drain must still serve B's request rather than dropping the
    // queued connection on the floor.
    let got = queued
        .compile(
            &Model::Hdl(hdl),
            &CompileSpec::new(kernel.source, kernel.function),
        )
        .expect("queued connection is served during drain");
    assert!(got.code_size > 0);

    drop(queued);
    drop(held);
    shutdown.join().expect("shutdown thread");
}

#[test]
fn retry_policy_recovers_from_overload() {
    // Deterministic schedule: pure function of (seed, retry index),
    // step-bounded on both sides.
    let policy = RetryPolicy {
        max_attempts: 5,
        base_delay_ms: 8,
        max_delay_ms: 50,
        seed: 42,
    };
    for retry in 0..8 {
        let d = policy.backoff_ms(retry);
        assert_eq!(d, policy.backoff_ms(retry), "deterministic");
        let step = (8u64 << retry).min(50);
        assert!(d >= step / 2 && d <= step, "retry {retry}: {d} vs {step}");
    }

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let hdl = models::model("ref").unwrap().hdl;
    let kernel = kernels::kernels()[0];

    // Saturate: one connection holds the worker, one fills the queue.
    let mut worker_hog = Client::connect(addr).expect("connect hog");
    worker_hog
        .compile(
            &Model::Hdl(hdl),
            &CompileSpec::new(kernel.source, kernel.function),
        )
        .expect("hog compile");
    let queue_hog = Client::connect(addr).expect("connect queue hog");
    std::thread::sleep(std::time::Duration::from_millis(100));

    // A direct attempt is rejected at admission.
    let mut rejected = Client::connect(addr).expect("connect rejected");
    let err = rejected.stats().expect_err("queue is full");
    assert!(matches!(err, ServeError::Overloaded), "{err}");

    // With retry, the client rides out the overload: the saturating
    // connections are released during the backoff and a later attempt
    // lands.
    let mut hogs = Some((worker_hog, queue_hog));
    let mut attempts = 0u32;
    let summary = call_with_retry(addr, &policy, |client| {
        attempts += 1;
        if attempts == 2 {
            // Free the worker and the queue slot between attempts.
            hogs.take();
        }
        client.compile(
            &Model::Hdl(hdl),
            &CompileSpec::new(kernel.source, kernel.function),
        )
    })
    .expect("retry must eventually succeed");
    assert!(summary.code_size > 0);
    assert!(attempts >= 2, "first attempt must have been rejected");

    server.shutdown();
}

#[test]
fn deadlines_and_admission_control_reject_structurally() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let hdl = models::model("ref").unwrap().hdl;
    let kernel = kernels::kernels()[0];

    let mut client = Client::connect(addr).expect("connect");

    // Zero budget: expires at the first phase boundary, long before
    // codegen; the error is structured, names a phase, and the
    // connection stays usable.
    let err = client
        .compile(
            &Model::Hdl(hdl),
            &CompileSpec::new(kernel.source, kernel.function).deadline_ms(0),
        )
        .expect_err("zero deadline must time out");
    match &err {
        ServeError::Timeout { phase, message } => {
            assert!(!phase.is_empty(), "{err}");
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected timeout, got {other}"),
    }

    // A generous deadline sails through on the same connection.
    client
        .compile(
            &Model::Hdl(hdl),
            &CompileSpec::new(kernel.source, kernel.function).deadline_ms(60_000),
        )
        .expect("generous deadline compiles");

    // Unknown keys are structured errors too.
    let err = client
        .compile(
            &Model::Key("00000000deadbeef"),
            &CompileSpec::new(kernel.source, kernel.function),
        )
        .expect_err("unknown key");
    assert!(
        matches!(&err, ServeError::Remote { kind, .. } if kind == "unknown-key"),
        "{err}"
    );

    drop(client);
    server.shutdown();
}

/// Sends one raw request line and reads the response line.
fn raw_call(conn: &mut BufReader<TcpStream>, line: &str) -> Json {
    conn.get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    conn.read_line(&mut response).expect("receive");
    parse_json(&response).unwrap_or_else(|e| panic!("response is not JSON ({e}): {response}"))
}

#[test]
fn deeply_nested_request_is_a_protocol_error() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut conn = BufReader::new(TcpStream::connect(server.addr()).expect("connect"));

    // Far deeper than the codec's nesting cap: a structured error, not a
    // worker overflowing its stack and taking the process down.
    let response = raw_call(&mut conn, &"[".repeat(100_000));
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    let kind = response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    assert_eq!(kind, Some("protocol"), "{response}");

    // The same connection and worker go on serving.
    let stats = raw_call(&mut conn, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");

    drop(conn);
    server.shutdown();
}

#[test]
fn overlong_request_line_is_a_protocol_error() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut conn = BufReader::new(TcpStream::connect(server.addr()).expect("connect"));

    // One byte past the cap and no newline: the worker answers as soon as
    // the line passes the cap instead of buffering until a newline.
    conn.get_mut()
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("send");
    let mut response = String::new();
    conn.read_line(&mut response).expect("receive");
    let response = parse_json(&response).expect("response is JSON");
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    let kind = response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    assert_eq!(kind, Some("protocol"), "{response}");

    // It closes that connection, and its one worker serves the next.
    let mut rest = String::new();
    assert_eq!(conn.read_line(&mut rest).expect("closed cleanly"), 0);
    let mut next = BufReader::new(TcpStream::connect(server.addr()).expect("connect"));
    let stats = raw_call(&mut next, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");

    drop(next);
    server.shutdown();
}

#[test]
fn non_utf8_request_line_is_a_protocol_error() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut conn = BufReader::new(TcpStream::connect(server.addr()).expect("connect"));

    conn.get_mut().write_all(b"\xff\xfe\n").expect("send");
    let mut response = String::new();
    conn.read_line(&mut response).expect("receive");
    let response = parse_json(&response).expect("response is JSON");
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    let kind = response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    assert_eq!(kind, Some("protocol"), "{response}");
    assert!(response.get("request_id").is_some(), "{response}");

    // The same connection goes on serving, and the bad line was counted.
    let stats = raw_call(&mut conn, r#"{"op":"stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
    let served = stats
        .get("server")
        .and_then(|s| s.get("served"))
        .and_then(Json::as_f64);
    assert_eq!(served, Some(1.0), "{stats}");

    drop(conn);
    server.shutdown();
}

#[test]
fn trickling_metrics_client_does_not_block_scrapes() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            metrics_addr: Some("127.0.0.1:0".to_owned()),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let metrics_addr = server.metrics_addr().expect("metrics listener is on");

    // Connected first, so the listener serves it first.  One byte every
    // 300 ms: never idle long enough for a per-read timeout, and never a
    // complete request line.
    let mut slow = TcpStream::connect(metrics_addr).expect("connect");
    let (stop, stopped) = mpsc::channel::<()>();
    let trickler = std::thread::spawn(move || {
        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(Duration::from_millis(300))
        {
            if slow.write_all(b"G").is_err() {
                break;
            }
        }
    });

    let started = Instant::now();
    let mut scrape = TcpStream::connect(metrics_addr).expect("connect");
    scrape
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("timeout");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("send");
    let mut body = String::new();
    let read = scrape.read_to_string(&mut body);
    let elapsed = started.elapsed();
    drop(stop);
    trickler.join().expect("trickler thread");

    assert!(
        read.is_ok(),
        "scrape unanswered after {elapsed:?}: {read:?}"
    );
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(
        elapsed < Duration::from_secs(2),
        "scrape took {elapsed:?} next to a trickling client"
    );
    server.shutdown();
}
