//! The request server: TCP accept loop, bounded admission queue, worker
//! pool.
//!
//! Layering: each worker serves whole connections; each request resolves
//! its model through the [`TargetCache`] (retarget-once, shared `Arc`s)
//! and compiles on a session checked out of that target's [`SessionPool`]
//! (warm overlay pages), which the target's cache entry owns.  Admission
//! control is explicit: when the pending queue is full, new connections
//! get an `overloaded` error line instead of an invisible wait, so
//! callers can shed load or back off.
//!
//! Observability: every counter and latency histogram of the service is
//! a named atomic field of one [`ServeMetrics`] store, which workers, the
//! cache and the pools update in place.  The optional `/metrics` HTTP
//! listener ([`ServerConfig::metrics_addr`]) and the NDJSON `stats` op
//! both read those fields, and both read the counts of entries and
//! pools from the cache, whose entries own the pools; `/metrics` alone
//! also reads the queue depth from the admission queue.  Every response
//! line carries a `request_id`, the same id the optional NDJSON access
//! log and the slow-compile [`FlightRecorder`] key their entries by — a
//! slow compile's full Chrome trace is retrievable over the wire with
//! the `debug-traces` op.

use crate::cache::TargetCache;
use crate::digest::{render_key, ModelKey};
use crate::metrics::{incr, AccessLog, FlightRecorder, RequestIds, ServeMetrics, SlowTrace};
use crate::proto::{
    cache_error_response, compile_error_response, error_response, parse_request, CompileItem,
    ModelRef, Request,
};
use record_core::{CompileRequest, RetargetOptions, Target};
use record_probe::json::Json;
use record_probe::now_ns;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest line the server reads: a request line on the NDJSON port,
/// a request or header line on the metrics port.  A request line past it
/// gets a `protocol` error and the connection is closed; the metrics port
/// closes without an answer.  So a client that never sends a newline
/// cannot grow a worker's memory without bound.  The largest bundled
/// model is under 12 KB of HDL.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How long one metrics connection may take, counted from accept: its
/// request, headers and response all share this budget.  The listener
/// serves one connection at a time, so a client that trickles bytes
/// holds off every other scraper for at most this long.
const METRICS_DEADLINE: Duration = Duration::from_secs(1);

/// Appends to `line` through the next newline, but never past one byte
/// more than [`MAX_LINE_BYTES`] in all.  Bytes read before an error stay
/// in `line`, so a read that timed out can be resumed.
fn read_capped_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> std::io::Result<usize> {
    let budget = (MAX_LINE_BYTES + 1).saturating_sub(line.len());
    std::io::Read::take(reader, budget as u64).read_until(b'\n', line)
}

/// Did [`read_capped_line`] stop at the cap before the line ended?
fn over_cap(line: &[u8]) -> bool {
    line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n")
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Connections allowed to wait for a worker; beyond this, admission
    /// control rejects with `overloaded`.
    pub queue_depth: usize,
    /// Retarget artifacts kept ready (LRU beyond this).
    pub cache_capacity: usize,
    /// Idle warm sessions kept per target.
    pub pool_max_idle: usize,
    /// Options every retarget runs under.
    pub retarget: RetargetOptions,
    /// Bind address for the plain-HTTP metrics listener (`GET /metrics`
    /// in Prometheus text exposition format); `None` disables it.
    pub metrics_addr: Option<String>,
    /// Flight-recorder threshold: compiles that take at least this long
    /// capture their full Chrome trace into the bounded trace ring.  `None`
    /// disables capture entirely (no collector is installed).
    pub slow_threshold_ms: Option<u64>,
    /// Slow traces retained (oldest evicted first).
    pub trace_ring: usize,
    /// Emit one NDJSON access-log line per request to stderr.
    pub access_log: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            cache_capacity: 8,
            pool_max_idle: 4,
            retarget: RetargetOptions::default(),
            metrics_addr: None,
            slow_threshold_ms: Some(1_000),
            trace_ring: 16,
            access_log: false,
        }
    }
}

struct Shared {
    cache: TargetCache,
    pool_max_idle: usize,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    queue_depth: usize,
    shutdown: AtomicBool,
    metrics: Arc<ServeMetrics>,
    recorder: Option<FlightRecorder>,
    access_log: Option<AccessLog>,
    ids: RequestIds,
}

/// Per-request context threaded through the handlers: which server,
/// which correlation id.
struct RequestCtx<'a> {
    shared: &'a Shared,
    request_id: &'a str,
}

/// The compile service.  See [`Server::start`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `addr` (and the metrics listener, when configured) and
    /// starts serving; returns a handle owning the accept and worker
    /// threads.
    ///
    /// # Errors
    ///
    /// I/O errors from binding either listener.
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let metrics = Arc::new(ServeMetrics::new());
        let shared = Arc::new(Shared {
            cache: TargetCache::with_counters(
                config.cache_capacity,
                config.retarget.clone(),
                Arc::clone(&metrics),
            ),
            pool_max_idle: config.pool_max_idle.max(1),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_depth: config.queue_depth.max(1),
            shutdown: AtomicBool::new(false),
            recorder: config
                .slow_threshold_ms
                .map(|ms| FlightRecorder::new(ms.saturating_mul(1_000_000), config.trace_ring)),
            access_log: config.access_log.then(AccessLog::stderr),
            ids: RequestIds::new(),
            metrics,
        });

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        let metrics_thread = match metrics_listener {
            Some(listener) => {
                let addr = listener.local_addr()?;
                let shared = Arc::clone(&shared);
                Some((
                    addr,
                    std::thread::spawn(move || metrics_loop(&listener, &shared)),
                ))
            }
            None => None,
        };

        Ok(ServerHandle {
            addr: local,
            shared,
            accept: Some(accept),
            workers,
            metrics: metrics_thread,
        })
    }
}

/// A running server; shuts down (joining all threads) on
/// [`ServerHandle::shutdown`] or drop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Option<(SocketAddr, JoinHandle<()>)>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics-listener address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|(addr, _)| *addr)
    }

    /// Graceful shutdown: stops accepting, drains the admission queue
    /// (every already-accepted connection is served until it closes or
    /// goes idle), then joins all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loops with throwaway connections and the
        // workers through the condvar.
        let _ = TcpStream::connect(self.addr);
        if let Some((addr, _)) = &self.metrics {
            let _ = TcpStream::connect(addr);
        }
        self.shared.queue_cv.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some((_, thread)) = self.metrics.take() {
            let _ = thread.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let mut queue = shared.queue.lock().expect("queue lock poisoned");
        if queue.len() >= shared.queue_depth {
            drop(queue);
            incr(&shared.metrics.rejected);
            // Rejections carry a request id too: a client that logs the
            // error line can still be correlated with the access log.
            let request_id = shared.ids.next_id();
            let mut stream = stream;
            let response = with_request_id(
                error_response("overloaded", "admission queue full, retry later"),
                &request_id,
            );
            if let Some(log) = &shared.access_log {
                log.write_line(&access_entry(&request_id, "rejected", &response, 0));
            }
            let _ = stream.write_all(format!("{response}\n").as_bytes());
            // Dropping the stream closes the connection.
        } else {
            queue.push_back(stream);
            drop(queue);
            shared.queue_cv.notify_one();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Drain order matters for graceful shutdown: a queued connection
        // is always popped and served before the shutdown flag is
        // consulted, so flipping the flag never strands an admitted
        // client — workers exit only once the queue is empty.
        let stream = {
            let mut queue = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("queue lock poisoned");
            }
        };
        serve_connection(shared, stream);
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // A short read timeout keeps shutdown bounded: a worker parked on an
    // idle connection re-checks the flag a few times a second instead of
    // blocking in `read` until the peer closes.
    let _ = read_half.set_read_timeout(Some(std::time::Duration::from_millis(200)));
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        // Reassemble one line across timeouts: the read appends, so a
        // partial line survives the retry.
        loop {
            match read_capped_line(&mut reader, &mut line) {
                Ok(0) => return,
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        // The request clock runs from the read line to the rendered
        // response line: decode, handling and encode, as the latency
        // histogram and the access log report them.
        let start = now_ns();
        let oversized = over_cap(&line);
        let parsed = if oversized {
            Err(format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            match std::str::from_utf8(&line) {
                Err(e) => Err(format!("request line is not UTF-8: {e}")),
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => parse_request(text.trim_end()),
            }
        };
        let request_id = shared.ids.next_id();
        shared.metrics.inflight.fetch_add(1, Ordering::Relaxed);
        let (op, response) = match parsed {
            Ok(request) => {
                let ctx = RequestCtx {
                    shared,
                    request_id: &request_id,
                };
                (op_name(&request), handle_request(&ctx, &request))
            }
            Err(message) => ("invalid", error_response("protocol", &message)),
        };
        shared.metrics.inflight.fetch_sub(1, Ordering::Relaxed);
        let response = with_request_id(response, &request_id);
        let response_line = format!("{response}\n");
        let latency_ns = now_ns().saturating_sub(start);
        shared.metrics.record_request(latency_ns);
        if let Some(log) = &shared.access_log {
            log.write_line(&access_entry(&request_id, op, &response, latency_ns));
        }
        if writer.write_all(response_line.as_bytes()).is_err() || oversized {
            return;
        }
        // No shutdown check here: during a drain, requests the client has
        // already pipelined still get answered.  The connection ends when
        // the client closes it or goes idle past the read timeout (the
        // timeout arm above re-checks the flag), so drains stay bounded.
    }
}

/// Appends the correlation id to a response object.
fn with_request_id(mut response: Json, request_id: &str) -> Json {
    if let Json::Obj(fields) = &mut response {
        fields.push(("request_id".to_owned(), Json::str(request_id)));
    }
    response
}

/// The access-log vocabulary for a request.
fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Retarget { .. } => "retarget",
        Request::Compile { .. } => "compile",
        Request::BatchCompile { .. } => "batch-compile",
        Request::Stats => "stats",
        Request::DebugTraces => "debug-traces",
    }
}

/// One NDJSON access-log line: timestamp, correlation id, op, outcome,
/// latency, and the error kind when the request failed.
fn access_entry(request_id: &str, op: &str, response: &Json, latency_ns: u64) -> Json {
    let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
    let mut fields = vec![
        ("ts_ns".to_owned(), Json::num(now_ns())),
        ("request_id".to_owned(), Json::str(request_id)),
        ("op".to_owned(), Json::str(op)),
        ("ok".to_owned(), Json::Bool(ok)),
        ("latency_ns".to_owned(), Json::num(latency_ns)),
    ];
    if let Some(kind) = response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
    {
        fields.push(("error_kind".to_owned(), Json::str(kind)));
    }
    Json::Obj(fields)
}

fn handle_request(ctx: &RequestCtx<'_>, request: &Request) -> Json {
    let shared = ctx.shared;
    match request {
        Request::Retarget { hdl } => match shared.cache.get_or_retarget(hdl) {
            Ok((key, target)) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("key", Json::str(render_key(key))),
                ("processor", Json::str(target.report().processor.clone())),
                ("rules", Json::num(target.report().rules as u64)),
                (
                    "templates",
                    Json::num(target.report().templates_extended as u64),
                ),
            ]),
            Err(e) => cache_error_response(&e),
        },
        Request::Compile { model, item } => match resolve(shared, model) {
            Ok((key, target)) => {
                let pool = shared.cache.pool(key, &target, shared.pool_max_idle);
                let mut session = pool.checkout();
                compile_response(ctx, key, &mut session, item)
            }
            Err(response) => response,
        },
        Request::BatchCompile { model, items } => match resolve(shared, model) {
            Ok((key, target)) => {
                let pool = shared.cache.pool(key, &target, shared.pool_max_idle);
                let mut session = pool.checkout();
                let mut results = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        // Roll the warm session back so every item sees
                        // fresh-session (byte-identical) output.
                        session.reset();
                    }
                    results.push(compile_response(ctx, key, &mut session, item));
                }
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("results", Json::Arr(results)),
                ])
            }
            Err(response) => response,
        },
        Request::Stats => stats_response(shared),
        Request::DebugTraces => debug_traces_response(shared),
    }
}

fn resolve(shared: &Shared, model: &ModelRef) -> Result<(ModelKey, Arc<Target>), Json> {
    match model {
        ModelRef::Hdl(hdl) => shared
            .cache
            .get_or_retarget(hdl)
            .map_err(|e| cache_error_response(&e)),
        ModelRef::Key(key) => shared
            .cache
            .get(*key)
            .map(|target| (*key, target))
            .ok_or_else(|| {
                error_response(
                    "unknown-key",
                    &format!("no cached artifact for key `{}`", render_key(*key)),
                )
            }),
    }
}

fn compile_response(
    ctx: &RequestCtx<'_>,
    key: ModelKey,
    session: &mut record_core::CompileSession<'_>,
    item: &CompileItem,
) -> Json {
    let shared = ctx.shared;
    let request =
        CompileRequest::new(&item.source, &item.function).with_options(item.options.clone());
    // The flight recorder needs the span stream of every compile that
    // *might* be slow, which is all of them — so when it is armed, every
    // compile traces.  Tracing is observation-only (the differential
    // test in `tests/probe_differential.rs` holds traced output
    // byte-identical to untraced), so this cannot change results.
    if shared.recorder.is_some() {
        session.install_collector(0);
    }
    let start = now_ns();
    let result = session.compile(&request);
    let elapsed_ns = now_ns().saturating_sub(start);
    let trace = session.take_trace();
    match &result {
        Ok(kernel) => shared.metrics.record_compile_phases(&kernel.report),
        Err(e) => shared.metrics.record_failure(&e.classify()),
    }
    if let (Some(recorder), Some(trace)) = (&shared.recorder, trace) {
        if elapsed_ns >= recorder.threshold_ns() {
            recorder.record(SlowTrace {
                request_id: ctx.request_id.to_owned(),
                function: item.function.clone(),
                latency_ns: elapsed_ns,
                chrome_json: trace.to_chrome_json("record-serve"),
            });
            incr(&shared.metrics.slow_traces);
        }
    }
    match result {
        Ok(kernel) => {
            let mut fields = vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("key".to_owned(), Json::str(render_key(key))),
                ("function".to_owned(), Json::str(item.function.clone())),
                ("ops".to_owned(), Json::num(kernel.ops.len() as u64)),
                ("code_size".to_owned(), Json::num(kernel.code_size() as u64)),
            ];
            if item.listing {
                fields.push((
                    "listing".to_owned(),
                    Json::str(session.target().listing(&kernel)),
                ));
            }
            Json::Obj(fields)
        }
        Err(mut e) => {
            e.set_request_id(ctx.request_id);
            compile_error_response(&e)
        }
    }
}

fn stats_response(shared: &Shared) -> Json {
    // Every number below reads what `/metrics` renders: a field of the
    // metrics store, or the cache's occupancy.
    let cache = shared.metrics.cache_stats();
    let pools = shared.metrics.pool_stats();
    let (served, rejected) = shared.metrics.server_counters();
    let (entries, pool_count) = shared.cache.occupancy();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        (
            "cache",
            Json::obj(vec![
                ("hits", Json::num(cache.hits)),
                ("misses", Json::num(cache.misses)),
                ("retargets", Json::num(cache.retargets)),
                ("inflight_waits", Json::num(cache.inflight_waits)),
                ("evictions", Json::num(cache.evictions)),
                ("entries", Json::num(entries as u64)),
            ]),
        ),
        (
            "pools",
            Json::obj(vec![
                ("count", Json::num(pool_count as u64)),
                ("created", Json::num(pools.created)),
                ("reused", Json::num(pools.reused)),
                ("returned", Json::num(pools.returned)),
                ("dropped", Json::num(pools.dropped)),
            ]),
        ),
        (
            "server",
            Json::obj(vec![
                ("served", Json::num(served)),
                ("rejected", Json::num(rejected)),
            ]),
        ),
    ])
}

fn debug_traces_response(shared: &Shared) -> Json {
    match &shared.recorder {
        None => error_response(
            "no-recorder",
            "flight recorder disabled (slow_threshold_ms unset)",
        ),
        Some(recorder) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("threshold_ns", Json::num(recorder.threshold_ns())),
            (
                "traces",
                Json::Arr(
                    recorder
                        .dump()
                        .into_iter()
                        .map(|t| {
                            Json::Obj(vec![
                                ("request_id".to_owned(), Json::str(t.request_id)),
                                ("function".to_owned(), Json::str(t.function)),
                                ("latency_ns".to_owned(), Json::num(t.latency_ns)),
                                // The Chrome trace travels as a JSON
                                // *string*: dump it to a file and load it
                                // in Perfetto as-is.
                                ("trace".to_owned(), Json::str(t.chrome_json)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

/// The metrics listener: a deliberately minimal HTTP/1.1 responder —
/// one request per connection, `GET /metrics` only, `Connection: close`.
/// Scrapers (Prometheus, curl) need nothing more, and keeping it trivial
/// keeps it off the compile path entirely.
fn metrics_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        serve_metrics_request(shared, &stream);
    }
}

/// A metrics connection whose every read and write must finish by one
/// deadline: each call gets only the time left, so a peer that sends or
/// drains a byte at a time cannot stretch the connection past it.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Deadlined<'_> {
    fn time_left(&self) -> std::io::Result<Duration> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.time_left()?))?;
        self.stream.read(buf)
    }
}

impl Write for Deadlined<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.set_write_timeout(Some(self.time_left()?))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

fn serve_metrics_request(shared: &Shared, stream: &TcpStream) {
    let mut reader = BufReader::new(Deadlined {
        stream,
        deadline: Instant::now() + METRICS_DEADLINE,
    });
    let mut request_line = Vec::new();
    if read_capped_line(&mut reader, &mut request_line).is_err() || over_cap(&request_line) {
        return;
    }
    // Drain the headers; the response does not depend on them.
    let mut header = Vec::new();
    loop {
        header.clear();
        match read_capped_line(&mut reader, &mut header) {
            Ok(0) => break,
            Ok(_) if over_cap(&header) => return,
            Ok(_) if header == b"\r\n" || header == b"\n" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    let request_line = String::from_utf8_lossy(&request_line);
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let (status, content_type, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        let (entries, pools) = shared.cache.occupancy();
        let queue_depth = shared.queue.lock().expect("queue lock poisoned").len();
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            shared
                .metrics
                .render_prometheus(entries, pools, queue_depth),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found; the only route is /metrics\n".to_owned(),
        )
    };
    let _ = write!(
        reader.get_mut(),
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}
