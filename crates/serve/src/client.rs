//! A blocking client for the compile service.
//!
//! One TCP connection, one in-flight request at a time (the protocol is
//! strictly request/response in order).  Typed wrappers cover the wire
//! operations; [`Client::request`] sends a raw [`Json`] line for anything
//! else.  Every response carries the server-assigned `request_id`
//! (surfaced on the summaries) for correlating with the server's access
//! log and flight recorder.
//!
//! Admission rejections and transport failures close the connection, so
//! retrying means reconnecting: [`call_with_retry`] runs an operation
//! against a fresh connection per attempt, backing off exponentially
//! between attempts with deterministic jitter ([`RetryPolicy`]).

use crate::digest::render_key;
use record_probe::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures: transport, framing, or structured errors
/// reported by the server.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure (also raised when the server closes mid-request).
    Io(std::io::Error),
    /// The response line was not valid protocol JSON.
    Protocol(String),
    /// Admission control rejected the connection.
    Overloaded,
    /// The request's deadline expired server-side; `phase` names the last
    /// completed compile phase.
    Timeout {
        /// Last completed phase.
        phase: String,
        /// Human-readable description.
        message: String,
    },
    /// Any other structured server error (`kind` from the wire:
    /// `unknown-key`, `pipeline`, `compile`, `protocol`).
    Remote {
        /// The error kind slug.
        kind: String,
        /// Human-readable description.
        message: String,
        /// Failure class for `compile` errors (e.g. `selector-gap`).
        class: Option<String>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport: {e}"),
            ServeError::Protocol(m) => write!(f, "bad response: {m}"),
            ServeError::Overloaded => write!(f, "server overloaded"),
            ServeError::Timeout { phase, message } => {
                write!(f, "deadline exceeded after `{phase}`: {message}")
            }
            ServeError::Remote { kind, message, .. } => write!(f, "{kind}: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl ServeError {
    /// Whether a retry on a fresh connection could plausibly succeed:
    /// admission rejections (`overloaded`) and transport failures.
    /// Structured server errors (`compile`, `timeout`, `internal`, ...)
    /// are deterministic and not worth retrying.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServeError::Overloaded | ServeError::Io(_))
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// The delay before retry `r` (0-based) is drawn from
/// `[step/2, step]` where `step = min(base_delay_ms << r, max_delay_ms)`;
/// the draw is a pure function of `seed` and `r` (SplitMix64), so a given
/// policy always produces the same schedule — reproducible tests, no
/// cross-process `Instant`/entropy dependence, and distinct seeds still
/// de-synchronize clients that got rejected together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff step before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Backoff step ceiling, in milliseconds.
    pub max_delay_ms: u64,
    /// Jitter seed; vary per client to spread synchronized retries.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            max_delay_ms: 250,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry `retry` (0-based), in milliseconds.
    /// Deterministic: same policy, same retry, same delay.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let step = self
            .base_delay_ms
            .saturating_mul(1u64 << retry.min(20))
            .min(self.max_delay_ms);
        let jitter = crate::metrics::splitmix64(self.seed.wrapping_add(u64::from(retry)));
        step / 2 + jitter % (step / 2 + 1)
    }
}

/// Runs `op` against a fresh connection, retrying (with the policy's
/// backoff) on [retryable](ServeError::is_retryable) failures.
///
/// Each attempt reconnects: overloaded servers reject at admission and
/// close the connection, so the old socket is useless by the time a
/// retry makes sense.
///
/// # Errors
///
/// The last attempt's error once `max_attempts` is exhausted, or the
/// first non-retryable error.
pub fn call_with_retry<T>(
    addr: impl ToSocketAddrs,
    policy: &RetryPolicy,
    mut op: impl FnMut(&mut Client) -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let mut retry = 0;
    loop {
        let result = Client::connect(&addr)
            .map_err(ServeError::Io)
            .and_then(|mut client| op(&mut client));
        match result {
            Ok(value) => return Ok(value),
            Err(e) if e.is_retryable() && retry + 1 < policy.max_attempts.max(1) => {
                std::thread::sleep(std::time::Duration::from_millis(policy.backoff_ms(retry)));
                retry += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Result of a `retarget` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetargetSummary {
    /// Content key for later `key`-addressed requests.
    pub key: String,
    /// Processor name from the model.
    pub processor: String,
    /// Grammar rule count.
    pub rules: u64,
    /// Server-assigned correlation id of this request.
    pub request_id: Option<String>,
}

/// Result of a successful `compile` request (or batch item).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileSummary {
    /// Content key of the artifact that compiled this kernel.
    pub key: String,
    /// Vertical RT operation count.
    pub ops: u64,
    /// Code size in instruction words.
    pub code_size: u64,
    /// Assembly listing, when the request asked for one.
    pub listing: Option<String>,
    /// Server-assigned correlation id of this request (absent on batch
    /// items — the id belongs to the batch response line).
    pub request_id: Option<String>,
}

/// How a compile request names its processor model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Model<'a> {
    /// Inline HDL (the server retargets on a miss).
    Hdl(&'a str),
    /// A rendered content key from a [`RetargetSummary`].
    Key(&'a str),
}

impl Model<'_> {
    fn field(&self) -> (&'static str, Json) {
        match self {
            Model::Hdl(hdl) => ("hdl", Json::str(*hdl)),
            Model::Key(key) => ("key", Json::str(*key)),
        }
    }
}

/// One kernel to compile, builder-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileSpec<'a> {
    source: &'a str,
    function: &'a str,
    deadline_ms: Option<u64>,
    listing: bool,
    baseline: bool,
    inject_panic: Option<&'a str>,
}

impl<'a> CompileSpec<'a> {
    /// Compile `function` of `source` under default options.
    pub fn new(source: &'a str, function: &'a str) -> CompileSpec<'a> {
        CompileSpec {
            source,
            function,
            deadline_ms: None,
            listing: false,
            baseline: false,
            inject_panic: None,
        }
    }

    /// Sets a per-request deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> CompileSpec<'a> {
        self.deadline_ms = Some(ms);
        self
    }

    /// Requests the assembly listing in the response.
    pub fn listing(mut self, on: bool) -> CompileSpec<'a> {
        self.listing = on;
        self
    }

    /// Selects the naive baseline compiler.
    pub fn baseline(mut self, on: bool) -> CompileSpec<'a> {
        self.baseline = on;
        self
    }

    /// Fault injection: asks the server to panic on entering the named
    /// compile phase (testing/chaos only; proves panic containment).
    pub fn inject_panic(mut self, phase: &'a str) -> CompileSpec<'a> {
        self.inject_panic = Some(phase);
        self
    }

    fn fields(&self) -> Vec<(String, Json)> {
        let mut fields = vec![
            ("source".to_owned(), Json::str(self.source)),
            ("function".to_owned(), Json::str(self.function)),
        ];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_owned(), Json::num(ms)));
        }
        if self.listing {
            fields.push(("listing".to_owned(), Json::Bool(true)));
        }
        let mut options = Vec::new();
        if self.baseline {
            options.push(("baseline", Json::Bool(true)));
        }
        if let Some(phase) = self.inject_panic {
            options.push(("inject_panic", Json::str(phase)));
        }
        if !options.is_empty() {
            fields.push(("options".to_owned(), Json::obj(options)));
        }
        fields
    }
}

/// A blocking connection to a compile server.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one raw request line and returns the (possibly `ok:false`)
    /// response object; structured server errors become [`ServeError`]s.
    ///
    /// # Errors
    ///
    /// Transport, framing and server-reported errors.
    pub fn request(&mut self, request: &Json) -> Result<Json, ServeError> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let response = json::parse(line.trim_end()).map_err(ServeError::Protocol)?;
        match response.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(response),
            Some(false) => Err(remote_error(&response)),
            None => Err(ServeError::Protocol("response missing `ok`".to_owned())),
        }
    }

    /// Retargets `hdl` (or hits the server's cache).
    ///
    /// # Errors
    ///
    /// Transport and server errors (`pipeline` for retarget failures).
    pub fn retarget(&mut self, hdl: &str) -> Result<RetargetSummary, ServeError> {
        let response = self.request(&Json::obj(vec![
            ("op", Json::str("retarget")),
            ("hdl", Json::str(hdl)),
        ]))?;
        Ok(RetargetSummary {
            key: str_field(&response, "key")?,
            processor: str_field(&response, "processor")?,
            rules: num_field(&response, "rules")?,
            request_id: opt_str_field(&response, "request_id"),
        })
    }

    /// Compiles one kernel.
    ///
    /// # Errors
    ///
    /// Transport and server errors; deadline expiry surfaces as
    /// [`ServeError::Timeout`].
    pub fn compile(
        &mut self,
        model: &Model<'_>,
        spec: &CompileSpec<'_>,
    ) -> Result<CompileSummary, ServeError> {
        let mut fields = vec![("op".to_owned(), Json::str("compile"))];
        let (k, v) = model.field();
        fields.push((k.to_owned(), v));
        fields.extend(spec.fields());
        let response = self.request(&Json::Obj(fields))?;
        compile_summary(&response)
    }

    /// Compiles several kernels on one warm server-side session; per-item
    /// failures come back as per-item `Err`s, not a batch failure.
    ///
    /// # Errors
    ///
    /// Transport errors and batch-level server errors (`unknown-key`,
    /// `pipeline`, `overloaded`).
    pub fn batch_compile(
        &mut self,
        model: &Model<'_>,
        specs: &[CompileSpec<'_>],
    ) -> Result<Vec<Result<CompileSummary, ServeError>>, ServeError> {
        let mut fields = vec![("op".to_owned(), Json::str("batch-compile"))];
        let (k, v) = model.field();
        fields.push((k.to_owned(), v));
        fields.push((
            "items".to_owned(),
            Json::Arr(specs.iter().map(|s| Json::Obj(s.fields())).collect()),
        ));
        let response = self.request(&Json::Obj(fields))?;
        let results = response
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::Protocol("batch response missing `results`".to_owned()))?;
        Ok(results
            .iter()
            .map(|item| match item.get("ok").and_then(Json::as_bool) {
                Some(true) => compile_summary(item),
                _ => Err(remote_error(item)),
            })
            .collect())
    }

    /// Fetches the server's cache/pool/request counters.
    ///
    /// # Errors
    ///
    /// Transport and framing errors.
    pub fn stats(&mut self) -> Result<Json, ServeError> {
        self.request(&Json::obj(vec![("op", Json::str("stats"))]))
    }

    /// Dumps the server's slow-compile flight recorder: every retained
    /// trace with its request id, function and compile time, oldest first.
    ///
    /// # Errors
    ///
    /// Transport and framing errors, and `no-recorder` when the server
    /// runs with the flight recorder disabled.
    pub fn debug_traces(&mut self) -> Result<Vec<crate::SlowTrace>, ServeError> {
        let response = self.request(&Json::obj(vec![("op", Json::str("debug-traces"))]))?;
        let traces = response
            .get("traces")
            .and_then(Json::as_arr)
            .ok_or_else(|| ServeError::Protocol("response missing `traces`".to_owned()))?;
        traces
            .iter()
            .map(|t| {
                Ok(crate::SlowTrace {
                    request_id: str_field(t, "request_id")?,
                    function: str_field(t, "function")?,
                    latency_ns: num_field(t, "latency_ns")?,
                    chrome_json: str_field(t, "trace")?,
                })
            })
            .collect()
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, ServeError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| ServeError::Protocol(format!("response missing `{key}`")))
}

fn num_field(v: &Json, key: &str) -> Result<u64, ServeError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ServeError::Protocol(format!("response missing `{key}`")))
}

fn opt_str_field(v: &Json, key: &str) -> Option<String> {
    v.get(key).and_then(Json::as_str).map(str::to_owned)
}

fn compile_summary(response: &Json) -> Result<CompileSummary, ServeError> {
    Ok(CompileSummary {
        key: str_field(response, "key")?,
        ops: num_field(response, "ops")?,
        code_size: num_field(response, "code_size")?,
        listing: response
            .get("listing")
            .and_then(Json::as_str)
            .map(str::to_owned),
        request_id: opt_str_field(response, "request_id"),
    })
}

fn remote_error(response: &Json) -> ServeError {
    let error = response.get("error");
    let field = |key: &str| {
        error
            .and_then(|e| e.get(key))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    let kind = field("kind").unwrap_or_else(|| "protocol".to_owned());
    let message = field("message").unwrap_or_default();
    match kind.as_str() {
        "overloaded" => ServeError::Overloaded,
        "timeout" => ServeError::Timeout {
            phase: field("phase").unwrap_or_default(),
            message,
        },
        _ => ServeError::Remote {
            kind,
            message,
            class: field("class"),
        },
    }
}

/// Convenience: the rendered content key for `hdl`, computed locally
/// (identical to the server's, same normalization and digest).
pub fn local_key(hdl: &str) -> String {
    render_key(crate::digest::model_key(hdl))
}
