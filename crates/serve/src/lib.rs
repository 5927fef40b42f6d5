//! `record-serve` — the compile service layer.
//!
//! PRs 1-6 made retargeting produce a frozen, shareable artifact and
//! compilation a pure function over it.  This crate turns that shape
//! into a long-running service:
//!
//! ```text
//!  client ──TCP──▶ admission queue ──▶ worker ──▶ TargetCache ──▶ SessionPool
//!                  (bounded; excess       │        retarget once    warm overlay
//!                   → `overloaded`)       │        per model key    pages per target
//!                                         ▼
//!                                  newline-delimited JSON responses
//! ```
//!
//! * [`TargetCache`] — content-addressed artifact cache: one retarget per
//!   distinct (normalized) HDL model, concurrent requesters coalesce onto
//!   a single in-flight retarget, ready artifacts share via `Arc`, LRU
//!   eviction beyond capacity.  Each ready entry owns its target's
//!   session pool, which goes when the entry is evicted.
//! * [`SessionPool`] — warm [`record_core::CompileSession`]s: finished
//!   sessions return their overlay pages (capacity, not contents) and
//!   later checkouts skip the arena growth path.  Pooled output is
//!   byte-identical to fresh-session output.
//! * [`Server`] / [`Client`] — a `std::net` TCP server (thread pool,
//!   bounded admission queue, per-request deadlines checked at compile
//!   phase boundaries) and its blocking client.
//! * Fault tolerance — compiler panics are contained at the session and
//!   retarget boundaries (`catch_unwind`) and surface as structured
//!   `internal` errors on the wire; poisoned sessions are discarded, not
//!   pooled.  Shutdown drains the admission queue before closing, and
//!   [`call_with_retry`] gives clients bounded exponential backoff with
//!   deterministic jitter on `overloaded`/transport failures.
//! * Observability — one [`ServeMetrics`] store holds every service
//!   counter and latency histogram as a named atomic field: workers, the
//!   cache and the pools update it in place, and the `stats` op and the
//!   optional `GET /metrics` HTTP listener read the same fields (the
//!   entries and pools gauges are read from the cache, whose entries own
//!   the pools, and the queue-depth gauge from the admission queue).
//!   Every response carries a `request_id`, the optional NDJSON access
//!   log and the slow-compile [`FlightRecorder`] key by it, and the
//!   `debug-traces` op dumps retained Chrome traces over the wire.
//!
//! Like the rest of the workspace, the crate has no external
//! dependencies.  The wire codec is the workspace's one JSON codec,
//! `record_probe::json`, re-exported here as [`Json`] / [`parse_json`].

mod cache;
mod client;
mod digest;
mod metrics;
mod pool;
mod proto;
mod server;

pub use cache::{CacheError, CacheStats, TargetCache};
pub use client::{
    call_with_retry, local_key, Client, CompileSpec, CompileSummary, Model, RetargetSummary,
    RetryPolicy, ServeError,
};
pub use digest::{model_key, parse_key, render_key, ModelKey};
pub use metrics::{AccessLog, FlightRecorder, RequestIds, ServeMetrics, SlowTrace};
pub use pool::{PoolStats, PooledSession, SessionPool};
pub use proto::{parse_request, CompileItem, ModelRef, Request};
pub use record_probe::json::{parse as parse_json, Json};
pub use server::{Server, ServerConfig, ServerHandle, MAX_LINE_BYTES};
