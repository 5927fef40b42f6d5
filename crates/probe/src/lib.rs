//! `record-probe`: structured tracing and phase metrics for the
//! retarget + compile pipeline.
//!
//! The pipeline is instrumented at three altitudes, cheapest first:
//!
//! * **Plain-field counters** live where the work happens (the BDD
//!   tables count cache hits, the selector counts rules tried, the
//!   allocator counts evictions).  They are always on — incrementing a
//!   local integer inside an already-allocating loop is free — and they
//!   are *read*, never written, by this crate.
//! * **[`Report`]s** aggregate one run: per-phase wall-clock
//!   nanoseconds plus the counter snapshot at phase end.  Reports are
//!   cheap enough to attach to every result (a dozen clock reads and
//!   two small `Vec`s per compilation).
//! * **[`Collector`]s** receive the full span stream of a compile —
//!   nested begin/end events with monotonic timestamps — for timeline
//!   tooling.  No collector is installed by default, and the [`Probe`]
//!   handle that pipeline code talks to degrades to a branch-on-null
//!   when disabled: the hot paths (BDD apply, grammar labelling) never
//!   see the probe at all, only phase boundaries do.
//! * **Fleet [`metrics`]** aggregate across requests and threads: the
//!   log-bucketed latency [`metrics::Histogram`], its lock-free
//!   [`metrics::AtomicHistogram`] form that every thread observes into
//!   in place, and a [`metrics::TextWriter`] for the Prometheus text
//!   exposition format.  A serving layer keeps these next to its atomic
//!   counters and exports them to a monitoring system; see the module
//!   docs.
//!
//! A [`Collector`] records events into a per-session [`Trace`] lane.
//! Lanes from concurrent sessions merge lock-free at join time — each
//! thread owns its collector, merging moves the event vectors.  A merged
//! [`Trace`] exports as Chrome trace-event JSON
//! ([`Trace::to_chrome_json`]) loadable in Perfetto or `chrome://tracing`,
//! and validates itself ([`Trace::validate`]): balanced begin/end pairs,
//! monotonic timestamps per lane.  [`validate_chrome_json`] checks the
//! exported text.
//!
//! The crate also holds the workspace's one JSON codec, [`json`]: the
//! Chrome export, the serving layer's wire protocol and the benchmark's
//! result lines all read and write through it.
//!
//! # Example
//!
//! ```
//! use record_probe::{validate_chrome_json, Collector, Probe, Trace};
//!
//! let mut sink = Collector::new(0);
//! let mut probe = Probe::attached(Some(&mut sink));
//! probe.begin("compile");
//! probe.begin("parse");
//! probe.end("parse");
//! probe.end("compile");
//! drop(probe);
//!
//! let trace = sink.into_trace();
//! trace.validate().expect("balanced and monotonic");
//! let json = trace.to_chrome_json("example");
//! validate_chrome_json(&json).expect("parses, every B has an E");
//! ```

mod chrome;
pub mod json;
pub mod metrics;
mod report;
mod trace;

pub use chrome::validate_chrome_json;
pub use report::{CounterVal, PhaseNs, Report};
pub use trace::{Collector, EventKind, Lane, Trace, TraceEvent};

use std::time::Instant;

/// The process-wide trace epoch: all collectors timestamp events as
/// nanoseconds since the first call, so lanes recorded by different
/// sessions (or threads) line up on one timeline.
fn epoch() -> Instant {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process trace epoch.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The handle pipeline code is threaded with.
///
/// A probe either borrows a [`Collector`] or is disabled.  Every method
/// starts with a null check, so a disabled probe costs one predictable
/// branch per *phase boundary* — the per-operation hot paths are not
/// instrumented through the probe at all (see the crate docs).  A
/// probe only traces: a caller that enforces a deadline compares it with
/// the [`Span`]s [`Probe::time`] returns.
#[derive(Default)]
pub struct Probe<'s> {
    sink: Option<&'s mut Collector>,
}

impl std::fmt::Debug for Probe<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl<'s> Probe<'s> {
    /// A probe with no collector: every call is a no-op.
    #[inline]
    pub fn disabled() -> Probe<'static> {
        Probe { sink: None }
    }

    /// A probe recording into `sink` when one is given, disabled
    /// otherwise.
    pub fn attached(sink: Option<&'s mut Collector>) -> Probe<'s> {
        // Touch the epoch now so the first event does not pay for the
        // OnceLock initialisation inside a span.
        let _ = epoch();
        Probe { sink }
    }

    /// Is a collector installed?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span.  Spans nest: close them in LIFO order.
    #[inline]
    pub fn begin(&mut self, label: &'static str) {
        if let Some(s) = &mut self.sink {
            s.begin(label, now_ns());
        }
    }

    /// Closes the innermost open span with this label.
    #[inline]
    pub fn end(&mut self, label: &'static str) {
        if let Some(s) = &mut self.sink {
            s.end(label, now_ns());
        }
    }

    /// Runs `body` inside span `label` and returns its result with the
    /// span's timestamps.
    ///
    /// The clock is read once when the span opens and once when it
    /// closes, and the collector receives those same two readings, so a
    /// [`Report`] phase recorded from the returned [`Span`] equals the
    /// traced span exactly.  The clock is read whether or not a
    /// collector is installed: reports are always on.
    pub fn time<T>(
        &mut self,
        label: &'static str,
        body: impl FnOnce(&mut Probe<'s>) -> T,
    ) -> (T, Span) {
        let begin_ns = now_ns();
        if let Some(s) = &mut self.sink {
            s.begin(label, begin_ns);
        }
        let out = body(self);
        let end_ns = now_ns();
        if let Some(s) = &mut self.sink {
            s.end(label, end_ns);
        }
        (out, Span { begin_ns, end_ns })
    }
}

/// The two clock readings of one [`Probe::time`] span ([`now_ns`] time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// When the span opened.
    pub begin_ns: u64,
    /// When the span closed.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(self) -> u64 {
        self.end_ns - self.begin_ns
    }
}

#[cfg(test)]
mod tests;
