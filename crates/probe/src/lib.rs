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
//! * **[`TraceSink`]s** receive the full span stream — nested
//!   begin/end events with monotonic timestamps — for timeline tooling.
//!   No sink is installed by default, and the [`Probe`] handle that
//!   pipeline code talks to degrades to a branch-on-null when disabled:
//!   the hot paths (BDD apply, grammar labelling) never see the probe
//!   at all, only phase boundaries do.
//! * **Fleet [`metrics`]** aggregate across requests and threads: a
//!   [`MetricsRegistry`] of counters, gauges and log-bucketed latency
//!   [`Histogram`]s, recorded on lock-free per-worker
//!   [`MetricsShard`]s and merged only at read (scrape) time.  This is
//!   what a serving layer exports to a monitoring system; see the
//!   module docs.
//!
//! The first-party sink is [`Collector`], which records events into a
//! per-session [`Trace`] lane.  Lanes from concurrent sessions (e.g.
//! `compile_batch` workers) merge lock-free at join time — each worker
//! owns its collector, merging moves the event vectors.  A merged
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
//! let mut probe = Probe::new(&mut sink);
//! probe.begin("retarget");
//! probe.begin("parse");
//! probe.count("hdl.modules", 3);
//! probe.end("parse");
//! probe.end("retarget");
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
pub use metrics::{
    CounterId, FamilyId, GaugeId, Histogram, HistogramId, MetricsBuilder, MetricsRegistry,
    MetricsShard,
};
pub use report::{CounterVal, PhaseNs, Report};
pub use trace::{Collector, EventKind, Lane, Trace, TraceEvent, TraceSink};

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
/// A probe either borrows a [`TraceSink`] or is disabled.  Every method
/// starts with a null check, so a disabled probe costs one predictable
/// branch per *phase boundary* — the per-operation hot paths are not
/// instrumented through the probe at all (see the crate docs).
/// A probe can also carry a **deadline**: an absolute [`now_ns`]
/// timestamp after which cooperative cancellation points (phase
/// boundaries in the compile pipeline) should abort.  The deadline is
/// orthogonal to tracing — a disabled probe can still enforce one — and
/// checking it is a branch on an `Option`, paid only at boundaries.
#[derive(Default)]
pub struct Probe<'s> {
    sink: Option<&'s mut dyn TraceSink>,
    /// Absolute deadline in [`now_ns`] time, if any.
    deadline_ns: Option<u64>,
}

impl std::fmt::Debug for Probe<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl<'s> Probe<'s> {
    /// A probe with no sink: every call is a no-op.
    #[inline]
    pub fn disabled() -> Probe<'static> {
        Probe {
            sink: None,
            deadline_ns: None,
        }
    }

    /// A probe feeding `sink`.
    pub fn new(sink: &'s mut dyn TraceSink) -> Probe<'s> {
        // Touch the epoch now so the first event does not pay for the
        // OnceLock initialisation inside a span.
        let _ = epoch();
        Probe {
            sink: Some(sink),
            deadline_ns: None,
        }
    }

    /// A probe feeding `sink` when one is given, disabled otherwise.
    pub fn attached(sink: Option<&'s mut dyn TraceSink>) -> Probe<'s> {
        match sink {
            Some(s) => Probe::new(s),
            None => Probe {
                sink: None,
                deadline_ns: None,
            },
        }
    }

    /// Is a sink installed?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Arms (or with `None` disarms) the cancellation deadline, given as
    /// an absolute [`now_ns`] timestamp.
    #[inline]
    pub fn set_deadline_ns(&mut self, deadline_ns: Option<u64>) {
        self.deadline_ns = deadline_ns;
    }

    /// The armed deadline, if any (absolute [`now_ns`] time).
    #[inline]
    pub fn deadline_ns(&self) -> Option<u64> {
        self.deadline_ns
    }

    /// Has the armed deadline passed?  Always `false` when disarmed.
    #[inline]
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline_ns.is_some_and(|d| now_ns() > d)
    }

    /// Reborrows the probe for passing further down the pipeline (the
    /// deadline travels with it).
    #[inline]
    pub fn reborrow(&mut self) -> Probe<'_> {
        Probe {
            sink: match &mut self.sink {
                Some(s) => Some(&mut **s),
                None => None,
            },
            deadline_ns: self.deadline_ns,
        }
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

    /// Records a named counter sample (an absolute value or a delta —
    /// the convention is per counter and documented at the call site).
    #[inline]
    pub fn count(&mut self, name: &'static str, value: u64) {
        if let Some(s) = &mut self.sink {
            s.counter(name, value, now_ns());
        }
    }

    /// Runs `body` inside span `label` and returns its result with the
    /// span's timestamps.
    ///
    /// The clock is read once when the span opens and once when it
    /// closes, and the sink receives those same two readings, so a
    /// [`Report`] phase recorded from the returned [`Span`] equals the
    /// traced span exactly.  The clock is read whether or not a sink is
    /// installed: reports are always on.
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
