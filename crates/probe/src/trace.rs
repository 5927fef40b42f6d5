//! Trace events, the [`Collector`] that records them, and the collected
//! [`Trace`].

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// The innermost open span with the same label closed.
    End,
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub kind: EventKind,
    /// Span name.  `&'static str` by design: labels are part of the
    /// instrumentation vocabulary, not data, so recording one is a
    /// pointer copy.
    pub label: &'static str,
    /// Nanoseconds since the process trace epoch ([`crate::now_ns`]).
    pub ts_ns: u64,
}

/// The event buffer a [`crate::Probe`] records into: one lane.
///
/// A lane is one logical thread of work, such as one compile session.
/// Collectors are owned by exactly one thread; merging happens after
/// join by moving buffers into a [`Trace`], so no lock or atomic is
/// involved anywhere.
#[derive(Debug, Clone)]
pub struct Collector {
    lane: u32,
    events: Vec<TraceEvent>,
}

impl Collector {
    /// An empty collector recording into `lane`.
    pub fn new(lane: u32) -> Collector {
        Collector {
            lane,
            events: Vec::new(),
        }
    }

    /// The lane this collector records into.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Has nothing been recorded?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Converts the collected events into a single-lane [`Trace`].
    pub fn into_trace(self) -> Trace {
        Trace {
            lanes: vec![Lane {
                id: self.lane,
                events: self.events,
            }],
        }
    }

    /// A span opened at `ts_ns`.
    pub(crate) fn begin(&mut self, label: &'static str, ts_ns: u64) {
        self.events.push(TraceEvent {
            kind: EventKind::Begin,
            label,
            ts_ns,
        });
    }

    /// A span closed at `ts_ns`.
    pub(crate) fn end(&mut self, label: &'static str, ts_ns: u64) {
        self.events.push(TraceEvent {
            kind: EventKind::End,
            label,
            ts_ns,
        });
    }
}

/// One lane of a [`Trace`]: the ordered events of one collector.
#[derive(Debug, Clone)]
pub struct Lane {
    /// Lane id — becomes the `tid` of the Chrome trace.
    pub id: u32,
    /// Events in recording order.
    pub events: Vec<TraceEvent>,
}

/// A set of recorded lanes, ready for validation and export.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub lanes: Vec<Lane>,
}

impl Trace {
    /// Merges traces (e.g. one per compile session) into one.
    ///
    /// Pure moves — event buffers change owner, nothing is copied or
    /// locked.  Lane ids are kept as recorded; give each concurrent
    /// collector a distinct lane if the merged timeline should keep
    /// them apart.
    pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Trace {
        let mut lanes = Vec::new();
        for t in traces {
            lanes.extend(t.lanes);
        }
        Trace { lanes }
    }

    /// Total events across all lanes.
    pub fn event_count(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// Checks the structural invariants every well-formed trace has:
    ///
    /// * timestamps are monotonically non-decreasing within a lane;
    /// * begin/end events are balanced and properly nested (an `End`
    ///   always closes the innermost open span, whose label matches).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for lane in &self.lanes {
            let mut stack: Vec<&'static str> = Vec::new();
            let mut last_ts = 0u64;
            for (i, ev) in lane.events.iter().enumerate() {
                if ev.ts_ns < last_ts {
                    return Err(format!(
                        "lane {}: event {i} (`{}`) goes back in time: {} ns after {} ns",
                        lane.id, ev.label, ev.ts_ns, last_ts
                    ));
                }
                last_ts = ev.ts_ns;
                match ev.kind {
                    EventKind::Begin => stack.push(ev.label),
                    EventKind::End => match stack.pop() {
                        Some(open) if open == ev.label => {}
                        Some(open) => {
                            return Err(format!(
                                "lane {}: event {i} ends `{}` but `{open}` is open",
                                lane.id, ev.label
                            ));
                        }
                        None => {
                            return Err(format!(
                                "lane {}: event {i} ends `{}` with no span open",
                                lane.id, ev.label
                            ));
                        }
                    },
                }
            }
            if let Some(open) = stack.last() {
                return Err(format!("lane {}: span `{open}` never closed", lane.id));
            }
        }
        Ok(())
    }

    /// Sums the inclusive time of every span by label, at any depth and
    /// across lanes, labels in the order their first span closed
    /// (diagnostic helper for tests and quick printing).
    pub fn span_totals(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for lane in &self.lanes {
            let mut stack: Vec<(&'static str, u64)> = Vec::new();
            for ev in &lane.events {
                match ev.kind {
                    EventKind::Begin => stack.push((ev.label, ev.ts_ns)),
                    EventKind::End => {
                        if let Some((label, t0)) = stack.pop() {
                            let ns = ev.ts_ns.saturating_sub(t0);
                            match totals.iter_mut().find(|(l, _)| *l == label) {
                                Some((_, acc)) => *acc += ns,
                                None => totals.push((label, ns)),
                            }
                        }
                    }
                }
            }
        }
        totals
    }
}
