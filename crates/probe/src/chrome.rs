//! Chrome trace-event JSON export.
//!
//! The [trace-event format] is the lingua franca of timeline viewers:
//! the emitted file loads in Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`.  Span events map to `"B"`/`"E"` duration events,
//! and each lane becomes a `tid` with a `thread_name` metadata record.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::{self, Json};
use crate::trace::{EventKind, Trace};

impl Trace {
    /// Serializes the trace as Chrome trace-event JSON.
    ///
    /// `process_name` labels the single `pid` all lanes share.
    /// Timestamps are emitted in microseconds with nanosecond precision
    /// (the format's `ts` unit is microseconds; fractions are allowed).
    pub fn to_chrome_json(&self, process_name: &str) -> String {
        let mut out = String::from("{\n  \"traceEvents\": [\n");
        let mut first = true;
        let mut push = |s: &str, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str("    ");
            out.push_str(s);
        };
        push(
            &format!(
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
                 \"args\": {{\"name\": {}}}}}",
                Json::str(process_name)
            ),
            &mut first,
        );
        for lane in &self.lanes {
            push(
                &format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                     \"args\": {{\"name\": \"lane-{}\"}}}}",
                    lane.id, lane.id
                ),
                &mut first,
            );
        }
        for lane in &self.lanes {
            for ev in &lane.events {
                let ts_us = ev.ts_ns as f64 / 1000.0;
                let line = match ev.kind {
                    EventKind::Begin => format!(
                        "{{\"name\": {}, \"cat\": \"record\", \"ph\": \"B\", \
                         \"ts\": {ts_us:.3}, \"pid\": 1, \"tid\": {}}}",
                        Json::str(ev.label),
                        lane.id
                    ),
                    EventKind::End => format!(
                        "{{\"name\": {}, \"cat\": \"record\", \"ph\": \"E\", \
                         \"ts\": {ts_us:.3}, \"pid\": 1, \"tid\": {}}}",
                        Json::str(ev.label),
                        lane.id
                    ),
                };
                push(&line, &mut first);
            }
        }
        out.push_str("\n  ],\n  \"displayTimeUnit\": \"ns\"\n}\n");
        out
    }
}

/// Checks an already-serialized Chrome trace: it parses as JSON, carries
/// a `traceEvents` array, and has as many `"E"` events as `"B"` events.
/// Full validation also runs [`Trace::validate`] on the source trace.
///
/// # Errors
///
/// The parse error, or a description of the first structural problem.
pub fn validate_chrome_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no `traceEvents` array")?;
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    let (begins, ends) = (count("B"), count("E"));
    if begins != ends {
        return Err(format!("unbalanced events: {begins} B vs {ends} E"));
    }
    Ok(())
}
