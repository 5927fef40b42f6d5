use crate::{Collector, Probe, Report, Trace};

#[test]
fn spans_nest_and_validate() {
    let mut sink = Collector::new(0);
    {
        let mut probe = Probe::attached(Some(&mut sink));
        probe.begin("outer");
        probe.begin("inner");
        probe.end("inner");
        probe.begin("inner"); // same label twice is fine
        probe.end("inner");
        probe.end("outer");
    }
    let trace = sink.into_trace();
    assert_eq!(trace.event_count(), 6);
    trace.validate().expect("well-formed");
    // Span totals see both `inner` intervals under one label.
    let totals = trace.span_totals();
    assert!(totals.iter().any(|&(l, _)| l == "inner"));
    assert!(totals.iter().any(|&(l, _)| l == "outer"));
}

#[test]
fn validate_catches_imbalance_and_mismatch() {
    let mut sink = Collector::new(1);
    sink.begin("a", 10);
    let unclosed = sink.clone().into_trace();
    assert!(unclosed.validate().unwrap_err().contains("never closed"));

    sink.end("b", 20);
    let mismatched = sink.clone().into_trace();
    assert!(mismatched.validate().unwrap_err().contains("`a` is open"));

    let mut lone = Collector::new(2);
    lone.end("x", 5);
    let err = lone.into_trace().validate().unwrap_err();
    assert!(err.contains("no span open"), "{err}");
}

#[test]
fn validate_catches_time_travel() {
    let mut sink = Collector::new(0);
    sink.begin("a", 100);
    sink.end("a", 50);
    let err = sink.into_trace().validate().unwrap_err();
    assert!(err.contains("back in time"), "{err}");
}

#[test]
fn disabled_probe_is_inert() {
    let mut probe = Probe::disabled();
    assert!(!probe.enabled());
    probe.begin("x");
    probe.end("x");
    probe.end("never-opened"); // still a no-op, nothing to violate
}

#[test]
fn collectors_merge_lock_free_under_thread_scope() {
    // Concurrent sessions: one collector per thread, owned by its
    // thread, merged by move after join.
    let workers = 4;
    let mut collectors: Vec<Option<Collector>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut sink = Collector::new(w);
                    {
                        let mut probe = Probe::attached(Some(&mut sink));
                        for _ in 0..10 {
                            probe.begin("compile");
                            probe.begin("select");
                            probe.end("select");
                            probe.end("compile");
                        }
                    }
                    sink
                })
            })
            .collect();
        for h in handles {
            collectors.push(Some(h.join().expect("worker panicked")));
        }
    });
    let trace = Trace::merge(collectors.into_iter().flatten().map(Collector::into_trace));
    assert_eq!(trace.lanes.len(), workers as usize);
    assert_eq!(trace.event_count(), workers as usize * 10 * 4);
    trace
        .validate()
        .expect("each lane independently well-formed");
    // Lane ids survive the merge.
    let mut ids: Vec<u32> = trace.lanes.iter().map(|l| l.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..workers).collect::<Vec<_>>());
}

#[test]
fn chrome_export_is_shaped_and_escaped() {
    let mut sink = Collector::new(0);
    sink.begin("phase", 1_500);
    sink.end("phase", 2_500);
    let trace = sink.into_trace();
    let json = trace.to_chrome_json("demo \"quoted\"\n");
    crate::validate_chrome_json(&json).expect("parses and balances");
    assert!(json.contains("\\\"quoted\\\"\\n"), "escapes applied");
    assert!(json.contains("\"ts\": 1.500"), "ns -> µs conversion");

    // Validation catches an unbalanced document, one that is not JSON,
    // and one without the event array.
    let err = crate::validate_chrome_json("{\"traceEvents\": [{\"ph\": \"B\"}]}").unwrap_err();
    assert!(err.contains("unbalanced events"), "{err}");
    assert!(crate::validate_chrome_json("{\"traceEvents\": [}").is_err());
    assert!(crate::validate_chrome_json("{\"ph\": \"E\"}").is_err());
}

#[test]
fn report_accumulates_and_renders() {
    let mut r = Report::default();
    r.phase("select", 1_000);
    r.phase("emit", 3_000);
    r.phase("select", 500); // accumulates
    r.count("ops", 10);
    r.count("ops", 2);
    r.count("spills", 0);
    assert_eq!(r.phase_ns("select"), Some(1_500));
    assert_eq!(r.phase_ns("emit"), Some(3_000));
    assert_eq!(r.phase_ns("parse"), None);
    assert_eq!(r.counter("ops"), Some(12));
    assert_eq!(r.phase_total_ns(), 4_500);

    let table = r.render_table("compile fir on tms320c25");
    assert!(table.contains("select"));
    assert!(table.contains("1.5 µs"));
    assert!(table.contains("ops"));
}
