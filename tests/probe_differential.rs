//! Observability differential: tracing must be *observation only*.
//! Compiling with a collector installed has to produce byte-identical
//! code to compiling without one, for every kernel × model pair — and
//! the traces themselves must be well-formed (balanced spans, monotonic
//! timestamps) and export as loadable Chrome trace JSON.

use record_core::{validate_chrome_json, CompileRequest, CompiledKernel, Record, RetargetOptions};
use record_probe::metrics::AtomicHistogram;
use record_targets::{kernels, models};

fn assert_same_code(traced: &CompiledKernel, plain: &CompiledKernel, label: &str) {
    assert_eq!(traced.ops, plain.ops, "{label}: op sequences differ");
    assert_eq!(traced.schedule, plain.schedule, "{label}: schedules differ");
    assert_eq!(traced.alloc, plain.alloc, "{label}: AllocStats differ");
    let traced_binding: Vec<_> = traced.binding.assignments().collect();
    let plain_binding: Vec<_> = plain.binding.assignments().collect();
    assert_eq!(traced_binding, plain_binding, "{label}: bindings differ");
}

/// An installed collector changes nothing about the generated code: for
/// every kernel × model pair, a traced session compile equals the
/// untraced one-shot compile bit for bit, and errors classify
/// identically.
#[test]
fn traced_compile_is_byte_identical_to_untraced() {
    let mut checked = 0usize;
    for model in models::models() {
        let target = Record::retarget(model.hdl, &RetargetOptions::default())
            .unwrap_or_else(|e| panic!("{} failed to retarget: {e}", model.name));
        for kernel in kernels::kernels() {
            let label = format!("{}/{}", model.name, kernel.name);
            let request = CompileRequest::new(kernel.source, kernel.function);
            let plain = target.compile(&request);
            let mut session = target.session();
            session.install_collector(7);
            let traced = session.compile(&request);
            let trace = session.take_trace().expect("collector was installed");
            trace
                .validate()
                .unwrap_or_else(|e| panic!("{label}: trace invalid: {e}"));
            validate_chrome_json(&trace.to_chrome_json(&label))
                .unwrap_or_else(|e| panic!("{label}: chrome JSON invalid: {e}"));
            match (&traced, &plain) {
                (Ok(t), Ok(p)) => {
                    assert_same_code(t, p, &label);
                    assert!(
                        trace.event_count() > 0,
                        "{label}: successful compile recorded no events"
                    );
                }
                (Err(t), Err(p)) => {
                    assert_eq!(t, p, "{label}: errors differ");
                    assert_eq!(
                        t.classify(),
                        p.classify(),
                        "{label}: failure classes differ"
                    );
                }
                _ => panic!("{label}: traced and untraced disagree on success"),
            }
            checked += 1;
        }
    }
    assert!(checked >= 50, "checked {checked} pairs");
}

/// Fleet metrics are observation-only too: a compile whose report is
/// recorded into per-phase latency histograms (as the serving layer
/// records it, with a collector installed like the flight recorder
/// installs one) produces byte-identical code to a bare compile — and
/// the histograms afterwards hold exactly the observations the reports
/// claimed.
#[test]
fn metered_compile_is_byte_identical_to_unmetered() {
    let phases = [
        "parse", "lower", "bind", "select", "emit", "allocate", "compact",
    ];
    let histograms: [AtomicHistogram; 7] = Default::default();

    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    let mut expected_observations = 0u64;
    let mut checked = 0usize;
    for kernel in kernels::kernels() {
        let label = format!("tms320c25/{}", kernel.name);
        let request = CompileRequest::new(kernel.source, kernel.function);
        let plain = target.compile(&request);
        // The metered path mirrors the serving layer: collector armed,
        // report phases observed into lock-free histograms afterwards.
        let mut session = target.session();
        session.install_collector(0);
        let metered = session.compile(&request);
        if let Ok(kernel) = &metered {
            for p in &kernel.report.phases {
                if let Some(i) = phases.iter().position(|&l| l == p.label) {
                    histograms[i].observe(p.ns);
                    expected_observations += 1;
                }
            }
        }
        match (&metered, &plain) {
            (Ok(m), Ok(p)) => assert_same_code(m, p, &label),
            (Err(m), Err(p)) => assert_eq!(m, p, "{label}: errors differ"),
            _ => panic!("{label}: metered and unmetered disagree on success"),
        }
        checked += 1;
    }
    assert!(checked >= 10, "checked {checked} kernels");

    // The histograms saw every recorded phase, no more, no less.
    let total: u64 = histograms.iter().map(|h| h.snapshot().count()).sum();
    assert_eq!(total, expected_observations, "histogram observation count");
    assert!(total > 0, "no phase observations recorded");
}

/// The always-on report tells the truth: phases cover the pipeline that
/// actually ran, and the counters match observable output properties.
#[test]
fn compile_reports_are_attached_and_consistent() {
    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();

    let retarget_report = &target.report().report;
    for phase in [
        "parse",
        "extract",
        "template-gen",
        "rule-gen",
        "selector-gen",
        "freeze",
    ] {
        assert!(
            retarget_report.phase_ns(phase).is_some(),
            "retarget report misses phase `{phase}`"
        );
    }
    assert!(target.report().total_ns >= retarget_report.phase_ns("extract").unwrap());

    let all_kernels = kernels::kernels();
    let kernel = all_kernels
        .iter()
        .find(|k| k.name == "fir")
        .expect("fir kernel exists");
    let compiled = target
        .compile(&CompileRequest::new(kernel.source, kernel.function))
        .expect("fir compiles on c25");
    for phase in [
        "parse", "lower", "bind", "select", "emit", "allocate", "compact",
    ] {
        assert!(
            compiled.report.phase_ns(phase).is_some(),
            "compile report misses phase `{phase}`"
        );
    }
    assert!(
        compiled.report.counter("emit.statements").unwrap_or(0) > 0,
        "no statements counted"
    );
    assert!(
        compiled.report.counter("select.rules-tried").unwrap_or(0) > 0,
        "no selector work counted"
    );
    // BDD counter deltas are session-scoped and must reflect real work.
    assert!(
        compiled.report.counter("bdd.unique-lookups").unwrap_or(0) > 0,
        "no BDD work counted"
    );
}

/// Reports and spans read one clock: each compile report phase is its
/// trace span's end minus begin exactly, and `select + emit` is the
/// `codegen` span.
#[test]
fn report_phases_equal_their_spans() {
    let span_ns = |trace: &record_core::Trace, label: &str| {
        let spans = trace.span_totals();
        let (_, ns) = spans
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("no `{label}` span"));
        *ns
    };

    let model = models::model("ref").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    let kernel = kernels::kernel("fir").unwrap();
    let mut session = target.session();
    session.install_collector(1);
    let compiled = session
        .compile(&CompileRequest::new(kernel.source, kernel.function))
        .unwrap();
    let trace = session.take_trace().unwrap();
    let report = &compiled.report;
    for phase in ["parse", "lower", "bind", "allocate", "compact"] {
        assert_eq!(
            report.phase_ns(phase),
            Some(span_ns(&trace, phase)),
            "compile phase `{phase}`"
        );
    }
    let select_emit = report.phase_ns("select").unwrap() + report.phase_ns("emit").unwrap();
    assert_eq!(select_emit, span_ns(&trace, "codegen"));
}
