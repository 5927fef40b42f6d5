//! CI trace smoke test: records a Chrome trace for one retarget plus a
//! traced compile batch, validates it, and writes it out.
//!
//! ```text
//! trace_smoke [--model NAME] [--out FILE]
//! ```
//!
//! Two layers of validation run before the file is written:
//!
//! 1. [`Trace::validate`] on the in-memory trace — balanced begin/end
//!    pairs, monotonic timestamps per lane;
//! 2. [`record_core::validate_chrome_json`] on the serialized bytes —
//!    the file parses as JSON and every `"B"` event has an `"E"`.
//!
//! The written file loads directly in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.

use record_core::{
    validate_chrome_json, Collector, CompileRequest, Probe, Record, RetargetOptions, Trace,
};
use record_targets::{kernels, models};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut model_name = "tms320c25".to_owned();
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--model" => model_name = value("--model"),
            "--out" => out = Some(value("--out")),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: trace_smoke [--model NAME] [--out FILE]");
                return ExitCode::FAILURE;
            }
        }
    }

    let model =
        models::model(&model_name).unwrap_or_else(|| panic!("no model named `{model_name}`"));

    // Lane 1000: the retarget run (batch lanes are request indices, so a
    // high id keeps the retarget lane visually separate).
    let mut sink = Collector::new(1000);
    let target = {
        let mut probe = Probe::new(&mut sink);
        Record::retarget_probed(model.hdl, &RetargetOptions::default(), &mut probe)
            .expect("model retargets")
    };
    let retarget_trace = sink.into_trace();

    // A traced batch over every kernel: one lane per request, merged
    // lock-free at join.
    let requests: Vec<_> = kernels()
        .iter()
        .map(|k| CompileRequest::new(k.source, k.function))
        .collect();
    let (results, compile_trace) = target.compile_batch_traced(&requests);
    let compiled = results.iter().filter(|r| r.is_ok()).count();

    let trace = Trace::merge([retarget_trace, compile_trace]);
    if let Err(e) = trace.validate() {
        eprintln!("trace validation failed: {e}");
        return ExitCode::FAILURE;
    }

    let json = trace.to_chrome_json(&format!("record: {model_name}"));
    if let Err(e) = validate_chrome_json(&json) {
        eprintln!("chrome JSON check failed: {e}");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "trace ok: {} lanes, {} events ({compiled}/{} kernels compile on {model_name})",
        trace.lanes.len(),
        trace.event_count(),
        requests.len()
    );
    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}
