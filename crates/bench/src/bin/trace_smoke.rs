//! CI trace smoke test: records a Chrome trace of one traced compile per
//! Figure 2 kernel, validates it, and writes it out.
//!
//! ```text
//! trace_smoke [--model NAME] [--out FILE]
//! ```
//!
//! Each kernel compiles in its own session, collecting into its own lane
//! (lane id = kernel index); the lanes merge with [`Trace::merge`].  The
//! retarget is not traced: its [`record_core::RetargetReport`] is its
//! record.  Two layers of validation run before the file is written:
//!
//! 1. [`Trace::validate`] on the in-memory trace — balanced begin/end
//!    pairs, monotonic timestamps per lane;
//! 2. [`record_core::validate_chrome_json`] on the serialized bytes —
//!    the file parses as JSON and every `"B"` event has an `"E"`.
//!
//! The written file loads directly in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.

use record_core::{validate_chrome_json, CompileRequest, Record, RetargetOptions, Trace};
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

    let target = Record::retarget(model.hdl, &RetargetOptions::default()).expect("model retargets");

    let kernels = kernels();
    let mut compiled = 0usize;
    let mut lanes = Vec::with_capacity(kernels.len());
    for (lane, k) in kernels.iter().enumerate() {
        let mut session = target.session();
        session.install_collector(lane as u32);
        compiled += usize::from(
            session
                .compile(&CompileRequest::new(k.source, k.function))
                .is_ok(),
        );
        lanes.push(session.take_trace().expect("collector installed above"));
    }
    let trace = Trace::merge(lanes);
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
        kernels.len()
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
