//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <retarget-cold|compile-long|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives only public APIs (`Record::retarget`, `Target::compile` and
//! `execute`, `record_ir::interp`, an in-process `Server` with `Client`s),
//! checks every output it times, and prints one JSON result line last on
//! standard output.  `--trace 0` reports the end-to-end metrics, `--trace
//! 1` the per-layer ones.  `perfbench/README.md` documents the workloads,
//! the metrics and why each was chosen.

mod library;
mod metrics;
mod oracle;
mod pace;
mod run;
mod serve;
mod stats;

use metrics::{END_TO_END, PER_LAYER};
use run::RunOptions;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <retarget-cold|compile-long|serve-mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, RunOptions), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let opts = RunOptions {
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    };
    Ok((value("--workload")?.to_owned(), opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = run::one_malloc_arena().and_then(|()| run::pin_to_one_cpu()) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let outcome = match workload.as_str() {
        "retarget-cold" => library::retarget_cold(&opts),
        "compile-long" => library::compile_long(&opts),
        "serve-mix" => serve::serve_mix(&opts),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalogue: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    if !opts.trace {
        match run::peak_rss_mb() {
            Ok(mb) => {
                outcome.values.insert("peak_rss_mb", mb);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
        for (name, _) in END_TO_END {
            assert!(
                outcome.values.get(name).is_some_and(|v| *v > 0.0),
                "end-to-end metric `{name}` was not measured"
            );
        }
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    eprintln!(
        "perfbench: {workload} seed {}: {} attempted, {} failed",
        opts.seed, outcome.attempted, outcome.failed
    );
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            catalogue,
            &outcome.values
        )
    );
    ExitCode::SUCCESS
}
