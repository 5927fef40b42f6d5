//! Per-phase median tables: one per model retarget, one per compiling
//! kernel x model pair, and a `FAILS phase/kind` line for every pair
//! that does not compile.
//!
//! ```text
//! perf_snapshot [--iters N]
//! ```
//!
//! `--iters N` is the number of timed runs each table takes the median
//! of (default 20).  The tables say which phase of one pair is hot; the
//! timing ledger is the repository benchmark (`perfbench/`), and the
//! golden files under `tests/golden/` pin what every pair generates.

use record_core::{CompileRequest, PhaseNs, Record, Report, RetargetOptions};
use record_targets::{control_kernels, kernels, models};
use std::process::ExitCode;

/// Per-phase medians over `reports`, in first-seen phase order.
fn phase_medians(reports: &[Report]) -> Report {
    let mut median = Report::default();
    for p in reports.iter().flat_map(|r| &r.phases) {
        if median.phase_ns(p.label).is_none() {
            let mut samples: Vec<u64> = reports
                .iter()
                .map(|r| r.phase_ns(p.label).unwrap_or(0))
                .collect();
            samples.sort_unstable();
            median.phases.push(PhaseNs {
                label: p.label,
                ns: samples[samples.len() / 2],
            });
        }
    }
    median
}

fn main() -> ExitCode {
    let mut iters = 20usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().map(|v| v.parse())) {
            ("--iters", Some(Ok(n))) if n > 0 => iters = n,
            _ => {
                eprintln!("usage: perf_snapshot [--iters N]   (N >= 1)");
                return ExitCode::FAILURE;
            }
        }
    }

    let options = RetargetOptions::default();
    for model in models() {
        let retarget = || Record::retarget(model.hdl, &options).expect("model retargets");
        let target = retarget();
        let mut reports = vec![target.report().report.clone()];
        reports.extend((1..iters).map(|_| retarget().report().report.clone()));
        let title = format!("retarget {} (median of {iters})", model.name);
        print!("{}", phase_medians(&reports).render_table(&title));

        for kernel in kernels().into_iter().chain(control_kernels()) {
            let request = CompileRequest::new(kernel.source, kernel.function);
            match target.compile(&request) {
                Ok(first) => {
                    let mut reports = vec![first.report];
                    reports.extend(
                        (1..iters).map(|_| target.compile(&request).expect("compiled once").report),
                    );
                    let title =
                        format!("compile {}/{} (median of {iters})", model.name, kernel.name);
                    print!("{}", phase_medians(&reports).render_table(&title));
                }
                Err(e) => println!(
                    "compile {}/{}: FAILS {}",
                    model.name,
                    kernel.name,
                    e.classify()
                ),
            }
        }
    }
    ExitCode::SUCCESS
}
