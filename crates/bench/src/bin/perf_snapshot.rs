//! Measures the perf snapshot (`BENCH_*.json`): retargeting time per
//! model, compile time per kernel x model pair, and the
//! machine-independent counters future perf PRs are gated on.
//!
//! ```text
//! perf_snapshot [--iters N] [--out FILE] [--check FILE] [--carry-pre-pr FILE] [--phases]
//! ```
//!
//! * `--iters N` — timed runs per measurement (median reported);
//!   default 20.  CI uses a tiny count because it only reads counters.
//! * `--out FILE` — write the snapshot JSON there (stdout otherwise).
//! * `--carry-pre-pr FILE` — copy the `"pre_pr"` member of an existing
//!   snapshot into the new one, so the trajectory keeps its anchor when
//!   refreshed.
//! * `--check FILE` — compare measured counters (BDD node count,
//!   template/rule counts, emitted ops/words) and, against a v2
//!   snapshot, the failure class of every `ok: false` pair, against a
//!   checked-in snapshot; exit non-zero on drift.  This is the
//!   bench-smoke gate: perf PRs must not silently change semantics.
//! * `--phases` — print human-readable per-phase median tables (one per
//!   model retarget, one per compiling kernel x model pair) instead of
//!   the snapshot JSON.

use record_bench::snapshot::{counter_drift, measure};
use record_core::{json, PhaseNs, Report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut iters = 20usize;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut carry: Option<String> = None;
    let mut phases = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--iters" => iters = value("--iters").parse().expect("--iters takes a number"),
            "--out" => out = Some(value("--out")),
            "--check" => check = Some(value("--check")),
            "--carry-pre-pr" => carry = Some(value("--carry-pre-pr")),
            "--phases" => phases = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: perf_snapshot [--iters N] [--out FILE] [--check FILE] [--carry-pre-pr FILE] [--phases]");
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!("measuring perf snapshot ({iters} iters per point)...");
    let snap = measure(iters);

    if phases {
        let table = |title: &str, medians: &[(&'static str, u128)]| {
            let report = Report {
                phases: medians
                    .iter()
                    .map(|&(label, ns)| PhaseNs {
                        label,
                        ns: ns as u64,
                    })
                    .collect(),
                counters: Vec::new(),
            };
            print!("{}", report.render_table(title));
        };
        for r in &snap.retarget {
            table(
                &format!("retarget {} (median of {iters})", r.model),
                &r.phases,
            );
        }
        for c in &snap.compile {
            if c.ok {
                table(
                    &format!("compile {}/{} (median of {iters})", c.model, c.kernel),
                    &c.phases,
                );
            } else {
                println!(
                    "compile {}/{}: FAILS {}/{}",
                    c.model,
                    c.kernel,
                    c.fail_phase.unwrap_or("?"),
                    c.fail_kind.as_deref().unwrap_or("?")
                );
            }
        }
        return ExitCode::SUCCESS;
    }

    if let Some(path) = check {
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read snapshot `{path}`: {e}"));
        let checked_in = json::parse(&src).unwrap_or_else(|e| panic!("bad snapshot `{path}`: {e}"));
        let drift = counter_drift(&snap, &checked_in);
        if drift.is_empty() {
            eprintln!(
                "counters match `{path}` ({} retarget rows, {} compile rows)",
                snap.retarget.len(),
                snap.compile.len()
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("counter drift against `{path}`:");
        for d in &drift {
            eprintln!("  {d}");
        }
        eprintln!(
            "(if the change is intentional, refresh the snapshot: \
             cargo run --release -p record-bench --bin perf_snapshot -- \
             --carry-pre-pr {path} --out {path})"
        );
        return ExitCode::FAILURE;
    }

    // Carry the trajectory anchor forward, if asked.
    let pre_pr = carry.map(|path| {
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read snapshot `{path}`: {e}"));
        let parsed = json::parse(&src).unwrap_or_else(|e| panic!("bad snapshot `{path}`: {e}"));
        parsed
            .get("pre_pr")
            .cloned()
            .unwrap_or_else(|| panic!("`{path}` has no pre_pr member"))
    });
    let text = snap.to_json(pre_pr.as_ref());
    match out {
        Some(path) => {
            std::fs::write(&path, &text).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}
