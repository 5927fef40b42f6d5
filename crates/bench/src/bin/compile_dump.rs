//! Op-level dump of a fixed set of compiles, for diffing what a change
//! generates against its parent commit.
//!
//! ```text
//! compile_dump
//! ```
//!
//! Compiles every kernel, straight-line and control-flow, on the six
//! Table 3 models, then every generated fuzz case of seeds 0..400 as
//! generated and with control flow forced on, each in three modes:
//! compacted, vertical (no compaction) and the per-operator baseline.
//! That is 2,652 compiles.  For each one it prints a header line, then
//! either every op's `Debug` (execution-condition handle included), each
//! schedule word's op positions and the report's counters, or the
//! failure's class and `Debug`.  Phase times are left out, so two runs
//! of one tree print the same bytes.
//!
//! Save the output at two commits and `diff` the files: a change meant
//! to generate the same code shows no line but the counters it moves.

use record_core::{CompileRequest, CompiledKernel, Record, RetargetOptions, Target};
use record_fuzz::{program, FuzzCase, ModelSpec, Rng};
use record_targets::{control_kernels, kernels, models};
use std::io::{self, BufWriter, Write};

/// Section modes: (name, compaction, baseline), as the golden files.
const MODES: [(&str, bool, bool); 3] = [
    ("compacted", true, false),
    ("vertical", false, false),
    ("baseline", true, true),
];

/// The generated fuzz seeds.
const SEEDS: std::ops::Range<u64> = 0..400;

/// The case of `seed`; with `control_flow`, the program is generated
/// with the flag on from the same stream (the model is unchanged: the
/// flag only steers the program generator).
fn fuzz_case(seed: u64, control_flow: bool) -> FuzzCase {
    if !control_flow {
        return FuzzCase::generate(seed);
    }
    let mut rng = Rng::new(seed);
    let mut spec = ModelSpec::generate(&mut rng);
    spec.control_flow = true;
    let program = program::generate(&mut rng, &spec);
    FuzzCase {
        spec,
        program,
        function: "f".to_owned(),
    }
}

/// Compiles `source` in every mode on `target`, one section each.
fn dump_modes(
    out: &mut impl Write,
    target: &Target,
    label: &str,
    source: &str,
    function: &str,
) -> io::Result<()> {
    for (mode, compaction, baseline) in MODES {
        writeln!(out, "== {label} {mode} ==")?;
        let request = CompileRequest::new(source, function)
            .compaction(compaction)
            .baseline(baseline);
        match target.compile(&request) {
            Ok(kernel) => dump_kernel(out, &kernel)?,
            Err(e) => writeln!(out, "ERROR {}\n{e:?}", e.classify())?,
        }
    }
    Ok(())
}

fn dump_kernel(out: &mut impl Write, kernel: &CompiledKernel) -> io::Result<()> {
    for (i, op) in kernel.ops.iter().enumerate() {
        writeln!(out, "op {i}: {op:?}")?;
    }
    if let Some(schedule) = &kernel.schedule {
        for (i, word) in schedule.words().iter().enumerate() {
            writeln!(out, "word {i}: {:?}", word.ops)?;
        }
    }
    for c in &kernel.report.counters {
        writeln!(out, "counter {} = {}", c.name, c.value)?;
    }
    Ok(())
}

fn main() -> io::Result<()> {
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let options = RetargetOptions::default();
    for model in models::models() {
        let target = Record::retarget(model.hdl, &options)
            .unwrap_or_else(|e| panic!("retarget {} failed: {e}", model.name));
        for kernel in kernels().into_iter().chain(control_kernels()) {
            let label = format!("{} {}", model.name, kernel.name);
            dump_modes(&mut out, &target, &label, kernel.source, kernel.function)?;
        }
    }
    for seed in SEEDS {
        let target = match Record::retarget(&fuzz_case(seed, false).spec.render(), &options) {
            Ok(target) => target,
            Err(e) => {
                writeln!(out, "== fuzz {seed} ==\nRETARGET ERROR {e:?}")?;
                continue;
            }
        };
        for (flavour, control_flow) in [("generated", false), ("control-flow", true)] {
            let case = fuzz_case(seed, control_flow);
            let label = format!("fuzz {seed} {flavour}");
            let source = program::render(&case.program);
            dump_modes(&mut out, &target, &label, &source, &case.function)?;
        }
    }
    out.flush()
}
