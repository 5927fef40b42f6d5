//! Pins the emitter's register-file temporary path: a cover value that
//! lands in a free register-file cell rather than a register or a cell
//! the statement names.
//!
//! No hand-written model × kernel pair takes that path.  Among generated
//! cases (seeds 0..400, with and without control flow) only the seeds
//! below do; seed 17 reaches it and is then rejected by selection.  Each
//! case's compacted and vertical listings (or failure class) must equal
//! `tests/golden/fuzz_regfile_temps.txt` at the repository root, and
//! every compiled kernel must agree with the interpreter.
//!
//! After a reviewed output change, delete the golden file and rerun this
//! test: it writes the file afresh and fails once.

use record_core::{CompileRequest, Record, RetargetOptions};
use record_fuzz::{differential, program, FuzzCase, Verdict};
use std::fmt::Write as _;

const SEEDS: [u64; 6] = [17, 191, 226, 230, 273, 307];

#[test]
fn regfile_temp_listings_match_golden_file() {
    let mut got = String::new();
    for seed in SEEDS {
        let case = FuzzCase::generate(seed);
        let target = Record::retarget(&case.spec.render(), &RetargetOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: retarget failed: {e}"));
        let source = program::render(&case.program);
        for (mode, compaction) in [("compacted", true), ("vertical", false)] {
            let req = CompileRequest::new(&source, &case.function).compaction(compaction);
            writeln!(got, "== seed {seed} {mode} ==").unwrap();
            match target.compile(&req) {
                Ok(kernel) => {
                    let verdict = differential(
                        &target,
                        &kernel,
                        &case.program,
                        &case.function,
                        case.spec.width,
                    );
                    assert_eq!(verdict, Verdict::Agree, "seed {seed} {mode}");
                    got.push_str(&target.listing(&kernel));
                }
                Err(e) => writeln!(got, "ERROR {}", e.classify()).unwrap(),
            }
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/fuzz_regfile_temps.txt");
    match std::fs::read_to_string(&path) {
        Ok(want) => assert_eq!(
            got,
            want,
            "listings drifted from {}; if the change is intentional, delete the \
             file and rerun this test to regenerate it",
            path.display()
        ),
        Err(_) => {
            std::fs::write(&path, &got).expect("write golden file");
            panic!("wrote {}; review and commit it", path.display());
        }
    }
}
