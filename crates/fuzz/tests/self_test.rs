//! Oracle self-test: the differential harness must flag a known-bad
//! kernel.  A fuzzer whose comparison half is broken reports `agree`
//! forever and looks green while testing nothing — so this fixture
//! compiles a correct kernel, verifies the oracle accepts it, then
//! deliberately miscompiles it (dropping trailing ops, the classic
//! lost-final-store bug) and requires a `Diverge` verdict.

use record_core::{CompileRequest, Record, RetargetOptions};
use record_fuzz::{differential, oracle, AluOp, FuzzCase, ModelSpec, Verdict};

fn fixture() -> FuzzCase {
    let spec = ModelSpec {
        width: 16,
        mem_cells: 16,
        ops: vec![AluOp::Add, AluOp::Mov],
        regs: 1,
        regfile: None,
        shifter: false,
        mul_unit: false,
        imm_bits: 4,
        control_flow: false,
    };
    let program =
        record_ir::parse("int g0;\nint g1;\nint g2;\n\nvoid f() {\n    g0 = (g1 + g2);\n}\n")
            .expect("fixture program parses");
    FuzzCase {
        spec,
        program,
        function: "f".to_owned(),
    }
}

#[test]
fn oracle_flags_a_known_bad_kernel() {
    let case = fixture();
    assert_eq!(
        oracle::run_case(&case).key(),
        "agree",
        "the untampered fixture must pass the oracle"
    );

    let hdl = case.spec.render();
    let target = Record::retarget(&hdl, &RetargetOptions::default()).expect("retarget fixture");
    let source = "int g0;\nint g1;\nint g2;\n\nvoid f() {\n    g0 = (g1 + g2);\n}\n";
    let mut kernel = target
        .compile(&CompileRequest::new(source, "f"))
        .expect("fixture compiles");

    let good = differential(&target, &kernel, &case.program, "f", case.spec.width);
    assert_eq!(good, Verdict::Agree, "correct kernel agrees: {good:?}");

    // Miscompile: run the vertical code with its tail cut off, so the
    // final store (at the latest) never happens.  Dropping ops one at a
    // time, the first verdict change must be a diverge on `g0` — never a
    // crash, and never silent agreement all the way to an empty kernel.
    kernel.schedule = None;
    let verdict = loop {
        assert!(
            kernel.ops.pop().is_some(),
            "kernel exhausted without the oracle noticing the miscompile"
        );
        match differential(&target, &kernel, &case.program, "f", case.spec.width) {
            Verdict::Agree => continue,
            other => break other,
        }
    };
    match &verdict {
        Verdict::Diverge {
            variable,
            machine,
            interp,
            ..
        } => {
            assert_eq!(variable, "g0");
            assert_ne!(machine, interp);
        }
        other => panic!("tampered kernel must diverge, got {other:?}"),
    }
    assert!(verdict.is_bug());
}

/// Control flow reaches the comparison: a multi-block kernel compiled on
/// `ref` is checked against the interpreter, not rejected as a frontend
/// failure (which the fuzzer would count as a bug).
#[test]
fn oracle_agrees_on_a_control_flow_kernel() {
    let model = record_targets::models::model("ref").expect("ref model exists");
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).expect("ref retargets");
    let k = record_targets::kernel("vec_max").expect("vec_max kernel exists");
    let kernel = target
        .compile(&CompileRequest::new(k.source, k.function))
        .expect("vec_max compiles on ref");
    let program = record_ir::parse(k.source).expect("vec_max parses");
    let dm = target.data_memory().expect("ref has a data memory");
    let width = target.netlist().storage(dm).width;
    let verdict = differential(&target, &kernel, &program, k.function, width);
    assert_eq!(verdict, Verdict::Agree);
}
