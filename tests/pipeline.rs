//! End-to-end integration tests: every Table 3 target retargets, every
//! Figure 2 kernel compiles on the C25-like model, and compiled code
//! computes exactly what the mini-C interpreter computes.

mod common;

use record_core::{CompileError, CompileRequest, PipelineError, Record, RetargetOptions};
use record_targets::{kernels, models};

#[test]
fn all_six_models_retarget() {
    for m in models::models() {
        let target = Record::retarget(m.hdl, &RetargetOptions::default())
            .unwrap_or_else(|e| panic!("{} failed to retarget: {e}", m.name));
        let s = target.report();
        assert!(s.templates_extended > 0, "{}: empty template base", m.name);
        assert!(s.rules > s.templates_extended, "{}: missing rules", m.name);
        // The grammar must be well-formed for each machine.
        let findings = target.grammar().check();
        assert!(findings.is_empty(), "{}: {:?}", m.name, findings);
    }
}

#[test]
fn template_count_ordering_matches_paper() {
    // Paper Table 3: ref (1703) > demo (439) > TMS320C25 (356) >
    // tanenbaum (232) ~ manocpu (207) > bass_boost (89).  Absolute counts
    // differ (see EXPERIMENTS.md) but the ordering must hold for the big
    // three and bass_boost must stay smallest.
    let count = |name: &str| {
        let m = models::model(name).unwrap();
        Record::retarget(m.hdl, &RetargetOptions::default())
            .unwrap()
            .report()
            .templates_extended
    };
    let reference = count("ref");
    let demo = count("demo");
    let c25 = count("tms320c25");
    let bass = count("bass_boost");
    assert!(reference > demo, "ref {reference} <= demo {demo}");
    assert!(demo > c25, "demo {demo} <= c25 {c25}");
    assert!(c25 > bass, "c25 {c25} <= bass {bass}");
}

#[test]
fn all_kernels_compile_on_c25() {
    let m = models::model("tms320c25").unwrap();
    let target = Record::retarget(m.hdl, &RetargetOptions::default()).unwrap();
    for k in kernels::kernels() {
        let compiled = target
            .compile(&CompileRequest::new(k.source, k.function))
            .unwrap_or_else(|e| panic!("{} failed: {e}", k.name));
        assert!(compiled.code_size() > 0);
        // Record code should stay within 2x of hand-written (paper: low
        // overhead), and never beat hand code (it is a lower bound).
        assert!(
            compiled.code_size() >= k.hand_ops,
            "{}: {} words beats hand {}",
            k.name,
            compiled.code_size(),
            k.hand_ops
        );
        assert!(
            compiled.code_size() <= 2 * k.hand_ops,
            "{}: {} words exceeds 2x hand {}",
            k.name,
            compiled.code_size(),
            k.hand_ops
        );
    }
}

#[test]
fn baseline_is_never_better_than_record() {
    let m = models::model("tms320c25").unwrap();
    let target = Record::retarget(m.hdl, &RetargetOptions::default()).unwrap();
    for k in kernels::kernels() {
        let rec = target
            .compile(&CompileRequest::new(k.source, k.function))
            .unwrap();
        let base = target
            .compile(
                &CompileRequest::new(k.source, k.function)
                    .baseline(true)
                    .compaction(false),
            )
            .unwrap();
        assert!(
            base.code_size() >= rec.code_size(),
            "{}: baseline {} < record {}",
            k.name,
            base.code_size(),
            rec.code_size()
        );
    }
}

/// The strongest oracle in the repo: for every kernel, run the compiled RT
/// code on the machine simulator and compare every touched variable with
/// the mini-C interpreter.
#[test]
fn compiled_kernels_compute_correct_results() {
    let m = models::model("tms320c25").unwrap();
    let target = Record::retarget(m.hdl, &RetargetOptions::default()).unwrap();
    for k in kernels::kernels() {
        let compiled = target
            .compile(&CompileRequest::new(k.source, k.function))
            .unwrap();
        common::assert_matches_interpreter(&target, &compiled, k.source, k.function, k.name);
    }
}

/// manocpu has no multiplier, so every product compiles through the
/// shift-and-add legalization plan.  The kernels' results are checked on
/// the machine, and the splits pin how often the plan's statements were
/// hoisted through scratch memory.  Without commutative variants the
/// step `res = res + (sa & mask)` has no whole-tree cover and splits once
/// per step, so that configuration counts every step's work.
#[test]
fn legalized_kernels_compute_correct_results_on_manocpu() {
    let m = models::model("manocpu").unwrap();
    let mut no_commutativity = RetargetOptions::default();
    no_commutativity.extension.commutativity = false;
    for (options, splits) in [
        (RetargetOptions::default(), [1, 4, 6, 4, 12, 8, 7, 14, 8, 8]),
        (
            no_commutativity,
            [17, 70, 72, 68, 144, 136, 91, 182, 136, 136],
        ),
    ] {
        let target = Record::retarget(m.hdl, &options).unwrap();
        let mut got = Vec::new();
        for k in kernels::kernels() {
            let compiled = target
                .compile(&CompileRequest::new(k.source, k.function))
                .unwrap_or_else(|e| panic!("{} failed: {e}", k.name));
            common::assert_matches_interpreter(&target, &compiled, k.source, k.function, k.name);
            got.push(compiled.report.counter("emit.splits").unwrap_or(0));
        }
        assert_eq!(got, splits, "emit.splits per kernel");
    }
}

/// Source nested exactly as deep as the front ends allow compiles or
/// fails with a structured error; it never overflows a 2 MiB test
/// thread's stack.  mini-C parentheses, `if` blocks and an addition chain
/// compile on `ref` (and run correctly when they compile); HDL
/// parentheses around a register input, its guard and a bus driver's
/// guard, and an addition chain in the ALU, retarget from `demo` or fail
/// structurally; and an ALU `case` of as many labels plus a default arm,
/// on a selector widened to hold them, retargets.
#[test]
fn nesting_at_the_cap_compiles_or_fails_structurally() {
    let n = record_ir::MAX_NESTING;
    let target = Record::retarget(
        models::model("ref").unwrap().hdl,
        &RetargetOptions::default(),
    )
    .unwrap();
    let f = |body: String| format!("int a, x; void f() {{ {body} }}");
    for src in [
        f(format!("x = {}a{};", "(".repeat(n), ")".repeat(n))),
        f(format!("{}x = a;{}", "if (a) { ".repeat(n), " }".repeat(n))),
        f(format!("x = a{};", " + a".repeat(n))),
    ] {
        match target.compile(&CompileRequest::new(&src, "f")) {
            Ok(kernel) => common::assert_matches_interpreter(&target, &kernel, &src, "f", "ref"),
            Err(e) => assert!(!matches!(e, CompileError::Internal { .. }), "{e}"),
        }
    }

    let n = record_hdl::MAX_NESTING;
    let demo = models::model("demo").unwrap().hdl;
    let (open, close) = ("(".repeat(n), ")".repeat(n));
    for hdl in [
        demo.replace("q = d when", &format!("q = {open}d{close} when")),
        demo.replace("when en == 1", &format!("when {open}en{close} == 1")),
        demo.replace(
            "0 => y = a + b;",
            &format!("0 => y = a{};", " + b".repeat(n)),
        ),
        demo.replace(
            "when I[17:16] == 0",
            &format!("when {open}I[17:16] == 0{close}"),
        ),
    ] {
        assert_ne!(hdl, demo);
        if let Err(e) = Record::retarget(&hdl, &RetargetOptions::default()) {
            assert!(!matches!(e, PipelineError::Internal(_)), "{e}");
        }
    }

    // The widest `case`: an 8-bit ALU selector holds every label.
    let labels = demo
        .replace("ctrl f: bit(3);", "ctrl f: bit(8);")
        .replace("alu.f = I[23:21];", "alu.f = I[28:21];")
        .replace(
            "7 => y = b;",
            &(7..n)
                .map(|label| format!("{label} => y = b;\n"))
                .chain(["default => y = a;".to_owned()])
                .collect::<String>(),
        );
    assert_ne!(labels, demo);
    Record::retarget(&labels, &RetargetOptions::default()).expect("a case at the cap retargets");
}

#[test]
fn compaction_packs_on_horizontal_machine() {
    let m = models::model("demo").unwrap();
    let target = Record::retarget(m.hdl, &RetargetOptions::default()).unwrap();
    // Both subtrees of the subtraction evaluate the same expression into
    // different registers; on the horizontal format the two identical ALU
    // operations pack into a single word (only the enable bits differ).
    let src = "int a, x; void f() { x = (a + a) - (a + a); }";
    let with = target.compile(&CompileRequest::new(src, "f")).unwrap();
    let without = target
        .compile(&CompileRequest::new(src, "f").compaction(false))
        .unwrap();
    assert!(
        with.code_size() < without.code_size(),
        "compaction did not pack: {} vs {}",
        with.code_size(),
        without.code_size()
    );
}

#[test]
fn retargeting_without_extension_shrinks_base() {
    let m = models::model("tms320c25").unwrap();
    let bare = RetargetOptions {
        extension: record_rtl::ExtensionOptions::none(),
        ..Default::default()
    };
    let without = Record::retarget(m.hdl, &bare).unwrap();
    let with = Record::retarget(m.hdl, &RetargetOptions::default()).unwrap();
    assert!(with.report().templates_extended > without.report().templates_extended);
    assert_eq!(
        without.report().templates_extended,
        without.report().templates_extracted
    );
}

#[test]
fn commutativity_ablation_affects_code_size() {
    // Without commutative variants, a kernel whose source tree puts the
    // product on the left still compiles (the DP may restructure through
    // registers) but never *better* than with them.
    let m = models::model("tms320c25").unwrap();
    let src = "int d, a, b, c; void f() { d = a * b + c; }";
    let with = Record::retarget(m.hdl, &RetargetOptions::default()).unwrap();
    let bare = RetargetOptions {
        extension: record_rtl::ExtensionOptions::none(),
        ..Default::default()
    };
    let without = Record::retarget(m.hdl, &bare).unwrap();
    let sw = with
        .compile(&CompileRequest::new(src, "f"))
        .unwrap()
        .code_size();
    // A selection error is acceptable: the shape may not be covered at
    // all without commutative variants.
    if let Ok(k) = without.compile(&CompileRequest::new(src, "f")) {
        assert!(k.code_size() >= sw);
    }
}

/// A 16-bit accumulator machine whose ALU reads `acc` on its left input:
/// `acc` loads from the ALU or from `ram`, `ram` stores `acc`, and the
/// ALU adds or passes its right input through.  The right input is a mux
/// of `acc` and `ram` when `right_mux` is set, else `acc` itself.  Every
/// select, enable and function input has its own instruction field.
fn accumulator_machine(right_mux: bool) -> String {
    let (mux, right, mux_inputs) = if right_mux {
        (
            "bmux: Mux2;",
            "bmux.y",
            "bmux.a = acc.q; bmux.b = ram.dout; bmux.s = I[1];",
        )
    } else {
        ("", "acc.q", "")
    };
    format!(
        r#"
    module Alu {{
        in a: bit(16);
        in b: bit(16);
        ctrl f: bit(1);
        out y: bit(16);
        behavior {{
            case f {{
                0 => y = a + b;
                1 => y = b;
            }}
        }}
    }}
    module Mux2 {{
        in a: bit(16);
        in b: bit(16);
        ctrl s: bit(1);
        out y: bit(16);
        behavior {{
            case s {{ 0 => y = a; 1 => y = b; }}
        }}
    }}
    module Reg16 {{
        in d: bit(16);
        ctrl en: bit(1);
        out q: bit(16);
        register q = d when en == 1;
    }}
    module Ram {{
        in addr: bit(4);
        in din: bit(16);
        ctrl w: bit(1);
        out dout: bit(16);
        memory cells[16]: bit(16);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }}
    processor Acc {{
        instruction word: bit(16);
        parts {{ alu: Alu; accmux: Mux2; {mux} acc: Reg16; ram: Ram; }}
        connections {{
            alu.a = acc.q;
            alu.b = {right};
            alu.f = I[0];
            {mux_inputs}
            accmux.a = alu.y;
            accmux.b = ram.dout;
            accmux.s = I[2];
            acc.d = accmux.y;
            acc.en = I[3];
            ram.din = acc.q;
            ram.w = I[4];
            ram.addr = I[8:5];
        }}
    }}
"#
    )
}

/// `(a + b) + (c + d)` has a whole-tree cover that needs both sums in
/// `acc` at once, so its emission fails after spilling and the splitter
/// compiles the statement.  The failed cover leaves no RT behind, and
/// its spill store is not counted.
#[test]
fn a_failed_cover_leaves_no_rts_behind() {
    let target = Record::retarget(&accumulator_machine(true), &RetargetOptions::default()).unwrap();
    let src = "int x, a, b, c, d; void f() { x = (a + b) + (c + d); }";
    for compaction in [false, true] {
        let kernel = target
            .compile(&CompileRequest::new(src, "f").compaction(compaction))
            .unwrap();
        assert_eq!(kernel.code_size(), 7, "compaction {compaction}");
        assert_eq!(kernel.report.counter("emit.splits"), Some(1));
        assert_eq!(kernel.report.counter("emit.spill-stores"), Some(0));
        let init = [
            ("a", vec![1]),
            ("b", vec![2]),
            ("c", vec![30]),
            ("d", vec![400]),
        ];
        let machine = target.execute(&kernel, &init);
        let x = kernel.binding.assignments().find(|(n, _)| *n == "x");
        let dm = target.data_memory().unwrap();
        assert_eq!(machine.mem(dm, x.unwrap().1), 433);
    }
}

/// An adder that reads `acc` on both inputs cannot add two variables: the
/// second operand's load evicts the first, whose reload would evict the
/// second.  The error names `acc` and counts its RT index from the start
/// of the failing cover, not of the kernel.
#[test]
fn a_cyclic_conflict_fails_at_the_covers_rt_index() {
    let target =
        Record::retarget(&accumulator_machine(false), &RetargetOptions::default()).unwrap();
    let src = "int x, y, a, b, c; void f() { y = c; x = a + b; }";
    let err = target.compile(&CompileRequest::new(src, "f")).unwrap_err();
    assert_eq!(err.classify().to_string(), "emit/no-spill-path", "{err}");
    let diagnostic = err.diagnostic().unwrap();
    assert_eq!(diagnostic.rt_index, Some(3), "{err}");
    assert_eq!(diagnostic.storage.as_deref(), Some("acc"), "{err}");
}

/// The diagnostic a selection failure reports names the subtree that
/// has no cover and why, after the statement was split through scratch
/// memory or legalized: a product on machines without a multiplier, and
/// a store of a constant no rule can place on `bass_boost`.
#[test]
fn failed_selections_report_the_uncovered_subtree() {
    let no_mul = "the grammar has no rule for operator `mul`";
    for (model, kernel, subtree, reason, op, class) in [
        (
            "tanenbaum",
            "real_update",
            "mul(mem(0), mem(1))",
            no_mul,
            Some("mul"),
            "select/missing-hardware(mul)",
        ),
        (
            "demo",
            "fir",
            "mul(mem(0), mem(8))",
            no_mul,
            Some("mul"),
            "select/missing-hardware(mul)",
        ),
        (
            "bass_boost",
            "dot_product",
            "store(8, 0)",
            "no rule matches this subtree for any location",
            None,
            "select/selector-gap",
        ),
    ] {
        let target = Record::retarget(
            models::model(model).unwrap().hdl,
            &RetargetOptions::default(),
        )
        .unwrap();
        let k = kernels::kernel(kernel).unwrap();
        let err = target
            .compile(&CompileRequest::new(k.source, k.function))
            .unwrap_err();
        let diagnostic = err.diagnostic().unwrap();
        assert_eq!(
            diagnostic.message,
            format!("no cover for `{subtree}`: {reason}"),
            "{model}/{kernel}"
        );
        assert_eq!(diagnostic.op, op, "{model}/{kernel}");
        assert_eq!(err.classify().to_string(), class, "{model}/{kernel}");
    }
}
