//! End-to-end integration tests: every Table 3 target retargets, every
//! Figure 2 kernel compiles on the C25-like model, and compiled code
//! computes exactly what the mini-C interpreter computes.

mod common;

use record_core::{CompileRequest, Record, RetargetOptions, Target};
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
fn parser_source_emission_is_deterministic() {
    let m = models::model("bass_boost").unwrap();
    let options = RetargetOptions::default();
    let t1 = Record::retarget(m.hdl, &options).unwrap();
    let t2 = Record::retarget(m.hdl, &options).unwrap();
    let emit = |t: &Target| record_selgen::emit_rust(t.grammar(), t.netlist().name());
    let s1 = emit(&t1);
    assert_eq!(s1, emit(&t2));
    assert!(s1.contains("pub fn match_rule"));
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
