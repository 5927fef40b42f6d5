use crate::*;

const TINY: &str = r#"
    module Acc {
        in d: bit(8);
        ctrl en: bit(1);
        out q: bit(8);
        register q = d when en == 1;
    }
    module Ram {
        in addr: bit(3);
        in din: bit(8);
        ctrl w: bit(1);
        out dout: bit(8);
        memory cells[8]: bit(8);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor Tiny {
        instruction word: bit(8);
        parts { acc: Acc; ram: Ram; }
        connections {
            acc.d = ram.dout;
            acc.en = I[7];
            ram.addr = I[2:0];
            ram.din = acc.q;
            ram.w = I[6];
        }
    }
"#;

/// A model without any memory: retargets fine, can never compile.
const MEMLESS: &str = r#"
    module Acc {
        in d: bit(8);
        ctrl en: bit(1);
        out q: bit(8);
        register q = d when en == 1;
    }
    processor P {
        instruction word: bit(9);
        parts { acc: Acc; }
        connections { acc.d = I[7:0]; acc.en = I[8]; }
    }
"#;

#[test]
fn retarget_reports_phase_times_and_counts() {
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    let s = target.report();
    assert_eq!(s.processor, "Tiny");
    assert_eq!(s.templates_extracted, 2); // acc := ram, ram := acc
    assert!(s.templates_extended >= s.templates_extracted);
    assert!(s.rules > s.templates_extended); // start + stop rules on top
    assert!(s.total_ns >= s.report.phase_ns("extract").unwrap());
    assert_eq!(s.nonterminals, 2); // START + acc
}

#[test]
fn register_pool_is_discovered_at_retarget_time() {
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    // Discovery already happened: the accessor needs no compile first.
    let pool = target.register_pool().expect("tiny has a data memory");
    assert_eq!(pool.classes().len(), 1); // the accumulator
    assert_eq!(target.report().pool_registers, 1);
    assert_eq!(target.report().pool_cells, 1);

    // A memory-less model retargets with an empty pool, reported as such.
    let memless = Record::retarget(MEMLESS, &RetargetOptions::default()).unwrap();
    assert!(memless.register_pool().is_none());
    assert_eq!(memless.report().pool_registers, 0);
    assert_eq!(memless.report().pool_cells, 0);
}

#[test]
fn hdl_errors_are_wrapped() {
    let err = Record::retarget("module {", &RetargetOptions::default()).unwrap_err();
    assert!(matches!(err, PipelineError::Hdl(_)), "{err}");
}

#[test]
fn elaboration_errors_are_wrapped() {
    let src = r#"
        processor P { instruction word: bit(4); parts { x: Missing; } connections { } }
    "#;
    let err = Record::retarget(src, &RetargetOptions::default()).unwrap_err();
    assert!(matches!(err, PipelineError::Netlist(_)), "{err}");
}

#[test]
fn frontend_errors_carry_phase_and_span() {
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    let err = target
        .compile(&CompileRequest::new("int x; void f() { x = ; }", "f"))
        .unwrap_err();
    let CompileError::Frontend {
        function,
        diagnostic,
    } = &err
    else {
        panic!("expected a frontend error, got {err}");
    };
    assert_eq!(function, "f");
    assert_eq!(diagnostic.phase, CompilePhase::Parse);
    assert!(diagnostic.span.is_some(), "parse errors have a position");
    assert_eq!(err.phase(), Some(CompilePhase::Parse));
}

#[test]
fn missing_function_is_a_lower_error() {
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    let err = target
        .compile(&CompileRequest::new("int x; void f() { x = x; }", "nope"))
        .unwrap_err();
    assert_eq!(err.phase(), Some(CompilePhase::Lower), "{err}");
}

#[test]
fn no_data_memory_is_reported() {
    let target = Record::retarget(MEMLESS, &RetargetOptions::default()).unwrap();
    let err = target
        .compile(&CompileRequest::new("int x; void f() { x = 1; }", "f"))
        .unwrap_err();
    assert!(matches!(err, CompileError::NoDataMemory { .. }), "{err}");
    assert!(err.to_string().contains('P'), "names the processor: {err}");
}

#[test]
fn compile_execute_round_trip() {
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    let kernel = target
        .compile(&CompileRequest::new("int x, y; void f() { x = y; }", "f"))
        .unwrap();
    assert_eq!(kernel.code_size(), 2); // load acc, store x
    let machine = target.execute(&kernel, &[("y", vec![9])]);
    let dm = target.data_memory().unwrap();
    assert_eq!(machine.mem(dm, 0), 9);
    let listing = target.listing(&kernel);
    assert!(listing.contains("acc :="), "{listing}");
}

#[test]
fn compaction_off_gives_vertical_code() {
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    let kernel = target
        .compile(&CompileRequest::new("int x, y; void f() { x = y; }", "f").compaction(false))
        .unwrap();
    assert!(kernel.schedule.is_none());
    assert_eq!(kernel.code_size(), kernel.ops.len());
}

#[test]
fn sessions_are_reusable_and_deterministic() {
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    let request = CompileRequest::new("int x, y; void f() { x = y; }", "f");

    // One session compiling twice: identical kernels, overlay reused.
    let mut session = target.session();
    let k1 = session.compile(&request).unwrap();
    let k2 = session.compile(&request).unwrap();
    assert_eq!(k1.ops, k2.ops);
    assert_eq!(k1.schedule, k2.schedule);

    // A fresh session agrees with the reused one on this workload.
    let k3 = target.compile(&request).unwrap();
    assert_eq!(k1.ops, k3.ops);
    assert_eq!(session.target().report().processor, "Tiny");
}

#[test]
fn pooled_session_reset_matches_fresh() {
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    let request = CompileRequest::new("int x, y; void f() { x = y; }", "f");
    let fresh = target.session().compile(&request).unwrap();
    // Dirty a session with a different compilation, reset, recompile: the
    // warmed session must be observationally identical to a fresh one.
    let mut session = target.session();
    let other = CompileRequest::new("int a, b, c; void g() { a = b; c = a; }", "g");
    session.compile(&other).unwrap();
    session.reset();
    let pooled = session.compile(&request).unwrap();
    assert_eq!(pooled.ops, fresh.ops);
    assert_eq!(pooled.schedule, fresh.schedule);
    // Round-trip the retained pages into a new session.
    let again = target
        .session_from(session.into_pages())
        .compile(&request)
        .unwrap();
    assert_eq!(again.ops, fresh.ops);
    assert_eq!(again.schedule, fresh.schedule);
}

#[test]
fn deadline_surfaces_as_structured_timeout() {
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    let source = "int x, y; void f() { x = y; }";
    // A zero budget expires at the first phase boundary.
    let err = target
        .compile(&CompileRequest::new(source, "f").deadline_ns(Some(0)))
        .unwrap_err();
    assert!(
        matches!(err, CompileError::DeadlineExceeded { .. }),
        "{err}"
    );
    assert_eq!(err.classify().kind, "deadline-exceeded");
    // A generous budget never fires.
    target
        .compile(&CompileRequest::new(source, "f").deadline_ns(Some(u64::MAX)))
        .unwrap();
}

#[test]
fn target_is_shareable_across_threads() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Target>();

    // And actually share one: compile the same kernel from two threads.
    let target = Record::retarget(TINY, &RetargetOptions::default()).unwrap();
    let request = CompileRequest::new("int x, y; void f() { x = y; }", "f");
    let reference = target.compile(&request).unwrap();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| s.spawn(|| target.compile(&request).unwrap()))
            .collect();
        for h in handles {
            let k = h.join().unwrap();
            assert_eq!(k.ops, reference.ops);
            assert_eq!(k.schedule, reference.schedule);
        }
    });
}

#[test]
fn compaction_reports_sat_checks_and_rejects() {
    let compile = |model: &str, kernel: &str| {
        let hdl = record_targets::models::model(model).unwrap().hdl;
        let target = Record::retarget(hdl, &RetargetOptions::default()).unwrap();
        let k = record_targets::kernels::kernel(kernel).unwrap();
        let c = target
            .compile(&CompileRequest::new(k.source, k.function))
            .unwrap();
        let counter = |name| c.report.counter(name).unwrap();
        (
            c.ops.len(),
            c.code_size(),
            counter("compact.sat-checks"),
            counter("compact.sat-rejects"),
        )
    };
    // Dependence-bound: every manocpu RT goes through the accumulator, so
    // each one's earliest word is past the last word and no check runs.
    let (ops, words, checks, rejects) = compile("manocpu", "fir");
    assert_eq!((words, checks, rejects), (ops, 0, 0));
    // Encoding-bound: tms320c25 RTs are often independent, but every
    // candidate word conflicts in the instruction encoding.
    assert_eq!(compile("tms320c25", "fir"), (40, 40, 15, 15));
    // bass_boost packs: some checks accept, so words < ops.
    assert_eq!(compile("bass_boost", "complex_update"), (14, 11, 4, 1));
}

/// The fault-injection hook fires in every phase, and the contained panic
/// names the phase it was injected into (codegen enters `select`, then
/// `emit`).
#[test]
fn injected_panic_names_every_phase() {
    let hdl = record_targets::models::model("ref").unwrap().hdl;
    let target = Record::retarget(hdl, &RetargetOptions::default()).unwrap();
    let k = &record_targets::kernels::kernels()[0];
    for phase in [
        CompilePhase::Parse,
        CompilePhase::Lower,
        CompilePhase::Bind,
        CompilePhase::Select,
        CompilePhase::Emit,
        CompilePhase::Allocate,
        CompilePhase::Compact,
    ] {
        let request = CompileRequest::new(k.source, k.function).inject_panic(Some(phase));
        match target.compile(&request) {
            Err(CompileError::Internal { phase: at, .. }) => assert_eq!(at, phase),
            other => panic!("injected into `{phase}`, got {other:?}"),
        }
    }
}
