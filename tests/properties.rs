//! Cross-crate property tests: random programs through the whole pipeline.

use proptest::prelude::*;
use record_core::{CompileRequest, Record, RetargetOptions, Target};
use record_targets::models;

/// A small machine with a MAC path and an immediate path; rich enough that
/// random expressions compile, small enough to keep shrinking fast.
const MACHINE: &str = r#"
    module Alu {
        in a: bit(16);
        in b: bit(16);
        ctrl f: bit(2);
        out y: bit(16);
        behavior {
            case f { 0 => y = a + b; 1 => y = a - b; 2 => y = a & b; 3 => y = b; }
        }
    }
    module Mul { in a: bit(16); in b: bit(16); out y: bit(16);
                 behavior { y = a * b; } }
    module Mux3 {
        in a: bit(16); in b: bit(16); in c: bit(16);
        ctrl s: bit(2);
        out y: bit(16);
        behavior { case s { 0 => y = a; 1 => y = b; 2 => y = c; } }
    }
    module Reg16 { in d: bit(16); ctrl en: bit(1); out q: bit(16);
                   register q = d when en == 1; }
    module Ram {
        in addr: bit(4); in din: bit(16); ctrl w: bit(1); out dout: bit(16);
        memory cells[16]: bit(16);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor PropMachine {
        instruction word: bit(16);
        parts { alu: Alu; mul: Mul; bmux: Mux3; tmux: Mux3; acc: Reg16; t: Reg16; ram: Ram; }
        connections {
            mul.a = t.q;
            mul.b = ram.dout;
            bmux.a = ram.dout;
            bmux.b = mul.y;
            bmux.c = I[15:12];
            bmux.s = I[11:10];
            alu.a = acc.q;
            alu.b = bmux.y;
            alu.f = I[1:0];
            acc.d = alu.y;
            acc.en = I[3];
            tmux.a = ram.dout;
            tmux.b = I[15:12];
            tmux.c = acc.q;
            tmux.s = I[14:13];
            t.d = tmux.y;
            t.en = I[8];
            ram.addr = I[7:4];
            ram.din = acc.q;
            ram.w = I[9];
        }
    }
"#;

thread_local! {
    // The frozen artifact needs no interior mutability: compilation takes
    // `&Target`.
    static TARGET: Target =
        Record::retarget(MACHINE, &RetargetOptions::default()).expect("machine retargets");
    // manocpu has no multiplier, no subtractor and no load-immediate, so
    // the same programs' products, differences and constants compile only
    // through legalization plans and their run copies.
    static MANOCPU: Target = Record::retarget(
        models::model("manocpu").expect("bundled model").hdl,
        &RetargetOptions::default(),
    )
    .expect("manocpu retargets");
}

/// Random straight-line mini-C programs over four scalars, restricted to
/// the operators the machine supports.  Multiplications only combine leaf
/// operands: the machine's multiplier reads `t` and a memory word, so a
/// product of *computed* values is legitimately uncoverable by pure tree
/// parsing (the paper defers such splitting to later phases).
fn program_strategy() -> impl Strategy<Value = String> {
    let vars = ["a", "b", "c", "d"];
    let var_leaf = (0usize..4).prop_map(move |i| vars[i].to_owned());
    let any_leaf = prop_oneof![var_leaf.clone(), (0u64..15).prop_map(|v| v.to_string()),];
    // Keep a variable on every left spine so constant folding can never
    // collapse a subtree into a constant wider than the immediate field.
    let mul_term = (var_leaf.clone(), any_leaf.clone()).prop_map(|(l, r)| format!("({l} * {r})"));
    let base = prop_oneof![var_leaf, mul_term.clone()];
    let op = prop_oneof![Just("+"), Just("-"), Just("&")];
    let rhs = prop_oneof![any_leaf, mul_term];
    let expr = base.prop_recursive(3, 12, 2, move |inner| {
        (inner, op.clone(), rhs.clone()).prop_map(|(l, o, r)| format!("({l} {o} {r})"))
    });
    prop::collection::vec((0usize..4, expr), 1..5).prop_map(move |stmts| {
        let body: String = stmts
            .iter()
            .map(|(ti, e)| format!("{} = {};\n", vars[*ti], e))
            .collect();
        format!("int a, b, c, d; void f() {{\n{body}}}")
    })
}

/// Compiles `src` on `target`, runs it on the machine from `vals` and
/// requires every variable to hold what the interpreter computes.
fn assert_preserves_semantics(
    target: &Target,
    label: &str,
    src: &str,
    vals: &[u64],
) -> Result<(), TestCaseError> {
    let program = record_ir::parse(src).unwrap();
    let mut mem = record_ir::Memory::new();
    for (name, v) in ["a", "b", "c", "d"].iter().zip(vals) {
        mem.insert((*name).to_owned(), vec![*v]);
    }
    record_ir::interp(&program, "f", &mut mem, 16).unwrap();

    let compiled = target
        .compile(&CompileRequest::new(src, "f"))
        .unwrap_or_else(|e| panic!("{label}: every generated program compiles: {e}\n{src}"));
    let init: Vec<(&str, Vec<u64>)> = ["a", "b", "c", "d"]
        .iter()
        .zip(vals)
        .map(|(n, v)| (*n, vec![*v]))
        .collect();
    let machine = target.execute(&compiled, &init);
    let dm = target.data_memory().unwrap();
    for (name, addr) in compiled.binding.assignments() {
        prop_assert_eq!(
            machine.mem(dm, addr),
            mem[name][0],
            "{}: mismatch at {} in {}",
            label,
            name,
            src
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiled machine code computes what the interpreter computes, on
    /// the property machine and through legalization on manocpu.
    #[test]
    fn pipeline_preserves_semantics(src in program_strategy(), vals in prop::collection::vec(0u64..0xFFFF, 4)) {
        TARGET.with(|target| assert_preserves_semantics(target, "PropMachine", &src, &vals))?;
        MANOCPU.with(|target| assert_preserves_semantics(target, "manocpu", &src, &vals))?;
    }

    /// Compaction never changes results (time-stationary semantics) and
    /// never lengthens code.
    #[test]
    fn compaction_preserves_semantics(src in program_strategy(), vals in prop::collection::vec(0u64..0xFFFF, 4)) {
        TARGET.with(|target| {
            let init: Vec<(&str, Vec<u64>)> = ["a", "b", "c", "d"]
                .iter()
                .zip(&vals)
                .map(|(n, v)| (*n, vec![*v]))
                .collect();
            let vertical = target
                .compile(&CompileRequest::new(&src, "f").compaction(false))
                .expect("compiles");
            let compacted = target
                .compile(&CompileRequest::new(&src, "f"))
                .expect("compiles");
            prop_assert!(compacted.code_size() <= vertical.code_size());
            let m1 = target.execute(&vertical, &init);
            let m2 = target.execute(&compacted, &init);
            let dm = target.data_memory().unwrap();
            for (_, addr) in vertical.binding.assignments() {
                prop_assert_eq!(m1.mem(dm, addr), m2.mem(dm, addr));
            }
            Ok(())
        })?;
    }

    /// The baseline compiler is also always correct (it shares the
    /// selector), just bigger.
    #[test]
    fn baseline_is_correct_and_no_smaller(src in program_strategy(), vals in prop::collection::vec(0u64..0xFFFF, 4)) {
        TARGET.with(|target| {
            let program = record_ir::parse(&src).unwrap();
            let mut mem = record_ir::Memory::new();
            for (name, v) in ["a", "b", "c", "d"].iter().zip(&vals) {
                mem.insert((*name).to_owned(), vec![*v]);
            }
            record_ir::interp(&program, "f", &mut mem, 16).unwrap();

            let smart = target
                .compile(&CompileRequest::new(&src, "f").compaction(false))
                .expect("compiles");
            let naive = target
                .compile(&CompileRequest::new(&src, "f").baseline(true).compaction(false))
                .expect("compiles");
            prop_assert!(naive.ops.len() >= smart.ops.len());
            let init: Vec<(&str, Vec<u64>)> = ["a", "b", "c", "d"]
                .iter()
                .zip(&vals)
                .map(|(n, v)| (*n, vec![*v]))
                .collect();
            let machine = target.execute(&naive, &init);
            let dm = target.data_memory().unwrap();
            for (name, addr) in naive.binding.assignments() {
                prop_assert_eq!(machine.mem(dm, addr), mem[name][0]);
            }
            Ok(())
        })?;
    }
}
