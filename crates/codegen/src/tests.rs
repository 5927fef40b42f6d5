use crate::*;
use record_grammar::TreeGrammar;
use record_ir::Memory;
use record_netlist::Netlist;
use record_selgen::Selector;

/// A 16-bit accumulator DSP with a T register and a MAC path:
///   acc := acc {+,-,&} (ram | t*ram) | ram | t*ram ;  t := ram ;  ram := acc
const DSP8: &str = r#"
    module Alu {
        in a: bit(16);
        in b: bit(16);
        ctrl f: bit(2);
        out y: bit(16);
        behavior {
            case f {
                0 => y = a + b;
                1 => y = a - b;
                2 => y = a & b;
                3 => y = b;
            }
        }
    }
    module Mul {
        in a: bit(16);
        in b: bit(16);
        out y: bit(16);
        behavior { y = a * b; }
    }
    module Mux3 {
        in a: bit(16);
        in b: bit(16);
        in c: bit(16);
        ctrl s: bit(2);
        out y: bit(16);
        behavior {
            case s {
                0 => y = a;
                1 => y = b;
                2 => y = c;
            }
        }
    }
    module Reg16 {
        in d: bit(16);
        ctrl en: bit(1);
        out q: bit(16);
        register q = d when en == 1;
    }
    module Ram {
        in addr: bit(4);
        in din: bit(16);
        ctrl w: bit(1);
        out dout: bit(16);
        memory cells[16]: bit(16);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor Dsp8 {
        instruction word: bit(16);
        parts {
            alu: Alu; mul: Mul; bmux: Mux3; acc: Reg16; t: Reg16; ram: Ram;
        }
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
            t.d = ram.dout;
            t.en = I[8];
            ram.addr = I[7:4];
            ram.din = acc.q;
            ram.w = I[9];
        }
    }
"#;

/// Two registers, both load/storable, subtraction needs acc (left) and b
/// (right) — used to force evaluation-order decisions and spills.
const SPILLY: &str = r#"
    module Alu {
        in a: bit(16);
        in b: bit(16);
        ctrl f: bit(1);
        out y: bit(16);
        behavior {
            case f {
                0 => y = a - b;
                1 => y = a + b;
            }
        }
    }
    module Mux2 {
        in a: bit(16);
        in b: bit(16);
        ctrl s: bit(1);
        out y: bit(16);
        behavior {
            case s { 0 => y = a; 1 => y = b; }
        }
    }
    module Reg16 {
        in d: bit(16);
        ctrl en: bit(1);
        out q: bit(16);
        register q = d when en == 1;
    }
    module Ram {
        in addr: bit(4);
        in din: bit(16);
        ctrl w: bit(1);
        out dout: bit(16);
        memory cells[16]: bit(16);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor Spilly {
        instruction word: bit(16);
        parts {
            alu: Alu; opmux: Mux2; accmux: Mux2; bmux: Mux2; dinmux: Mux2;
            acc: Reg16; b: Reg16; ram: Ram;
        }
        connections {
            alu.a = acc.q;
            alu.b = opmux.y;
            alu.f = I[0];
            opmux.a = ram.dout;
            opmux.b = b.q;
            opmux.s = I[1];
            accmux.a = alu.y;
            accmux.b = ram.dout;
            accmux.s = I[2];
            acc.d = accmux.y;
            acc.en = I[3];
            bmux.a = acc.q;
            bmux.b = ram.dout;
            bmux.s = I[4];
            b.d = bmux.y;
            b.en = I[5];
            dinmux.a = acc.q;
            dinmux.b = b.q;
            dinmux.s = I[6];
            ram.din = dinmux.y;
            ram.w = I[7];
            ram.addr = I[11:8];
        }
    }
"#;

struct Rig {
    netlist: Netlist,
    base: record_rtl::TemplateBase,
    selector: Selector,
    manager: std::cell::RefCell<record_bdd::BddManager>,
    tables: crate::EmitTables,
}

impl Rig {
    fn codegen(&self) -> Codegen<'_> {
        Codegen {
            selector: &self.selector,
            base: &self.base,
            netlist: &self.netlist,
            tables: &self.tables,
        }
    }
}

fn rig(src: &str) -> Rig {
    let model = record_hdl::parse(src).expect("parses");
    let netlist = record_netlist::elaborate(&model).expect("elaborates");
    let ex = record_isex::extract(&netlist, &Default::default()).expect("extracts");
    let mut base = ex.base.clone();
    record_rtl::extend(&mut base, &record_rtl::ExtensionOptions::default());
    let grammar = TreeGrammar::from_base(&base, &netlist);
    let selector = Selector::generate(grammar);
    let mut manager = ex.manager;
    let tables = crate::EmitTables::build(&netlist, &mut manager, netlist.iword_width());
    Rig {
        netlist,
        base,
        selector,
        manager: std::cell::RefCell::new(manager),
        tables,
    }
}

/// Compiles `csrc`'s function `f`, runs both the interpreter and the RT
/// simulator from `init`, and asserts every variable agrees afterwards.
/// Returns the op count.
fn compile_and_check(r: &Rig, csrc: &str, init: &[(&str, Vec<u64>)]) -> usize {
    let prog = record_ir::parse(csrc).expect("mini-C parses");
    let cfg = record_ir::lower_cfg(&prog, "f").expect("lowers");
    let dm = r
        .netlist
        .storages()
        .iter()
        .find(|s| s.kind == record_netlist::StorageKind::Memory)
        .expect("data memory")
        .id;
    let mut binding = Binding::allocate(&prog, "f", &r.netlist, dm).expect("binds");
    let ops = r
        .codegen()
        .compile(
            &cfg,
            &mut binding,
            &mut r.manager.borrow_mut(),
            &mut record_probe::Probe::disabled(),
        )
        .expect("compiles")
        .ops;

    // Oracle: the mini-C interpreter.
    let mut mem = Memory::new();
    for (k, v) in init {
        mem.insert((*k).to_owned(), v.clone());
    }
    record_ir::interp(&prog, "f", &mut mem, 16).expect("interprets");

    // Machine: run the RT ops.
    let mut m = Machine::new(&r.netlist);
    for (k, v) in init {
        let base_addr = binding
            .assignments()
            .find(|(n, _)| n == k)
            .expect("bound var")
            .1;
        for (i, val) in v.iter().enumerate() {
            m.set_mem(dm, base_addr + i as u64, *val & 0xFFFF);
        }
    }
    m.run(&ops);

    // Compare only variables the lowered program touches: loop induction
    // variables are folded away by unrolling and legitimately never reach
    // machine memory.
    let touched = cfg.touched_variables();
    for (name, addr) in binding.assignments() {
        if !touched.contains(name) {
            continue;
        }
        let want = &mem[name];
        for (i, w) in want.iter().enumerate() {
            assert_eq!(m.mem(dm, addr + i as u64), *w, "mismatch at {name}[{i}]");
        }
    }
    ops.len()
}

#[test]
fn mac_statement_compiles_to_four_ops() {
    let r = rig(DSP8);
    // s = s + a*b: load s -> acc, load a -> t, MAC with b, store s.
    let n = compile_and_check(
        &r,
        "int s, a, b; void f() { s = s + a * b; }",
        &[("s", vec![10]), ("a", vec![3]), ("b", vec![4])],
    );
    assert_eq!(n, 4);
}

#[test]
fn dot_product_correct_and_compact() {
    let r = rig(DSP8);
    let n = compile_and_check(
        &r,
        "int s, a[4], b[4]; void f() { int i; s = 0; for (i = 0; i < 4; i++) { s += a[i] * b[i]; } }",
        &[
            ("a", vec![1, 2, 3, 4]),
            ("b", vec![5, 6, 7, 8]),
        ],
    );
    // Statement 1: clear s (2 ops: load imm? no imm path => acc := ram? ).
    // Main loop: 4 iterations x (load s, load t, mac, store) at most.
    assert!(n <= 2 + 4 * 4, "op count {n}");
}

#[test]
fn subtraction_order_is_respected() {
    let r = rig(DSP8);
    compile_and_check(
        &r,
        "int x, p, q; void f() { x = p - q; }",
        &[("p", vec![100]), ("q", vec![30])],
    );
}

#[test]
fn copy_statement() {
    let r = rig(DSP8);
    let n = compile_and_check(&r, "int x, y; void f() { x = y; }", &[("y", vec![77])]);
    // acc := ram[y]; ram[x] := acc.
    assert_eq!(n, 2);
}

#[test]
fn wrapping_arithmetic_matches_interpreter() {
    let r = rig(DSP8);
    compile_and_check(
        &r,
        "int x, a, b; void f() { x = a * b + a; }",
        &[("a", vec![0xFFFF]), ("b", vec![0x1234])],
    );
}

#[test]
fn conflict_resolved_by_operand_ordering() {
    let r = rig(SPILLY);
    // Both operands of the outer - need acc/b; ordering avoids a spill.
    let n = compile_and_check(
        &r,
        "int x, p, q, rr, s; void f() { x = (p - q) - (rr - s); }",
        &[
            ("p", vec![50]),
            ("q", vec![8]),
            ("rr", vec![30]),
            ("s", vec![10]),
        ],
    );
    // No scratch traffic: 2 loads + sub, move to b, 2 loads? Exact: rr-s
    // into acc (acc:=ram, acc-=ram), b := acc, p-q into acc, acc -= b,
    // store = 7 ops, no spills.
    assert_eq!(n, 7);
}

#[test]
fn deep_conflict_forces_spill_and_stays_correct() {
    let r = rig(SPILLY);
    let n = compile_and_check(
        &r,
        "int x, p, q, rr, s, t, u; void f() { x = ((p - q) - (rr - s)) - (t - u); }",
        &[
            ("p", vec![500]),
            ("q", vec![8]),
            ("rr", vec![30]),
            ("s", vec![10]),
            ("t", vec![7]),
            ("u", vec![2]),
        ],
    );
    // The middle (rr-s) value must be spilled while (t-u) occupies b.
    assert!(n >= 12, "expected spill traffic, got {n} ops");
}

#[test]
fn baseline_never_chains() {
    let r = rig(DSP8);
    let prog = record_ir::parse("int s, a, b; void f() { s = s + a * b; }").unwrap();
    let cfg = record_ir::lower_cfg(&prog, "f").unwrap();
    let dm = r.netlist.storage_by_name("ram").unwrap().id;

    let mut b1 = Binding::allocate(&prog, "f", &r.netlist, dm).unwrap();
    let smart = r
        .codegen()
        .compile(
            &cfg,
            &mut b1,
            &mut r.manager.borrow_mut(),
            &mut record_probe::Probe::disabled(),
        )
        .unwrap()
        .ops;

    let mut b2 = Binding::allocate(&prog, "f", &r.netlist, dm).unwrap();
    let naive = r
        .codegen()
        .baseline(
            &cfg,
            &mut b2,
            &mut r.manager.borrow_mut(),
            &mut record_probe::Probe::disabled(),
        )
        .unwrap()
        .ops;

    assert!(
        naive.len() > smart.len(),
        "baseline {} vs record {}",
        naive.len(),
        smart.len()
    );

    // Baseline result is still correct.
    let mut m = Machine::new(&r.netlist);
    let s_addr = b2.assignments().find(|(n, _)| *n == "s").unwrap().1;
    let a_addr = b2.assignments().find(|(n, _)| *n == "a").unwrap().1;
    let b_addr = b2.assignments().find(|(n, _)| *n == "b").unwrap().1;
    m.set_mem(dm, s_addr, 10);
    m.set_mem(dm, a_addr, 3);
    m.set_mem(dm, b_addr, 4);
    m.run(&naive);
    assert_eq!(m.mem(dm, s_addr), 22);
}

#[test]
fn select_error_reports_subtree() {
    let r = rig(DSP8);
    let prog = record_ir::parse("int x, a, b; void f() { x = a / b; }").unwrap();
    let cfg = record_ir::lower_cfg(&prog, "f").unwrap();
    let dm = r.netlist.storage_by_name("ram").unwrap().id;
    let mut binding = Binding::allocate(&prog, "f", &r.netlist, dm).unwrap();
    let err = r
        .codegen()
        .compile(
            &cfg,
            &mut binding,
            &mut r.manager.borrow_mut(),
            &mut record_probe::Probe::disabled(),
        )
        .unwrap_err();
    assert!(matches!(err, CodegenError::Select { .. }), "{err}");
    assert!(err.to_string().contains("div"));
    // The DSP8 machine genuinely has no divider, and the selector proves
    // it: the error carries the missing operator, not just prose.
    match err {
        CodegenError::Select { missing_op, .. } => assert_eq!(missing_op, Some("div")),
        _ => unreachable!(),
    }
}

#[test]
fn binding_layout_is_sequential() {
    let r = rig(DSP8);
    let prog = record_ir::parse("int x, a[3], y; void f() { x = 0; }").unwrap();
    let dm = r.netlist.storage_by_name("ram").unwrap().id;
    let b = Binding::allocate(&prog, "f", &r.netlist, dm).unwrap();
    let m: std::collections::BTreeMap<&str, u64> = b.assignments().collect();
    assert_eq!(m["x"], 0);
    assert_eq!(m["a"], 1);
    assert_eq!(m["y"], 4);
}

#[test]
fn binding_rejects_oversized_program() {
    let r = rig(DSP8);
    let prog = record_ir::parse("int big[100]; void f() { big[0] = 0; }").unwrap();
    let dm = r.netlist.storage_by_name("ram").unwrap().id;
    let err = Binding::allocate(&prog, "f", &r.netlist, dm).unwrap_err();
    assert!(matches!(err, CodegenError::OutOfStorage { .. }));
}

#[test]
fn rendered_listing_is_readable() {
    let r = rig(DSP8);
    let prog = record_ir::parse("int s, a, b; void f() { s = s + a * b; }").unwrap();
    let cfg = record_ir::lower_cfg(&prog, "f").unwrap();
    let dm = r.netlist.storage_by_name("ram").unwrap().id;
    let mut binding = Binding::allocate(&prog, "f", &r.netlist, dm).unwrap();
    let ops = r
        .codegen()
        .compile(
            &cfg,
            &mut binding,
            &mut r.manager.borrow_mut(),
            &mut record_probe::Probe::disabled(),
        )
        .unwrap()
        .ops;
    let listing: Vec<String> = ops.iter().map(|o| o.render(&r.netlist)).collect();
    assert!(listing.iter().any(|l| l.contains("acc :=")), "{listing:?}");
    assert!(listing.iter().any(|l| l.contains("t :=")), "{listing:?}");
}
