use crate::*;
use proptest::prelude::*;

const TINY: &str = r#"
-- A one-register machine: acc loads the ALU result when I[7] is set.
module Alu {
    in a: bit(8);
    in b: bit(8);
    ctrl f: bit(2);
    out y: bit(8);
    behavior {
        case f {
            0 => y = a + b;
            1 => y = a - b;
            2 => y = a & b;
            3 => y = a;
        }
    }
}
module Acc {
    in d: bit(8);
    ctrl en: bit(1);
    out q: bit(8);
    register q = d when en == 1;
}
processor Tiny {
    instruction word: bit(8);
    in pin: bit(8);
    out pout: bit(8);
    parts {
        alu: Alu;
        acc: Acc;
    }
    connections {
        alu.a = acc.q;
        alu.b = pin;
        alu.f = I[1:0];
        acc.d = alu.y;
        acc.en = I[7];
        pout = acc.q;
    }
}
"#;

#[test]
fn parses_tiny_model() {
    let m = parse(TINY).unwrap();
    assert_eq!(m.modules.len(), 2);
    assert_eq!(m.processor.name, "Tiny");
    assert_eq!(m.processor.iword_width, 8);
    assert_eq!(m.processor.parts.len(), 2);
    assert_eq!(m.processor.connections.len(), 6);
    let alu = m.module("Alu").unwrap();
    assert_eq!(alu.ports.len(), 4);
    assert_eq!(alu.port("f").unwrap().dir, PortDir::Ctrl);
    match &alu.body {
        ModuleBody::Combinational(stmts) => {
            assert_eq!(stmts.len(), 1);
            match &stmts[0] {
                Stmt::Case { arms, default, .. } => {
                    assert_eq!(arms.len(), 4);
                    assert!(default.is_none());
                }
                other => panic!("expected case, got {other:?}"),
            }
        }
        other => panic!("expected combinational, got {other:?}"),
    }
}

#[test]
fn parses_register_module() {
    let m = parse(TINY).unwrap();
    let acc = m.module("Acc").unwrap();
    match &acc.body {
        ModuleBody::Register(r) => {
            assert_eq!(r.out, "q");
            assert_eq!(r.input, Expr::Port("d".into()));
            assert!(r.guard.is_some());
        }
        other => panic!("expected register, got {other:?}"),
    }
}

#[test]
fn parses_memory_module() {
    let src = r#"
        module Ram {
            in addr: bit(8);
            in din: bit(16);
            ctrl w: bit(1);
            out dout: bit(16);
            memory cells[256]: bit(16);
            read dout = cells[addr];
            write cells[addr] = din when w == 1;
        }
        processor P {
            instruction word: bit(4);
            parts { ram: Ram; }
            connections {
                ram.addr = I[3:0];
                ram.din = ram.dout;
                ram.w = I[3];
            }
        }
    "#;
    let m = parse(src).unwrap();
    let ram = m.module("Ram").unwrap();
    match &ram.body {
        ModuleBody::Memory(mem) => {
            assert_eq!(mem.size, 256);
            assert_eq!(mem.width, 16);
            assert_eq!(mem.reads.len(), 1);
            assert_eq!(mem.writes.len(), 1);
        }
        other => panic!("expected memory, got {other:?}"),
    }
}

#[test]
fn parses_busses_and_drivers() {
    let src = r#"
        module R { in d: bit(8); ctrl en: bit(1); out q: bit(8);
                   register q = d when en == 1; }
        processor P {
            instruction word: bit(8);
            in pin: bit(8);
            bus dbus: bit(8);
            parts { r1: R; r2: R; }
            connections {
                drive dbus = r1.q when I[0] == 0;
                drive dbus = pin when I[0] == 1 & I[1] != 0;
                r1.d = dbus;
                r1.en = I[2];
                r2.d = dbus;
                r2.en = I[3];
            }
        }
    "#;
    let m = parse(src).unwrap();
    assert_eq!(m.processor.busses.len(), 1);
    assert_eq!(m.processor.drivers.len(), 2);
    let d = &m.processor.drivers[1];
    assert_eq!(d.bus, "dbus");
    assert!(matches!(d.guard, Some(Cond::And(_, _))));
}

#[test]
fn parses_modes() {
    let src = r#"
        module M { in d: bit(1); out q: bit(1); register q = d; }
        processor P {
            instruction word: bit(4);
            parts { st: M; }
            modes { st }
            connections { st.d = I[0]; }
        }
    "#;
    let m = parse(src).unwrap();
    assert_eq!(m.processor.modes, vec!["st".to_owned()]);
}

#[test]
fn expression_precedence() {
    // a + b * c parses as a + (b*c)
    let src = r#"
        module M { in a: bit(8); in b: bit(8); in c: bit(8); out y: bit(8);
                   behavior { y = a + b * c; } }
        processor P { instruction word: bit(1); parts { m: M; }
                      connections { m.a = 1; m.b = 2; m.c = 3; } }
    "#;
    let m = parse(src).unwrap();
    let def = m.module("M").unwrap();
    let ModuleBody::Combinational(stmts) = &def.body else {
        panic!()
    };
    let Stmt::Assign { value, .. } = &stmts[0] else {
        panic!()
    };
    match value {
        Expr::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } => {
            assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
        }
        other => panic!("unexpected tree {other:?}"),
    }
}

#[test]
fn slice_parsing() {
    let src = r#"
        module M { in a: bit(16); out y: bit(8);
                   behavior { y = a[15:8]; } }
        processor P { instruction word: bit(1); parts { m: M; }
                      connections { m.a = I[0]; } }
    "#;
    let m = parse(src).unwrap();
    let def = m.module("M").unwrap();
    let ModuleBody::Combinational(stmts) = &def.body else {
        panic!()
    };
    let Stmt::Assign { value, .. } = &stmts[0] else {
        panic!()
    };
    assert!(matches!(value, Expr::Slice { hi: 15, lo: 8, .. }));
}

#[test]
fn hex_and_binary_literals() {
    let src = r#"
        module M { out y: bit(8); behavior { y = 0xFF & 0b1010; } }
        processor P { instruction word: bit(1); parts { m: M; } connections { } }
    "#;
    let m = parse(src).unwrap();
    let def = m.module("M").unwrap();
    let ModuleBody::Combinational(stmts) = &def.body else {
        panic!()
    };
    let Stmt::Assign { value, .. } = &stmts[0] else {
        panic!()
    };
    match value {
        Expr::Binary { lhs, rhs, .. } => {
            assert_eq!(**lhs, Expr::Const(255));
            assert_eq!(**rhs, Expr::Const(10));
        }
        other => panic!("unexpected {other:?}"),
    }
}

// --------------------------- error paths ----------------------------------

#[test]
fn rejects_missing_processor() {
    let err = parse("module M { out y: bit(1); behavior { y = 1; } }").unwrap_err();
    assert_eq!(*err.kind(), HdlErrorKind::Semantic);
    assert!(err.message().contains("no processor"));
}

#[test]
fn rejects_duplicate_module() {
    let src = r#"
        module M { out y: bit(1); behavior { y = 1; } }
        module M { out y: bit(1); behavior { y = 1; } }
        processor P { instruction word: bit(1); parts { } connections { } }
    "#;
    let err = parse(src).unwrap_err();
    assert!(err.message().contains("duplicate module"));
}

#[test]
fn rejects_bad_width() {
    let src = r#"
        module M { out y: bit(65); behavior { y = 1; } }
        processor P { instruction word: bit(1); parts { } connections { } }
    "#;
    let err = parse(src).unwrap_err();
    assert!(err.message().contains("out of range"));
}

#[test]
fn rejects_reversed_slice() {
    let src = r#"
        module M { in a: bit(8); out y: bit(8); behavior { y = a[0:7]; } }
        processor P { instruction word: bit(1); parts { } connections { } }
    "#;
    let err = parse(src).unwrap_err();
    assert!(err.message().contains("lo > hi"));
}

#[test]
fn rejects_module_without_body() {
    let src = r#"
        module M { in a: bit(8); out y: bit(8); }
        processor P { instruction word: bit(1); parts { } connections { } }
    "#;
    let err = parse(src).unwrap_err();
    assert!(err.message().contains("no behavior"));
}

/// A rejected character is named whole, not by its first UTF-8 byte.
#[test]
fn rejects_unknown_character() {
    for c in ['@', 'é', '«', '☃'] {
        let err = parse(&format!("module M {c}")).unwrap_err();
        assert_eq!(*err.kind(), HdlErrorKind::Lex);
        assert_eq!(err.message(), format!("unexpected character `{c}`"));
        assert_eq!((err.line(), err.column()), (1, 10));
    }
}

#[test]
fn error_positions_are_tracked() {
    let src = "module M {\n  in a bit(8);\n}";
    let err = parse(src).unwrap_err();
    assert_eq!(err.line(), 2);
}

#[test]
fn rejects_two_registers() {
    let src = r#"
        module M { in d: bit(8); out q: bit(8);
                   register q = d;
                   register q = d; }
        processor P { instruction word: bit(1); parts { } connections { } }
    "#;
    let err = parse(src).unwrap_err();
    assert!(err.message().contains("more than one register"));
}

#[test]
fn rejects_memory_without_read() {
    let src = r#"
        module M { in a: bit(4); memory cells[16]: bit(8); }
        processor P { instruction word: bit(1); parts { } connections { } }
    "#;
    let err = parse(src).unwrap_err();
    assert!(err.message().contains("no read clause"));
}

// --------------------------- property tests -------------------------------

proptest! {
    /// The lexer never panics on arbitrary input.
    #[test]
    fn lexer_total(input in ".{0,200}") {
        let _ = Lexer::new(&input).tokenize();
    }

    /// The parser never panics on arbitrary token-ish text.
    #[test]
    fn parser_total(input in "[a-z0-9{}();:=\\[\\] .,+*&|!<>-]{0,200}") {
        let _ = parse(&input);
    }

    /// Round-trip: a generated case-ALU module always parses and keeps its
    /// arm count.
    #[test]
    fn case_arm_counts_survive(arms in 1usize..12) {
        let mut body = String::new();
        for i in 0..arms {
            body.push_str(&format!("{i} => y = a + {i};\n"));
        }
        let src = format!(
            "module M {{ in a: bit(8); ctrl f: bit(4); out y: bit(8);
              behavior {{ case f {{ {body} }} }} }}
             processor P {{ instruction word: bit(4); parts {{ m: M; }}
              connections {{ m.a = 1; m.f = I[3:0]; }} }}"
        );
        let m = parse(&src).unwrap();
        let ModuleBody::Combinational(stmts) = &m.module("M").unwrap().body else {
            panic!()
        };
        let Stmt::Case { arms: parsed, .. } = &stmts[0] else { panic!() };
        prop_assert_eq!(parsed.len(), arms);
    }
}

/// `TINY` nesting `levels` deep, one construct at a time: parentheses
/// around a register input and around its guard, a chain of `levels`
/// additions, `case` arms, `levels` labels in one `case`, and a driver
/// guard's parentheses, `&` chain and net slices.
fn nested_models(levels: usize) -> Vec<String> {
    let (open, close) = ("(".repeat(levels), ")".repeat(levels));
    let register = "register q = d when en == 1;";
    let add = "0 => y = a + b;";
    let driven = |guard: &str| {
        TINY.replace(
            "processor Tiny {",
            "processor Tiny {\n    bus dbus: bit(8);",
        )
        .replace(
            "alu.b = pin;",
            &format!("drive dbus = pin when {guard};\n        alu.b = dbus;"),
        )
    };
    vec![
        TINY.replace(
            register,
            &format!("register q = {open}d{close} when en == 1;"),
        ),
        TINY.replace(
            register,
            &format!("register q = d when {open}en{close} == 1;"),
        ),
        TINY.replace(add, &format!("0 => y = a{};", " + b".repeat(levels))),
        // The arm itself is one level; each inner `case` adds one.
        TINY.replace(
            add,
            &format!(
                "0 => {}y = a;{}",
                "case f { 0 => ".repeat(levels - 1),
                " }".repeat(levels - 1)
            ),
        ),
        // Labels 0 to 2 stay; the rest go three to an arm.
        TINY.replace(
            "3 => y = a;",
            &(3..levels)
                .collect::<Vec<_>>()
                .chunks(3)
                .map(|arm| {
                    let labels: Vec<String> = arm.iter().map(usize::to_string).collect();
                    format!("{} => y = a;\n", labels.join(", "))
                })
                .chain(["default => y = b;".to_owned()])
                .collect::<String>(),
        ),
        driven(&format!("{open}I[0] == 1{close}")),
        driven(&format!("I[0] == 1{}", " & I[1] == 0".repeat(levels))),
        driven(&format!("I[7:0]{} == 1", "[7:0]".repeat(levels))),
    ]
}

/// At the nesting cap each shape parses; one level past it each gets an
/// ordinary parse error with a position.
#[test]
fn nesting_is_capped() {
    for src in nested_models(MAX_NESTING) {
        parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    }
    for src in nested_models(MAX_NESTING + 1) {
        let e = parse(&src).unwrap_err();
        assert_eq!(*e.kind(), HdlErrorKind::Parse, "{e}");
        assert_eq!(e.message(), "nesting deeper than 256 levels");
        assert!(e.line() > 1, "{e}");
    }
}
