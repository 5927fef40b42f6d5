use crate::*;
use proptest::prelude::*;
use record_rtl::OpKind;

/// The statements of `f`, which must lower to a single block.
fn lower_one(p: &Program) -> Result<Vec<FlatStmt>, CError> {
    let cfg = lower_cfg(p, "f")?;
    assert!(cfg.is_straight_line(), "{cfg:?}");
    Ok(cfg.stmts().cloned().collect())
}

#[test]
fn parses_globals_and_function() {
    let src = "int x; int a[16], b[16]; void f() { int i; x = a[0] + b[1]; }";
    let p = parse(src).unwrap();
    assert_eq!(p.globals.len(), 3);
    assert_eq!(p.global("a").unwrap().size, Some(16));
    let f = p.function("f").unwrap();
    assert_eq!(f.locals.len(), 1);
    assert_eq!(f.body.len(), 1);
}

#[test]
fn compound_assignment_desugars() {
    let src = "int x, y; void f() { x += y; }";
    let p = parse(src).unwrap();
    let Stmt::Assign { value, .. } = &p.function("f").unwrap().body[0] else {
        panic!()
    };
    assert_eq!(
        *value,
        Expr::Binary(
            OpKind::Add,
            Box::new(Expr::Var("x".into())),
            Box::new(Expr::Var("y".into()))
        )
    );
}

#[test]
fn parses_for_loop_forms() {
    for step in ["i++", "i += 2", "i = i + 1"] {
        let src =
            format!("int a[8]; void f() {{ int i; for (i = 0; i < 8; {step}) {{ a[i] = 0; }} }}");
        let p = parse(&src).unwrap();
        let Stmt::For { start, bound, .. } = &p.function("f").unwrap().body[0] else {
            panic!("expected for loop");
        };
        assert_eq!(*start, 0);
        assert_eq!(*bound, Expr::Const(8));
    }
}

#[test]
fn precedence_matches_c() {
    let src = "int x, a, b, c; void f() { x = a + b * c; }";
    let p = parse(src).unwrap();
    let Stmt::Assign { value, .. } = &p.function("f").unwrap().body[0] else {
        panic!()
    };
    let Expr::Binary(OpKind::Add, _, rhs) = value else {
        panic!("expected + at root, got {value:?}")
    };
    assert!(matches!(**rhs, Expr::Binary(OpKind::Mul, _, _)));
}

#[test]
fn negative_literals_fold() {
    let src = "int x; void f() { x = -5; }";
    let p = parse(src).unwrap();
    let Stmt::Assign { value, .. } = &p.function("f").unwrap().body[0] else {
        panic!()
    };
    assert_eq!(*value, Expr::Const(-5));
}

#[test]
fn comments_are_skipped() {
    let src = "int x; // line\n/* block\n comment */ void f() { x = 1; }";
    assert!(parse(src).is_ok());
}

#[test]
fn lower_unrolls_loops() {
    let src =
        "int a[4], b[4], s; void f() { int i; for (i = 0; i < 4; i++) { s += a[i] * b[i]; } }";
    let p = parse(src).unwrap();
    let flat = lower_one(&p).unwrap();
    assert_eq!(flat.len(), 4);
    // Third statement reads a[2] and b[2].
    let FlatExpr::Binary(OpKind::Add, _, rhs) = &flat[2].value else {
        panic!()
    };
    let FlatExpr::Binary(OpKind::Mul, a, b) = &**rhs else {
        panic!()
    };
    assert_eq!(
        **a,
        FlatExpr::Load(Ref {
            name: "a".into(),
            offset: 2
        })
    );
    assert_eq!(
        **b,
        FlatExpr::Load(Ref {
            name: "b".into(),
            offset: 2
        })
    );
}

#[test]
fn lower_folds_index_arithmetic() {
    // Convolution-style reversed indexing.
    let src =
        "int h[4], x[4], y; void f() { int i; for (i = 0; i < 4; i++) { y += h[i] * x[3 - i]; } }";
    let p = parse(src).unwrap();
    let flat = lower_one(&p).unwrap();
    let FlatExpr::Binary(_, _, rhs) = &flat[0].value else {
        panic!()
    };
    let FlatExpr::Binary(_, _, x) = &**rhs else {
        panic!()
    };
    assert_eq!(
        **x,
        FlatExpr::Load(Ref {
            name: "x".into(),
            offset: 3
        })
    );
}

#[test]
fn lower_rejects_dynamic_index() {
    let src = "int a[4], j, x; void f() { x = a[j]; }";
    let p = parse(src).unwrap();
    let e = lower_one(&p).unwrap_err();
    assert!(e.message().contains("does not fold"));
}

#[test]
fn lower_rejects_out_of_bounds() {
    let src = "int a[4], x; void f() { x = a[7]; }";
    let p = parse(src).unwrap();
    let e = lower_one(&p).unwrap_err();
    assert!(e.message().contains("out of bounds"));
}

#[test]
fn lower_rejects_undeclared() {
    let src = "int x; void f() { x = q; }";
    let p = parse(src).unwrap();
    let e = lower_one(&p).unwrap_err();
    assert!(e.message().contains("undeclared"));
}

#[test]
fn loop_budget_guards_explosion() {
    let src = "int x; void f() { int i, j; for (i = 0; i < 100; i++) { for (j = 0; j < 100; j++) { x += 1; } } }";
    let p = parse(src).unwrap();
    let e = lower_one(&p).unwrap_err();
    assert!(e.message().contains("4096"));
}

#[test]
fn interp_dot_product() {
    let src = "int a[4], b[4], s; void f() { int i; s = 0; for (i = 0; i < 4; i++) { s += a[i] * b[i]; } }";
    let p = parse(src).unwrap();
    let mut mem = Memory::new();
    mem.insert("a".into(), vec![1, 2, 3, 4]);
    mem.insert("b".into(), vec![5, 6, 7, 8]);
    interp(&p, "f", &mut mem, 16).unwrap();
    assert_eq!(mem["s"][0], 5 + 12 + 21 + 32);
}

#[test]
fn interp_wraps_at_width() {
    let src = "int x; void f() { x = 30000 + 30000; }";
    let p = parse(src).unwrap();
    let mut mem = Memory::new();
    interp(&p, "f", &mut mem, 16).unwrap();
    assert_eq!(mem["x"][0], 60000 & 0xFFFF);
}

#[test]
fn parse_error_positions() {
    let e = parse("int x;\nvoid f() { x = ; }").unwrap_err();
    assert_eq!(e.line(), 2);
    // A bad array size is reported at the size token itself.
    for (src, msg) in [
        ("int a[x];", "expected array size"),
        ("int a[;\n", "expected array size"),
        ("int a[0];", "array size must be positive"),
    ] {
        let e = parse(src).unwrap_err();
        assert_eq!(e.message(), msg, "{src:?}");
        assert_eq!((e.line(), e.column()), (1, 7), "{src:?}");
    }
    // An unterminated block comment is reported where it opens.
    let e = parse("int x;\n/* never\nclosed\nvoid f() { x = 1; }").unwrap_err();
    assert_eq!(e.message(), "unterminated block comment");
    assert_eq!((e.line(), e.column()), (2, 1));
    // A bad integer quotes the whole literal, `0x` included.
    for (src, text) in [
        ("int x; void f() { x = 0x; }", "0x"),
        ("int x; void f() { x = 0xZZ; }", "0xZZ"),
        ("int x; void f() { x = 12ab; }", "12ab"),
    ] {
        let e = parse(src).unwrap_err();
        assert_eq!(e.message(), format!("bad integer `{text}`"), "{src:?}");
        assert_eq!((e.line(), e.column()), (1, 23), "{src:?}");
    }
}

/// A rejected character is named whole, not by its first UTF-8 byte.
#[test]
fn unexpected_character_is_named_whole() {
    for c in ['é', '«', '☃'] {
        let e = parse(&format!("int x; void f() {{ x = 1 {c} 2; }}")).unwrap_err();
        assert_eq!(e.message(), format!("unexpected character `{c}`"));
        assert_eq!((e.line(), e.column()), (1, 25));
    }
}

// ---------------------------------------------------------------------------
// Property: the lexer reads what a plain scan reads.  The reference tries
// every punctuation spelling by `starts_with`, longest first, and renders
// tokens as `parser::lex_spellings` does; an error compares by message,
// line and column.
// ---------------------------------------------------------------------------

type Spelled = Vec<(String, u32, u32)>;

/// The reference tokenizer: whitespace and both comment forms skipped,
/// identifiers, decimal and `0x` integers, and the 40 punctuation
/// spellings.  Positions count bytes, as the lexer's do.
fn reference_tokens(src: &str) -> Result<Spelled, (String, u32, u32)> {
    const PUNCTS: [&str; 40] = [
        "<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "<<", ">>", "<=",
        ">=", "==", "!=", "&&", "||", "+", "-", "*", "/", "%", "&", "|", "^", "(", ")", "{", "}",
        "[", "]", ";", ",", "=", "<", ">", "!",
    ];
    // The line and column of byte `k`.
    let at = |k: usize| {
        let before = &src.as_bytes()[..k];
        let line = 1 + before.iter().filter(|&&c| c == b'\n').count();
        let col = match before.iter().rposition(|&c| c == b'\n') {
            Some(nl) => k - nl,
            None => k + 1,
        };
        (line as u32, col as u32)
    };
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        let (line, col) = at(i);
        let rest = &src[i..];
        if rest.is_empty() {
            out.push((String::new(), line, col));
            return Ok(out);
        }
        let c = b[i];
        let start = i;
        if c.is_ascii_whitespace() {
            i += 1;
        } else if rest.starts_with("//") {
            i += rest.find('\n').unwrap_or(rest.len());
        } else if let Some(body) = rest.strip_prefix("/*") {
            match body.find("*/") {
                Some(end) => i += end + 4,
                None => return Err(("unterminated block comment".into(), line, col)),
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push((src[start..i].to_owned(), line, col));
        } else if c.is_ascii_digit() {
            let hex = rest.starts_with("0x") || rest.starts_with("0X");
            if hex {
                i += 2;
            }
            let digits = i;
            while i < b.len() && b[i].is_ascii_alphanumeric() {
                i += 1;
            }
            match i64::from_str_radix(&src[digits..i], if hex { 16 } else { 10 }) {
                Ok(v) => out.push((v.to_string(), line, col)),
                Err(_) => return Err((format!("bad integer `{}`", &src[start..i]), line, col)),
            }
        } else if let Some(p) = PUNCTS.iter().find(|p| rest.starts_with(**p)) {
            i += p.len();
            out.push(((*p).to_owned(), line, col));
        } else {
            let c = rest.chars().next().expect("`rest` is not empty");
            return Err((format!("unexpected character `{c}`"), line, col));
        }
    }
}

/// One piece of a lexer input.  Most picks are operator characters,
/// which run together into longer spellings, or one of the 20 spellings
/// longer than one character; the rest are brackets and separators,
/// words, numbers, `0x`, blanks and comment marks, and a few picks are a
/// character no token starts with.
fn lexer_fragment(pick: u8) -> &'static str {
    const OPERATOR: [&str; 12] = ["<", ">", "=", "!", "+", "-", "*", "/", "%", "&", "|", "^"];
    const SPELLED: [&str; 20] = [
        "<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "<<", ">>", "<=",
        ">=", "==", "!=", "&&", "||",
    ];
    const SEPARATOR: [&str; 8] = ["(", ")", "{", "}", "[", "]", ";", ","];
    const OTHER: [&str; 14] = [
        "a", "x", "_", "int", "0", "7", "0x", "0X", "f", " ", "\n", "//", "/*", "*/",
    ];
    let pick = usize::from(pick);
    match pick {
        0..=95 => OPERATOR[pick % OPERATOR.len()],
        96..=135 => SPELLED[pick % SPELLED.len()],
        136..=175 => SEPARATOR[pick % SEPARATOR.len()],
        176..=249 => OTHER[pick % OTHER.len()],
        250..=252 => "@",
        _ => "é",
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]
    #[test]
    fn lexer_matches_the_reference_tokenizer(picks in prop::collection::vec(any::<u8>(), 0..40)) {
        let src: String = picks.iter().map(|&p| lexer_fragment(p)).collect();
        let got = crate::parser::lex_spellings(&src)
            .map_err(|e| (e.message().to_owned(), e.line(), e.column()));
        prop_assert_eq!(got, reference_tokens(&src), "{:?}", src);
    }
}

/// `f` nesting `levels` deep three ways: parentheses around an operand,
/// `if` blocks, and a chain of `levels` additions.
fn nested_programs(levels: usize) -> [String; 3] {
    let f = |body: String| format!("int a, x; void f() {{ {body} }}");
    [
        f(format!(
            "x = {}a{};",
            "(".repeat(levels),
            ")".repeat(levels)
        )),
        f(format!(
            "{}x = a;{}",
            "if (a) { ".repeat(levels),
            " }".repeat(levels)
        )),
        f(format!("x = a{};", " + a".repeat(levels))),
    ]
}

/// At the nesting cap each shape parses, lowers and runs; one level past
/// it the parser returns an ordinary error with a position, as does an
/// `else if` chain, whose every link nests.
#[test]
fn nesting_is_capped() {
    for src in nested_programs(MAX_NESTING) {
        let p = parse(&src).unwrap();
        lower_cfg(&p, "f").unwrap();
        let mut mem = Memory::new();
        mem.insert("a".into(), vec![1]);
        interp(&p, "f", &mut mem, 16).unwrap();
    }
    let else_ifs = format!(
        "int a, x; void f() {{ if (a) {{ x = a; }}{} }}",
        " else if (a) { x = a; }".repeat(MAX_NESTING)
    );
    let [parens, ifs, chain] = nested_programs(MAX_NESTING + 1);
    for src in [parens, ifs, chain, else_ifs] {
        let e = parse(&src).unwrap_err();
        assert_eq!(e.message(), "nesting deeper than 256 levels");
        assert_eq!(e.line(), 1);
        assert!(e.column() > 1, "{e}");
    }
}

// ---------------------------------------------------------------------------
// Property: for loop-free programs, interpretation of the AST agrees with
// evaluation of the lowered flat statements — lowering preserves semantics.
// ---------------------------------------------------------------------------

fn eval_flat(e: &FlatExpr, mem: &Memory, width: u16) -> u64 {
    let m: u64 = if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    };
    match e {
        FlatExpr::Const(c) => (*c as u64) & m,
        FlatExpr::Load(r) => mem[&r.name][r.offset as usize],
        FlatExpr::Unary(op, a) => op.eval(&[eval_flat(a, mem, width)], width),
        FlatExpr::Binary(op, a, b) => {
            op.eval(&[eval_flat(a, mem, width), eval_flat(b, mem, width)], width)
        }
    }
}

proptest! {
    #[test]
    fn lowering_preserves_semantics(
        vals in prop::collection::vec(0u64..0xFFFF, 8),
        n in 1usize..5,
    ) {
        // s += a[i] * b[i] over a loop of n iterations.
        let src = format!(
            "int a[8], b[8], s; void f() {{ int i; for (i = 0; i < {n}; i++) {{ s += a[i] * b[i]; }} }}"
        );
        let p = parse(&src).unwrap();

        // Oracle: interpret the AST.
        let mut mem1 = Memory::new();
        mem1.insert("a".into(), vals[..4].iter().map(|v| v & 0xFFFF).collect::<Vec<_>>().into_iter().chain([0;4]).collect());
        mem1.insert("b".into(), vals[4..].iter().map(|v| v & 0xFFFF).collect::<Vec<_>>().into_iter().chain([0;4]).collect());
        interp(&p, "f", &mut mem1, 16).unwrap();

        // Lowered: evaluate flat statements sequentially.
        let flat = lower_one(&p).unwrap();
        let mut mem2 = Memory::new();
        mem2.insert("a".into(), mem1["a"].clone());
        // a was mutated? no — only s is written; copy initial values again:
        mem2.insert("a".into(), vals[..4].iter().map(|v| v & 0xFFFF).collect::<Vec<_>>().into_iter().chain([0;4]).collect());
        mem2.insert("b".into(), vals[4..].iter().map(|v| v & 0xFFFF).collect::<Vec<_>>().into_iter().chain([0;4]).collect());
        mem2.insert("s".into(), vec![0]);
        mem2.insert("i".into(), vec![0]);
        for st in &flat {
            let v = eval_flat(&st.value, &mem2, 16);
            let cells = mem2.get_mut(&st.target.name).unwrap();
            cells[st.target.offset as usize] = v;
        }
        prop_assert_eq!(mem1["s"][0], mem2["s"][0]);
    }
}

// ---------------------------------------------------------------------------
// Robustness regressions from the differential fuzzer (record-fuzz): these
// inputs used to panic, hang, or silently miscompile.
// ---------------------------------------------------------------------------

#[test]
fn width_dependent_constants_are_not_folded() {
    // `(-1) >> (-1)` folds to 1 in 64-bit arithmetic but evaluates to 0 at
    // any machine width — lowering must leave it to the hardware.
    let p = parse("int x; void f() { x = (0 - 1) >> (0 - 1); }").unwrap();
    let flat = lower_one(&p).unwrap();
    assert!(
        matches!(flat[0].value, FlatExpr::Binary(OpKind::Shr, ..)),
        "width-dependent op must stay symbolic, got {:?}",
        flat[0].value
    );

    // Mask-commuting arithmetic still folds (index shapes like `N-1-i`).
    let p = parse("int x; void f() { x = 5 - 3 + 2 * 4; }").unwrap();
    let flat = lower_one(&p).unwrap();
    assert_eq!(flat[0].value, FlatExpr::Const(10));
}

#[test]
fn width_dependent_index_is_rejected_structurally() {
    let p = parse("int x; int a[4]; void f() { x = a[6 / 2]; }").unwrap();
    let e = lower_one(&p).unwrap_err();
    assert!(
        e.to_string().contains("width-dependent"),
        "expected structured rejection, got: {e}"
    );
}

#[test]
fn extreme_constant_folds_do_not_overflow() {
    // i64::MIN / -1 and -i64::MIN overflow naive folding; both appear in
    // loop-bound constant expressions, which fold at parse time.
    for src in [
        "void f() { int i; for (i = (0 - 9223372036854775807 - 1) / (0 - 1); i < 2; i++) { } }",
        "void f() { int i; for (i = (0 - 9223372036854775807 - 1) % (0 - 1); i < 2; i++) { } }",
        "void f() { int i; for (i = -(0 - 9223372036854775807 - 1); i < 2; i++) { } }",
    ] {
        let _ = parse(src); // must not panic (Ok or structured error both fine)
    }
}

#[test]
fn loop_counter_overflow_terminates() {
    // A counter that saturates at i64::MAX must stop, not overflow: with
    // `<=` the continuation test alone never fails.
    let max = i64::MAX;
    let src = format!(
        "int x; void f() {{ int i; for (i = {}; i <= {max}; i++) {{ x = x + 1; }} }}",
        max - 1
    );
    let p = parse(&src).unwrap();
    let mut mem = Memory::new();
    interp(&p, "f", &mut mem, 16).unwrap();
    assert_eq!(mem["x"][0], 2, "two iterations then saturation");
    // Lowering hits the same saturation (unroll budget allows 2 here).
    let flat = lower_one(&p).unwrap();
    assert_eq!(flat.len(), 2);
}

#[test]
fn interpreter_budget_bounds_huge_loops() {
    let src = "int x; void f() { int i; for (i = 0; i < 9223372036854775807; i++) { x = x + 1; } }";
    let p = parse(src).unwrap();
    let mut mem = Memory::new();
    let e = interp(&p, "f", &mut mem, 16).unwrap_err();
    assert!(e.to_string().contains("budget"), "got: {e}");
}

#[test]
fn non_positive_step_is_rejected_by_interp() {
    // The parser forbids this; a hand-built AST must still not hang.
    let p = Program {
        globals: vec![VarDecl {
            name: "i".into(),
            size: None,
        }],
        functions: vec![Function {
            name: "f".into(),
            locals: vec![],
            body: vec![Stmt::For {
                var: "i".into(),
                start: 0,
                bound: Expr::Const(10),
                le: false,
                step: 0,
                body: vec![],
                span: Span::default(),
            }],
        }],
    };
    let mut mem = Memory::new();
    let e = interp(&p, "f", &mut mem, 16).unwrap_err();
    assert!(e.to_string().contains("step"), "got: {e}");
}
