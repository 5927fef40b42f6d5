//! Lexer and recursive-descent parser for mini-C.

use crate::ast::*;
use crate::error::CError;
use record_rtl::OpKind;

#[derive(Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Punct(&'static str),
    Eof,
}

#[derive(Debug)]
struct Token {
    tok: Tok,
    line: u32,
    col: u32,
}

fn lex(src: &str) -> Result<Vec<Token>, CError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);
    let bump = |i: &mut usize, line: &mut u32, col: &mut u32, b: &[u8]| {
        if b[*i] == b'\n' {
            *line += 1;
            *col = 1;
        } else {
            *col += 1;
        }
        *i += 1;
    };
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            bump(&mut i, &mut line, &mut col, b);
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                bump(&mut i, &mut line, &mut col, b);
            }
            continue;
        }
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            bump(&mut i, &mut line, &mut col, b);
            bump(&mut i, &mut line, &mut col, b);
            while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                bump(&mut i, &mut line, &mut col, b);
            }
            if i + 1 >= b.len() {
                return Err(CError::new(line, col, "unterminated block comment"));
            }
            bump(&mut i, &mut line, &mut col, b);
            bump(&mut i, &mut line, &mut col, b);
            continue;
        }
        let (tline, tcol) = (line, col);
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                bump(&mut i, &mut line, &mut col, b);
            }
            let text = std::str::from_utf8(&b[start..i]).expect("ascii").to_owned();
            out.push(Token {
                tok: Tok::Ident(text),
                line: tline,
                col: tcol,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let radix = if c == b'0' && i + 1 < b.len() && (b[i + 1] | 32) == b'x' {
                bump(&mut i, &mut line, &mut col, b);
                bump(&mut i, &mut line, &mut col, b);
                16
            } else {
                10
            };
            let dstart = if radix == 16 { i } else { start };
            while i < b.len() && b[i].is_ascii_alphanumeric() {
                bump(&mut i, &mut line, &mut col, b);
            }
            let text = std::str::from_utf8(&b[dstart..i]).expect("ascii");
            let v = i64::from_str_radix(text, radix)
                .map_err(|_| CError::new(tline, tcol, format!("bad integer `{text}`")))?;
            out.push(Token {
                tok: Tok::Int(v),
                line: tline,
                col: tcol,
            });
            continue;
        }
        // Multi-char punctuation, longest first.
        const PUNCTS: [&str; 28] = [
            "<<=", ">>=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "<<", ">>",
            "<=", ">=", "==", "!=", "&&", "||", "+", "-", "*", "/", "%", "&", "|", "^",
        ];
        const SINGLES: [&str; 12] = ["(", ")", "{", "}", "[", "]", ";", ",", "=", "<", ">", "!"];
        let rest = &src[i..];
        let mut matched = None;
        for p in PUNCTS.iter().chain(SINGLES.iter()) {
            if rest.starts_with(p) {
                matched = Some(*p);
                break;
            }
        }
        let Some(p) = matched else {
            let c = rest.chars().next().expect("`i` is inside `src`");
            return Err(CError::new(
                tline,
                tcol,
                format!("unexpected character `{c}`"),
            ));
        };
        for _ in 0..p.len() {
            bump(&mut i, &mut line, &mut col, b);
        }
        out.push(Token {
            tok: Tok::Punct(p),
            line: tline,
            col: tcol,
        });
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

/// How deep mini-C syntax may nest: the height of every expression tree,
/// counted in operators (`a + b + c` is two deep), and the nesting of
/// parentheses, brackets, unary operators, operands and statement
/// blocks.  Parsing, lowering and interpretation recurse once per level,
/// so the cap bounds their stack use; past it the parser returns an
/// ordinary error.  The bundled kernels and the program generators nest
/// a few levels.
pub const MAX_NESTING: usize = 256;

pub(crate) fn parse(src: &str) -> Result<Program, CError> {
    let tokens = lex(src)?;
    let mut p = P {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.program()
}

struct P {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at the current token.
    depth: usize,
}

impl P {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    /// Moves past the current token; the final `Eof` is never passed.
    fn bump(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, CError> {
        let t = self.peek();
        Err(CError::new(t.line, t.col, msg))
    }

    fn too_deep<T>(&self) -> Result<T, CError> {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Parses `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, CError>) -> Result<T, CError> {
        if self.depth == MAX_NESTING {
            return self.too_deep();
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// The height of an operator over operands at most `below` high.
    fn height_over(&self, below: usize) -> Result<usize, CError> {
        if below == MAX_NESTING {
            return self.too_deep();
        }
        Ok(below + 1)
    }

    fn at_punct(&self, p: &str) -> bool {
        matches!(&self.peek().tok, Tok::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), CError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`"))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), CError> {
        if self.at_kw(kw) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{kw}`"))
        }
    }

    /// Takes the current identifier.  It is moved out of the token, which
    /// the parser never reads again: `pos` only moves forward.
    fn ident(&mut self) -> Result<String, CError> {
        match &mut self.tokens[self.pos].tok {
            Tok::Ident(s) => {
                let s = std::mem::take(s);
                self.bump();
                Ok(s)
            }
            _ => self.err("expected identifier"),
        }
    }

    fn program(&mut self) -> Result<Program, CError> {
        let mut globals = Vec::new();
        let mut functions = Vec::new();
        loop {
            match &self.peek().tok {
                Tok::Eof => break,
                Tok::Ident(s) if s == "int" => {
                    self.bump();
                    globals.extend(self.var_decl_list()?);
                }
                Tok::Ident(s) if s == "void" => {
                    self.bump();
                    functions.push(self.function()?);
                }
                _ => return self.err("expected `int` or `void` at top level"),
            }
        }
        // Duplicate detection across globals.
        for (i, g) in globals.iter().enumerate() {
            if globals[..i].iter().any(|h| h.name == g.name) {
                return self.err(format!("duplicate global `{}`", g.name));
            }
        }
        Ok(Program { globals, functions })
    }

    /// After `int`: `a, b[4], c;`
    fn var_decl_list(&mut self) -> Result<Vec<VarDecl>, CError> {
        let mut out = Vec::new();
        loop {
            let name = self.ident()?;
            let size = if self.eat_punct("[") {
                let Tok::Int(n) = self.peek().tok else {
                    return self.err("expected array size");
                };
                if n <= 0 {
                    return self.err("array size must be positive");
                }
                self.bump();
                self.expect_punct("]")?;
                Some(n as u64)
            } else {
                None
            };
            out.push(VarDecl { name, size });
            if self.eat_punct(";") {
                return Ok(out);
            }
            self.expect_punct(",")?;
        }
    }

    fn function(&mut self) -> Result<Function, CError> {
        let name = self.ident()?;
        self.expect_punct("(")?;
        // Optional `void` parameter list.
        if self.at_kw("void") {
            self.bump();
        }
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let mut locals = Vec::new();
        while self.at_kw("int") {
            self.bump();
            locals.extend(self.var_decl_list()?);
        }
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            body.push(self.stmt()?);
        }
        Ok(Function { name, locals, body })
    }

    fn span(&self) -> Span {
        let t = self.peek();
        Span::new(t.line, t.col)
    }

    /// `{ stmt* }`
    fn block(&mut self) -> Result<Vec<Stmt>, CError> {
        self.expect_punct("{")?;
        self.nested(|p| {
            let mut body = Vec::new();
            while !p.eat_punct("}") {
                body.push(p.stmt()?);
            }
            Ok(body)
        })
    }

    fn stmt(&mut self) -> Result<Stmt, CError> {
        let span = self.span();
        if self.at_kw("for") {
            return self.for_stmt(span);
        }
        if self.at_kw("if") {
            return self.if_stmt(span);
        }
        if self.at_kw("while") {
            return self.while_stmt(span);
        }
        let target = self.lvalue()?;
        let value = self.assign_rhs(&target)?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign {
            target,
            value,
            span,
        })
    }

    fn if_stmt(&mut self, span: Span) -> Result<Stmt, CError> {
        self.expect_kw("if")?;
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then_body = self.block()?;
        let else_body = if self.at_kw("else") {
            self.bump();
            if self.at_kw("if") {
                // `else if` chains without braces.
                let sp = self.span();
                vec![self.nested(|p| p.if_stmt(sp))?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
            span,
        })
    }

    fn while_stmt(&mut self, span: Span) -> Result<Stmt, CError> {
        self.expect_kw("while")?;
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let body = self.block()?;
        Ok(Stmt::While { cond, body, span })
    }

    /// Parses `= e`, `+= e` (desugared), `++`, `--`.
    fn assign_rhs(&mut self, target: &LValue) -> Result<Expr, CError> {
        let lv_expr = || match target {
            LValue::Scalar(n) => Expr::Var(n.clone()),
            LValue::Elem(n, i) => Expr::Elem(n.clone(), Box::new(i.clone())),
        };
        let compound = [
            ("+=", OpKind::Add),
            ("-=", OpKind::Sub),
            ("*=", OpKind::Mul),
            ("/=", OpKind::Div),
            ("%=", OpKind::Rem),
            ("&=", OpKind::And),
            ("|=", OpKind::Or),
            ("^=", OpKind::Xor),
            ("<<=", OpKind::Shl),
            (">>=", OpKind::Shr),
        ];
        for (p, op) in compound {
            if self.eat_punct(p) {
                let rhs = self.expr()?;
                return Ok(Expr::Binary(op, Box::new(lv_expr()), Box::new(rhs)));
            }
        }
        if self.eat_punct("++") {
            return Ok(Expr::Binary(
                OpKind::Add,
                Box::new(lv_expr()),
                Box::new(Expr::Const(1)),
            ));
        }
        if self.eat_punct("--") {
            return Ok(Expr::Binary(
                OpKind::Sub,
                Box::new(lv_expr()),
                Box::new(Expr::Const(1)),
            ));
        }
        self.expect_punct("=")?;
        self.expr()
    }

    fn for_stmt(&mut self, span: Span) -> Result<Stmt, CError> {
        self.expect_kw("for")?;
        self.expect_punct("(")?;
        let var = self.ident()?;
        self.expect_punct("=")?;
        let start = self.const_expr()?;
        self.expect_punct(";")?;
        let var2 = self.ident()?;
        if var2 != var {
            return self.err("for-loop condition must test the induction variable");
        }
        let le = if self.eat_punct("<=") {
            true
        } else if self.eat_punct("<") {
            false
        } else {
            return self.err("for-loop condition must be `<` or `<=`");
        };
        // The bound may be any expression; constant bounds unroll at
        // compile time, others lower to a CFG loop.
        let bound = self.expr()?;
        self.expect_punct(";")?;
        let var3 = self.ident()?;
        if var3 != var {
            return self.err("for-loop step must update the induction variable");
        }
        let step = if self.eat_punct("++") {
            1
        } else if self.eat_punct("+=") {
            self.const_expr()?
        } else if self.eat_punct("=") {
            // i = i + k
            let v = self.ident()?;
            if v != var {
                return self.err("for-loop step must be `i = i + const`");
            }
            self.expect_punct("+")?;
            self.const_expr()?
        } else {
            return self.err("unsupported for-loop step");
        };
        if step <= 0 {
            return self.err("for-loop step must be positive");
        }
        self.expect_punct(")")?;
        let body = self.block()?;
        Ok(Stmt::For {
            var,
            start,
            bound,
            le,
            step,
            body,
            span,
        })
    }

    fn const_expr(&mut self) -> Result<i64, CError> {
        let e = self.expr()?;
        match e.fold(&|_| None) {
            Some(v) => Ok(v),
            None => self.err("expected a constant expression"),
        }
    }

    fn lvalue(&mut self) -> Result<LValue, CError> {
        let name = self.ident()?;
        if self.eat_punct("[") {
            let idx = self.expr()?;
            self.expect_punct("]")?;
            Ok(LValue::Elem(name, idx))
        } else {
            Ok(LValue::Scalar(name))
        }
    }

    // Precedence climbing; C-like precedence for the supported subset.
    fn expr(&mut self) -> Result<Expr, CError> {
        Ok(self.bin(0)?.0)
    }

    fn bin_op(&self) -> Option<(OpKind, u8)> {
        let Tok::Punct(p) = &self.peek().tok else {
            return None;
        };
        Some(match *p {
            "|" => (OpKind::Or, 1),
            "^" => (OpKind::Xor, 2),
            "&" => (OpKind::And, 3),
            "==" => (OpKind::Eq, 4),
            "!=" => (OpKind::Ne, 4),
            "<" => (OpKind::Lt, 5),
            "<=" => (OpKind::Le, 5),
            ">" => (OpKind::Gt, 5),
            ">=" => (OpKind::Ge, 5),
            "<<" => (OpKind::Shl, 6),
            ">>" => (OpKind::Shr, 6),
            "+" => (OpKind::Add, 7),
            "-" => (OpKind::Sub, 7),
            "*" => (OpKind::Mul, 8),
            "/" => (OpKind::Div, 8),
            "%" => (OpKind::Rem, 8),
            _ => return None,
        })
    }

    /// Parses operators binding at least as tightly as `min`; returns the
    /// expression and its height.  The loop builds a left-leaning chain,
    /// so it counts the chain's height as well as the nesting of its
    /// operands.
    fn bin(&mut self, min: u8) -> Result<(Expr, usize), CError> {
        let (mut lhs, mut height) = self.unary()?;
        while let Some((op, prec)) = self.bin_op() {
            if prec < min {
                break;
            }
            self.bump();
            let (rhs, rhs_height) = self.nested(|p| p.bin(prec + 1))?;
            height = self.height_over(height.max(rhs_height))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn unary(&mut self) -> Result<(Expr, usize), CError> {
        if self.eat_punct("-") {
            let (e, height) = self.nested(Self::unary)?;
            // Fold negative literals immediately.
            return Ok(match e {
                Expr::Const(c) => (Expr::Const(-c), height),
                other => (
                    Expr::Unary(OpKind::Neg, Box::new(other)),
                    self.height_over(height)?,
                ),
            });
        }
        if self.eat_punct("!") {
            // `!x` is `x == 0` in this integer subset.
            let (e, height) = self.nested(Self::unary)?;
            return Ok((
                Expr::Binary(OpKind::Eq, Box::new(e), Box::new(Expr::Const(0))),
                self.height_over(height)?,
            ));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<(Expr, usize), CError> {
        match &self.peek().tok {
            Tok::Int(v) => {
                let v = *v;
                self.bump();
                Ok((Expr::Const(v), 0))
            }
            Tok::Ident(_) => {
                let name = self.ident()?;
                if self.eat_punct("[") {
                    let (idx, height) = self.nested(|p| p.bin(0))?;
                    self.expect_punct("]")?;
                    Ok((Expr::Elem(name, Box::new(idx)), self.height_over(height)?))
                } else {
                    Ok((Expr::Var(name), 0))
                }
            }
            Tok::Punct("(") => {
                self.bump();
                let inner = self.nested(|p| p.bin(0))?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            _ => self.err("expected expression"),
        }
    }
}
