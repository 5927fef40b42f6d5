//! Lexer and recursive-descent parser for mini-C.

use crate::ast::*;
use crate::error::CError;
use record_rtl::OpKind;

/// A mini-C token.  An identifier (keywords included) borrows its text
/// from the source; punctuation is one tag of [`Punct`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'s> {
    Ident(&'s str),
    Int(i64),
    Punct(Punct),
    Eof,
}

/// The 40 punctuation spellings of mini-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Punct {
    ShlAssign,
    ShrAssign,
    AddAssign,
    SubAssign,
    MulAssign,
    DivAssign,
    RemAssign,
    AndAssign,
    OrAssign,
    XorAssign,
    Inc,
    Dec,
    Shl,
    Shr,
    Le,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Assign,
    Lt,
    Gt,
    Bang,
}

impl Punct {
    /// The punctuation `rest` starts with, longest spelling first: a
    /// match on the first byte, then a peek at the next one or two.
    fn lex(rest: &[u8]) -> Option<Punct> {
        use Punct::*;
        let next = |k: usize| rest.get(k).copied();
        // `op=` when the next byte is `=`, else `op`.
        let or_assign = |assign: Punct, op: Punct| if next(1) == Some(b'=') { assign } else { op };
        Some(match *rest.first()? {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'<' => match (next(1), next(2)) {
                (Some(b'<'), Some(b'=')) => ShlAssign,
                (Some(b'<'), _) => Shl,
                (Some(b'='), _) => Le,
                _ => Lt,
            },
            b'>' => match (next(1), next(2)) {
                (Some(b'>'), Some(b'=')) => ShrAssign,
                (Some(b'>'), _) => Shr,
                (Some(b'='), _) => Ge,
                _ => Gt,
            },
            b'+' if next(1) == Some(b'+') => Inc,
            b'+' => or_assign(AddAssign, Plus),
            b'-' if next(1) == Some(b'-') => Dec,
            b'-' => or_assign(SubAssign, Minus),
            b'&' if next(1) == Some(b'&') => AndAnd,
            b'&' => or_assign(AndAssign, Amp),
            b'|' if next(1) == Some(b'|') => OrOr,
            b'|' => or_assign(OrAssign, Pipe),
            b'*' => or_assign(MulAssign, Star),
            b'/' => or_assign(DivAssign, Slash),
            b'%' => or_assign(RemAssign, Percent),
            b'^' => or_assign(XorAssign, Caret),
            b'=' => or_assign(EqEq, Assign),
            b'!' => or_assign(Ne, Bang),
            _ => return None,
        })
    }

    /// The spelling.
    fn text(self) -> &'static str {
        use Punct::*;
        match self {
            ShlAssign => "<<=",
            ShrAssign => ">>=",
            AddAssign => "+=",
            SubAssign => "-=",
            MulAssign => "*=",
            DivAssign => "/=",
            RemAssign => "%=",
            AndAssign => "&=",
            OrAssign => "|=",
            XorAssign => "^=",
            Inc => "++",
            Dec => "--",
            Shl => "<<",
            Shr => ">>",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            AndAnd => "&&",
            OrOr => "||",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Assign => "=",
            Lt => "<",
            Gt => ">",
            Bang => "!",
        }
    }

    /// The operator a compound assignment (`+=` … `>>=`) applies.
    fn compound_op(self) -> Option<OpKind> {
        use Punct::*;
        Some(match self {
            AddAssign => OpKind::Add,
            SubAssign => OpKind::Sub,
            MulAssign => OpKind::Mul,
            DivAssign => OpKind::Div,
            RemAssign => OpKind::Rem,
            AndAssign => OpKind::And,
            OrAssign => OpKind::Or,
            XorAssign => OpKind::Xor,
            ShlAssign => OpKind::Shl,
            ShrAssign => OpKind::Shr,
            _ => return None,
        })
    }
}

/// A token and the 1-based line and column of its first byte.
#[derive(Debug)]
struct Token<'s> {
    tok: Tok<'s>,
    line: u32,
    col: u32,
}

/// Splits `src` into tokens, ending with `Eof`.  Columns count bytes.
fn lex(src: &str) -> Result<Vec<Token<'_>>, CError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let (mut i, mut line, mut col) = (0usize, 1u32, 1u32);
    while i < b.len() {
        let (start, c) = (i, b[i]);
        let tok = match c {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
                continue;
            }
            _ if c.is_ascii_whitespace() => {
                i += 1;
                col += 1;
                continue;
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                i = b[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(b.len(), |n| i + n);
                col += (i - start) as u32;
                continue;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let Some(n) = b[i + 2..].windows(2).position(|w| w == b"*/") else {
                    return Err(CError::new(line, col, "unterminated block comment"));
                };
                i += n + 4;
                for &c in &b[start..i] {
                    if c == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                }
                continue;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                Tok::Ident(&src[start..i])
            }
            b'0'..=b'9' => {
                let hex = c == b'0' && matches!(b.get(i + 1), Some(b'x' | b'X'));
                let digits = if hex { i + 2 } else { i };
                i = digits;
                while i < b.len() && b[i].is_ascii_alphanumeric() {
                    i += 1;
                }
                let radix = if hex { 16 } else { 10 };
                let v = i64::from_str_radix(&src[digits..i], radix).map_err(|_| {
                    let text = &src[start..i];
                    CError::new(line, col, format!("bad integer `{text}`"))
                })?;
                Tok::Int(v)
            }
            _ => {
                let Some(p) = Punct::lex(&b[i..]) else {
                    let c = src[i..].chars().next().expect("`i` is inside `src`");
                    return Err(CError::new(
                        line,
                        col,
                        format!("unexpected character `{c}`"),
                    ));
                };
                i += p.text().len();
                Tok::Punct(p)
            }
        };
        out.push(Token { tok, line, col });
        // A token holds no newline.
        col += (i - start) as u32;
    }
    out.push(Token {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

/// The tokens of `src` as (spelling, line, column): an `Int` as its
/// value and the end of input as an empty spelling.  What the lexer's
/// tests compare with a reference tokenizer.
#[cfg(test)]
pub(crate) fn lex_spellings(src: &str) -> Result<Vec<(String, u32, u32)>, CError> {
    Ok(lex(src)?
        .into_iter()
        .map(|t| {
            let text = match t.tok {
                Tok::Ident(s) => s.to_owned(),
                Tok::Int(v) => v.to_string(),
                Tok::Punct(p) => p.text().to_owned(),
                Tok::Eof => String::new(),
            };
            (text, t.line, t.col)
        })
        .collect())
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

struct P<'s> {
    tokens: Vec<Token<'s>>,
    pos: usize,
    /// Nesting levels open at the current token.
    depth: usize,
}

impl<'s> P<'s> {
    fn peek(&self) -> &Token<'s> {
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

    fn at_punct(&self, p: Punct) -> bool {
        self.peek().tok == Tok::Punct(p)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), CError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{}`", p.text()))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().tok == Tok::Ident(kw)
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), CError> {
        if self.at_kw(kw) {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected `{kw}`"))
        }
    }

    /// Takes the current identifier, borrowed from the source; a caller
    /// whose AST keeps the name copies it.
    fn ident(&mut self) -> Result<&'s str, CError> {
        match self.peek().tok {
            Tok::Ident(s) => {
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
            match self.peek().tok {
                Tok::Eof => break,
                Tok::Ident("int") => {
                    self.bump();
                    globals.extend(self.var_decl_list()?);
                }
                Tok::Ident("void") => {
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
            let name = self.ident()?.to_owned();
            let size = if self.eat_punct(Punct::LBracket) {
                let Tok::Int(n) = self.peek().tok else {
                    return self.err("expected array size");
                };
                if n <= 0 {
                    return self.err("array size must be positive");
                }
                self.bump();
                self.expect_punct(Punct::RBracket)?;
                Some(n as u64)
            } else {
                None
            };
            out.push(VarDecl { name, size });
            if self.eat_punct(Punct::Semi) {
                return Ok(out);
            }
            self.expect_punct(Punct::Comma)?;
        }
    }

    fn function(&mut self) -> Result<Function, CError> {
        let name = self.ident()?.to_owned();
        self.expect_punct(Punct::LParen)?;
        // Optional `void` parameter list.
        if self.at_kw("void") {
            self.bump();
        }
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::LBrace)?;
        let mut locals = Vec::new();
        while self.at_kw("int") {
            self.bump();
            locals.extend(self.var_decl_list()?);
        }
        let mut body = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
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
        self.expect_punct(Punct::LBrace)?;
        self.nested(|p| {
            let mut body = Vec::new();
            while !p.eat_punct(Punct::RBrace) {
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
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::Assign {
            target,
            value,
            span,
        })
    }

    fn if_stmt(&mut self, span: Span) -> Result<Stmt, CError> {
        self.expect_kw("if")?;
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
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
        self.expect_punct(Punct::LParen)?;
        let cond = self.expr()?;
        self.expect_punct(Punct::RParen)?;
        let body = self.block()?;
        Ok(Stmt::While { cond, body, span })
    }

    /// Parses `= e`, `+= e` (desugared), `++`, `--`.
    fn assign_rhs(&mut self, target: &LValue) -> Result<Expr, CError> {
        let lv_expr = || match target {
            LValue::Scalar(n) => Expr::Var(n.clone()),
            LValue::Elem(n, i) => Expr::Elem(n.clone(), Box::new(i.clone())),
        };
        if let Tok::Punct(p) = self.peek().tok {
            if let Some(op) = p.compound_op() {
                self.bump();
                let rhs = self.expr()?;
                return Ok(Expr::Binary(op, Box::new(lv_expr()), Box::new(rhs)));
            }
        }
        if self.eat_punct(Punct::Inc) {
            return Ok(Expr::Binary(
                OpKind::Add,
                Box::new(lv_expr()),
                Box::new(Expr::Const(1)),
            ));
        }
        if self.eat_punct(Punct::Dec) {
            return Ok(Expr::Binary(
                OpKind::Sub,
                Box::new(lv_expr()),
                Box::new(Expr::Const(1)),
            ));
        }
        self.expect_punct(Punct::Assign)?;
        self.expr()
    }

    fn for_stmt(&mut self, span: Span) -> Result<Stmt, CError> {
        self.expect_kw("for")?;
        self.expect_punct(Punct::LParen)?;
        let var = self.ident()?;
        self.expect_punct(Punct::Assign)?;
        let start = self.const_expr()?;
        self.expect_punct(Punct::Semi)?;
        let var2 = self.ident()?;
        if var2 != var {
            return self.err("for-loop condition must test the induction variable");
        }
        let le = if self.eat_punct(Punct::Le) {
            true
        } else if self.eat_punct(Punct::Lt) {
            false
        } else {
            return self.err("for-loop condition must be `<` or `<=`");
        };
        // The bound may be any expression; constant bounds unroll at
        // compile time, others lower to a CFG loop.
        let bound = self.expr()?;
        self.expect_punct(Punct::Semi)?;
        let var3 = self.ident()?;
        if var3 != var {
            return self.err("for-loop step must update the induction variable");
        }
        let step = if self.eat_punct(Punct::Inc) {
            1
        } else if self.eat_punct(Punct::AddAssign) {
            self.const_expr()?
        } else if self.eat_punct(Punct::Assign) {
            // i = i + k
            let v = self.ident()?;
            if v != var {
                return self.err("for-loop step must be `i = i + const`");
            }
            self.expect_punct(Punct::Plus)?;
            self.const_expr()?
        } else {
            return self.err("unsupported for-loop step");
        };
        if step <= 0 {
            return self.err("for-loop step must be positive");
        }
        self.expect_punct(Punct::RParen)?;
        let body = self.block()?;
        Ok(Stmt::For {
            var: var.to_owned(),
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
        let name = self.ident()?.to_owned();
        if self.eat_punct(Punct::LBracket) {
            let idx = self.expr()?;
            self.expect_punct(Punct::RBracket)?;
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
        let Tok::Punct(p) = self.peek().tok else {
            return None;
        };
        Some(match p {
            Punct::Pipe => (OpKind::Or, 1),
            Punct::Caret => (OpKind::Xor, 2),
            Punct::Amp => (OpKind::And, 3),
            Punct::EqEq => (OpKind::Eq, 4),
            Punct::Ne => (OpKind::Ne, 4),
            Punct::Lt => (OpKind::Lt, 5),
            Punct::Le => (OpKind::Le, 5),
            Punct::Gt => (OpKind::Gt, 5),
            Punct::Ge => (OpKind::Ge, 5),
            Punct::Shl => (OpKind::Shl, 6),
            Punct::Shr => (OpKind::Shr, 6),
            Punct::Plus => (OpKind::Add, 7),
            Punct::Minus => (OpKind::Sub, 7),
            Punct::Star => (OpKind::Mul, 8),
            Punct::Slash => (OpKind::Div, 8),
            Punct::Percent => (OpKind::Rem, 8),
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
        if self.eat_punct(Punct::Minus) {
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
        if self.eat_punct(Punct::Bang) {
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
        match self.peek().tok {
            Tok::Int(v) => {
                self.bump();
                Ok((Expr::Const(v), 0))
            }
            Tok::Ident(name) => {
                self.bump();
                let name = name.to_owned();
                if self.eat_punct(Punct::LBracket) {
                    let (idx, height) = self.nested(|p| p.bin(0))?;
                    self.expect_punct(Punct::RBracket)?;
                    Ok((Expr::Elem(name, Box::new(idx)), self.height_over(height)?))
                } else {
                    Ok((Expr::Var(name), 0))
                }
            }
            Tok::Punct(Punct::LParen) => {
                self.bump();
                let inner = self.nested(|p| p.bin(0))?;
                self.expect_punct(Punct::RParen)?;
                Ok(inner)
            }
            _ => self.err("expected expression"),
        }
    }
}
