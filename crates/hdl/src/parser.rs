//! Recursive-descent parser for the HDL.

use crate::ast::*;
use crate::error::{HdlError, HdlErrorKind};
use crate::lexer::{Lexer, Token, TokenKind};

/// How deep HDL syntax may nest: the height of every expression and
/// condition tree, counted in operators and slices (`a + b + c` is two
/// deep), the slices of one net reference, the nesting of parentheses,
/// unary operators, operands and `case` arms, and the labels of one
/// `case`, which elaboration chains into its default arm's condition.
/// Parsing and elaboration recurse once per level, so the cap bounds
/// their stack use; past it the parser returns an ordinary parse error.
/// The bundled models and the model generators nest a few levels, and
/// their widest `case` has 43 labels.
pub const MAX_NESTING: usize = 256;

/// Parser over a pre-lexed token stream.
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels open at the current token.
    depth: usize,
}

impl Parser {
    /// Lexes `source` and prepares a parser.
    ///
    /// # Errors
    ///
    /// Propagates lexical errors.
    pub fn new(source: &str) -> Result<Self, HdlError> {
        Ok(Parser {
            tokens: Lexer::new(source).tokenize()?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error(&self, msg: impl Into<String>) -> HdlError {
        let t = self.peek();
        HdlError::new(HdlErrorKind::Parse, t.line, t.col, msg)
    }

    fn semantic_error(&self, msg: impl Into<String>) -> HdlError {
        let t = self.peek();
        HdlError::new(HdlErrorKind::Semantic, t.line, t.col, msg)
    }

    fn too_deep(&self) -> HdlError {
        self.error(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Parses `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, HdlError>,
    ) -> Result<T, HdlError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// The height of an operator over operands at most `below` high.
    fn height_over(&self, below: usize) -> Result<usize, HdlError> {
        if below == MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(below + 1)
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), HdlError> {
        if self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().kind.describe()
            )))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<Ident, HdlError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), HdlError> {
        match &self.peek().kind {
            TokenKind::Ident(s) if s == kw => {
                self.bump();
                Ok(())
            }
            other => Err(self.error(format!("expected `{kw}`, found {}", other.describe()))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == kw)
    }

    fn int(&mut self) -> Result<u64, HdlError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            _ => Err(self.error(format!(
                "expected integer, found {}",
                self.peek().kind.describe()
            ))),
        }
    }

    /// `bit ( w )` with `1 <= w <= 64`.
    fn width(&mut self) -> Result<u16, HdlError> {
        self.keyword("bit")?;
        self.expect(TokenKind::LParen)?;
        let w = self.int()?;
        if !(1..=64).contains(&w) {
            return Err(self.semantic_error(format!("bit width {w} out of range 1..=64")));
        }
        self.expect(TokenKind::RParen)?;
        Ok(w as u16)
    }

    // -----------------------------------------------------------------
    // Top level
    // -----------------------------------------------------------------

    /// Parses the whole model: any number of modules plus one processor.
    pub fn parse_model(mut self) -> Result<Model, HdlError> {
        let mut modules: Vec<ModuleDef> = Vec::new();
        let mut processor = None;
        loop {
            if self.peek().kind == TokenKind::Eof {
                break;
            }
            if self.at_keyword("module") {
                let m = self.parse_module()?;
                if modules.iter().any(|x| x.name == m.name) {
                    return Err(self.semantic_error(format!("duplicate module `{}`", m.name)));
                }
                modules.push(m);
            } else if self.at_keyword("processor") {
                if processor.is_some() {
                    return Err(self.semantic_error("more than one processor block"));
                }
                processor = Some(self.parse_processor()?);
            } else {
                return Err(self.error(format!(
                    "expected `module` or `processor`, found {}",
                    self.peek().kind.describe()
                )));
            }
        }
        let processor =
            processor.ok_or_else(|| self.semantic_error("model has no processor block"))?;
        Ok(Model { modules, processor })
    }

    // -----------------------------------------------------------------
    // Modules
    // -----------------------------------------------------------------

    fn parse_module(&mut self) -> Result<ModuleDef, HdlError> {
        self.keyword("module")?;
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut ports: Vec<PortDef> = Vec::new();
        let mut behavior: Option<Vec<Stmt>> = None;
        let mut register: Option<RegisterDef> = None;
        let mut memory: Option<MemoryDef> = None;
        let mut reads: Vec<ReadPort> = Vec::new();
        let mut writes: Vec<WritePort> = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            if self.at_keyword("in") || self.at_keyword("out") || self.at_keyword("ctrl") {
                let p = self.parse_port()?;
                if ports.iter().any(|x| x.name == p.name) {
                    return Err(self.semantic_error(format!(
                        "duplicate port `{}` in module `{name}`",
                        p.name
                    )));
                }
                ports.push(p);
            } else if self.at_keyword("behavior") {
                if behavior.is_some() {
                    return Err(self.semantic_error("duplicate behavior block"));
                }
                self.bump();
                behavior = Some(self.parse_stmt_block()?);
            } else if self.at_keyword("register") {
                if register.is_some() {
                    return Err(self.semantic_error("module declares more than one register"));
                }
                register = Some(self.parse_register()?);
            } else if self.at_keyword("memory") {
                if memory.is_some() {
                    return Err(self.semantic_error("module declares more than one memory"));
                }
                memory = Some(self.parse_memory()?);
            } else if self.at_keyword("read") {
                reads.push(self.parse_read()?);
            } else if self.at_keyword("write") {
                writes.push(self.parse_write()?);
            } else {
                return Err(self.error(format!(
                    "unexpected {} in module body",
                    self.peek().kind.describe()
                )));
            }
        }
        let body = match (behavior, register, memory) {
            (Some(b), None, None) => {
                if !reads.is_empty() || !writes.is_empty() {
                    return Err(
                        self.semantic_error("read/write clauses require a memory declaration")
                    );
                }
                ModuleBody::Combinational(b)
            }
            (None, Some(r), None) => {
                if !reads.is_empty() || !writes.is_empty() {
                    return Err(
                        self.semantic_error("read/write clauses require a memory declaration")
                    );
                }
                ModuleBody::Register(r)
            }
            (None, None, Some(mut m)) => {
                if reads.is_empty() {
                    return Err(
                        self.semantic_error(format!("memory module `{name}` has no read clause"))
                    );
                }
                m.reads = reads;
                m.writes = writes;
                ModuleBody::Memory(m)
            }
            (None, None, None) => {
                return Err(self.semantic_error(format!(
                    "module `{name}` has no behavior, register or memory"
                )))
            }
            _ => {
                return Err(self.semantic_error(format!(
                    "module `{name}` mixes behavior/register/memory declarations"
                )))
            }
        };
        Ok(ModuleDef { name, ports, body })
    }

    fn parse_port(&mut self) -> Result<PortDef, HdlError> {
        let dir = match &self.peek().kind {
            TokenKind::Ident(s) if s == "in" => PortDir::In,
            TokenKind::Ident(s) if s == "out" => PortDir::Out,
            TokenKind::Ident(s) if s == "ctrl" => PortDir::Ctrl,
            other => {
                return Err(self.error(format!(
                    "expected port direction, found {}",
                    other.describe()
                )))
            }
        };
        self.bump();
        let name = self.ident()?;
        self.expect(TokenKind::Colon)?;
        let width = self.width()?;
        self.expect(TokenKind::Semi)?;
        Ok(PortDef { name, dir, width })
    }

    /// `register q = d when en == 1;`
    fn parse_register(&mut self) -> Result<RegisterDef, HdlError> {
        self.keyword("register")?;
        let out = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let input = self.parse_expr()?;
        let guard = if self.at_keyword("when") {
            self.bump();
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(RegisterDef { out, input, guard })
    }

    /// `memory cells[256]: bit(16);`
    fn parse_memory(&mut self) -> Result<MemoryDef, HdlError> {
        self.keyword("memory")?;
        let array = self.ident()?;
        self.expect(TokenKind::LBracket)?;
        let size = self.int()?;
        if size == 0 {
            return Err(self.semantic_error("memory size must be positive"));
        }
        self.expect(TokenKind::RBracket)?;
        self.expect(TokenKind::Colon)?;
        let width = self.width()?;
        self.expect(TokenKind::Semi)?;
        Ok(MemoryDef {
            array,
            size,
            width,
            reads: Vec::new(),
            writes: Vec::new(),
        })
    }

    /// `read dout = cells[addr];`
    fn parse_read(&mut self) -> Result<ReadPort, HdlError> {
        self.keyword("read")?;
        let out = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let _array = self.ident()?;
        self.expect(TokenKind::LBracket)?;
        let addr = self.parse_expr()?;
        self.expect(TokenKind::RBracket)?;
        self.expect(TokenKind::Semi)?;
        Ok(ReadPort { out, addr })
    }

    /// `write cells[addr] = din when w == 1;`
    fn parse_write(&mut self) -> Result<WritePort, HdlError> {
        self.keyword("write")?;
        let _array = self.ident()?;
        self.expect(TokenKind::LBracket)?;
        let addr = self.parse_expr()?;
        self.expect(TokenKind::RBracket)?;
        self.expect(TokenKind::Assign)?;
        let data = self.parse_expr()?;
        let guard = if self.at_keyword("when") {
            self.bump();
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(WritePort { addr, data, guard })
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    fn parse_stmt_block(&mut self) -> Result<Vec<Stmt>, HdlError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, HdlError> {
        if self.at_keyword("case") {
            return self.parse_case();
        }
        let port = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let value = self.parse_expr()?;
        self.expect(TokenKind::Semi)?;
        Ok(Stmt::Assign { port, value })
    }

    fn parse_case(&mut self) -> Result<Stmt, HdlError> {
        self.keyword("case")?;
        let selector = self.parse_expr()?;
        self.expect(TokenKind::LBrace)?;
        let mut arms = Vec::new();
        let mut default = None;
        // Elaboration chains every label into the default arm's
        // condition, so the labels of one `case` count as its nesting.
        let mut labelled = 0;
        let mut label = |p: &mut Self| {
            labelled = p.height_over(labelled)?;
            p.int()
        };
        while !self.eat(&TokenKind::RBrace) {
            if self.at_keyword("default") {
                if default.is_some() {
                    return Err(self.semantic_error("duplicate default arm"));
                }
                self.bump();
                self.expect(TokenKind::FatArrow)?;
                default = Some(self.parse_arm_body()?);
                continue;
            }
            let mut labels = vec![label(self)?];
            while self.eat(&TokenKind::Comma) {
                labels.push(label(self)?);
            }
            self.expect(TokenKind::FatArrow)?;
            let body = self.parse_arm_body()?;
            arms.push(CaseArm { labels, body });
        }
        Ok(Stmt::Case {
            selector,
            arms,
            default,
        })
    }

    fn parse_arm_body(&mut self) -> Result<Vec<Stmt>, HdlError> {
        self.nested(|p| {
            if p.peek().kind == TokenKind::LBrace {
                p.parse_stmt_block()
            } else {
                Ok(vec![p.parse_stmt()?])
            }
        })
    }

    // -----------------------------------------------------------------
    // Expressions (precedence climbing)
    // -----------------------------------------------------------------

    /// Parses a module-level expression.
    pub(crate) fn parse_expr(&mut self) -> Result<Expr, HdlError> {
        Ok(self.parse_bin(0)?.0)
    }

    fn bin_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
        // Higher binds tighter.
        Some(match kind {
            TokenKind::Pipe => (BinOp::Or, 1),
            TokenKind::Caret => (BinOp::Xor, 2),
            TokenKind::Amp => (BinOp::And, 3),
            TokenKind::EqEq => (BinOp::Eq, 4),
            TokenKind::NotEq => (BinOp::Ne, 4),
            TokenKind::Less => (BinOp::Lt, 5),
            TokenKind::LessEq => (BinOp::Le, 5),
            TokenKind::Greater => (BinOp::Gt, 5),
            TokenKind::GreaterEq => (BinOp::Ge, 5),
            TokenKind::Shl => (BinOp::Shl, 6),
            TokenKind::Shr => (BinOp::Shr, 6),
            TokenKind::Plus => (BinOp::Add, 7),
            TokenKind::Minus => (BinOp::Sub, 7),
            TokenKind::Star => (BinOp::Mul, 8),
            TokenKind::Slash => (BinOp::Div, 8),
            TokenKind::Percent => (BinOp::Rem, 8),
            _ => return None,
        })
    }

    /// Parses operators binding at least as tightly as `min_prec`;
    /// returns the expression and its height.  The loop builds a
    /// left-leaning chain, so it counts the chain's height as well as the
    /// nesting of its operands.
    fn parse_bin(&mut self, min_prec: u8) -> Result<(Expr, usize), HdlError> {
        let (mut lhs, mut height) = self.parse_unary()?;
        while let Some((op, prec)) = Self::bin_op(&self.peek().kind) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let (rhs, rhs_height) = self.nested(|p| p.parse_bin(prec + 1))?;
            height = self.height_over(height.max(rhs_height))?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok((lhs, height))
    }

    fn parse_unary(&mut self) -> Result<(Expr, usize), HdlError> {
        let op = match self.peek().kind {
            TokenKind::Tilde => Some(UnOp::Not),
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Bang => Some(UnOp::LogicNot),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let (arg, height) = self.nested(Self::parse_unary)?;
            let unary = Expr::Unary {
                op,
                arg: Box::new(arg),
            };
            return Ok((unary, self.height_over(height)?));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<(Expr, usize), HdlError> {
        let (mut e, mut height) = self.parse_primary()?;
        while self.peek().kind == TokenKind::LBracket {
            self.bump();
            let hi = self.int()? as u16;
            let lo = if self.eat(&TokenKind::Colon) {
                self.int()? as u16
            } else {
                hi
            };
            if lo > hi {
                return Err(self.semantic_error(format!("slice [{hi}:{lo}] has lo > hi")));
            }
            self.expect(TokenKind::RBracket)?;
            height = self.height_over(height)?;
            e = Expr::Slice {
                base: Box::new(e),
                hi,
                lo,
            };
        }
        Ok((e, height))
    }

    fn parse_primary(&mut self) -> Result<(Expr, usize), HdlError> {
        match &self.peek().kind {
            TokenKind::Int(v) => {
                let v = *v;
                self.bump();
                Ok((Expr::Const(v), 0))
            }
            TokenKind::Ident(_) => Ok((Expr::Port(self.ident()?), 0)),
            TokenKind::LParen => {
                self.bump();
                let inner = self.nested(|p| p.parse_bin(0))?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            other => Err(self.error(format!("expected expression, found {}", other.describe()))),
        }
    }

    // -----------------------------------------------------------------
    // Processor block
    // -----------------------------------------------------------------

    fn parse_processor(&mut self) -> Result<ProcessorDef, HdlError> {
        self.keyword("processor")?;
        let name = self.ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut iword_width: Option<u16> = None;
        let mut ports: Vec<PortDef> = Vec::new();
        let mut parts: Vec<PartDef> = Vec::new();
        let mut busses: Vec<BusDef> = Vec::new();
        let mut drivers: Vec<BusDriver> = Vec::new();
        let mut connections: Vec<Connection> = Vec::new();
        let mut modes: Vec<Ident> = Vec::new();
        let mut regfiles: Vec<Ident> = Vec::new();
        let mut pc: Option<Ident> = None;
        while !self.eat(&TokenKind::RBrace) {
            if self.at_keyword("instruction") {
                self.bump();
                self.keyword("word")?;
                self.expect(TokenKind::Colon)?;
                let w = self.width()?;
                self.expect(TokenKind::Semi)?;
                if iword_width.replace(w).is_some() {
                    return Err(self.semantic_error("duplicate instruction word declaration"));
                }
            } else if self.at_keyword("in") || self.at_keyword("out") {
                let p = self.parse_port()?;
                if ports.iter().any(|x| x.name == p.name) {
                    return Err(
                        self.semantic_error(format!("duplicate processor port `{}`", p.name))
                    );
                }
                ports.push(p);
            } else if self.at_keyword("parts") {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                while !self.eat(&TokenKind::RBrace) {
                    let inst = self.ident()?;
                    self.expect(TokenKind::Colon)?;
                    let module = self.ident()?;
                    self.expect(TokenKind::Semi)?;
                    if parts.iter().any(|p| p.inst == inst) {
                        return Err(self.semantic_error(format!("duplicate instance `{inst}`")));
                    }
                    parts.push(PartDef { inst, module });
                }
            } else if self.at_keyword("bus") {
                self.bump();
                let bname = self.ident()?;
                self.expect(TokenKind::Colon)?;
                let width = self.width()?;
                self.expect(TokenKind::Semi)?;
                if busses.iter().any(|b| b.name == bname) {
                    return Err(self.semantic_error(format!("duplicate bus `{bname}`")));
                }
                busses.push(BusDef { name: bname, width });
            } else if self.at_keyword("modes") {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                while !self.eat(&TokenKind::RBrace) {
                    modes.push(self.ident()?);
                    // Separators are optional between mode names.
                    let _ = self.eat(&TokenKind::Semi) || self.eat(&TokenKind::Comma);
                }
            } else if self.at_keyword("regfiles") {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                while !self.eat(&TokenKind::RBrace) {
                    regfiles.push(self.ident()?);
                    let _ = self.eat(&TokenKind::Semi) || self.eat(&TokenKind::Comma);
                }
            } else if self.at_keyword("pc") {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                let inst = self.ident()?;
                let _ = self.eat(&TokenKind::Semi) || self.eat(&TokenKind::Comma);
                self.expect(TokenKind::RBrace)?;
                if pc.replace(inst).is_some() {
                    return Err(self.semantic_error("duplicate pc declaration"));
                }
            } else if self.at_keyword("connections") {
                self.bump();
                self.expect(TokenKind::LBrace)?;
                while !self.eat(&TokenKind::RBrace) {
                    if self.at_keyword("drive") {
                        drivers.push(self.parse_drive()?);
                    } else {
                        connections.push(self.parse_connection()?);
                    }
                }
            } else {
                return Err(self.error(format!(
                    "unexpected {} in processor body",
                    self.peek().kind.describe()
                )));
            }
        }
        let iword_width = iword_width
            .ok_or_else(|| self.semantic_error("processor lacks instruction word declaration"))?;
        Ok(ProcessorDef {
            name,
            iword_width,
            ports,
            parts,
            busses,
            drivers,
            connections,
            modes,
            regfiles,
            pc,
        })
    }

    /// `drive dbus = alu.y when I[3] == 1;`
    fn parse_drive(&mut self) -> Result<BusDriver, HdlError> {
        self.keyword("drive")?;
        let bus = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let source = self.parse_netref()?;
        let guard = if self.at_keyword("when") {
            self.bump();
            Some(self.parse_cond()?)
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(BusDriver { bus, source, guard })
    }

    /// `inst.port = source;` or `procport = source;`
    fn parse_connection(&mut self) -> Result<Connection, HdlError> {
        let first = self.ident()?;
        let target = if self.eat(&TokenKind::Dot) {
            let port = self.ident()?;
            ConnTarget::InstPort { inst: first, port }
        } else {
            ConnTarget::ProcPort(first)
        };
        self.expect(TokenKind::Assign)?;
        let source = self.parse_netref()?;
        self.expect(TokenKind::Semi)?;
        Ok(Connection { target, source })
    }

    /// Parses a net reference: `inst.port`, bare name, `I[h:l]`, constant,
    /// with optional trailing slices.
    fn parse_netref(&mut self) -> Result<NetRef, HdlError> {
        let mut base = match &self.peek().kind {
            TokenKind::Int(v) => {
                let v = *v;
                self.bump();
                NetRef::Const(v)
            }
            TokenKind::Ident(s) if s == "I" => {
                self.bump();
                self.expect(TokenKind::LBracket)?;
                let hi = self.int()? as u16;
                let lo = if self.eat(&TokenKind::Colon) {
                    self.int()? as u16
                } else {
                    hi
                };
                if lo > hi {
                    return Err(self.semantic_error(format!("field I[{hi}:{lo}] has lo > hi")));
                }
                self.expect(TokenKind::RBracket)?;
                NetRef::IField { hi, lo }
            }
            TokenKind::Ident(_) => {
                let name = self.ident()?;
                if self.eat(&TokenKind::Dot) {
                    let port = self.ident()?;
                    NetRef::InstPort { inst: name, port }
                } else {
                    NetRef::Name(name)
                }
            }
            other => {
                return Err(self.error(format!(
                    "expected net reference, found {}",
                    other.describe()
                )))
            }
        };
        let mut height = 0;
        while self.peek().kind == TokenKind::LBracket {
            self.bump();
            let hi = self.int()? as u16;
            let lo = if self.eat(&TokenKind::Colon) {
                self.int()? as u16
            } else {
                hi
            };
            if lo > hi {
                return Err(self.semantic_error(format!("slice [{hi}:{lo}] has lo > hi")));
            }
            self.expect(TokenKind::RBracket)?;
            height = self.height_over(height)?;
            base = NetRef::Slice {
                base: Box::new(base),
                hi,
                lo,
            };
        }
        Ok(base)
    }

    /// Parses a processor-level condition with `!`, `&`, `|`, parentheses
    /// and `net == const` / `net != const` atoms.
    fn parse_cond(&mut self) -> Result<Cond, HdlError> {
        Ok(self.parse_cond_or()?.0)
    }

    /// The `|` chain; returns the condition and its height, as
    /// [`Parser::parse_bin`] does.
    fn parse_cond_or(&mut self) -> Result<(Cond, usize), HdlError> {
        let (mut lhs, mut height) = self.parse_cond_and()?;
        while self.eat(&TokenKind::Pipe) {
            let (rhs, rhs_height) = self.nested(Self::parse_cond_and)?;
            height = self.height_over(height.max(rhs_height))?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_cond_and(&mut self) -> Result<(Cond, usize), HdlError> {
        let (mut lhs, mut height) = self.parse_cond_atom()?;
        while self.eat(&TokenKind::Amp) {
            let (rhs, rhs_height) = self.nested(Self::parse_cond_atom)?;
            height = self.height_over(height.max(rhs_height))?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_cond_atom(&mut self) -> Result<(Cond, usize), HdlError> {
        if self.eat(&TokenKind::Bang) {
            let (inner, height) = self.nested(Self::parse_cond_atom)?;
            return Ok((Cond::Not(Box::new(inner)), self.height_over(height)?));
        }
        if self.peek().kind == TokenKind::LParen {
            self.bump();
            let inner = self.nested(Self::parse_cond_or)?;
            self.expect(TokenKind::RParen)?;
            return Ok(inner);
        }
        let lhs = self.parse_netref()?;
        let op = if self.eat(&TokenKind::EqEq) {
            CmpOp::Eq
        } else if self.eat(&TokenKind::NotEq) {
            CmpOp::Ne
        } else {
            return Err(self.error(format!(
                "expected `==` or `!=` in condition, found {}",
                self.peek().kind.describe()
            )));
        };
        let rhs = self.int()?;
        Ok((Cond::Cmp { lhs, op, rhs }, 0))
    }
}
