//! Lowering: loop unrolling and flattening to a control-flow graph of
//! basic blocks holding destination-annotated statements with
//! constant-offset variable references.
//!
//! Constant-trip-count `for` loops are fully unrolled, so straight-line
//! programs lower to a single block.  `if`, `while` and dynamic-bound
//! `for` lower to blocks with explicit terminators.

use crate::ast::*;
use crate::error::CError;
use std::collections::{BTreeMap, BTreeSet};

/// A reference to a storage word: variable name plus constant element
/// offset (0 for scalars).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref {
    pub name: String,
    pub offset: u64,
}

/// A flattened expression: all indices folded to constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlatExpr {
    Const(i64),
    /// Read of a storage word.
    Load(Ref),
    Unary(record_rtl::OpKind, Box<FlatExpr>),
    Binary(record_rtl::OpKind, Box<FlatExpr>, Box<FlatExpr>),
}

impl FlatExpr {
    /// Number of nodes.
    pub fn size(&self) -> usize {
        match self {
            FlatExpr::Const(_) | FlatExpr::Load(_) => 1,
            FlatExpr::Unary(_, a) => 1 + a.size(),
            FlatExpr::Binary(_, a, b) => 1 + a.size() + b.size(),
        }
    }

    /// All storage words read, in evaluation order (with duplicates).
    pub fn loads(&self, out: &mut Vec<Ref>) {
        match self {
            FlatExpr::Const(_) => {}
            FlatExpr::Load(r) => out.push(r.clone()),
            FlatExpr::Unary(_, a) => a.loads(out),
            FlatExpr::Binary(_, a, b) => {
                a.loads(out);
                b.loads(out);
            }
        }
    }
}

/// One flattened statement `target = expr`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatStmt {
    pub target: Ref,
    pub value: FlatExpr,
}

/// How a basic block transfers control when its statements are done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// End of program (exactly one block, the last, carries this).
    Halt,
    /// Unconditional transfer to a block.
    Jump(usize),
    /// Two-way branch: `then_to` when `cond` evaluates nonzero, `else_to`
    /// otherwise.
    Branch {
        cond: FlatExpr,
        then_to: usize,
        else_to: usize,
    },
}

impl Terminator {
    /// The blocks this terminator can transfer to.
    pub fn successors(&self) -> Vec<usize> {
        match self {
            Terminator::Halt => vec![],
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                then_to, else_to, ..
            } => vec![*then_to, *else_to],
        }
    }
}

/// A basic block: straight-line statements plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pub stmts: Vec<FlatStmt>,
    pub term: Terminator,
}

/// The lowered control-flow graph of one function.  Entry is block 0;
/// the unique [`Terminator::Halt`] block is last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    pub blocks: Vec<Block>,
}

impl Cfg {
    /// Does the whole function consist of one straight-line block?
    pub fn is_straight_line(&self) -> bool {
        self.blocks.len() == 1 && self.blocks[0].term == Terminator::Halt
    }

    /// Every statement, blocks in layout order.
    pub fn stmts(&self) -> impl Iterator<Item = &FlatStmt> {
        self.blocks.iter().flat_map(|b| &b.stmts)
    }

    /// Every branch condition, blocks in layout order.
    pub fn conditions(&self) -> impl Iterator<Item = &FlatExpr> {
        self.blocks.iter().filter_map(|b| match &b.term {
            Terminator::Branch { cond, .. } => Some(cond),
            _ => None,
        })
    }

    /// Names of the variables the function reads or writes, branch
    /// conditions included.  Loop variables that unrolling folded away
    /// are absent: they never reach memory.
    pub fn touched_variables(&self) -> BTreeSet<String> {
        let mut refs = Vec::new();
        for s in self.stmts() {
            refs.push(s.target.clone());
            s.value.loads(&mut refs);
        }
        for c in self.conditions() {
            c.loads(&mut refs);
        }
        refs.into_iter().map(|r| r.name).collect()
    }

    /// Structural validity: every terminator targets an existing block,
    /// and exactly one block — the last — halts.
    ///
    /// Lowering upholds this by construction; tests and debug builds
    /// assert it via [`Cfg::assert_valid`].
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("CFG has no blocks".into());
        }
        let mut halts = Vec::new();
        for (i, b) in self.blocks.iter().enumerate() {
            match &b.term {
                Terminator::Halt => halts.push(i),
                other => {
                    for t in other.successors() {
                        if t >= self.blocks.len() {
                            return Err(format!(
                                "block {i} targets non-existent block {t} (of {})",
                                self.blocks.len()
                            ));
                        }
                    }
                }
            }
        }
        if halts.len() != 1 {
            return Err(format!(
                "CFG has {} halt blocks, want exactly 1",
                halts.len()
            ));
        }
        if halts[0] != self.blocks.len() - 1 {
            return Err(format!(
                "halt block is {} but must be the last block ({})",
                halts[0],
                self.blocks.len() - 1
            ));
        }
        Ok(())
    }

    /// Panics in debug builds if the CFG is structurally invalid.
    pub fn assert_valid(&self) {
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
    }
}

/// Hard cap on lowered blocks: a fully-unrolled loop around conditional
/// bodies multiplies blocks, and pathological inputs must error rather
/// than allocate without bound.
const MAX_BLOCKS: usize = 1 << 16;

/// Lowers `function` of `program` to a [`Cfg`].
///
/// # Errors
///
/// Returns [`CError`] (positioned at the offending statement) when a
/// referenced variable is undeclared, an index does not fold to a
/// constant, an index is out of bounds, or loop trip counts explode past
/// 4096 unrolled iterations total.
pub fn lower_cfg(program: &Program, function: &str) -> Result<Cfg, CError> {
    let Some(f) = program.function(function) else {
        return Err(err(Span::default(), format!("no function `{function}`")));
    };
    let mut vars: BTreeMap<String, u64> = BTreeMap::new();
    for d in program.globals.iter().chain(&f.locals) {
        vars.insert(d.name.clone(), d.words());
    }
    let mut cx = Lower {
        vars: &vars,
        env: BTreeMap::new(),
        budget: 4096,
        blocks: vec![Block {
            stmts: Vec::new(),
            term: Terminator::Halt,
        }],
        cur: 0,
    };
    cx.lower_stmts(&f.body)?;
    cx.seal(Terminator::Halt);
    let cfg = Cfg { blocks: cx.blocks };
    cfg.assert_valid();
    Ok(cfg)
}

fn err(span: Span, msg: impl Into<String>) -> CError {
    CError::new(span.line, span.col, msg)
}

struct Lower<'a> {
    vars: &'a BTreeMap<String, u64>,
    /// Loop variables of enclosing *unrolled* loops, by current value.
    env: BTreeMap<String, i64>,
    /// Remaining unrolled iterations.
    budget: usize,
    blocks: Vec<Block>,
    /// Block currently receiving statements.
    cur: usize,
}

impl Lower<'_> {
    /// Appends a fresh (unsealed) block and returns its index.
    fn new_block(&mut self, span: Span) -> Result<usize, CError> {
        if self.blocks.len() >= MAX_BLOCKS {
            return Err(err(
                span,
                format!("control flow exceeds {MAX_BLOCKS} blocks"),
            ));
        }
        self.blocks.push(Block {
            stmts: Vec::new(),
            term: Terminator::Halt,
        });
        Ok(self.blocks.len() - 1)
    }

    fn emit(&mut self, s: FlatStmt) {
        self.blocks[self.cur].stmts.push(s);
    }

    /// Sets the terminator of the current block.
    fn seal(&mut self, t: Terminator) {
        self.blocks[self.cur].term = t;
    }

    /// Sets the terminator of block `b`.
    fn seal_block(&mut self, b: usize, t: Terminator) {
        self.blocks[b].term = t;
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CError> {
        for s in stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), CError> {
        match s {
            Stmt::Assign {
                target,
                value,
                span,
            } => {
                let target = lower_ref(target, self.vars, &self.env, *span)?;
                let value = lower_expr(value, self.vars, &self.env, *span)?;
                self.emit(FlatStmt { target, value });
                Ok(())
            }
            Stmt::For {
                var,
                start,
                bound,
                le,
                step,
                body,
                span,
            } => {
                if !self.vars.contains_key(var) {
                    return Err(err(*span, format!("undeclared loop variable `{var}`")));
                }
                // Fast path: a bound that is constant *without* any loop
                // environment folds exactly as the historical parser-time
                // constant did, so the loop unrolls at compile time.
                match bound.fold(&|_| None) {
                    Some(b) => self.unroll_for(var, *start, b, *le, *step, body, *span),
                    None => self.dynamic_for(var, *start, bound, *le, *step, body, *span),
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                let cond = lower_expr(cond, self.vars, &self.env, *span)?;
                let head = self.cur;
                let then_b = self.new_block(*span)?;
                self.cur = then_b;
                self.lower_stmts(then_body)?;
                let then_end = self.cur;
                let else_b = self.new_block(*span)?;
                self.cur = else_b;
                self.lower_stmts(else_body)?;
                let else_end = self.cur;
                let join = self.new_block(*span)?;
                self.seal_block(
                    head,
                    Terminator::Branch {
                        cond,
                        then_to: then_b,
                        else_to: else_b,
                    },
                );
                self.seal_block(then_end, Terminator::Jump(join));
                self.seal_block(else_end, Terminator::Jump(join));
                self.cur = join;
                Ok(())
            }
            Stmt::While { cond, body, span } => self.lower_while(cond, body, *span),
        }
    }

    /// The historical unrolling path, byte-identical for constant bounds.
    #[allow(clippy::too_many_arguments)]
    fn unroll_for(
        &mut self,
        var: &str,
        start: i64,
        bound: i64,
        le: bool,
        step: i64,
        body: &[Stmt],
        span: Span,
    ) -> Result<(), CError> {
        let mut i = start;
        loop {
            let cont = if le { i <= bound } else { i < bound };
            if !cont {
                break;
            }
            if self.budget == 0 {
                return Err(err(span, "loop unrolling exceeds 4096 iterations"));
            }
            self.budget -= 1;
            let shadow = self.env.insert(var.to_owned(), i);
            self.lower_stmts(body)?;
            match shadow {
                Some(v) => {
                    self.env.insert(var.to_owned(), v);
                }
                None => {
                    self.env.remove(var);
                }
            }
            // A counter that cannot advance past `i64::MAX` has exhausted
            // the iteration space; stop rather than overflow (bounds that
            // large exceed the unroll budget long before this anyway).
            i = match i.checked_add(step) {
                Some(next) => next,
                None => break,
            };
        }
        Ok(())
    }

    /// A `for` whose bound is not compile-time constant desugars to
    /// `var = start; while (var </<= bound) { body; var += step; }` with
    /// the loop variable living in its declared storage word.
    #[allow(clippy::too_many_arguments)]
    fn dynamic_for(
        &mut self,
        var: &str,
        start: i64,
        bound: &Expr,
        le: bool,
        step: i64,
        body: &[Stmt],
        span: Span,
    ) -> Result<(), CError> {
        use record_rtl::OpKind;
        // The loop variable is a runtime value here: hide any same-named
        // enclosing unrolled-loop constant for the duration.
        let shadow = self.env.remove(var);
        self.emit(FlatStmt {
            target: Ref {
                name: var.to_owned(),
                offset: 0,
            },
            value: FlatExpr::Const(start),
        });
        let cmp = if le { OpKind::Le } else { OpKind::Lt };
        let cond = Expr::Binary(
            cmp,
            Box::new(Expr::Var(var.to_owned())),
            Box::new(bound.clone()),
        );
        let mut body2 = body.to_vec();
        body2.push(Stmt::Assign {
            target: LValue::Scalar(var.to_owned()),
            value: Expr::Binary(
                OpKind::Add,
                Box::new(Expr::Var(var.to_owned())),
                Box::new(Expr::Const(step)),
            ),
            span,
        });
        let result = self.lower_while(&cond, &body2, span);
        if let Some(v) = shadow {
            self.env.insert(var.to_owned(), v);
        }
        result
    }

    fn lower_while(&mut self, cond: &Expr, body: &[Stmt], span: Span) -> Result<(), CError> {
        let head_end = self.cur;
        let cond_b = self.new_block(span)?;
        self.seal_block(head_end, Terminator::Jump(cond_b));
        // The condition re-evaluates on every iteration, so it lives in
        // the loop-header block's terminator.
        self.cur = cond_b;
        let cond = lower_expr(cond, self.vars, &self.env, span)?;
        let body_b = self.new_block(span)?;
        self.cur = body_b;
        self.lower_stmts(body)?;
        let body_end = self.cur;
        self.seal_block(body_end, Terminator::Jump(cond_b));
        let exit_b = self.new_block(span)?;
        self.seal_block(
            cond_b,
            Terminator::Branch {
                cond,
                then_to: body_b,
                else_to: exit_b,
            },
        );
        self.cur = exit_b;
        Ok(())
    }
}

fn lower_ref(
    lv: &LValue,
    vars: &BTreeMap<String, u64>,
    env: &BTreeMap<String, i64>,
    span: Span,
) -> Result<Ref, CError> {
    match lv {
        LValue::Scalar(name) => {
            check_var(name, vars, false, span)?;
            Ok(Ref {
                name: name.clone(),
                offset: 0,
            })
        }
        LValue::Elem(name, idx) => {
            let size = check_var(name, vars, true, span)?;
            let offset = fold_index(name, idx, env, size, span)?;
            Ok(Ref {
                name: name.clone(),
                offset,
            })
        }
    }
}

fn lower_expr(
    e: &Expr,
    vars: &BTreeMap<String, u64>,
    env: &BTreeMap<String, i64>,
    span: Span,
) -> Result<FlatExpr, CError> {
    // A loop variable used as a value becomes a constant after unrolling.
    if let Expr::Var(name) = e {
        if let Some(&v) = env.get(name) {
            return Ok(FlatExpr::Const(v));
        }
    }
    match e {
        Expr::Const(c) => Ok(FlatExpr::Const(*c)),
        Expr::Var(name) => {
            check_var(name, vars, false, span)?;
            Ok(FlatExpr::Load(Ref {
                name: name.clone(),
                offset: 0,
            }))
        }
        Expr::Elem(name, idx) => {
            let size = check_var(name, vars, true, span)?;
            let offset = fold_index(name, idx, env, size, span)?;
            Ok(FlatExpr::Load(Ref {
                name: name.clone(),
                offset,
            }))
        }
        Expr::Unary(op, a) => Ok(FlatExpr::Unary(
            *op,
            Box::new(lower_expr(a, vars, env, span)?),
        )),
        Expr::Binary(op, a, b) => {
            // Constant-fold fully-constant subtrees so shapes like `N-1-i`
            // become leaf constants — but only trees built from operators
            // whose 64-bit result commutes with width masking.  Division,
            // remainder and shifts evaluate on masked operands at machine
            // word width (both in the interpreter and in hardware), so
            // folding them here with `i64` semantics would bake in a
            // different answer: the differential fuzzer caught exactly
            // that on `(-1) >> (-1)`, which folds to 1 in 64 bits but is
            // 0 at any machine width.
            if mask_safe(e) {
                if let Some(v) = e.fold(&|n| env.get(n).copied()) {
                    return Ok(FlatExpr::Const(v));
                }
            }
            Ok(FlatExpr::Binary(
                *op,
                Box::new(lower_expr(a, vars, env, span)?),
                Box::new(lower_expr(b, vars, env, span)?),
            ))
        }
    }
}

/// Whether every operator in a (loop-variable-closed) expression tree
/// gives the same width-masked result when evaluated in 64 bits: modular
/// add/sub/mul, the bitwise ops, and negation/complement do; division,
/// remainder, shifts and comparisons depend on the machine word width.
fn mask_safe(e: &Expr) -> bool {
    use record_rtl::OpKind;
    let op_safe = |op: &OpKind| {
        matches!(
            op,
            OpKind::Add
                | OpKind::Sub
                | OpKind::Mul
                | OpKind::And
                | OpKind::Or
                | OpKind::Xor
                | OpKind::Neg
                | OpKind::Not
        )
    };
    match e {
        Expr::Const(_) | Expr::Var(_) => true,
        // Element loads never fold anyway; let `fold` return None.
        Expr::Elem(..) => true,
        Expr::Unary(op, a) => op_safe(op) && mask_safe(a),
        Expr::Binary(op, a, b) => op_safe(op) && mask_safe(a) && mask_safe(b),
    }
}

fn check_var(
    name: &str,
    vars: &BTreeMap<String, u64>,
    want_array: bool,
    span: Span,
) -> Result<u64, CError> {
    match vars.get(name) {
        None => Err(err(span, format!("undeclared variable `{name}`"))),
        Some(&size) => {
            if want_array && size == 1 {
                return Err(err(span, format!("`{name}` is a scalar, not an array")));
            }
            Ok(size)
        }
    }
}

fn fold_index(
    name: &str,
    idx: &Expr,
    env: &BTreeMap<String, i64>,
    size: u64,
    span: Span,
) -> Result<u64, CError> {
    // Width-dependent operators in an index would fold differently here
    // (64-bit) than the interpreter evaluates them (masked): reject them
    // structurally instead of baking in a silently different address.
    if !mask_safe(idx) {
        return Err(err(
            span,
            format!(
                "index of `{name}` uses width-dependent operators (division, remainder or shifts)"
            ),
        ));
    }
    let Some(v) = idx.fold(&|n| env.get(n).copied()) else {
        return Err(err(
            span,
            format!(
                "index of `{name}` does not fold to a constant (only counted loops are supported)"
            ),
        ));
    };
    if v < 0 || v as u64 >= size {
        return Err(err(
            span,
            format!("index {v} out of bounds for `{name}[{size}]`"),
        ));
    }
    Ok(v as u64)
}
