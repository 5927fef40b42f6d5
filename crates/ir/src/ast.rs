//! Mini-C abstract syntax.

use record_rtl::OpKind;

/// A translation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Global variable declarations.
    pub globals: Vec<VarDecl>,
    /// Function definitions.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global (or, via [`lower_cfg`](crate::lower_cfg), local) variable.
    pub fn global(&self, name: &str) -> Option<&VarDecl> {
        self.globals.iter().find(|g| g.name == name)
    }
}

/// `int x;` or `int a[16];`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    pub name: String,
    /// `None` for scalars, `Some(n)` for arrays of `n` words.
    pub size: Option<u64>,
}

impl VarDecl {
    /// Number of words this variable occupies.
    pub fn words(&self) -> u64 {
        self.size.unwrap_or(1)
    }
}

/// A `void` function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    pub name: String,
    /// Local `int` declarations (no initialisers).
    pub locals: Vec<VarDecl>,
    pub body: Vec<Stmt>,
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LValue {
    /// A scalar variable.
    Scalar(String),
    /// An array element with an index expression.
    Elem(String, Expr),
}

/// A source position (1-based line and column of the statement's first
/// token), threaded into lowering diagnostics.
///
/// Spans are metadata: two ASTs differing only in positions are the same
/// program, so every span compares equal (generated and re-parsed
/// programs stay structurally `==`).
#[derive(Debug, Clone, Copy, Eq, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl PartialEq for Span {
    fn eq(&self, _: &Span) -> bool {
        true
    }
}

impl Span {
    /// A span at `line`:`col`.
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `lv = expr;` (compound assignments are desugared by the parser).
    Assign {
        target: LValue,
        value: Expr,
        span: Span,
    },
    /// `for (i = start; i < bound; i += step) { ... }` with constant
    /// `start` and `step`; `le` distinguishes `<=` from `<`.  The bound is
    /// an expression: when it folds to a constant the loop is unrolled at
    /// compile time, otherwise it lowers to a CFG loop.
    For {
        var: String,
        start: i64,
        bound: Expr,
        le: bool,
        step: i64,
        body: Vec<Stmt>,
        span: Span,
    },
    /// `if (cond) { ... } else { ... }` — nonzero condition takes the
    /// `then` branch.
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
        span: Span,
    },
    /// `while (cond) { ... }` — loops while the condition is nonzero.
    While {
        cond: Expr,
        body: Vec<Stmt>,
        span: Span,
    },
}

impl Stmt {
    /// The statement's source position.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. }
            | Stmt::For { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. } => *span,
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    Const(i64),
    /// Scalar variable reference.
    Var(String),
    /// Array element reference.
    Elem(String, Box<Expr>),
    Unary(OpKind, Box<Expr>),
    Binary(OpKind, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Constant-folds the expression given a valuation for loop variables.
    /// Returns `None` if the expression is not constant under `env`.
    pub fn fold(&self, env: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        match self {
            Expr::Const(c) => Some(*c),
            Expr::Var(v) => env(v),
            Expr::Elem(..) => None,
            Expr::Unary(op, a) => {
                let a = a.fold(env)?;
                Some(match op {
                    // Wrapping: `-i64::MIN` must fold, not overflow.
                    OpKind::Neg => a.wrapping_neg(),
                    OpKind::Not => !a,
                    _ => return None,
                })
            }
            Expr::Binary(op, a, b) => {
                let a = a.fold(env)?;
                let b = b.fold(env)?;
                Some(match op {
                    OpKind::Add => a.wrapping_add(b),
                    OpKind::Sub => a.wrapping_sub(b),
                    OpKind::Mul => a.wrapping_mul(b),
                    // Wrapping: `i64::MIN / -1` must fold, not overflow.
                    OpKind::Div => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_div(b)
                        }
                    }
                    OpKind::Rem => {
                        if b == 0 {
                            0
                        } else {
                            a.wrapping_rem(b)
                        }
                    }
                    OpKind::And => a & b,
                    OpKind::Or => a | b,
                    OpKind::Xor => a ^ b,
                    OpKind::Shl => a.wrapping_shl(b as u32),
                    OpKind::Shr => ((a as u64) >> (b as u32 & 63)) as i64,
                    _ => return None,
                })
            }
        }
    }
}
