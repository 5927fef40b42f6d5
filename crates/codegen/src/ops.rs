//! Concrete RT operations: the output of code generation.

use record_bdd::Bdd;
use record_netlist::{Netlist, ProcPortId, StorageId};
use record_rtl::{OpKind, TemplateId};
use std::sync::Arc;

/// A concrete storage location.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Loc {
    /// A register.
    Reg(StorageId),
    /// A specific register-file cell.
    Rf(StorageId, u64),
    /// A memory word at a known address.
    Mem(StorageId, u64),
    /// A memory word at a run-time-computed address (conservative for
    /// dependence analysis).
    MemDyn(StorageId),
    /// A primary port.
    Port(ProcPortId),
}

impl Loc {
    /// May `self` and `other` denote the same word?
    pub fn may_alias(&self, other: &Loc) -> bool {
        match (self, other) {
            (Loc::Mem(a, x), Loc::Mem(b, y)) => a == b && x == y,
            (Loc::Mem(a, _), Loc::MemDyn(b))
            | (Loc::MemDyn(a), Loc::Mem(b, _))
            | (Loc::MemDyn(a), Loc::MemDyn(b)) => a == b,
            _ => self == other,
        }
    }

    /// Renders with storage names from `netlist`.
    pub fn render(&self, n: &Netlist) -> String {
        match self {
            Loc::Reg(s) => n.storage(*s).name.clone(),
            Loc::Rf(s, c) => format!("{}[{c}]", n.storage(*s).name),
            Loc::Mem(s, a) => format!("{}[{a}]", n.storage(*s).name),
            Loc::MemDyn(s) => format!("{}[*]", n.storage(*s).name),
            Loc::Port(p) => n.proc_port(*p).name.clone(),
        }
    }
}

/// A concrete value expression, executable by the simulator.
///
/// Subexpressions sit behind [`Arc`]s, so a clone shares its trees
/// instead of copying them: the copies of a legalization run share the
/// expressions of the body they repeat (see [`Codegen::compile`]), and
/// the RTs of a kernel can cross threads.  Read them through `Deref` as
/// owned values; `Debug` and `PartialEq` see the values, not the
/// sharing.
///
/// [`Codegen::compile`]: crate::Codegen::compile
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimExpr {
    Const(u64),
    /// Read a register / regfile cell / fixed memory word / input port.
    Read(Loc),
    /// Memory read at a computed address.
    MemRead(StorageId, Arc<SimExpr>),
    /// An operator applied to its arguments (one or two).
    Op(OpKind, Arc<[SimExpr]>),
}

impl SimExpr {
    /// Calls `f` on every location this expression may read, a
    /// computed-address memory read as its memory's wildcard
    /// [`Loc::MemDyn`].
    fn for_each_read(&self, f: &mut impl FnMut(&Loc)) {
        match self {
            SimExpr::Const(_) => {}
            SimExpr::Read(l) => f(l),
            SimExpr::MemRead(s, addr) => {
                f(&Loc::MemDyn(*s));
                addr.for_each_read(f);
            }
            SimExpr::Op(_, args) => args.iter().for_each(|a| a.for_each_read(f)),
        }
    }
}

/// The destination of a concrete RT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DestSim {
    /// A fixed location.
    Loc(Loc),
    /// A memory word at a computed address.
    MemAt(StorageId, SimExpr),
}

impl DestSim {
    /// The location written, conservatively.
    pub fn loc(&self) -> Loc {
        match self {
            DestSim::Loc(l) => l.clone(),
            DestSim::MemAt(s, addr) => match addr {
                SimExpr::Const(a) => Loc::Mem(*s, *a),
                _ => Loc::MemDyn(*s),
            },
        }
    }
}

/// The control-transfer behavior of an op that writes the program
/// counter.
#[derive(Debug, Clone, PartialEq)]
pub enum Transfer {
    /// Unconditional jump: always taken.
    Always,
    /// Conditional branch: taken iff `(eval(test) == value) == eq`.
    Cond { test: SimExpr, value: u64, eq: bool },
}

/// One emitted RT operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RtOp {
    /// The template this operation instantiates.
    pub template: TemplateId,
    /// Concrete destination.
    pub dest: DestSim,
    /// Concrete value expression.
    pub expr: SimExpr,
    /// `Some` marks a control transfer: `dest` is the PC and `expr`
    /// evaluates to the target.  Emission leaves the target as the
    /// `SimExpr::Const` *block id*; the session patches it to a vertical
    /// op index after allocation, and
    /// [`Schedule::materialize`](../record_compact) rewrites it to a word
    /// index for compacted execution.
    pub transfer: Option<Transfer>,
    /// Execution condition: the template's condition conjoined with this
    /// op's instruction-field constraints.  Used by compaction.
    ///
    /// The handle belongs to the BDD store that *emitted* the op.  When
    /// emission ran against a session overlay, constraint conjunction may
    /// have created overlay-local nodes, so the handle is only meaningful
    /// inside that session — interpreting it against the frozen base
    /// alone (or another session) yields wrong answers or panics.
    /// Equality comparisons between kernels compiled from the same frozen
    /// base remain exact: identical emission produces identical handles.
    pub cond: Bdd,
}

impl RtOp {
    /// Calls `f` on every location read, in the value expression, a
    /// computed destination address and a conditional transfer's test, in
    /// that order.  A location read twice is visited twice.
    pub fn for_each_read(&self, mut f: impl FnMut(&Loc)) {
        self.expr.for_each_read(&mut f);
        if let DestSim::MemAt(_, addr) = &self.dest {
            addr.for_each_read(&mut f);
        }
        if let Some(Transfer::Cond { test, .. }) = &self.transfer {
            test.for_each_read(&mut f);
        }
    }

    /// The location written.
    pub fn write(&self) -> Loc {
        self.dest.loc()
    }

    /// Renders an assembly-like line.
    pub fn render(&self, n: &Netlist) -> String {
        fn expr(e: &SimExpr, n: &Netlist) -> String {
            match e {
                SimExpr::Const(v) => format!("{v}"),
                SimExpr::Read(l) => l.render(n),
                SimExpr::MemRead(s, a) => format!("{}[{}]", n.storage(*s).name, expr(a, n)),
                SimExpr::Op(op, args) if op.arity() == 2 => {
                    format!(
                        "({} {} {})",
                        expr(&args[0], n),
                        op.symbol(),
                        expr(&args[1], n)
                    )
                }
                SimExpr::Op(op, args) => {
                    format!("{}({})", op, expr(&args[0], n))
                }
            }
        }
        let dest = match &self.dest {
            DestSim::Loc(l) => l.render(n),
            DestSim::MemAt(s, a) => format!("{}[{}]", n.storage(*s).name, expr(a, n)),
        };
        match &self.transfer {
            None => format!("{dest} := {}", expr(&self.expr, n)),
            Some(Transfer::Always) => format!("{dest} := {}", expr(&self.expr, n)),
            Some(Transfer::Cond { test, value, eq }) => format!(
                "{dest} := {} when {} {} {value}",
                expr(&self.expr, n),
                expr(test, n),
                if *eq { "==" } else { "!=" },
            ),
        }
    }
}
