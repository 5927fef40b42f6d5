//! Expression trees (ETs): the unit of code selection.
//!
//! An ET is a unary/binary tree whose inner nodes are operators (or memory
//! reads) and whose leaves are bound program variables, constants or primary
//! inputs, evaluated into an explicit destination (paper §3.1).  Per the
//! paper the destination is part of the tree: the root is the designated
//! `ASSIGN`/`STORE` terminal, so the cost of moving the result to its
//! destination is part of the derivation cost.
//!
//! ETs are stored as flat arenas so the selector can attach dynamic-
//! programming labels by node index.  A node holds its at most two
//! children inline, so a tree is one `Vec` of `Copy` nodes: cheap to
//! build and compare.

use crate::types::{AssignKey, TermKey};
use record_netlist::{ProcPortId, StorageId};
use record_rtl::OpKind;

/// Index of a node within an [`Et`].
pub type NodeIdx = usize;

/// Node kinds of an expression tree.  These mirror [`TermKey`] minus the
/// immediate/constant distinction (a source constant may match either a
/// hardwired-constant terminal or an immediate field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtKind {
    /// Designated root for register/port destinations; one child.
    Assign(AssignKey),
    /// Designated root for memory destinations; children `[addr, value]`.
    Store(StorageId),
    /// Operator application.
    Op(OpKind),
    /// Memory read; one child (the address).
    MemRead(StorageId),
    /// Source constant (two's complement value masked to the data width).
    Const(u64),
    /// Value of a variable bound to a register.
    RegLeaf(StorageId),
    /// Value of a variable bound to a register-file cell; `cell` records
    /// the binding for emission.
    RfLeaf(StorageId, u32),
    /// Primary input port.
    PortLeaf(ProcPortId),
}

/// The destination of an ET.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EtDest {
    Reg(StorageId),
    /// Register-file cell (cell index fixed by the variable binding, or
    /// chosen by the register allocator when used for temporaries).
    RegFile(StorageId, u32),
    /// Memory destination; the address is part of the tree (child 0 of the
    /// `Store` root).
    Mem(StorageId),
    Port(ProcPortId),
}

/// One ET node: its kind and its at most two children, inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    kind: EtKind,
    /// Children in `kids[..arity]`; unused slots stay 0.
    kids: [NodeIdx; 2],
    arity: u8,
}

/// A flat expression tree with an explicit destination root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Et {
    dest: EtDest,
    nodes: Vec<Node>,
    root: NodeIdx,
}

impl Et {
    /// Builds an ET evaluating `value` (built via [`EtBuilder`]) into a
    /// register/regfile/port destination.
    pub fn assign(dest: EtDest, mut builder: EtBuilder) -> Et {
        let key = match &dest {
            EtDest::Reg(s) => AssignKey::Reg(*s),
            EtDest::RegFile(s, _) => AssignKey::RegFile(*s),
            EtDest::Port(p) => AssignKey::Port(*p),
            EtDest::Mem(_) => panic!("use Et::store for memory destinations"),
        };
        let value = builder.root.expect("builder holds a value");
        let root = builder.push(EtKind::Assign(key), &[value]);
        Et {
            dest,
            nodes: builder.nodes,
            root,
        }
    }

    /// Builds an ET storing `value` to memory `mem` at `addr` (both built
    /// within the same [`EtBuilder`]).
    pub fn store(mem: StorageId, addr: NodeIdx, value: NodeIdx, mut builder: EtBuilder) -> Et {
        let root = builder.push(EtKind::Store(mem), &[addr, value]);
        Et {
            dest: EtDest::Mem(mem),
            nodes: builder.nodes,
            root,
        }
    }

    /// The destination.
    pub fn dest(&self) -> &EtDest {
        &self.dest
    }

    /// Root node index (the `ASSIGN`/`STORE` node).
    pub fn root(&self) -> NodeIdx {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the tree empty (never true for built trees)?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Kind of a node.
    pub fn kind(&self, idx: NodeIdx) -> EtKind {
        self.nodes[idx].kind
    }

    /// Children of a node.
    pub fn children(&self, idx: NodeIdx) -> &[NodeIdx] {
        let node = &self.nodes[idx];
        &node.kids[..usize::from(node.arity)]
    }

    /// Does the ET node kind match the grammar terminal `key`?
    ///
    /// This is the single matching predicate of the system: structural
    /// equality everywhere except constants, which match an exact hardwired
    /// constant or any immediate field wide enough to carry them.
    pub fn kind_matches(&self, idx: NodeIdx, key: &TermKey) -> bool {
        match (self.kind(idx), key) {
            (EtKind::Assign(a), TermKey::Assign(b)) => a == *b,
            (EtKind::Store(s), TermKey::Store(t)) => s == *t,
            (EtKind::Op(o), TermKey::Op(p)) => o == *p,
            (EtKind::MemRead(s), TermKey::MemRead(t)) => s == *t,
            (EtKind::RegLeaf(s), TermKey::RegLeaf(t)) => s == *t,
            (EtKind::RfLeaf(s, _), TermKey::RfLeaf(t)) => s == *t,
            (EtKind::PortLeaf(p), TermKey::PortLeaf(q)) => p == *q,
            (EtKind::Const(v), TermKey::ConstVal(w)) => v == *w,
            (EtKind::Const(v), TermKey::Imm { hi, lo }) => fits(v, hi - lo + 1),
            _ => false,
        }
    }

    /// Renders the subtree at `idx` for diagnostics.
    pub fn render(&self, idx: NodeIdx) -> String {
        let kids: Vec<String> = self.children(idx).iter().map(|&c| self.render(c)).collect();
        let head = match self.kind(idx) {
            EtKind::Assign(_) => "assign".to_owned(),
            EtKind::Store(_) => "store".to_owned(),
            EtKind::Op(op) => op.to_string(),
            EtKind::MemRead(_) => "mem".to_owned(),
            EtKind::Const(v) => format!("{v}"),
            EtKind::RegLeaf(s) => format!("reg{}", s.0),
            EtKind::RfLeaf(s, c) => format!("rf{}[{c}]", s.0),
            EtKind::PortLeaf(p) => format!("port{}", p.0),
        };
        if kids.is_empty() {
            head
        } else {
            format!("{head}({})", kids.join(", "))
        }
    }
}

/// Does `value` fit an unsigned field of `width` bits?
pub(crate) fn fits(value: u64, width: u16) -> bool {
    if width >= 64 {
        true
    } else {
        value < (1u64 << width)
    }
}

/// Incremental builder for [`Et`] nodes.
///
/// # Example
///
/// ```
/// use record_grammar::{Et, EtBuilder, EtDest, EtKind};
/// use record_netlist::StorageId;
/// use record_rtl::OpKind;
///
/// let mut b = EtBuilder::new();
/// let acc = b.leaf(EtKind::RegLeaf(StorageId(0)));
/// let one = b.leaf(EtKind::Const(1));
/// b.node(EtKind::Op(OpKind::Add), &[acc, one]);
/// let et = Et::assign(EtDest::Reg(StorageId(0)), b);
/// assert_eq!(et.len(), 4); // acc, 1, +, assign
/// ```
#[derive(Debug, Clone, Default)]
pub struct EtBuilder {
    nodes: Vec<Node>,
    root: Option<NodeIdx>,
}

impl EtBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        EtBuilder::default()
    }

    /// Adds a leaf node; the last added node becomes the value root.
    pub fn leaf(&mut self, kind: EtKind) -> NodeIdx {
        self.push(kind, &[])
    }

    /// Adds an inner node over existing children; the last added node
    /// becomes the value root.
    ///
    /// # Panics
    ///
    /// When given more than two children: ET operators are unary or
    /// binary.
    pub fn node(&mut self, kind: EtKind, children: &[NodeIdx]) -> NodeIdx {
        self.push(kind, children)
    }

    fn push(&mut self, kind: EtKind, children: &[NodeIdx]) -> NodeIdx {
        assert!(
            children.len() <= 2,
            "an ET node has at most two children, got {}",
            children.len()
        );
        let mut kids = [0; 2];
        kids[..children.len()].copy_from_slice(children);
        let idx = self.nodes.len();
        self.nodes.push(Node {
            kind,
            kids,
            arity: children.len() as u8,
        });
        self.root = Some(idx);
        idx
    }
}
