//! RT template ADTs.

use crate::op::OpKind;
use record_bdd::Bdd;
use record_netlist::{Netlist, ProcPortId, StorageId};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};

/// Identifier of a template inside a [`TemplateBase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

/// A tree pattern: the right-hand side of an RT template.
///
/// Leaves are storages, ports, constants or instruction immediates; inner
/// nodes are operators or memory reads (whose address is itself a pattern,
/// which is how indirect and post-modify addressing surface).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pattern {
    /// Operator application.
    Op(OpKind, Vec<Pattern>),
    /// Value stored in a register.
    Reg(StorageId),
    /// Value stored in some cell of a register file (cell chosen by the
    /// compiler, encoded in an instruction field).
    RegFile(StorageId),
    /// Memory read; the boxed pattern computes the address.
    MemRead(StorageId, Box<Pattern>),
    /// Primary processor input port.
    Port(ProcPortId),
    /// Hardwired constant.
    Const(u64),
    /// Instruction field used as data (an immediate operand).
    Imm { hi: u16, lo: u16 },
}

impl Pattern {
    /// Number of nodes in the pattern tree.
    pub fn size(&self) -> usize {
        match self {
            Pattern::Op(_, args) => 1 + args.iter().map(Pattern::size).sum::<usize>(),
            Pattern::MemRead(_, addr) => 1 + addr.size(),
            _ => 1,
        }
    }

    /// Depth of the pattern tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Pattern::Op(_, args) => 1 + args.iter().map(Pattern::depth).max().unwrap_or(0),
            Pattern::MemRead(_, addr) => 1 + addr.depth(),
            _ => 1,
        }
    }

    /// All storages read by this pattern (with duplicates).
    pub fn reads(&self) -> Vec<StorageId> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(&self, out: &mut Vec<StorageId>) {
        match self {
            Pattern::Op(_, args) => args.iter().for_each(|a| a.collect_reads(out)),
            Pattern::Reg(s) | Pattern::RegFile(s) => out.push(*s),
            Pattern::MemRead(s, addr) => {
                out.push(*s);
                addr.collect_reads(out);
            }
            Pattern::Port(_) | Pattern::Const(_) | Pattern::Imm { .. } => {}
        }
    }

    /// Renders the pattern with storage/port names from `netlist`.
    pub fn display<'a>(&'a self, netlist: &'a Netlist) -> PatternDisplay<'a> {
        PatternDisplay {
            pattern: self,
            netlist,
        }
    }
}

/// Helper for [`Pattern::display`].
#[derive(Debug)]
pub struct PatternDisplay<'a> {
    pattern: &'a Pattern,
    netlist: &'a Netlist,
}

impl fmt::Display for PatternDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_pattern(self.pattern, self.netlist, f)
    }
}

fn fmt_pattern(p: &Pattern, n: &Netlist, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match p {
        Pattern::Op(op, args) if op.arity() == 2 => {
            write!(f, "(")?;
            fmt_pattern(&args[0], n, f)?;
            write!(f, " {} ", op.symbol())?;
            fmt_pattern(&args[1], n, f)?;
            write!(f, ")")
        }
        Pattern::Op(OpKind::Slice(hi, lo), args) => {
            fmt_pattern(&args[0], n, f)?;
            write!(f, "[{hi}:{lo}]")
        }
        Pattern::Op(op, args) => {
            write!(f, "{}(", op)?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                fmt_pattern(a, n, f)?;
            }
            write!(f, ")")
        }
        Pattern::Reg(s) => write!(f, "{}", n.storage(*s).name),
        Pattern::RegFile(s) => write!(f, "{}[*]", n.storage(*s).name),
        Pattern::MemRead(s, addr) => {
            write!(f, "{}[", n.storage(*s).name)?;
            fmt_pattern(addr, n, f)?;
            write!(f, "]")
        }
        Pattern::Port(p) => write!(f, "{}", n.proc_port(*p).name),
        Pattern::Const(v) => write!(f, "{v}"),
        Pattern::Imm { hi, lo } => write!(f, "#I[{hi}:{lo}]"),
    }
}

/// The destination of an RT template.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dest {
    /// A register.
    Reg(StorageId),
    /// Some cell of a register file (chosen by the compiler).
    RegFile(StorageId),
    /// A memory cell; the pattern computes the address.
    Mem(StorageId, Pattern),
    /// A primary processor output port.
    Port(ProcPortId),
}

impl Dest {
    /// The storage written, if the destination is a storage.
    pub fn storage(&self) -> Option<StorageId> {
        match self {
            Dest::Reg(s) | Dest::RegFile(s) | Dest::Mem(s, _) => Some(*s),
            Dest::Port(_) => None,
        }
    }

    /// Renders the destination with names from `netlist`.
    pub fn display<'a>(&'a self, netlist: &'a Netlist) -> DestDisplay<'a> {
        DestDisplay {
            dest: self,
            netlist,
        }
    }
}

/// Helper for [`Dest::display`].
#[derive(Debug)]
pub struct DestDisplay<'a> {
    dest: &'a Dest,
    netlist: &'a Netlist,
}

impl fmt::Display for DestDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dest {
            Dest::Reg(s) => write!(f, "{}", self.netlist.storage(*s).name),
            Dest::RegFile(s) => write!(f, "{}[*]", self.netlist.storage(*s).name),
            Dest::Mem(s, addr) => {
                write!(f, "{}[", self.netlist.storage(*s).name)?;
                fmt_pattern(addr, self.netlist, f)?;
                write!(f, "]")
            }
            Dest::Port(p) => write!(f, "{}", self.netlist.proc_port(*p).name),
        }
    }
}

/// Where a template came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemplateOrigin {
    /// Extracted from the netlist by ISE.
    Extracted,
    /// Commutative variant of another template.
    Commutative(TemplateId),
    /// Produced by a transformation-library rewrite of another template.
    Rewrite(TemplateId),
}

/// A runtime data predicate guarding a template: the transfer fires only
/// when `(eval(test) == value) == eq` holds in the executing machine.
///
/// Conditional PC updates (branches) surface as templates carrying one of
/// these; ordinary templates have none.  The test is a data pattern (e.g.
/// the accumulator), not an instruction-word condition — those live in
/// `cond`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CondPred {
    /// Data value the hardware compares.
    pub test: Pattern,
    /// Constant it is compared against.
    pub value: u64,
    /// `true`: fires when equal; `false`: fires when not equal.
    pub eq: bool,
}

/// One RT template: `dest := src` under execution condition `cond`.
#[derive(Debug, Clone, PartialEq)]
pub struct RtTemplate {
    pub id: TemplateId,
    pub dest: Dest,
    pub src: Pattern,
    /// Execution condition over instruction-word and mode-register bits.
    pub cond: Bdd,
    pub origin: TemplateOrigin,
    /// Runtime data predicate; `Some` only for conditional transfers
    /// (conditional branches on PC-carrying machines).
    pub pred: Option<CondPred>,
}

impl RtTemplate {
    /// Renders `dest := src` with names from `netlist`; predicated
    /// templates show their firing condition.
    pub fn render(&self, netlist: &Netlist) -> String {
        let base = format!(
            "{} := {}",
            self.dest.display(netlist),
            self.src.display(netlist)
        );
        match &self.pred {
            None => base,
            Some(p) => format!(
                "{base} when {} {} {}",
                p.test.display(netlist),
                if p.eq { "==" } else { "!=" },
                p.value
            ),
        }
    }
}

/// The (extended) RT template base of a target processor.
///
/// Template ids are push order.  A shape index answers duplicate checks
/// ([`TemplateBase::find_pred`]) with one hash probe; it holds ids, not
/// copies of the shapes, and only answers membership.
#[derive(Clone, Default)]
pub struct TemplateBase {
    templates: Vec<RtTemplate>,
    index: ShapeIndex,
}

impl fmt::Debug for TemplateBase {
    // The index is left out: a `HashMap`'s iteration order is random.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemplateBase")
            .field("templates", &self.templates)
            .finish()
    }
}

impl TemplateBase {
    /// An empty base.
    pub fn new() -> Self {
        TemplateBase::default()
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Is the base empty?
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// All templates.
    pub fn templates(&self) -> &[RtTemplate] {
        &self.templates
    }

    /// A template by id.
    pub fn template(&self, id: TemplateId) -> &RtTemplate {
        &self.templates[id.0 as usize]
    }

    /// Adds a template, assigning its id.  Returns the id.
    pub fn push(
        &mut self,
        dest: Dest,
        src: Pattern,
        cond: Bdd,
        origin: TemplateOrigin,
    ) -> TemplateId {
        self.push_pred(dest, src, cond, origin, None)
    }

    /// Adds a template carrying a runtime data predicate (a conditional
    /// branch shape).  Returns the id.
    pub fn push_pred(
        &mut self,
        dest: Dest,
        src: Pattern,
        cond: Bdd,
        origin: TemplateOrigin,
        pred: Option<CondPred>,
    ) -> TemplateId {
        let id = TemplateId(self.templates.len() as u32);
        self.index
            .insert(self.index.key(&dest, &src, pred.as_ref()), id);
        self.templates.push(RtTemplate {
            id,
            dest,
            src,
            cond,
            origin,
            pred,
        });
        id
    }

    /// Widens the execution condition of `id` by OR-ing in `cond`.
    ///
    /// Used by ISE when several data-transfer routes produce the same
    /// `dest := src` shape under different encodings: the merged template is
    /// executable under either condition.
    pub fn merge_cond(&mut self, id: TemplateId, cond: Bdd, manager: &mut record_bdd::BddManager) {
        let t = &mut self.templates[id.0 as usize];
        t.cond = manager.or(t.cond, cond);
    }

    /// Looks up an unpredicated template with exactly this `dest`/`src`
    /// shape.
    pub fn find(&self, dest: &Dest, src: &Pattern) -> Option<TemplateId> {
        self.find_pred(dest, src, None)
    }

    /// Looks up a template with exactly this `dest`/`src`/`pred` shape;
    /// of several, the lowest id.
    pub fn find_pred(
        &self,
        dest: &Dest,
        src: &Pattern,
        pred: Option<&CondPred>,
    ) -> Option<TemplateId> {
        self.index
            .bucket(self.index.key(dest, src, pred))
            .find(|&id| {
                let t = self.template(id);
                &t.dest == dest && &t.src == src && t.pred.as_ref() == pred
            })
    }

    /// Iterates over templates writing storage `s`.
    pub fn writing(&self, s: StorageId) -> impl Iterator<Item = &RtTemplate> {
        self.templates
            .iter()
            .filter(move |t| t.dest.storage() == Some(s))
    }
}

/// Template ids bucketed by a hash of their `(dest, src, pred)` shape.
///
/// The hash is std's randomly keyed SipHash, since shapes come from user
/// HDL.  A bucket is a chain through `next`, in ascending id order, so
/// the first id in it whose shape compares equal is the lowest.
#[derive(Clone, Default)]
struct ShapeIndex {
    hasher: RandomState,
    /// First id per shape hash.
    first: HashMap<u64, TemplateId>,
    /// Per template id, the next id with the same shape hash.
    next: Vec<Option<TemplateId>>,
}

impl ShapeIndex {
    fn key(&self, dest: &Dest, src: &Pattern, pred: Option<&CondPred>) -> u64 {
        self.hasher.hash_one((dest, src, pred))
    }

    /// Appends `id`, which must be above every id already indexed.
    fn insert(&mut self, key: u64, id: TemplateId) {
        debug_assert_eq!(id.0 as usize, self.next.len());
        self.next.push(None);
        let Some(mut at) = self.first.get(&key).copied() else {
            self.first.insert(key, id);
            return;
        };
        while let Some(next) = self.next[at.0 as usize] {
            at = next;
        }
        self.next[at.0 as usize] = Some(id);
    }

    /// The ids whose shape hashes to `key`, lowest first.
    fn bucket(&self, key: u64) -> impl Iterator<Item = TemplateId> + '_ {
        std::iter::successors(self.first.get(&key).copied(), |id| self.next[id.0 as usize])
    }
}
