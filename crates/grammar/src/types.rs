//! Grammar data types.

use record_netlist::{Netlist, ProcPortId, StorageId};
use record_rtl::{OpKind, TemplateId};
use std::collections::BTreeMap;
use std::fmt;

/// Index of a non-terminal. `NonTermId(0)` is always `START`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NonTermId(pub u32);

impl NonTermId {
    /// The designated start symbol.
    pub const START: NonTermId = NonTermId(0);
}

/// Index of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

/// Identifies the destination wrapped by a designated `ASSIGN` terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AssignKey {
    Reg(StorageId),
    RegFile(StorageId),
    Port(ProcPortId),
}

/// Identity of a grammar terminal.
///
/// Terminals are matched against expression-tree node kinds; see
/// [`crate::EtKind`].  `Imm` terminals match any constant that fits the
/// field — the only semantic (non-structural) match in the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TermKey {
    /// Designated root terminal for assignments to a register/port
    /// destination; arity 1 (the value).
    Assign(AssignKey),
    /// Designated root terminal for memory stores; arity 2 (address,
    /// value).
    Store(StorageId),
    /// A hardware operator; arity = [`OpKind::arity`].
    Op(OpKind),
    /// A memory read; arity 1 (the address).
    MemRead(StorageId),
    /// The value currently held in a register (stop-rule terminal / ET
    /// leaf); arity 0.
    RegLeaf(StorageId),
    /// The value in some register-file cell; arity 0.
    RfLeaf(StorageId),
    /// A primary input port; arity 0.
    PortLeaf(ProcPortId),
    /// A hardwired constant; arity 0, matches exactly.
    ConstVal(u64),
    /// An instruction immediate field; arity 0, matches any constant that
    /// fits `hi - lo + 1` bits.
    Imm { hi: u16, lo: u16 },
}

impl TermKey {
    /// Number of children.
    pub fn arity(&self) -> usize {
        match self {
            TermKey::Assign(_) | TermKey::MemRead(_) => 1,
            TermKey::Store(_) => 2,
            TermKey::Op(op) => op.arity(),
            _ => 0,
        }
    }
}

/// A rule right-hand side: a tree over terminals with non-terminal leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GPat {
    /// Derivation from a non-terminal.
    NT(NonTermId),
    /// Terminal node with child patterns.
    T(TermKey, Vec<GPat>),
}

impl GPat {
    /// Is this a chain rule body (a bare non-terminal)?
    pub fn as_chain(&self) -> Option<NonTermId> {
        match self {
            GPat::NT(nt) => Some(*nt),
            GPat::T(..) => None,
        }
    }

    /// Non-terminal leaves in left-to-right order.
    pub fn nonterm_leaves(&self) -> Vec<NonTermId> {
        let mut out = Vec::new();
        self.push_nonterm_leaves(&mut out);
        out
    }

    /// Appends the non-terminal leaves, left to right, to `out`.
    pub fn push_nonterm_leaves(&self, out: &mut Vec<NonTermId>) {
        match self {
            GPat::NT(nt) => out.push(*nt),
            GPat::T(_, kids) => kids.iter().for_each(|k| k.push_nonterm_leaves(out)),
        }
    }
}

/// Where a rule came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleOrigin {
    /// Designated start rule (cost 0).
    Start,
    /// Stop rule for a storage (cost 0).
    Stop(StorageId),
    /// An RT rule derived from a template (cost 1).
    Template(TemplateId),
}

/// One grammar rule `lhs → rhs` with cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub id: RuleId,
    pub lhs: NonTermId,
    /// Index of the right-hand side in [`TreeGrammar::patterns`] (read
    /// it with [`TreeGrammar::rhs`]): every rule built from an equal
    /// template source (one per destination, typically) has the same
    /// index.
    pub pattern: u32,
    pub cost: u32,
    pub origin: RuleOrigin,
}

impl Rule {
    /// The template behind this rule, if it is an RT rule.
    pub fn template(&self) -> Option<TemplateId> {
        match self.origin {
            RuleOrigin::Template(t) => Some(t),
            _ => None,
        }
    }
}

/// What a non-terminal stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NonTermKind {
    Start,
    Reg(StorageId),
    RegFile(StorageId),
    Port(ProcPortId),
}

/// The tree grammar `G = (ΣT, ΣN, S, R, c)` of a target processor.
#[derive(Debug, Clone)]
pub struct TreeGrammar {
    nonterms: Vec<NonTermKind>,
    nt_names: Vec<String>,
    by_kind: BTreeMap<NonTermKind, NonTermId>,
    rules: Vec<Rule>,
    patterns: Vec<GPat>,
}

impl TreeGrammar {
    pub(crate) fn new_internal(
        nonterms: Vec<NonTermKind>,
        nt_names: Vec<String>,
        by_kind: BTreeMap<NonTermKind, NonTermId>,
        rules: Vec<Rule>,
        patterns: Vec<GPat>,
    ) -> Self {
        TreeGrammar {
            nonterms,
            nt_names,
            by_kind,
            rules,
            patterns,
        }
    }

    /// All rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The distinct right-hand sides, indexed by [`Rule::pattern`], in
    /// order of first use.
    pub fn patterns(&self) -> &[GPat] {
        &self.patterns
    }

    /// A rule's right-hand side.
    pub fn rhs(&self, rule: &Rule) -> &GPat {
        &self.patterns[rule.pattern as usize]
    }

    /// A rule by id.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0 as usize]
    }

    /// Number of non-terminals (including `START`).
    pub fn nonterm_count(&self) -> usize {
        self.nonterms.len()
    }

    /// The kind of a non-terminal.
    pub fn nonterm_kind(&self, nt: NonTermId) -> NonTermKind {
        self.nonterms[nt.0 as usize]
    }

    /// Printable name of a non-terminal.
    pub fn nonterm_name(&self, nt: NonTermId) -> &str {
        &self.nt_names[nt.0 as usize]
    }

    /// The non-terminal for a register/regfile/port, if it exists.
    pub fn nonterm_of(&self, kind: NonTermKind) -> Option<NonTermId> {
        self.by_kind.get(&kind).copied()
    }

    /// Rules with `lhs == nt`.
    pub fn rules_for(&self, nt: NonTermId) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.lhs == nt)
    }

    /// Chain rules (`X → Y`), as `(rule, source)` pairs.
    pub fn chain_rules(&self) -> impl Iterator<Item = (&Rule, NonTermId)> {
        self.rules
            .iter()
            .filter_map(|r| self.rhs(r).as_chain().map(|src| (r, src)))
    }

    /// Diagnoses non-terminals that have no rules at all (an ET leaf bound
    /// there could never be derived) and non-terminals unreachable from
    /// `START`.  Returns human-readable findings; an empty list means the
    /// grammar is well-formed.
    pub fn check(&self) -> Vec<String> {
        let mut findings = Vec::new();
        for (i, _) in self.nonterms.iter().enumerate() {
            let nt = NonTermId(i as u32);
            if self.rules_for(nt).next().is_none() {
                findings.push(format!(
                    "non-terminal `{}` has no rules (location can never be written)",
                    self.nonterm_name(nt)
                ));
            }
        }
        // Reachability from START through rule bodies.
        let mut reach = vec![false; self.nonterms.len()];
        reach[0] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for r in &self.rules {
                if reach[r.lhs.0 as usize] {
                    for nt in self.rhs(r).nonterm_leaves() {
                        if !reach[nt.0 as usize] {
                            reach[nt.0 as usize] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        for (i, ok) in reach.iter().enumerate() {
            if !ok {
                findings.push(format!(
                    "non-terminal `{}` is unreachable from START",
                    self.nonterm_name(NonTermId(i as u32))
                ));
            }
        }
        findings
    }

    /// Renders the grammar in an iburg-like BNF listing.
    pub fn render(&self, netlist: &Netlist) -> String {
        let mut out = String::new();
        for r in &self.rules {
            out.push_str(&format!(
                "{:>4}: {} -> {} [{}]\n",
                r.id.0,
                self.nonterm_name(r.lhs),
                render_pat(self.rhs(r), self, netlist),
                r.cost
            ));
        }
        out
    }
}

fn render_pat(p: &GPat, g: &TreeGrammar, n: &Netlist) -> String {
    match p {
        GPat::NT(nt) => g.nonterm_name(*nt).to_owned(),
        GPat::T(key, kids) => {
            let head = render_key(key, n);
            if kids.is_empty() {
                head
            } else {
                let args: Vec<String> = kids.iter().map(|k| render_pat(k, g, n)).collect();
                format!("{head}({})", args.join(", "))
            }
        }
    }
}

fn render_key(key: &TermKey, n: &Netlist) -> String {
    match key {
        TermKey::Assign(AssignKey::Reg(s)) | TermKey::Assign(AssignKey::RegFile(s)) => {
            format!("ASSIGN_{}", n.storage(*s).name)
        }
        TermKey::Assign(AssignKey::Port(p)) => format!("ASSIGN_{}", n.proc_port(*p).name),
        TermKey::Store(s) => format!("STORE_{}", n.storage(*s).name),
        TermKey::Op(op) => op.to_string(),
        TermKey::MemRead(s) => format!("{}_read", n.storage(*s).name),
        TermKey::RegLeaf(s) => format!("{}_leaf", n.storage(*s).name),
        TermKey::RfLeaf(s) => format!("{}_leaf", n.storage(*s).name),
        TermKey::PortLeaf(p) => n.proc_port(*p).name.clone(),
        TermKey::ConstVal(v) => format!("const_{v}"),
        TermKey::Imm { hi, lo } => format!("imm{}_{}", hi, lo),
    }
}

impl fmt::Display for TreeGrammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tree grammar: {} non-terminals, {} rules",
            self.nonterm_count(),
            self.rules.len()
        )
    }
}
