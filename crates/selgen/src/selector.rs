//! The dynamic-programming tree parser.

use record_grammar::{
    AssignKey, Et, EtKind, GPat, NodeIdx, NonTermId, RuleId, TermKey, TreeGrammar,
};
use record_rtl::OpKind;
use std::cmp::Reverse;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Why code selection failed: some subtree has no derivation.  Built by
/// [`Selector::diagnose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectError {
    /// Rendered subtree that could not be covered.
    pub subtree: String,
    /// Human-readable explanation.
    pub reason: String,
    /// When the derivation broke at an operator node for which the
    /// grammar has *no rule at all*, the operator's mnemonic.  This
    /// separates "the data path lacks this operation" (a hardware gap)
    /// from "rules exist but none matched in context" (a selector gap).
    pub missing_op: Option<&'static str>,
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no cover for `{}`: {}", self.subtree, self.reason)
    }
}

impl Error for SelectError {}

/// One rule application in a cover, in emission (post) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleApp {
    /// The applied rule.
    pub rule: RuleId,
    /// ET node where the rule's root matched.
    pub at: NodeIdx,
    /// The non-terminal this application derives.
    pub nt: NonTermId,
    /// For every non-terminal leaf of the rule pattern (left-to-right): the
    /// non-terminal and the ET node it derives.
    pub operands: Vec<(NonTermId, NodeIdx)>,
}

/// Work counters of one [`Selector::select`] call.
///
/// Plain fields incremented inside the labelling loops — always on,
/// machine-independent, and deterministic for a given grammar and tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectStats {
    /// Right-hand sides matched against a node (each once, however
    /// many rules share it), plus chain-rule visits of the closure
    /// (re-visits included).
    pub rules_tried: u64,
    /// Label-matrix entries written (first writes and improvements).
    pub labels_set: u64,
}

impl SelectStats {
    /// Accumulates another call's counters into this one.
    pub fn absorb(&mut self, other: &SelectStats) {
        self.rules_tried += other.rules_tried;
        self.labels_set += other.labels_set;
    }
}

/// A minimum-cost cover of an expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    /// Total accumulated cost (number of RT rules for unit costs).
    pub cost: u32,
    /// Applications in evaluation order: operands before consumers.
    pub apps: Vec<RuleApp>,
    /// Labelling work done to find this cover.
    pub stats: SelectStats,
}

impl Cover {
    /// Applications that correspond to RT templates (cost-bearing rules).
    pub fn template_apps<'a>(
        &'a self,
        grammar: &'a TreeGrammar,
    ) -> impl Iterator<Item = &'a RuleApp> {
        self.apps
            .iter()
            .filter(move |a| grammar.rule(a.rule).template().is_some())
    }
}

#[derive(Debug, Clone, Copy)]
enum Via {
    Base(RuleId),
    Chain(RuleId),
}

impl Via {
    fn rule(self) -> RuleId {
        match self {
            Via::Base(rid) | Via::Chain(rid) => rid,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct LabelEntry {
    cost: u32,
    via: Via,
    /// 1 if the rule's operand non-terminals are pairwise distinct.
    diversity: u8,
}

/// Dense node-major labelling matrix: one allocation of
/// `nodes x non-terminals` entries instead of a `Vec` of `Vec`s.
#[derive(Debug)]
struct LabelMatrix {
    entries: Vec<Option<LabelEntry>>,
    nt_count: usize,
}

impl LabelMatrix {
    fn new(nodes: usize, nt_count: usize) -> LabelMatrix {
        LabelMatrix {
            entries: vec![None; nodes * nt_count],
            nt_count,
        }
    }

    #[inline]
    fn at(&self, idx: NodeIdx, nt: NonTermId) -> Option<LabelEntry> {
        self.entries[idx * self.nt_count + nt.0 as usize]
    }

    #[inline]
    fn slot(&mut self, idx: NodeIdx, nt: NonTermId) -> &mut Option<LabelEntry> {
        &mut self.entries[idx * self.nt_count + nt.0 as usize]
    }

    /// Does node `idx` carry no label for any non-terminal?
    fn unlabelled(&self, idx: NodeIdx) -> bool {
        self.entries[idx * self.nt_count..(idx + 1) * self.nt_count]
            .iter()
            .all(Option::is_none)
    }
}

/// What a pattern node requires of the ET node it meets: a label for a
/// non-terminal, a constant (a hardwired value or an immediate field),
/// or a node of one terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Head {
    Nt(NonTermId),
    Const,
    Term(TermKey),
}

impl Head {
    fn of(pat: &GPat) -> Head {
        match pat {
            GPat::NT(nt) => Head::Nt(*nt),
            GPat::T(TermKey::ConstVal(_) | TermKey::Imm { .. }, _) => Head::Const,
            GPat::T(key, _) => Head::Term(*key),
        }
    }

    /// Can node `idx` meet a pattern node with this head?  A necessary
    /// condition of matching, checked before any pattern is walked.
    fn holds(self, et: &Et, idx: NodeIdx, labels: &LabelMatrix) -> bool {
        match self {
            Head::Nt(nt) => labels.at(idx, nt).is_some(),
            Head::Const => matches!(et.kind(idx), EtKind::Const(_)),
            Head::Term(key) => et.kind_matches(idx, &key),
        }
    }
}

/// Where a right-hand side sits in the index: its root's head, then its
/// root's arity and children's heads (in `heads[..arity]`).  Keys
/// order by root first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    root: Head,
    arity: usize,
    heads: [Head; 2],
}

impl Key {
    fn of(rhs: &GPat) -> Key {
        let GPat::T(_, kids) = rhs else {
            unreachable!("chain rules are not keyed")
        };
        let mut heads = [Head::Const; 2];
        for (head, kid) in heads.iter_mut().zip(kids) {
            *head = Head::of(kid);
        }
        Key {
            root: Head::of(rhs),
            arity: kids.len(),
            heads,
        }
    }
}

/// The right-hand sides of one [`Key`].
#[derive(Debug, Clone)]
struct Bucket {
    arity: usize,
    heads: [Head; 2],
    /// A range of `Selector::rhs`.
    rhs: Range<u32>,
}

/// The terminal families whose roots [`RootIndex`] indexes densely.
#[derive(Debug, Clone, Copy)]
enum Family {
    AssignReg,
    AssignRegFile,
    AssignPort,
    Store,
    Op,
    MemRead,
    RegLeaf,
    RfLeaf,
    PortLeaf,
}

const FAMILIES: usize = 9;

/// Where a root terminal's buckets sit in a [`RootIndex`].
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A constant: every hardwired value and immediate field.
    Const,
    /// A bit-slice operator, found by its bounds.
    Slice(u16, u16),
    /// Entry `.1` of a family's run: a storage id, a port id or an
    /// operator's [`op_index`].
    Dense(Family, usize),
}

impl Slot {
    /// The slot of the ET nodes a root terminal `key` matches.
    #[inline]
    fn of_key(key: TermKey) -> Slot {
        let (family, id) = match key {
            TermKey::ConstVal(_) | TermKey::Imm { .. } => return Slot::Const,
            TermKey::Op(OpKind::Slice(hi, lo)) => return Slot::Slice(hi, lo),
            TermKey::Op(op) => (Family::Op, op_index(op)),
            TermKey::Assign(AssignKey::Reg(s)) => (Family::AssignReg, s.0),
            TermKey::Assign(AssignKey::RegFile(s)) => (Family::AssignRegFile, s.0),
            TermKey::Assign(AssignKey::Port(p)) => (Family::AssignPort, p.0),
            TermKey::Store(s) => (Family::Store, s.0),
            TermKey::MemRead(s) => (Family::MemRead, s.0),
            TermKey::RegLeaf(s) => (Family::RegLeaf, s.0),
            TermKey::RfLeaf(s) => (Family::RfLeaf, s.0),
            TermKey::PortLeaf(p) => (Family::PortLeaf, p.0),
        };
        Slot::Dense(family, id as usize)
    }

    /// The slot of an ET node of `kind`: its terminal's.
    #[inline]
    fn of_kind(kind: EtKind) -> Slot {
        Slot::of_key(match kind {
            EtKind::Const(v) => TermKey::ConstVal(v),
            EtKind::Assign(k) => TermKey::Assign(k),
            EtKind::Store(s) => TermKey::Store(s),
            EtKind::Op(o) => TermKey::Op(o),
            EtKind::MemRead(s) => TermKey::MemRead(s),
            EtKind::RegLeaf(s) => TermKey::RegLeaf(s),
            EtKind::RfLeaf(s, _) => TermKey::RfLeaf(s),
            EtKind::PortLeaf(p) => TermKey::PortLeaf(p),
        })
    }
}

/// A dense index of the operators other than `Slice`.
#[inline]
fn op_index(op: OpKind) -> u32 {
    match op {
        OpKind::Add => 0,
        OpKind::Sub => 1,
        OpKind::Mul => 2,
        OpKind::Div => 3,
        OpKind::Rem => 4,
        OpKind::And => 5,
        OpKind::Or => 6,
        OpKind::Xor => 7,
        OpKind::Shl => 8,
        OpKind::Shr => 9,
        OpKind::Not => 10,
        OpKind::Neg => 11,
        OpKind::Eq => 12,
        OpKind::Ne => 13,
        OpKind::Lt => 14,
        OpKind::Le => 15,
        OpKind::Gt => 16,
        OpKind::Ge => 17,
        OpKind::Slice(..) => unreachable!("slices are found by their bounds"),
    }
}

/// Each root terminal's buckets, a range of `Selector::buckets`, found
/// without comparing heads: one run per terminal family, indexed by
/// storage, port or operator; constants share one range, and slices,
/// which carry their bounds, sit in a short list.
#[derive(Debug, Clone, Default)]
struct RootIndex {
    constant: Range<u32>,
    /// Per family; a root with no rule has an empty range.
    runs: [Vec<Range<u32>>; FAMILIES],
    /// `(hi, lo)` and the buckets of each slice root.
    slices: Vec<((u16, u16), Range<u32>)>,
}

impl RootIndex {
    /// Records the buckets of the right-hand sides rooted at `key`.
    fn insert(&mut self, key: TermKey, buckets: Range<u32>) {
        match Slot::of_key(key) {
            Slot::Const => self.constant = buckets,
            Slot::Slice(hi, lo) => self.slices.push(((hi, lo), buckets)),
            Slot::Dense(family, id) => {
                let run = &mut self.runs[family as usize];
                if run.len() <= id {
                    run.resize(id + 1, 0..0);
                }
                run[id] = buckets;
            }
        }
    }

    /// The buckets of the roots in `slot`.
    #[inline]
    fn get(&self, slot: Slot) -> Range<u32> {
        match slot {
            Slot::Const => self.constant.clone(),
            Slot::Slice(hi, lo) => self
                .slices
                .iter()
                .find(|(bounds, _)| *bounds == (hi, lo))
                .map_or(0..0, |(_, r)| r.clone()),
            Slot::Dense(family, id) => self.runs[family as usize].get(id).cloned().unwrap_or(0..0),
        }
    }
}

/// One distinct right-hand side and the rules that share it.
#[derive(Debug, Clone)]
struct Rhs {
    /// Its index in [`TreeGrammar::patterns`].
    pattern: u32,
    /// Its rules, ascending by id: a range of `Selector::rules`.
    rules: Range<u32>,
    /// 1 if its operand non-terminals are pairwise distinct.
    diversity: u8,
}

/// A rule as labelling reads it.
#[derive(Debug, Clone, Copy)]
struct RuleRef {
    id: RuleId,
    lhs: NonTermId,
    cost: u32,
}

fn range(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// A grammar-specific tree parser (see crate docs).
///
/// Generation precomputes everything `select` needs per node.  The
/// grammar's rules are indexed by root terminal, then by the heads of
/// the root's children (what each child must be: a non-terminal, a
/// constant or a terminal), then by shared right-hand side.  A node
/// finds its root's buckets in a dense index, one run per terminal
/// family indexed by storage, port or operator, as iburg's labellers
/// switch on a node's operator; labelling visits only the buckets whose
/// heads the node's children satisfy, and matches each right-hand side
/// there once for all the rules that share it, below the root the
/// bucket has already matched.  Every table is a flat vector sliced by
/// ranges, and dynamic-programming labels go into a dense node-major
/// matrix allocated in one piece.
#[derive(Debug, Clone)]
pub struct Selector {
    /// The grammar this parser was generated from, owned here: the
    /// selector is the one holder of the rule set.
    grammar: TreeGrammar,
    /// Each root terminal's buckets.
    roots: RootIndex,
    buckets: Vec<Bucket>,
    /// Distinct right-hand sides, bucket by bucket.
    rhs: Vec<Rhs>,
    /// Every non-chain rule, grouped by right-hand side.
    rules: Vec<RuleRef>,
    /// Chain rules: (rule, target, source, cost).
    chains: Vec<(RuleId, NonTermId, NonTermId, u32)>,
    nt_count: usize,
}

impl Selector {
    /// "Parser generation": compiles `grammar` into dispatch tables.
    ///
    /// Takes the grammar by value and keeps it: [`Selector::grammar`]
    /// is how the rest of the compiler reads the rule set.  Rules are
    /// grouped by the grammar's pattern index ([`record_grammar::Rule::pattern`]),
    /// so generation compares no patterns.
    pub fn generate(grammar: TreeGrammar) -> Selector {
        // Group the non-chain rules by pattern (a counting sort, so each
        // group stays in ascending id order).
        let patterns = grammar.patterns();
        let mut starts = vec![0u32; patterns.len() + 1];
        let mut chains = Vec::new();
        for r in grammar.rules() {
            match *grammar.rhs(r) {
                GPat::NT(src) => chains.push((r.id, r.lhs, src, r.cost)),
                GPat::T(..) => starts[r.pattern as usize + 1] += 1,
            }
        }
        for p in 1..starts.len() {
            starts[p] += starts[p - 1];
        }
        let mut fill = starts.clone();
        let placeholder = RuleRef {
            id: RuleId(0),
            lhs: NonTermId::START,
            cost: 0,
        };
        let mut rules =
            vec![placeholder; *starts.last().expect("one start per pattern, plus one") as usize];
        for r in grammar
            .rules()
            .iter()
            .filter(|r| grammar.rhs(r).as_chain().is_none())
        {
            let at = &mut fill[r.pattern as usize];
            rules[*at as usize] = RuleRef {
                id: r.id,
                lhs: r.lhs,
                cost: r.cost,
            };
            *at += 1;
        }

        // Key each right-hand side, then sort by key, so that each root's
        // buckets and each bucket's right-hand sides are contiguous.
        let mut keys: Vec<(Key, u32)> = (0..patterns.len())
            .filter(|&p| starts[p] < starts[p + 1])
            .map(|p| (Key::of(&patterns[p]), p as u32))
            .collect();
        keys.sort_unstable();

        // Each root's head, its terminal (constants share one head) and
        // its buckets.
        let mut roots: Vec<(Head, TermKey, Range<u32>)> = Vec::new();
        let mut buckets: Vec<Bucket> = Vec::new();
        let mut rhs = Vec::with_capacity(keys.len());
        let mut leaves = Vec::new();
        let mut last: Option<Key> = None;
        for &(key, p) in &keys {
            rhs.push(Rhs {
                pattern: p,
                rules: starts[p as usize]..starts[p as usize + 1],
                diversity: Self::operand_diversity(&patterns[p as usize], &mut leaves),
            });
            let end = rhs.len() as u32;
            match buckets.last_mut() {
                Some(b) if last == Some(key) => b.rhs.end = end,
                _ => {
                    buckets.push(Bucket {
                        arity: key.arity,
                        heads: key.heads,
                        rhs: end - 1..end,
                    });
                    let b = buckets.len() as u32;
                    match roots.last_mut() {
                        Some((head, _, r)) if *head == key.root => r.end = b,
                        _ => {
                            let GPat::T(term, _) = patterns[p as usize] else {
                                unreachable!("chain rules are not keyed")
                            };
                            roots.push((key.root, term, b - 1..b));
                        }
                    }
                }
            }
            last = Some(key);
        }
        let mut index = RootIndex::default();
        for (_, term, r) in roots {
            index.insert(term, r);
        }
        let nt_count = grammar.nonterm_count();
        Selector {
            grammar,
            roots: index,
            buckets,
            rhs,
            rules,
            chains,
            nt_count,
        }
    }

    /// The grammar this parser was generated from.
    pub fn grammar(&self) -> &TreeGrammar {
        &self.grammar
    }

    /// The buckets of the right-hand sides whose root terminal matches
    /// an ET node of `kind`: one dense-index read, or for a slice a
    /// search of the slice roots by bounds.
    #[inline]
    fn buckets_at(&self, kind: EtKind) -> &[Bucket] {
        &self.buckets[range(&self.roots.get(Slot::of_kind(kind)))]
    }

    /// Computes a minimum-cost cover of `et`, or `None` when no
    /// derivation of the whole tree from `START` exists — e.g. an
    /// operator the data path lacks, or a constant that fits no immediate
    /// field and no hardwired constant.
    ///
    /// A failure costs only the labelling: [`Selector::diagnose`] says
    /// why, for a caller that reports it.  A code generator that splits
    /// an uncovered tree and selects its parts never needs to know.
    pub fn select(&self, et: &Et) -> Option<Cover> {
        let mut stats = SelectStats::default();
        let labels = self.label(et, &mut stats);
        let cost = labels.at(et.root(), NonTermId::START)?.cost;
        let mut apps = Vec::new();
        self.reduce(et, &labels, et.root(), NonTermId::START, &mut apps);
        Some(Cover { cost, apps, stats })
    }

    /// Why `et`, a tree [`Selector::select`] finds no cover for, has
    /// none: labels the tree again and names the node where derivation
    /// broke (see [`SelectError`]).  Labelling is deterministic, so this
    /// sees the labels the failed selection saw.  On a tree that has a
    /// cover, the error names no real failure.
    pub fn diagnose(&self, et: &Et) -> SelectError {
        let labels = self.label(et, &mut SelectStats::default());
        self.explain(et, &labels)
    }

    /// Bottom-up labelling: per node, per non-terminal, cheapest cost and
    /// the rule achieving it.  Nodes are created children-first by
    /// [`record_grammar::EtBuilder`], so index order is a valid bottom-up
    /// order.  The matrix is one dense allocation; rows are written in
    /// place, so labelling performs no per-node allocation at all.
    ///
    /// A node's buckets come from the root index, so a right-hand side
    /// there already has the node's root terminal, and a bucket whose
    /// arity and child heads the node's children meet has checked those
    /// too: only the subpatterns under the root are matched.  A constant
    /// root is the exception, as its bucket holds every hardwired value
    /// and immediate field: it is matched whole, value and fit included.
    fn label(&self, et: &Et, stats: &mut SelectStats) -> LabelMatrix {
        let mut labels = LabelMatrix::new(et.len(), self.nt_count);
        for idx in 0..et.len() {
            let kind = et.kind(idx);
            let const_root = matches!(kind, EtKind::Const(_));
            let children = et.children(idx);
            for bucket in self.buckets_at(kind) {
                if bucket.arity != children.len()
                    || !bucket
                        .heads
                        .iter()
                        .zip(children)
                        .all(|(head, &kid)| head.holds(et, kid, &labels))
                {
                    continue;
                }
                for rhs in &self.rhs[range(&bucket.rhs)] {
                    stats.rules_tried += 1;
                    let pat = &self.grammar.patterns()[rhs.pattern as usize];
                    let child_cost = match pat {
                        GPat::T(_, kids) if !const_root => {
                            self.kids_cost(kids, children, et, &labels)
                        }
                        _ => self.match_cost(pat, et, idx, &labels),
                    };
                    let Some(child_cost) = child_cost else {
                        continue;
                    };
                    let diversity = rhs.diversity;
                    for rule in &self.rules[range(&rhs.rules)] {
                        let total = rule.cost.saturating_add(child_cost);
                        let slot = labels.slot(idx, rule.lhs);
                        // On cost ties prefer rules whose operand non-
                        // terminals are pairwise distinct: tree parsing is
                        // interference-blind, but a cover that needs the
                        // same register for two simultaneously-live
                        // operands is unimplementable, so diversity is a
                        // free anti-conflict heuristic.  Then the lowest
                        // rule id, so the cover does not depend on the
                        // order patterns are visited in.
                        let better = slot.is_none_or(|e| {
                            (total, Reverse(diversity), rule.id)
                                < (e.cost, Reverse(e.diversity), e.via.rule())
                        });
                        if better {
                            stats.labels_set += 1;
                            *slot = Some(LabelEntry {
                                cost: total,
                                via: Via::Base(rule.id),
                                diversity,
                            });
                        }
                    }
                }
            }
            // Chain-rule closure (costs are non-negative; strict improvement
            // guarantees termination).
            let mut changed = true;
            while changed {
                changed = false;
                for &(rid, tgt, src, cost) in &self.chains {
                    stats.rules_tried += 1;
                    let Some(src_entry) = labels.at(idx, src) else {
                        continue;
                    };
                    let total = src_entry.cost.saturating_add(cost);
                    let slot = labels.slot(idx, tgt);
                    if slot.is_none_or(|e| total < e.cost) {
                        stats.labels_set += 1;
                        *slot = Some(LabelEntry {
                            cost: total,
                            via: Via::Chain(rid),
                            diversity: src_entry.diversity,
                        });
                        changed = true;
                    }
                }
            }
        }
        labels
    }

    /// 1 when the pattern's non-terminal leaves are pairwise distinct.
    /// `leaves` is scratch space, reused across rules.
    fn operand_diversity(rhs: &GPat, leaves: &mut Vec<NonTermId>) -> u8 {
        leaves.clear();
        rhs.push_nonterm_leaves(leaves);
        u8::from(
            leaves
                .iter()
                .enumerate()
                .all(|(i, nt)| !leaves[..i].contains(nt)),
        )
    }

    /// Cost of matching `pat` structurally at `idx` (sum of non-terminal
    /// leaf costs), or `None` if it does not match.
    fn match_cost(&self, pat: &GPat, et: &Et, idx: NodeIdx, labels: &LabelMatrix) -> Option<u32> {
        match pat {
            GPat::NT(nt) => labels.at(idx, *nt).map(|e| e.cost),
            GPat::T(key, kids) => {
                if !et.kind_matches(idx, key) {
                    return None;
                }
                let children = et.children(idx);
                if children.len() != kids.len() {
                    return None;
                }
                self.kids_cost(kids, children, et, labels)
            }
        }
    }

    /// Cost of matching the subpatterns `kids` of a terminal pattern at
    /// `children`, one node each: the part of [`Selector::match_cost`]
    /// below the root.
    #[inline]
    fn kids_cost(
        &self,
        kids: &[GPat],
        children: &[NodeIdx],
        et: &Et,
        labels: &LabelMatrix,
    ) -> Option<u32> {
        let mut total = 0u32;
        for (kpat, &kidx) in kids.iter().zip(children) {
            total = total.saturating_add(self.match_cost(kpat, et, kidx, labels)?);
        }
        Some(total)
    }

    /// Collects non-terminal leaf bindings of a matching pattern.
    fn bindings(&self, pat: &GPat, et: &Et, idx: NodeIdx, out: &mut Vec<(NonTermId, NodeIdx)>) {
        match pat {
            GPat::NT(nt) => out.push((*nt, idx)),
            GPat::T(_, kids) => {
                for (kpat, &kidx) in kids.iter().zip(et.children(idx)) {
                    self.bindings(kpat, et, kidx, out);
                }
            }
        }
    }

    /// Top-down reduction emitting applications in evaluation order.
    fn reduce(
        &self,
        et: &Et,
        labels: &LabelMatrix,
        idx: NodeIdx,
        nt: NonTermId,
        out: &mut Vec<RuleApp>,
    ) {
        let entry = labels.at(idx, nt).expect("reduce called on labelled goal");
        match entry.via {
            Via::Chain(rid) => {
                let rule = self.grammar.rule(rid);
                let src = self.grammar.rhs(rule).as_chain().expect("chain rule body");
                self.reduce(et, labels, idx, src, out);
                out.push(RuleApp {
                    rule: rid,
                    at: idx,
                    nt,
                    operands: vec![(src, idx)],
                });
            }
            Via::Base(rid) => {
                let rule = self.grammar.rule(rid);
                let mut operands = Vec::new();
                self.bindings(self.grammar.rhs(rule), et, idx, &mut operands);
                for &(op_nt, op_idx) in &operands {
                    self.reduce(et, labels, op_idx, op_nt, out);
                }
                out.push(RuleApp {
                    rule: rid,
                    at: idx,
                    nt,
                    operands,
                });
            }
        }
    }

    /// Builds a helpful error by finding the most informative unlabelled
    /// node: an unlabelled node whose children are all labelled is where
    /// derivation actually broke (bare constants such as addresses are
    /// matched structurally inside patterns and are expected to be
    /// unlabelled, so inner nodes are preferred over leaves).
    fn explain(&self, et: &Et, labels: &LabelMatrix) -> SelectError {
        let unlabelled = |i: NodeIdx| labels.unlabelled(i);
        let mut best: Option<NodeIdx> = None;
        for idx in 0..et.len() {
            if !unlabelled(idx) {
                continue;
            }
            // Children must be labelled or structural leaves (constants are
            // matched inside patterns and are expected to be unlabelled).
            if et
                .children(idx)
                .iter()
                .any(|&c| unlabelled(c) && !et.children(c).is_empty())
            {
                continue;
            }
            let better = match best {
                None => true,
                // Prefer inner nodes; among equals, the later (outer) one.
                Some(b) => !et.children(idx).is_empty() || et.children(b).is_empty(),
            };
            if better {
                best = Some(idx);
            }
        }
        match best {
            Some(idx) => {
                // Distinguish "the machine has no rule for this operator"
                // (missing hardware) from "rules exist but none fit here"
                // (a selector gap).
                let missing_op = match et.kind(idx) {
                    EtKind::Op(o) if self.buckets_at(EtKind::Op(o)).is_empty() => {
                        Some(o.mnemonic())
                    }
                    _ => None,
                };
                let reason = match missing_op {
                    Some(op) => format!("the grammar has no rule for operator `{op}`"),
                    None => "no rule matches this subtree for any location".into(),
                };
                SelectError {
                    subtree: et.render(idx),
                    reason,
                    missing_op,
                }
            }
            None => SelectError {
                subtree: et.render(et.root()),
                reason: "subtrees are derivable but no start rule covers the destination".into(),
                missing_op: None,
            },
        }
    }
}
