//! The dynamic-programming tree parser.

use record_grammar::{Et, EtKind, GPat, NodeIdx, NonTermId, RuleId, TermKey, TreeGrammar};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

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
    /// Candidate rules whose pattern was matched against a node
    /// (including chain-closure re-visits).
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

/// A grammar-specific tree parser (see crate docs).
///
/// Generation precomputes everything `select` needs per node: candidate
/// rules live in one flat arena sliced per root terminal (so dispatching
/// on an ET node kind is a map lookup returning a borrowed slice, never a
/// clone), and dynamic-programming labels go into a dense
/// node-major matrix allocated in one piece.
#[derive(Debug, Clone)]
pub struct Selector {
    /// Shared, not cloned: the grammar is part of the frozen retarget
    /// artifact and the selector only ever reads it.
    grammar: Arc<TreeGrammar>,
    /// Flat arena of candidate rule ids, sliced by `by_key` ranges.
    rule_arena: Vec<RuleId>,
    /// Rules indexed by the exact root terminal: `(start, end)` ranges
    /// into `rule_arena`.
    by_key: HashMap<TermKey, (u32, u32)>,
    /// Rules whose root is a hardwired constant or immediate terminal
    /// (candidates for `Const` ET nodes).
    const_root_rules: Vec<RuleId>,
    /// Chain rules: (rule, target, source, cost).
    chains: Vec<(RuleId, NonTermId, NonTermId, u32)>,
    /// Every rule's operand diversity (see `operand_diversity`),
    /// indexed by `RuleId`.
    diversity: Vec<u8>,
    nt_count: usize,
}

impl Selector {
    /// "Parser generation": compiles `grammar` into dispatch tables.
    ///
    /// Takes the grammar by `Arc` so the retarget artifact and the
    /// selector share one rule set instead of duplicating it.
    pub fn generate(grammar: Arc<TreeGrammar>) -> Selector {
        let mut grouped: HashMap<TermKey, Vec<RuleId>> = HashMap::new();
        let mut const_root_rules = Vec::new();
        let mut chains = Vec::new();
        for r in grammar.rules() {
            match &r.rhs {
                GPat::NT(src) => chains.push((r.id, r.lhs, *src, r.cost)),
                GPat::T(key, _) => match key {
                    TermKey::ConstVal(_) | TermKey::Imm { .. } => const_root_rules.push(r.id),
                    other => grouped.entry(*other).or_default().push(r.id),
                },
            }
        }
        // Flatten the per-key groups into one arena so `candidates`
        // returns borrowed slices.
        let mut rule_arena = Vec::new();
        let mut by_key = HashMap::with_capacity(grouped.len());
        for (key, rules) in grouped {
            let start = rule_arena.len() as u32;
            rule_arena.extend(rules);
            by_key.insert(key, (start, rule_arena.len() as u32));
        }
        let mut leaves = Vec::new();
        let diversity = grammar
            .rules()
            .iter()
            .map(|r| Self::operand_diversity(&r.rhs, &mut leaves))
            .collect();
        let nt_count = grammar.nonterm_count();
        Selector {
            grammar,
            rule_arena,
            by_key,
            const_root_rules,
            chains,
            diversity,
            nt_count,
        }
    }

    /// The grammar this parser was generated from.
    pub fn grammar(&self) -> &TreeGrammar {
        &self.grammar
    }

    /// Number of rules reachable through the dispatch tables (diagnostic).
    pub fn table_size(&self) -> usize {
        self.rule_arena.len() + self.const_root_rules.len() + self.chains.len()
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
    fn label(&self, et: &Et, stats: &mut SelectStats) -> LabelMatrix {
        let mut labels = LabelMatrix::new(et.len(), self.nt_count);
        for idx in 0..et.len() {
            for &rid in self.candidates(et.kind(idx)) {
                stats.rules_tried += 1;
                let rule = self.grammar.rule(rid);
                if let Some(child_cost) = self.match_cost(&rule.rhs, et, idx, &labels) {
                    let total = rule.cost.saturating_add(child_cost);
                    let diversity = self.diversity[rid.0 as usize];
                    let slot = labels.slot(idx, rule.lhs);
                    // On cost ties prefer rules whose operand non-terminals
                    // are pairwise distinct: tree parsing is interference-
                    // blind, but a cover that needs the same register for
                    // two simultaneously-live operands is unimplementable,
                    // so diversity is a free anti-conflict heuristic.
                    let better = match *slot {
                        None => true,
                        Some(e) => total < e.cost || (total == e.cost && diversity > e.diversity),
                    };
                    if better {
                        stats.labels_set += 1;
                        *slot = Some(LabelEntry {
                            cost: total,
                            via: Via::Base(rid),
                            diversity,
                        });
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

    /// Candidate rules whose root terminal may match `kind`, as a
    /// borrowed slice of the precomputed dispatch arena.
    fn candidates(&self, kind: EtKind) -> &[RuleId] {
        match kind {
            EtKind::Const(_) => &self.const_root_rules,
            EtKind::Assign(k) => self.lookup(TermKey::Assign(k)),
            EtKind::Store(s) => self.lookup(TermKey::Store(s)),
            EtKind::Op(o) => self.lookup(TermKey::Op(o)),
            EtKind::MemRead(s) => self.lookup(TermKey::MemRead(s)),
            EtKind::RegLeaf(s) => self.lookup(TermKey::RegLeaf(s)),
            EtKind::RfLeaf(s, _) => self.lookup(TermKey::RfLeaf(s)),
            EtKind::PortLeaf(p) => self.lookup(TermKey::PortLeaf(p)),
        }
    }

    fn lookup(&self, key: TermKey) -> &[RuleId] {
        match self.by_key.get(&key) {
            Some(&(start, end)) => &self.rule_arena[start as usize..end as usize],
            None => &[],
        }
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
                let mut total = 0u32;
                for (kpat, &kidx) in kids.iter().zip(children) {
                    total = total.saturating_add(self.match_cost(kpat, et, kidx, labels)?);
                }
                Some(total)
            }
        }
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
                let src = rule.rhs.as_chain().expect("chain rule body");
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
                self.bindings(&rule.rhs, et, idx, &mut operands);
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
                    EtKind::Op(o) if self.lookup(TermKey::Op(o)).is_empty() => Some(o.mnemonic()),
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
