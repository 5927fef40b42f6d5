//! Algebraic extension of the RT template base (paper §3).
//!
//! The template base delivered by instruction-set extraction only contains
//! what the hardware literally computes.  To widen the search space of code
//! selection, two families of templates are added:
//!
//! 1. **Commutative variants** — for every template containing a commutative
//!    operator, variants with swapped arguments.  This prevents code-quality
//!    loss from badly-structured expression trees (important for the
//!    sum-of-products shapes that dominate DSP code).
//! 2. **Rewrite-library variants** — application-specific algebraic rules
//!    (e.g. `x * 2^k` computable by `x << k`) produce templates that match
//!    source shapes the data path supports only indirectly.

use crate::op::OpKind;
use crate::template::{Pattern, TemplateBase, TemplateId, TemplateOrigin};
use std::collections::BTreeMap;

/// Options controlling [`extend`].
#[derive(Debug, Clone)]
pub struct ExtensionOptions {
    /// Add swapped-argument variants for commutative operators.
    pub commutativity: bool,
    /// Upper bound on variants generated from a single template (guards
    /// against exponential blow-up on deep sum-of-product patterns).
    pub max_variants_per_template: usize,
    /// Rewrite rules to apply.
    pub library: TransformLibrary,
}

impl Default for ExtensionOptions {
    fn default() -> Self {
        ExtensionOptions {
            commutativity: true,
            max_variants_per_template: 16,
            library: TransformLibrary::standard(),
        }
    }
}

impl ExtensionOptions {
    /// No extension at all (ablation baseline).
    pub fn none() -> Self {
        ExtensionOptions {
            commutativity: false,
            max_variants_per_template: 16,
            library: TransformLibrary::empty(),
        }
    }
}

/// Statistics reported by [`extend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtensionStats {
    /// Commutative variants added.
    pub commutative_added: usize,
    /// Rewrite-rule variants added.
    pub rewrite_added: usize,
}

/// A pattern with metavariables, used on both sides of a rewrite rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RulePat {
    /// Metavariable: matches any subpattern; equal indices must bind equal
    /// subpatterns.
    Var(u8),
    /// Matches exactly this constant.
    Const(u64),
    /// Operator node.
    Op(OpKind, Vec<RulePat>),
}

/// One transformation rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformRule {
    /// `machine` ⇒ also usable for `source` (both sides share
    /// metavariables).  Example: machine `x + (~y + 1)`, source `x - y`.
    Linear {
        name: String,
        machine: RulePat,
        source: RulePat,
    },
    /// A shift-left by constant also computes multiplication by a power of
    /// two: `x << k` ⇒ `x * 2^k`.  Needs a computed constant, hence not
    /// expressible as a `Linear` rule.
    ShlToMulPow2,
    /// `0 - x` also computes unary negation.
    SubZeroToNeg,
}

impl TransformRule {
    /// Display name for diagnostics and docs.
    pub fn name(&self) -> &str {
        match self {
            TransformRule::Linear { name, .. } => name,
            TransformRule::ShlToMulPow2 => "shl-to-mul-pow2",
            TransformRule::SubZeroToNeg => "sub-zero-to-neg",
        }
    }
}

/// An external transformation library (paper §3: "application-specific
/// rewrite rules retrieved from an external transformation library").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransformLibrary {
    rules: Vec<TransformRule>,
}

impl TransformLibrary {
    /// No rules.
    pub fn empty() -> Self {
        TransformLibrary::default()
    }

    /// The standard library shipped with `record`: power-of-two strength
    /// "de-reduction", negation via subtraction, and subtraction via
    /// complement-add for machines without a subtracter.
    pub fn standard() -> Self {
        TransformLibrary {
            rules: vec![
                TransformRule::ShlToMulPow2,
                TransformRule::SubZeroToNeg,
                TransformRule::Linear {
                    name: "add-complement-to-sub".into(),
                    machine: RulePat::Op(
                        OpKind::Add,
                        vec![
                            RulePat::Var(0),
                            RulePat::Op(
                                OpKind::Add,
                                vec![
                                    RulePat::Op(OpKind::Not, vec![RulePat::Var(1)]),
                                    RulePat::Const(1),
                                ],
                            ),
                        ],
                    ),
                    source: RulePat::Op(OpKind::Sub, vec![RulePat::Var(0), RulePat::Var(1)]),
                },
            ],
        }
    }

    /// Adds a rule.
    pub fn push(&mut self, rule: TransformRule) {
        self.rules.push(rule);
    }

    /// The rules in application order.
    pub fn rules(&self) -> &[TransformRule] {
        &self.rules
    }
}

impl FromIterator<TransformRule> for TransformLibrary {
    fn from_iter<I: IntoIterator<Item = TransformRule>>(iter: I) -> Self {
        TransformLibrary {
            rules: iter.into_iter().collect(),
        }
    }
}

/// Extends `base` in place; returns statistics.
///
/// Every added template is deduplicated against the whole base by
/// (`dest`, `src`) shape, so repeated extension is idempotent.
pub fn extend(base: &mut TemplateBase, opts: &ExtensionOptions) -> ExtensionStats {
    let mut stats = ExtensionStats::default();

    if opts.commutativity {
        for i in 0..base.len() as u32 {
            let id = TemplateId(i);
            let t = base.template(id);
            // Predicated templates (conditional branches) are control
            // transfers, not algebraic shapes; extension does not apply.
            // Without a commutative operator, the only variant is `src`.
            if t.pred.is_some() || !has_commutative_op(&t.src) {
                continue;
            }
            let mut variants = commutative_variants(&t.src, opts.max_variants_per_template);
            variants.retain(|v| v != &t.src);
            for variant in variants {
                if push_variant(base, id, variant, TemplateOrigin::Commutative(id)) {
                    stats.commutative_added += 1;
                }
            }
        }
    }

    // Rewrites run on the commutatively-extended base so that e.g. a swapped
    // MAC pattern also gets its power-of-two variant; templates a rewrite
    // adds are not rewritten again.
    let after_comm = base.len() as u32;
    for rule in opts.library.rules() {
        for i in 0..after_comm {
            let id = TemplateId(i);
            let t = base.template(id);
            if t.pred.is_some() {
                continue;
            }
            for rewritten in apply_rule(rule, &t.src) {
                if push_variant(base, id, rewritten, TemplateOrigin::Rewrite(id)) {
                    stats.rewrite_added += 1;
                }
            }
        }
    }
    stats
}

/// Adds `src` as a variant of template `of`, with its destination and
/// condition, unless the base already has that shape.  Returns whether
/// it was added.
fn push_variant(
    base: &mut TemplateBase,
    of: TemplateId,
    src: Pattern,
    origin: TemplateOrigin,
) -> bool {
    let t = base.template(of);
    if base.find(&t.dest, &src).is_some() {
        return false;
    }
    let (dest, cond) = (t.dest.clone(), t.cond);
    base.push(dest, src, cond, origin);
    true
}

/// Does `p` contain a commutative (binary) operator?
fn has_commutative_op(p: &Pattern) -> bool {
    match p {
        Pattern::Op(op, args) => op.is_commutative() || args.iter().any(has_commutative_op),
        Pattern::MemRead(_, addr) => has_commutative_op(addr),
        _ => false,
    }
}

/// All argument-order variants of `p` obtainable by swapping commutative
/// operator arguments, including `p` itself, capped at `cap` results.
fn commutative_variants(p: &Pattern, cap: usize) -> Vec<Pattern> {
    fn rec(p: &Pattern, cap: usize) -> Vec<Pattern> {
        match p {
            Pattern::Op(op, args) if op.arity() == 2 => {
                let lhs = rec(&args[0], cap);
                let rhs = rec(&args[1], cap);
                let mut out = Vec::new();
                'outer: for l in &lhs {
                    for r in &rhs {
                        out.push(Pattern::Op(*op, vec![l.clone(), r.clone()]));
                        if op.is_commutative() {
                            out.push(Pattern::Op(*op, vec![r.clone(), l.clone()]));
                        }
                        if out.len() >= cap {
                            break 'outer;
                        }
                    }
                }
                out.dedup();
                out
            }
            Pattern::Op(op, args) => {
                let inner = rec(&args[0], cap);
                inner
                    .into_iter()
                    .map(|a| Pattern::Op(*op, vec![a]))
                    .collect()
            }
            Pattern::MemRead(s, addr) => rec(addr, cap)
                .into_iter()
                .map(|a| Pattern::MemRead(*s, Box::new(a)))
                .collect(),
            leaf => vec![leaf.clone()],
        }
    }
    let mut v = rec(p, cap);
    v.sort();
    v.dedup();
    v.truncate(cap);
    v
}

/// Metavariable bindings: subtrees of the matched pattern, by reference.
type Bindings<'p> = BTreeMap<u8, &'p Pattern>;

/// Matches `rule` against `p` (at the root), binding metavariables.
fn match_rule<'p>(rule: &RulePat, p: &'p Pattern, bind: &mut Bindings<'p>) -> bool {
    match (rule, p) {
        (RulePat::Var(v), _) => match bind.get(v) {
            Some(existing) => *existing == p,
            None => {
                bind.insert(*v, p);
                true
            }
        },
        (RulePat::Const(c), Pattern::Const(pc)) => c == pc,
        (RulePat::Op(op, rargs), Pattern::Op(pop, pargs)) => {
            op == pop
                && rargs.len() == pargs.len()
                && rargs.iter().zip(pargs).all(|(r, q)| match_rule(r, q, bind))
        }
        _ => false,
    }
}

/// Instantiates a rule side under `bind`, cloning the bound subtrees.
fn instantiate(rule: &RulePat, bind: &Bindings<'_>) -> Pattern {
    match rule {
        RulePat::Var(v) => Pattern::clone(bind.get(v).expect("rule sides share metavariables")),
        RulePat::Const(c) => Pattern::Const(*c),
        RulePat::Op(op, args) => {
            Pattern::Op(*op, args.iter().map(|a| instantiate(a, bind)).collect())
        }
    }
}

/// Applies `rule` at every position of `p`, returning each rewritten whole
/// pattern (one result per matching position).
fn apply_rule(rule: &TransformRule, p: &Pattern) -> Vec<Pattern> {
    let mut out = Vec::new();
    rewrite_positions(rule, p, &mut |new_whole| out.push(new_whole));
    out
}

/// Walks `p`; wherever the rule matches a node, yields a copy of `p` with
/// that node replaced.
fn rewrite_positions(rule: &TransformRule, p: &Pattern, emit: &mut dyn FnMut(Pattern)) {
    // Try at root.
    if let Some(replacement) = rewrite_at(rule, p) {
        emit(replacement);
    }
    // Recurse, rebuilding the spine.
    match p {
        Pattern::Op(op, args) => {
            for (i, a) in args.iter().enumerate() {
                rewrite_positions(rule, a, &mut |new_child| {
                    let mut new_args = args.clone();
                    new_args[i] = new_child;
                    emit(Pattern::Op(*op, new_args));
                });
            }
        }
        Pattern::MemRead(s, addr) => {
            rewrite_positions(rule, addr, &mut |new_addr| {
                emit(Pattern::MemRead(*s, Box::new(new_addr)));
            });
        }
        _ => {}
    }
}

/// Applies `rule` at exactly this node, if it matches.
fn rewrite_at(rule: &TransformRule, p: &Pattern) -> Option<Pattern> {
    match rule {
        TransformRule::Linear {
            machine, source, ..
        } => {
            let mut bind = Bindings::new();
            if match_rule(machine, p, &mut bind) {
                Some(instantiate(source, &bind))
            } else {
                None
            }
        }
        TransformRule::ShlToMulPow2 => {
            if let Pattern::Op(OpKind::Shl, args) = p {
                if let Pattern::Const(k) = args[1] {
                    if k < 63 {
                        return Some(Pattern::Op(
                            OpKind::Mul,
                            vec![args[0].clone(), Pattern::Const(1u64 << k)],
                        ));
                    }
                }
                // `x << #imm` also multiplies by a power of two, but the
                // factor is instruction-dependent; only constant shifts are
                // rewritten.
            }
            None
        }
        TransformRule::SubZeroToNeg => {
            if let Pattern::Op(OpKind::Sub, args) = p {
                if args[0] == Pattern::Const(0) {
                    return Some(Pattern::Op(OpKind::Neg, vec![args[1].clone()]));
                }
            }
            None
        }
    }
}

#[cfg(test)]
mod rule_tests {
    use super::*;
    use record_netlist::StorageId;

    fn reg(i: u32) -> Pattern {
        Pattern::Reg(StorageId(i))
    }

    #[test]
    fn shl_const_rewrites_to_mul() {
        let p = Pattern::Op(OpKind::Shl, vec![reg(0), Pattern::Const(3)]);
        let out = apply_rule(&TransformRule::ShlToMulPow2, &p);
        assert_eq!(
            out,
            vec![Pattern::Op(OpKind::Mul, vec![reg(0), Pattern::Const(8)])]
        );
    }

    #[test]
    fn shl_imm_not_rewritten() {
        let p = Pattern::Op(OpKind::Shl, vec![reg(0), Pattern::Imm { hi: 3, lo: 0 }]);
        assert!(apply_rule(&TransformRule::ShlToMulPow2, &p).is_empty());
    }

    #[test]
    fn sub_zero_rewrites_to_neg() {
        let p = Pattern::Op(OpKind::Sub, vec![Pattern::Const(0), reg(1)]);
        let out = apply_rule(&TransformRule::SubZeroToNeg, &p);
        assert_eq!(out, vec![Pattern::Op(OpKind::Neg, vec![reg(1)])]);
    }

    #[test]
    fn linear_rule_with_shared_metavars() {
        // machine: x + (~y + 1)  =>  source: x - y
        let lib = TransformLibrary::standard();
        let rule = &lib.rules()[2];
        let p = Pattern::Op(
            OpKind::Add,
            vec![
                reg(0),
                Pattern::Op(
                    OpKind::Add,
                    vec![Pattern::Op(OpKind::Not, vec![reg(1)]), Pattern::Const(1)],
                ),
            ],
        );
        let out = apply_rule(rule, &p);
        assert_eq!(out, vec![Pattern::Op(OpKind::Sub, vec![reg(0), reg(1)])]);
    }

    #[test]
    fn rewrite_applies_at_inner_positions() {
        // (r0 + (r1 << 2)) gets an inner mul variant.
        let p = Pattern::Op(
            OpKind::Add,
            vec![
                reg(0),
                Pattern::Op(OpKind::Shl, vec![reg(1), Pattern::Const(2)]),
            ],
        );
        let out = apply_rule(&TransformRule::ShlToMulPow2, &p);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0],
            Pattern::Op(
                OpKind::Add,
                vec![
                    reg(0),
                    Pattern::Op(OpKind::Mul, vec![reg(1), Pattern::Const(4)])
                ]
            )
        );
    }
}
