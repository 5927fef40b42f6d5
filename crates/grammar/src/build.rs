//! Systematic translation of a template base into a tree grammar
//! (paper §3.1, "the grammar components are constructed as follows").

use crate::hash::FoldHasher;
use crate::types::*;
use record_netlist::PortDir;
use record_netlist::{Netlist, ProcPortId, StorageKind};
use record_rtl::{Dest, Pattern, TemplateBase};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault};

impl TreeGrammar {
    /// Builds the grammar for `base` over the storages and ports of
    /// `netlist`.
    ///
    /// Construction is total: malformed situations (e.g. a register that no
    /// template can write) do not fail here but are reported by
    /// [`TreeGrammar::check`].
    pub fn from_base(base: &TemplateBase, netlist: &Netlist) -> TreeGrammar {
        // Non-terminals: START, then storages (registers & register files),
        // then output ports.
        let mut nonterms = vec![NonTermKind::Start];
        let mut nt_names = vec!["START".to_owned()];
        let mut by_kind: BTreeMap<NonTermKind, NonTermId> = BTreeMap::new();
        by_kind.insert(NonTermKind::Start, NonTermId::START);
        let mut add_nt = |kind: NonTermKind, name: String| {
            let id = NonTermId(nonterms.len() as u32);
            nonterms.push(kind);
            nt_names.push(name);
            by_kind.insert(kind, id);
            id
        };
        for s in netlist.storages() {
            // The program counter is not a value location the selector may
            // compute into; branch emission handles its templates directly.
            if s.is_pc {
                continue;
            }
            match s.kind {
                StorageKind::Register => {
                    add_nt(NonTermKind::Reg(s.id), s.name.clone());
                }
                StorageKind::RegFile => {
                    add_nt(NonTermKind::RegFile(s.id), s.name.clone());
                }
                StorageKind::Memory => {} // memories are not value locations
            }
        }
        for (i, p) in netlist.proc_ports().iter().enumerate() {
            if p.dir == PortDir::Out {
                add_nt(NonTermKind::Port(ProcPortId(i as u32)), p.name.clone());
            }
        }

        let nt = |kind: NonTermKind| -> NonTermId {
            *by_kind.get(&kind).expect("non-terminal registered above")
        };

        let mut rules: Vec<Rule> = Vec::new();
        let push =
            |lhs: NonTermId, pattern: u32, cost: u32, origin: RuleOrigin, rules: &mut Vec<Rule>| {
                let id = RuleId(rules.len() as u32);
                rules.push(Rule {
                    id,
                    lhs,
                    pattern,
                    cost,
                    origin,
                });
            };
        let mut patterns = Patterns::with_hasher(
            base.templates().len(),
            BuildHasherDefault::<FoldHasher>::default(),
        );

        // 1. Start rules: START -> ASSIGN_dest(NonTerm(dest)), cost 0.
        for s in netlist.storages() {
            if s.is_pc {
                continue;
            }
            let (key, dest_nt) = match s.kind {
                StorageKind::Register => (AssignKey::Reg(s.id), nt(NonTermKind::Reg(s.id))),
                StorageKind::RegFile => (AssignKey::RegFile(s.id), nt(NonTermKind::RegFile(s.id))),
                StorageKind::Memory => continue,
            };
            let rhs = GPat::T(TermKey::Assign(key), vec![GPat::NT(dest_nt)]);
            push(
                NonTermId::START,
                patterns.add(rhs),
                0,
                RuleOrigin::Start,
                &mut rules,
            );
        }
        for (i, p) in netlist.proc_ports().iter().enumerate() {
            if p.dir == PortDir::Out {
                let pid = ProcPortId(i as u32);
                let dest_nt = nt(NonTermKind::Port(pid));
                let rhs = GPat::T(
                    TermKey::Assign(AssignKey::Port(pid)),
                    vec![GPat::NT(dest_nt)],
                );
                push(
                    NonTermId::START,
                    patterns.add(rhs),
                    0,
                    RuleOrigin::Start,
                    &mut rules,
                );
            }
        }

        // 2. RT rules: one per template, cost 1.  Templates with equal
        //    sources (one per destination, typically) share one lowered
        //    right-hand side.
        for t in base.templates() {
            // Control-transfer templates (PC writes, predicated or not) are
            // not expression rules; branch emission selects them directly.
            if t.pred.is_some() || t.dest.storage().is_some_and(|s| netlist.storage(s).is_pc) {
                continue;
            }
            let (lhs, store) = match &t.dest {
                Dest::Reg(s) => (nt(NonTermKind::Reg(*s)), None),
                Dest::RegFile(s) => (nt(NonTermKind::RegFile(*s)), None),
                Dest::Port(p) => (nt(NonTermKind::Port(*p)), None),
                // Memory stores derive the whole statement: START ->
                // STORE_mem(addr, value), cost 1.
                Dest::Mem(..) => (NonTermId::START, Some(&t.dest)),
            };
            let rhs = patterns.share((store, &t.src), || {
                let value = lower_pattern(&t.src, &by_kind);
                match &t.dest {
                    Dest::Mem(s, addr) => GPat::T(
                        TermKey::Store(*s),
                        vec![lower_pattern(addr, &by_kind), value],
                    ),
                    _ => value,
                }
            });
            push(lhs, rhs, 1, RuleOrigin::Template(t.id), &mut rules);
        }

        // 3. Stop rules: NonTerm(reg) -> Term(reg), cost 0.
        for s in netlist.storages() {
            if s.is_pc {
                continue;
            }
            match s.kind {
                StorageKind::Register => {
                    push(
                        nt(NonTermKind::Reg(s.id)),
                        patterns.add(GPat::T(TermKey::RegLeaf(s.id), vec![])),
                        0,
                        RuleOrigin::Stop(s.id),
                        &mut rules,
                    );
                }
                StorageKind::RegFile => {
                    push(
                        nt(NonTermKind::RegFile(s.id)),
                        patterns.add(GPat::T(TermKey::RfLeaf(s.id), vec![])),
                        0,
                        RuleOrigin::Stop(s.id),
                        &mut rules,
                    );
                }
                StorageKind::Memory => {}
            }
        }

        TreeGrammar::new_internal(nonterms, nt_names, by_kind, rules, patterns.table)
    }
}

/// What a template's right-hand side is lowered from: for a store, its
/// destination (the memory and the address pattern), and the source.
type Source<'a> = (Option<&'a Dest>, &'a Pattern);

/// The grammar's right-hand sides, each template source lowered once.
///
/// A hash of the source proposes the candidates and `Pattern` equality
/// decides, so two different sources that hash alike stay apart: a
/// collision costs a comparison, never a merge.
struct Patterns<'a, S> {
    /// Every right-hand side, in order of first use: the index is
    /// [`Rule::pattern`].
    table: Vec<GPat>,
    by_source: HashMap<Source<'a>, u32, S>,
}

impl<'a, S: BuildHasher> Patterns<'a, S> {
    fn with_hasher(capacity: usize, hasher: S) -> Self {
        Patterns {
            // Grown as used: most templates share (`ref`: 2,329 rules,
            // 608 right-hand sides), so `capacity` would overshoot.
            table: Vec::new(),
            by_source: HashMap::with_capacity_and_hasher(capacity, hasher),
        }
    }

    /// A right-hand side that no other rule has (start and stop rules).
    fn add(&mut self, rhs: GPat) -> u32 {
        self.table.push(rhs);
        self.table.len() as u32 - 1
    }

    /// The right-hand side of `source`: the one lowered for an equal
    /// source before, or else `lower()`'s, which later equal sources
    /// share.
    fn share(&mut self, source: Source<'a>, lower: impl FnOnce() -> GPat) -> u32 {
        let table = &mut self.table;
        *self.by_source.entry(source).or_insert_with(|| {
            table.push(lower());
            table.len() as u32 - 1
        })
    }
}

/// Paper table 2: the `L(exp)` map from template expressions to rule
/// right-hand sides.
fn lower_pattern(p: &Pattern, by_kind: &BTreeMap<NonTermKind, NonTermId>) -> GPat {
    match p {
        Pattern::Op(op, args) => GPat::T(
            TermKey::Op(*op),
            args.iter().map(|a| lower_pattern(a, by_kind)).collect(),
        ),
        Pattern::Reg(s) => match by_kind.get(&NonTermKind::Reg(*s)) {
            Some(&nt) => GPat::NT(nt),
            None => GPat::T(TermKey::RegLeaf(*s), vec![]),
        },
        Pattern::RegFile(s) => match by_kind.get(&NonTermKind::RegFile(*s)) {
            Some(&nt) => GPat::NT(nt),
            None => GPat::T(TermKey::RfLeaf(*s), vec![]),
        },
        Pattern::MemRead(s, addr) => {
            GPat::T(TermKey::MemRead(*s), vec![lower_pattern(addr, by_kind)])
        }
        Pattern::Port(p) => GPat::T(TermKey::PortLeaf(*p), vec![]),
        Pattern::Const(v) => GPat::T(TermKey::ConstVal(*v), vec![]),
        Pattern::Imm { hi, lo } => GPat::T(TermKey::Imm { hi: *hi, lo: *lo }, vec![]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_netlist::StorageId;
    use record_rtl::OpKind;
    use std::hash::Hasher;

    /// Hashes every source alike, so every lookup collides.
    #[derive(Default)]
    struct OneBucket;

    impl Hasher for OneBucket {
        fn write(&mut self, _: &[u8]) {}
        fn finish(&self) -> u64 {
            0
        }
    }

    #[test]
    fn equal_hashes_keep_unequal_sources_apart() {
        let acc = Pattern::Reg(StorageId(0));
        let imm = Pattern::Imm { hi: 3, lo: 0 };
        let add = Pattern::Op(OpKind::Add, vec![acc.clone(), imm.clone()]);
        let sub = Pattern::Op(OpKind::Sub, vec![acc, imm.clone()]);
        let add_again = add.clone();
        let store = Dest::Mem(StorageId(1), imm);
        let by_kind = BTreeMap::new();
        let lower = |p: &Pattern| lower_pattern(p, &by_kind);

        let mut patterns = Patterns::with_hasher(4, BuildHasherDefault::<OneBucket>::default());
        let a = patterns.share((None, &add), || lower(&add));
        let b = patterns.share((None, &sub), || lower(&sub));
        let c = patterns.share((Some(&store), &add), || lower(&add));
        let d = patterns.share((None, &add_again), || unreachable!("lowered once"));
        assert_eq!((a, b, c, d), (0, 1, 2, 0));
        assert_ne!(patterns.table[0], patterns.table[1]);
        assert_eq!(patterns.add(GPat::NT(NonTermId::START)), 3);
        assert_eq!(patterns.table.len(), 4);
    }
}
