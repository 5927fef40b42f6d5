//! Systematic translation of a template base into a tree grammar
//! (paper §3.1, "the grammar components are constructed as follows").

use crate::types::*;
use record_netlist::PortDir;
use record_netlist::{Netlist, ProcPortId, StorageKind};
use record_rtl::{Dest, Pattern, TemplateBase};
use std::collections::BTreeMap;

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
            |lhs: NonTermId, rhs: GPat, cost: u32, origin: RuleOrigin, rules: &mut Vec<Rule>| {
                let id = RuleId(rules.len() as u32);
                rules.push(Rule {
                    id,
                    lhs,
                    rhs,
                    cost,
                    origin,
                });
            };

        // 1. Start rules: START -> ASSIGN_dest(NonTerm(dest)), cost 0.
        for s in netlist.storages() {
            if s.is_pc {
                continue;
            }
            match s.kind {
                StorageKind::Register => {
                    let dest_nt = nt(NonTermKind::Reg(s.id));
                    push(
                        NonTermId::START,
                        GPat::T(
                            TermKey::Assign(AssignKey::Reg(s.id)),
                            vec![GPat::NT(dest_nt)],
                        ),
                        0,
                        RuleOrigin::Start,
                        &mut rules,
                    );
                }
                StorageKind::RegFile => {
                    let dest_nt = nt(NonTermKind::RegFile(s.id));
                    push(
                        NonTermId::START,
                        GPat::T(
                            TermKey::Assign(AssignKey::RegFile(s.id)),
                            vec![GPat::NT(dest_nt)],
                        ),
                        0,
                        RuleOrigin::Start,
                        &mut rules,
                    );
                }
                StorageKind::Memory => {}
            }
        }
        for (i, p) in netlist.proc_ports().iter().enumerate() {
            if p.dir == PortDir::Out {
                let pid = ProcPortId(i as u32);
                let dest_nt = nt(NonTermKind::Port(pid));
                push(
                    NonTermId::START,
                    GPat::T(
                        TermKey::Assign(AssignKey::Port(pid)),
                        vec![GPat::NT(dest_nt)],
                    ),
                    0,
                    RuleOrigin::Start,
                    &mut rules,
                );
            }
        }

        // 2. RT rules: one per template, cost 1.
        for t in base.templates() {
            // Control-transfer templates (PC writes, predicated or not) are
            // not expression rules; branch emission selects them directly.
            if t.pred.is_some() || t.dest.storage().is_some_and(|s| netlist.storage(s).is_pc) {
                continue;
            }
            let rhs_of = |p: &Pattern| lower_pattern(p, &by_kind);
            match &t.dest {
                Dest::Reg(s) => {
                    push(
                        nt(NonTermKind::Reg(*s)),
                        rhs_of(&t.src),
                        1,
                        RuleOrigin::Template(t.id),
                        &mut rules,
                    );
                }
                Dest::RegFile(s) => {
                    push(
                        nt(NonTermKind::RegFile(*s)),
                        rhs_of(&t.src),
                        1,
                        RuleOrigin::Template(t.id),
                        &mut rules,
                    );
                }
                Dest::Port(p) => {
                    push(
                        nt(NonTermKind::Port(*p)),
                        rhs_of(&t.src),
                        1,
                        RuleOrigin::Template(t.id),
                        &mut rules,
                    );
                }
                Dest::Mem(s, addr) => {
                    // Memory stores derive the whole statement: START ->
                    // STORE_mem(addr, value), cost 1.
                    push(
                        NonTermId::START,
                        GPat::T(TermKey::Store(*s), vec![rhs_of(addr), rhs_of(&t.src)]),
                        1,
                        RuleOrigin::Template(t.id),
                        &mut rules,
                    );
                }
            }
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
                        GPat::T(TermKey::RegLeaf(s.id), vec![]),
                        0,
                        RuleOrigin::Stop(s.id),
                        &mut rules,
                    );
                }
                StorageKind::RegFile => {
                    push(
                        nt(NonTermKind::RegFile(s.id)),
                        GPat::T(TermKey::RfLeaf(s.id), vec![]),
                        0,
                        RuleOrigin::Stop(s.id),
                        &mut rules,
                    );
                }
                StorageKind::Memory => {}
            }
        }

        TreeGrammar::new_internal(nonterms, nt_names, by_kind, rules)
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
