use crate::*;
use proptest::prelude::*;
use record_grammar::*;
use record_netlist::Netlist;
use record_rtl::OpKind;

fn pipeline(src: &str) -> (Netlist, TreeGrammar) {
    let model = record_hdl::parse(src).expect("parses");
    let n = record_netlist::elaborate(&model).expect("elaborates");
    let ex = record_isex::extract(&n, &Default::default()).expect("extracts");
    let g = TreeGrammar::from_base(&ex.base, &n);
    (n, g)
}

const ACC_MACHINE: &str = r#"
    module Alu {
        in a: bit(8);
        in b: bit(8);
        ctrl f: bit(2);
        out y: bit(8);
        behavior {
            case f {
                0 => y = a + b;
                1 => y = a - b;
                2 => y = a & b;
                3 => y = a;
            }
        }
    }
    module Acc {
        in d: bit(8);
        ctrl en: bit(1);
        out q: bit(8);
        register q = d when en == 1;
    }
    module Ram {
        in addr: bit(4);
        in din: bit(8);
        ctrl w: bit(1);
        out dout: bit(8);
        memory cells[16]: bit(8);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor AccMachine {
        instruction word: bit(8);
        out pout: bit(8);
        parts { alu: Alu; acc: Acc; ram: Ram; }
        connections {
            alu.a = acc.q;
            alu.b = ram.dout;
            alu.f = I[1:0];
            acc.d = alu.y;
            acc.en = I[7];
            ram.addr = I[5:2];
            ram.din = acc.q;
            ram.w = I[6];
            pout = acc.q;
        }
    }
"#;

#[test]
fn selects_single_rt_for_memory_operand_add() {
    let (n, g) = pipeline(ACC_MACHINE);
    let sel = Selector::generate(g);
    let g = sel.grammar();
    let acc = n.storage_by_name("acc").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;

    // acc := acc + ram[5]
    let mut b = EtBuilder::new();
    let a = b.leaf(EtKind::RegLeaf(acc));
    let addr = b.leaf(EtKind::Const(5));
    let m = b.node(EtKind::MemRead(ram), &[addr]);
    b.node(EtKind::Op(OpKind::Add), &[a, m]);
    let et = Et::assign(EtDest::Reg(acc), b);

    let cover = sel.select(&et).unwrap();
    assert_eq!(cover.cost, 1, "memory-register add is one RT");
    assert_eq!(cover.template_apps(g).count(), 1);
    // Evaluation order: operand derivations (the stop rule) come first.
    assert!(cover.apps.len() >= 2);
    let first = g.rule(cover.apps[0].rule);
    assert!(matches!(first.origin, RuleOrigin::Stop(_)));
}

#[test]
fn store_statement_selected() {
    let (n, g) = pipeline(ACC_MACHINE);
    let sel = Selector::generate(g);
    let acc = n.storage_by_name("acc").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;

    // ram[7] := acc
    let mut b = EtBuilder::new();
    let addr = b.leaf(EtKind::Const(7));
    let val = b.leaf(EtKind::RegLeaf(acc));
    let et = Et::store(ram, addr, val, b);

    let cover = sel.select(&et).unwrap();
    assert_eq!(cover.cost, 1);
}

#[test]
fn chained_mac_selected_as_one_template() {
    let src = r#"
        module Mul { in a: bit(16); in b: bit(16); out y: bit(16);
                     behavior { y = a * b; } }
        module Add { in a: bit(16); in b: bit(16); out y: bit(16);
                     behavior { y = a + b; } }
        module Reg16 { in d: bit(16); ctrl en: bit(1); out q: bit(16);
                       register q = d when en == 1; }
        module Ram {
            in addr: bit(4); in din: bit(16); ctrl w: bit(1); out dout: bit(16);
            memory cells[16]: bit(16);
            read dout = cells[addr];
            write cells[addr] = din when w == 1;
        }
        processor Mac {
            instruction word: bit(8);
            parts { mul: Mul; add: Add; acc: Reg16; t: Reg16; ram: Ram; }
            connections {
                mul.a = t.q;
                mul.b = ram.dout;
                add.a = acc.q;
                add.b = mul.y;
                acc.d = add.y;
                acc.en = I[0];
                t.d = ram.dout;
                t.en = I[1];
                ram.addr = I[7:4];
                ram.din = acc.q;
                ram.w = I[2];
            }
        }
    "#;
    let (n, g) = pipeline(src);
    let sel = Selector::generate(g);
    let acc = n.storage_by_name("acc").unwrap().id;
    let t = n.storage_by_name("t").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;

    // acc := acc + t * ram[3]  — classic multiply-accumulate.
    let mut b = EtBuilder::new();
    let a = b.leaf(EtKind::RegLeaf(acc));
    let tv = b.leaf(EtKind::RegLeaf(t));
    let addr = b.leaf(EtKind::Const(3));
    let m = b.node(EtKind::MemRead(ram), &[addr]);
    let mul = b.node(EtKind::Op(OpKind::Mul), &[tv, m]);
    b.node(EtKind::Op(OpKind::Add), &[a, mul]);
    let et = Et::assign(EtDest::Reg(acc), b);

    let cover = sel.select(&et).unwrap();
    assert_eq!(cover.cost, 1, "MAC must be exploited as a chained op");
}

#[test]
fn chain_rules_reduce_in_order() {
    let src = r#"
        module R { in d: bit(8); ctrl en: bit(1); out q: bit(8);
                   register q = d when en == 1; }
        processor P {
            instruction word: bit(4);
            in pin: bit(8);
            parts { r1: R; r2: R; }
            connections {
                r1.d = pin;
                r1.en = I[0];
                r2.d = r1.q;
                r2.en = I[1];
            }
        }
    "#;
    let (n, g) = pipeline(src);
    let sel = Selector::generate(g);
    let g = sel.grammar();
    let r2 = n.storage_by_name("r2").unwrap().id;

    // r2 := pin — needs r1 := pin, then r2 := r1.
    let mut b = EtBuilder::new();
    b.leaf(EtKind::PortLeaf(record_netlist::ProcPortId(0)));
    let et = Et::assign(EtDest::Reg(r2), b);
    let cover = sel.select(&et).unwrap();
    assert_eq!(cover.cost, 2);
    let rts: Vec<_> = cover.template_apps(g).collect();
    assert_eq!(rts.len(), 2);
    // First the load into r1, then the move into r2.
    assert_eq!(g.nonterm_name(rts[0].nt), "r1");
    assert_eq!(g.nonterm_name(rts[1].nt), "r2");
}

#[test]
fn missing_operator_is_diagnosed() {
    let (n, g) = pipeline(ACC_MACHINE);
    let sel = Selector::generate(g);
    let acc = n.storage_by_name("acc").unwrap().id;

    // acc := acc * acc — the ALU has no multiplier.
    let mut b = EtBuilder::new();
    let a1 = b.leaf(EtKind::RegLeaf(acc));
    let a2 = b.leaf(EtKind::RegLeaf(acc));
    b.node(EtKind::Op(OpKind::Mul), &[a1, a2]);
    let et = Et::assign(EtDest::Reg(acc), b);
    assert!(sel.select(&et).is_none());
    let err = sel.diagnose(&et);
    assert!(err.subtree.contains("mul"), "{err}");
}

#[test]
fn oversized_constant_is_diagnosed() {
    let (n, g) = pipeline(ACC_MACHINE);
    let sel = Selector::generate(g);
    let acc = n.storage_by_name("acc").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;

    // Address 200 does not fit the 4-bit direct address field.
    let mut b = EtBuilder::new();
    let a = b.leaf(EtKind::RegLeaf(acc));
    let addr = b.leaf(EtKind::Const(200));
    let m = b.node(EtKind::MemRead(ram), &[addr]);
    b.node(EtKind::Op(OpKind::Add), &[a, m]);
    let et = Et::assign(EtDest::Reg(acc), b);
    assert!(sel.select(&et).is_none());
}

#[test]
fn cover_cost_equals_sum_of_rule_costs() {
    let (n, g) = pipeline(ACC_MACHINE);
    let sel = Selector::generate(g);
    let g = sel.grammar();
    let acc = n.storage_by_name("acc").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;

    // acc := (acc - ram[1]) & ram[2]  — two RTs.
    let mut b = EtBuilder::new();
    let a = b.leaf(EtKind::RegLeaf(acc));
    let a1 = b.leaf(EtKind::Const(1));
    let m1 = b.node(EtKind::MemRead(ram), &[a1]);
    let sub = b.node(EtKind::Op(OpKind::Sub), &[a, m1]);
    let a2 = b.leaf(EtKind::Const(2));
    let m2 = b.node(EtKind::MemRead(ram), &[a2]);
    b.node(EtKind::Op(OpKind::And), &[sub, m2]);
    let et = Et::assign(EtDest::Reg(acc), b);

    let cover = sel.select(&et).unwrap();
    let total: u32 = cover.apps.iter().map(|a| g.rule(a.rule).cost).sum();
    assert_eq!(cover.cost, total);
    assert_eq!(cover.cost, 2);
}

// ---------------------------------------------------------------------------
// Property: the DP cover never costs more than a random valid derivation of
// the same tree (upper-bound witness for optimality), and covers are
// structurally well-formed.
// ---------------------------------------------------------------------------

/// What a constant leaf of [`random_derivation`]'s tree holds.
#[derive(Clone, Copy)]
enum Consts {
    /// A value its terminal accepts, so the tree is in the grammar's
    /// language.
    Accepted,
    /// One of [`REDRAWN_CONSTS`], picked by `choices`.
    Redrawn,
}

/// The values a redrawn constant leaf takes: 0, which `CONST_MACHINE`'s
/// hardwired ALU arm accepts; 5, which fits every machine's 4-bit
/// immediate fields and nothing hardwired; and 300, which nothing in
/// these machines accepts.
const REDRAWN_CONSTS: [u64; 3] = [0, 5, 300];

/// Builds a random ET by expanding the grammar from START, returning the
/// derivation cost as an upper bound.  `choices` drives rule selection,
/// and under [`Consts::Redrawn`] the constants' values too.
fn random_derivation(g: &TreeGrammar, choices: &[u8], consts: Consts) -> Option<(Et, u32)> {
    struct Draw<'c> {
        choices: &'c [u8],
        pos: usize,
        consts: Consts,
    }
    impl Draw<'_> {
        fn next(&mut self) -> usize {
            let c = self.choices.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            usize::from(c)
        }
    }
    fn expand(
        g: &TreeGrammar,
        nt: NonTermId,
        b: &mut EtBuilder,
        draw: &mut Draw<'_>,
        depth: usize,
        cost: &mut u32,
    ) -> Option<NodeIdx> {
        let rules: Vec<_> = g.rules_for(nt).collect();
        if rules.is_empty() {
            return None;
        }
        // Prefer terminal (leaf-only) rules when out of depth budget.
        let pick_from: Vec<_> = if depth == 0 {
            let t: Vec<_> = rules
                .iter()
                .filter(|r| g.rhs(r).nonterm_leaves().is_empty() && g.rhs(r).as_chain().is_none())
                .copied()
                .collect();
            if t.is_empty() {
                return None;
            }
            t
        } else {
            rules
        };
        let rule = pick_from[draw.next() % pick_from.len()];
        *cost += rule.cost;
        build_pat(g, g.rhs(rule), b, draw, depth.saturating_sub(1), cost)
    }

    fn build_pat(
        g: &TreeGrammar,
        pat: &GPat,
        b: &mut EtBuilder,
        draw: &mut Draw<'_>,
        depth: usize,
        cost: &mut u32,
    ) -> Option<NodeIdx> {
        match pat {
            GPat::NT(nt) => expand(g, *nt, b, draw, depth, cost),
            GPat::T(TermKey::ConstVal(_) | TermKey::Imm { .. }, _)
                if matches!(draw.consts, Consts::Redrawn) =>
            {
                let v = REDRAWN_CONSTS[draw.next() % REDRAWN_CONSTS.len()];
                Some(b.leaf(EtKind::Const(v)))
            }
            GPat::T(key, kids) => {
                let mut children = Vec::new();
                for k in kids {
                    children.push(build_pat(g, k, b, draw, depth, cost)?);
                }
                let kind = match key {
                    TermKey::Assign(_) | TermKey::Store(_) => return None, // only at root
                    TermKey::Op(o) => EtKind::Op(*o),
                    TermKey::MemRead(s) => EtKind::MemRead(*s),
                    TermKey::RegLeaf(s) => EtKind::RegLeaf(*s),
                    TermKey::RfLeaf(s) => EtKind::RfLeaf(*s, 0),
                    TermKey::PortLeaf(p) => EtKind::PortLeaf(*p),
                    TermKey::ConstVal(v) => EtKind::Const(*v),
                    TermKey::Imm { hi, lo } => {
                        // Any value that fits; pick 1 (or 0 for 0-bit).
                        let w = hi - lo + 1;
                        EtKind::Const(if w >= 1 { 1 } else { 0 })
                    }
                };
                Some(b.node(kind, &children))
            }
        }
    }

    // Choose a start rule (register destinations only, to keep it simple).
    let start_rules: Vec<_> = g
        .rules_for(NonTermId::START)
        .filter(|r| matches!(r.origin, RuleOrigin::Start))
        .collect();
    if start_rules.is_empty() {
        return None;
    }
    let rule = start_rules[choices.first().copied().unwrap_or(0) as usize % start_rules.len()];
    let GPat::T(TermKey::Assign(key), kids) = g.rhs(rule) else {
        return None;
    };
    let GPat::NT(dest_nt) = &kids[0] else {
        return None;
    };
    let mut b = EtBuilder::new();
    let mut cost = rule.cost;
    let mut draw = Draw {
        choices,
        pos: 1,
        consts,
    };
    expand(g, *dest_nt, &mut b, &mut draw, 3, &mut cost)?;
    let dest = match key {
        AssignKey::Reg(s) => EtDest::Reg(*s),
        AssignKey::RegFile(s) => EtDest::RegFile(*s, 0),
        AssignKey::Port(p) => EtDest::Port(*p),
    };
    Some((Et::assign(dest, b), cost))
}

proptest! {
    #[test]
    fn dp_cover_is_no_worse_than_random_derivation(choices in prop::collection::vec(any::<u8>(), 1..40)) {
        let (_, g) = pipeline(ACC_MACHINE);
        let sel = Selector::generate(g);
        let g = sel.grammar();
        if let Some((et, upper)) = random_derivation(g, &choices, Consts::Accepted) {
            let cover = sel.select(&et).expect("tree from the grammar language must be coverable");
            prop_assert!(cover.cost <= upper, "DP {} > random {}", cover.cost, upper);
            // Structural well-formedness: every app derives its own nt.
            for app in &cover.apps {
                prop_assert_eq!(g.rule(app.rule).lhs, app.nt);
            }
            // Operands are produced before their consumers.
            let mut produced = std::collections::HashSet::new();
            for app in &cover.apps {
                for op in &app.operands {
                    prop_assert!(produced.contains(op), "operand {op:?} not yet produced");
                }
                produced.insert((app.nt, app.at));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property: the selector's cover is the one a plain labeller finds, rule by
// rule.  The reference tries every rule rooted at a node's terminal in id
// order, replaces a label only on a strict improvement (lower cost, or equal
// cost and pairwise-distinct operands), then closes over chain rules.  Any
// dispatch structure the selector uses must keep exactly these covers.
// ---------------------------------------------------------------------------

/// An accumulator machine whose ALU reads two registers and writes
/// either: every ALU pattern is the right-hand side of an `acc` rule and
/// a `t` rule, and once extension adds the commutative variants,
/// `add(acc, t)` and `add(t, acc)` tie on cost over two values in one
/// register.
const TWIN_ACC_MACHINE: &str = r#"
    module Alu {
        in a: bit(8);
        in b: bit(8);
        ctrl f: bit(2);
        out y: bit(8);
        behavior {
            case f {
                0 => y = a + b;
                1 => y = a & b;
                2 => y = a;
                3 => y = b;
            }
        }
    }
    module Acc {
        in d: bit(8);
        ctrl en: bit(1);
        out q: bit(8);
        register q = d when en == 1;
    }
    module Ram {
        in addr: bit(4);
        in din: bit(8);
        ctrl w: bit(1);
        out dout: bit(8);
        memory cells[16]: bit(8);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor TwinAccMachine {
        instruction word: bit(9);
        out pout: bit(8);
        parts { alu: Alu; acc: Acc; t: Acc; ram: Ram; }
        connections {
            alu.a = acc.q;
            alu.b = t.q;
            alu.f = I[1:0];
            acc.d = alu.y;
            acc.en = I[2];
            t.d = alu.y;
            t.en = I[3];
            ram.addr = I[7:4];
            ram.din = acc.q;
            ram.w = I[8];
            pout = acc.q;
        }
    }
"#;

/// A 4-bit accumulator machine with constants at the root of right-hand
/// sides: its ALU has a hardwired arm (`y = 0`), and its second operand
/// is a memory word or, through a mux, the immediate field `I[11:8]`.
const CONST_MACHINE: &str = r#"
    module Alu {
        in a: bit(4);
        in b: bit(4);
        ctrl f: bit(2);
        out y: bit(4);
        behavior {
            case f {
                0 => y = a + b;
                1 => y = a - b;
                2 => y = 0;
                3 => y = b;
            }
        }
    }
    module Mux {
        in d0: bit(4);
        in d1: bit(4);
        ctrl s: bit(1);
        out y: bit(4);
        behavior {
            case s {
                0 => y = d0;
                1 => y = d1;
            }
        }
    }
    module Acc {
        in d: bit(4);
        ctrl en: bit(1);
        out q: bit(4);
        register q = d when en == 1;
    }
    module Ram {
        in addr: bit(4);
        in din: bit(4);
        ctrl w: bit(1);
        out dout: bit(4);
        memory cells[16]: bit(4);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor ConstMachine {
        instruction word: bit(13);
        out pout: bit(4);
        parts { alu: Alu; mux: Mux; acc: Acc; ram: Ram; }
        connections {
            alu.a = acc.q;
            alu.b = mux.y;
            alu.f = I[1:0];
            mux.d0 = ram.dout;
            mux.d1 = I[11:8];
            mux.s = I[2];
            acc.d = alu.y;
            acc.en = I[3];
            ram.addr = I[7:4];
            ram.din = acc.q;
            ram.w = I[12];
            pout = acc.q;
        }
    }
"#;

/// `pipeline`, with the template base extended as retargeting extends
/// it (commutative variants and rewrites).
fn extended_pipeline(src: &str) -> TreeGrammar {
    let model = record_hdl::parse(src).expect("parses");
    let n = record_netlist::elaborate(&model).expect("elaborates");
    let mut ex = record_isex::extract(&n, &Default::default()).expect("extracts");
    record_rtl::extend(&mut ex.base, &Default::default());
    TreeGrammar::from_base(&ex.base, &n)
}

/// The reference labeller: cost and applications of the minimum-cost
/// cover of `et`, or `None` when the tree has none.
fn reference_cover(g: &TreeGrammar, et: &Et) -> Option<(u32, Vec<RuleApp>)> {
    #[derive(Clone, Copy)]
    struct Label {
        cost: u32,
        rule: RuleId,
        diversity: u8,
    }
    struct Labels {
        slots: Vec<Option<Label>>,
        nts: usize,
    }
    impl Labels {
        fn at(&mut self, idx: NodeIdx, nt: NonTermId) -> &mut Option<Label> {
            &mut self.slots[idx * self.nts + nt.0 as usize]
        }
    }
    fn cost_of(pat: &GPat, et: &Et, idx: NodeIdx, labels: &mut Labels) -> Option<u32> {
        match pat {
            GPat::NT(nt) => labels.at(idx, *nt).map(|l| l.cost),
            GPat::T(key, kids) => {
                if !et.kind_matches(idx, key) || et.children(idx).len() != kids.len() {
                    return None;
                }
                let mut sum = 0u32;
                for (kid, &c) in kids.iter().zip(et.children(idx)) {
                    sum = sum.saturating_add(cost_of(kid, et, c, labels)?);
                }
                Some(sum)
            }
        }
    }
    fn bind(pat: &GPat, et: &Et, idx: NodeIdx, out: &mut Vec<(NonTermId, NodeIdx)>) {
        match pat {
            GPat::NT(nt) => out.push((*nt, idx)),
            GPat::T(_, kids) => {
                for (kid, &c) in kids.iter().zip(et.children(idx)) {
                    bind(kid, et, c, out);
                }
            }
        }
    }
    fn reduce(
        g: &TreeGrammar,
        et: &Et,
        labels: &mut Labels,
        idx: NodeIdx,
        nt: NonTermId,
        out: &mut Vec<RuleApp>,
    ) {
        let label = labels.at(idx, nt).expect("reduced goals are labelled");
        let rule = g.rule(label.rule);
        let mut operands = Vec::new();
        match g.rhs(rule).as_chain() {
            Some(src) => operands.push((src, idx)),
            None => bind(g.rhs(rule), et, idx, &mut operands),
        }
        for &(op_nt, op_idx) in &operands {
            reduce(g, et, labels, op_idx, op_nt, out);
        }
        out.push(RuleApp {
            rule: label.rule,
            at: idx,
            nt,
            operands,
        });
    }

    let mut labels = Labels {
        slots: vec![None; et.len() * g.nonterm_count()],
        nts: g.nonterm_count(),
    };
    for idx in 0..et.len() {
        // Every rule rooted at the node's terminal, in id order: `cost_of`
        // checks the root first.
        for rule in g.rules() {
            if g.rhs(rule).as_chain().is_some() {
                continue;
            }
            let Some(kids) = cost_of(g.rhs(rule), et, idx, &mut labels) else {
                continue;
            };
            let cost = rule.cost.saturating_add(kids);
            let leaves = g.rhs(rule).nonterm_leaves();
            let diversity = u8::from(
                leaves
                    .iter()
                    .enumerate()
                    .all(|(i, nt)| !leaves[..i].contains(nt)),
            );
            let slot = labels.at(idx, rule.lhs);
            if slot.is_none_or(|l| cost < l.cost || (cost == l.cost && diversity > l.diversity)) {
                *slot = Some(Label {
                    cost,
                    rule: rule.id,
                    diversity,
                });
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (rule, src) in g.chain_rules() {
                let Some(from) = *labels.at(idx, src) else {
                    continue;
                };
                let cost = from.cost.saturating_add(rule.cost);
                let slot = labels.at(idx, rule.lhs);
                if slot.is_none_or(|l| cost < l.cost) {
                    *slot = Some(Label {
                        cost,
                        rule: rule.id,
                        diversity: from.diversity,
                    });
                    changed = true;
                }
            }
        }
    }
    let cost = labels.at(et.root(), NonTermId::START).as_ref()?.cost;
    let mut apps = Vec::new();
    reduce(g, et, &mut labels, et.root(), NonTermId::START, &mut apps);
    Some((cost, apps))
}

proptest! {
    #[test]
    fn cover_matches_the_reference_labeller(choices in prop::collection::vec(any::<u8>(), 1..40)) {
        for src in [ACC_MACHINE, TWIN_ACC_MACHINE, CONST_MACHINE] {
            let g = extended_pipeline(src);
            let sel = Selector::generate(g);
            let g = sel.grammar();
            if let Some((et, _)) = random_derivation(g, &choices, Consts::Redrawn) {
                let cover = sel.select(&et).map(|c| (c.cost, c.apps));
                prop_assert_eq!(cover, reference_cover(g, &et));
            }
        }
    }
}

/// `CONST_MACHINE` gives the property above right-hand sides rooted at a
/// hardwired constant and at an immediate field.
#[test]
fn const_machine_roots_right_hand_sides_at_constants() {
    let g = extended_pipeline(CONST_MACHINE);
    let const_roots: Vec<TermKey> = g
        .patterns()
        .iter()
        .filter_map(|p| match p {
            GPat::T(key @ (TermKey::ConstVal(_) | TermKey::Imm { .. }), _) => Some(*key),
            _ => None,
        })
        .collect();
    assert!(
        const_roots.contains(&TermKey::ConstVal(0)),
        "{const_roots:?}"
    );
    assert!(
        const_roots.contains(&TermKey::Imm { hi: 11, lo: 8 }),
        "{const_roots:?}"
    );
}
