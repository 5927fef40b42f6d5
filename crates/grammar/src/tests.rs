use crate::*;
use record_netlist::Netlist;
use record_rtl::OpKind;

fn pipeline(src: &str) -> (Netlist, record_isex::Extraction) {
    let model = record_hdl::parse(src).expect("parses");
    let n = record_netlist::elaborate(&model).expect("elaborates");
    let ex = record_isex::extract(&n, &Default::default()).expect("extracts");
    (n, ex)
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
fn grammar_shape_for_acc_machine() {
    let (n, ex) = pipeline(ACC_MACHINE);
    let g = TreeGrammar::from_base(&ex.base, &n);
    // Non-terminals: START, acc, pout (ram is a memory, not a location).
    assert_eq!(g.nonterm_count(), 3);
    // Rules: 2 start (acc, pout) + 6 RT + 1 stop (acc).
    assert_eq!(g.rules().len(), 9);
    assert!(g.check().is_empty(), "{:?}", g.check());
}

#[test]
fn start_rules_cost_zero_rt_rules_cost_one() {
    let (n, ex) = pipeline(ACC_MACHINE);
    let g = TreeGrammar::from_base(&ex.base, &n);
    for r in g.rules() {
        match r.origin {
            RuleOrigin::Start | RuleOrigin::Stop(_) => assert_eq!(r.cost, 0),
            RuleOrigin::Template(_) => assert_eq!(r.cost, 1),
        }
    }
}

#[test]
fn store_templates_become_start_store_rules() {
    let (n, ex) = pipeline(ACC_MACHINE);
    let g = TreeGrammar::from_base(&ex.base, &n);
    let store_rules: Vec<_> = g
        .rules()
        .iter()
        .filter(|r| matches!(g.rhs(r), GPat::T(TermKey::Store(_), _)))
        .collect();
    assert_eq!(store_rules.len(), 1);
    assert_eq!(store_rules[0].lhs, NonTermId::START);
    assert_eq!(store_rules[0].cost, 1);
    // Its children are [addr (imm), value (NT acc)].
    let GPat::T(_, kids) = g.rhs(store_rules[0]) else {
        unreachable!()
    };
    assert!(matches!(kids[0], GPat::T(TermKey::Imm { .. }, _)));
    assert!(matches!(kids[1], GPat::NT(_)));
}

#[test]
fn register_operands_become_nonterminals() {
    let (n, ex) = pipeline(ACC_MACHINE);
    let g = TreeGrammar::from_base(&ex.base, &n);
    // The add rule: acc -> add(acc, ram_read(imm)).
    let add_rule = g
        .rules()
        .iter()
        .find(|r| matches!(g.rhs(r), GPat::T(TermKey::Op(OpKind::Add), _)))
        .expect("add rule exists");
    let GPat::T(_, kids) = g.rhs(add_rule) else {
        unreachable!()
    };
    assert!(matches!(kids[0], GPat::NT(_)), "register operand is an NT");
    assert!(matches!(kids[1], GPat::T(TermKey::MemRead(_), _)));
    assert_eq!(g.rhs(add_rule).nonterm_leaves().len(), 1);
}

#[test]
fn chain_rules_from_pure_moves() {
    // A machine with a register-to-register move yields a chain rule.
    let src = r#"
        module R {
            in d: bit(8);
            ctrl en: bit(1);
            out q: bit(8);
            register q = d when en == 1;
        }
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
    let (n, ex) = pipeline(src);
    let g = TreeGrammar::from_base(&ex.base, &n);
    let chains: Vec<_> = g.chain_rules().collect();
    assert_eq!(chains.len(), 1);
    let (rule, src_nt) = chains[0];
    assert_eq!(g.nonterm_name(rule.lhs), "r2");
    assert_eq!(g.nonterm_name(src_nt), "r1");
    assert_eq!(rule.cost, 1);
}

#[test]
fn check_reports_unwritable_register() {
    // r2 is never connected: no RT rule can write it.
    let src = r#"
        module R {
            in d: bit(8);
            ctrl en: bit(1);
            out q: bit(8);
            register q = d when en == 1;
        }
        processor P {
            instruction word: bit(4);
            in pin: bit(8);
            parts { r1: R; r2: R; }
            connections {
                r1.d = pin;
                r1.en = I[0];
            }
        }
    "#;
    let (n, ex) = pipeline(src);
    let g = TreeGrammar::from_base(&ex.base, &n);
    // r2 still has its stop rule, so `check` does not flag "no rules"; but
    // an unconnected register is unreachable from START only if nothing
    // derives through it.  The stop rule means r2 can appear as a leaf; the
    // real signal is that r2's only rules are stop rules.
    let r2 = g
        .nonterm_of(crate::types::NonTermKind::Reg(
            n.storage_by_name("r2").unwrap().id,
        ))
        .unwrap();
    let rt_rules: Vec<_> = g
        .rules_for(r2)
        .filter(|r| matches!(r.origin, RuleOrigin::Template(_)))
        .collect();
    assert!(rt_rules.is_empty());
}

#[test]
fn et_builder_and_matching() {
    let (n, ex) = pipeline(ACC_MACHINE);
    let g = TreeGrammar::from_base(&ex.base, &n);
    let acc = n.storage_by_name("acc").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;

    let mut b = EtBuilder::new();
    let a = b.leaf(EtKind::RegLeaf(acc));
    let addr = b.leaf(EtKind::Const(5));
    let m = b.node(EtKind::MemRead(ram), &[addr]);
    b.node(EtKind::Op(OpKind::Add), &[a, m]);
    let et = Et::assign(EtDest::Reg(acc), b);

    assert_eq!(et.len(), 5);
    let root = et.root();
    assert!(et.kind_matches(root, &TermKey::Assign(AssignKey::Reg(acc))));
    // Constant 5 fits a 4-bit immediate but not a 2-bit one.
    assert!(et.kind_matches(addr, &TermKey::Imm { hi: 5, lo: 2 }));
    assert!(!et.kind_matches(addr, &TermKey::Imm { hi: 1, lo: 0 }));
    assert!(et.kind_matches(addr, &TermKey::ConstVal(5)));
    assert!(!et.kind_matches(addr, &TermKey::ConstVal(6)));
    let _ = g;
}

/// `acc := acc + ram[addr]`, or `ram[addr] + acc` when `swap`, built from
/// scratch on every call.
fn add_tree(addr: u64, swap: bool) -> Et {
    let (acc, ram) = (record_netlist::StorageId(0), record_netlist::StorageId(1));
    let mut b = EtBuilder::new();
    let a = b.leaf(EtKind::RegLeaf(acc));
    let c = b.leaf(EtKind::Const(addr));
    let m = b.node(EtKind::MemRead(ram), &[c]);
    let kids = if swap { [m, a] } else { [a, m] };
    b.node(EtKind::Op(OpKind::Add), &kids);
    Et::assign(EtDest::Reg(acc), b)
}

#[test]
fn trees_compare_by_structure() {
    let (x, y) = (add_tree(5, false), add_tree(5, false));
    assert_eq!(x, y);
    assert_eq!(x.children(x.root()), [3]);
    assert_eq!(x.children(3), [0, 2]);
    assert!(x.children(1).is_empty());

    assert_ne!(x, add_tree(6, false), "one constant differs");
    let swapped = add_tree(5, true);
    assert_ne!(x, swapped, "child order differs");
    assert_eq!(swapped.children(3), [2, 0]);
}

#[test]
#[should_panic(expected = "an ET node has at most two children, got 3")]
fn a_third_child_panics() {
    let mut b = EtBuilder::new();
    let kids: Vec<NodeIdx> = (0..3).map(|v| b.leaf(EtKind::Const(v))).collect();
    b.node(EtKind::Op(OpKind::Add), &kids);
}

#[test]
fn render_is_stable() {
    let (n, ex) = pipeline(ACC_MACHINE);
    let g = TreeGrammar::from_base(&ex.base, &n);
    let text = g.render(&n);
    assert!(text.contains("START -> ASSIGN_acc(acc)"));
    assert!(text.contains("acc -> add(acc, ram_read(imm5_2)) [1]"));
    assert!(text.contains("acc -> acc_leaf [0]"));
}

#[test]
fn equal_sources_share_one_right_hand_side() {
    // The ALU result feeds `acc` and `t`, so every ALU pattern is the
    // right-hand side of two rules.
    let src = ACC_MACHINE
        .replace("instruction word: bit(8);", "instruction word: bit(9);")
        .replace("acc: Acc; ram", "acc: Acc; t: Acc; ram")
        .replace("acc.en = I[7];", "acc.en = I[7]; t.d = alu.y; t.en = I[8];");
    let (n, ex) = pipeline(&src);
    let g = TreeGrammar::from_base(&ex.base, &n);
    for r in g.rules() {
        for s in g.rules() {
            assert_eq!(
                r.pattern == s.pattern,
                g.rhs(r) == g.rhs(s),
                "{r:?} / {s:?}"
            );
        }
    }
    // Indices are dense, in order of first use.
    let mut next = 0;
    for r in g.rules() {
        assert!(r.pattern <= next, "{r:?}");
        next += u32::from(r.pattern == next);
    }
    assert_eq!(next as usize, g.patterns().len());
    // Every RT rule of `t` shares its right-hand side with one of `acc`.
    let reg = |name| {
        g.nonterm_of(NonTermKind::Reg(n.storage_by_name(name).unwrap().id))
            .unwrap()
    };
    let t_rules: Vec<_> = g.rules_for(reg("t")).filter(|r| r.cost == 1).collect();
    assert!(t_rules.len() > 2);
    for r in t_rules {
        assert!(
            g.rules_for(reg("acc")).any(|s| s.pattern == r.pattern),
            "{r:?}"
        );
    }
    assert!(g.patterns().len() < g.rules().len());
}
