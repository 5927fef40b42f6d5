use crate::*;
use record_bdd::Assignment;
use record_netlist::Netlist;
use record_rtl::{Dest, OpKind, Pattern};

fn netlist(src: &str) -> Netlist {
    let model = record_hdl::parse(src).expect("test HDL parses");
    record_netlist::elaborate(&model).expect("test HDL elaborates")
}

fn extract_src(src: &str) -> Extraction {
    extract(&netlist(src), &ExtractOptions::default()).expect("extraction succeeds")
}

/// Accumulator machine with an ALU selected by I[1:0], load-enable I[7],
/// memory write-enable I[6], direct addressing via I[5:2].
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
        parts {
            alu: Alu;
            acc: Acc;
            ram: Ram;
        }
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
fn extracts_acc_machine_templates() {
    let ex = extract_src(ACC_MACHINE);
    // 4 ALU arms into acc, 1 memory store, 1 port write.
    assert_eq!(ex.base.len(), 6);
    assert_eq!(ex.stats.unsat_discarded, 0);
    assert_eq!(ex.stats.untraceable_skipped, 0);
    // The add template is acc := acc + ram[#I[5:2]].
    let n = netlist(ACC_MACHINE);
    let acc = n.storage_by_name("acc").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;
    let add = Pattern::Op(
        OpKind::Add,
        vec![
            Pattern::Reg(acc),
            Pattern::MemRead(ram, Box::new(Pattern::Imm { hi: 5, lo: 2 })),
        ],
    );
    assert!(ex.base.find(&Dest::Reg(acc), &add).is_some());
}

#[test]
fn execution_conditions_encode_fields() {
    let ex = extract_src(ACC_MACHINE);
    let n = netlist(ACC_MACHINE);
    let acc = n.storage_by_name("acc").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;
    let sub = Pattern::Op(
        OpKind::Sub,
        vec![
            Pattern::Reg(acc),
            Pattern::MemRead(ram, Box::new(Pattern::Imm { hi: 5, lo: 2 })),
        ],
    );
    let id = ex.base.find(&Dest::Reg(acc), &sub).expect("sub template");
    let cond = ex.base.template(id).cond;
    let asg = Assignment::satisfying(&ex.manager, cond).expect("satisfiable");
    // Load enable and the SUB opcode are pinned; the address field is free.
    assert_eq!(asg.get(ex.varmap.ibit(7)), Some(true)); // acc.en
    assert_eq!(asg.get(ex.varmap.ibit(0)), Some(true)); // f = 01
    assert_eq!(asg.get(ex.varmap.ibit(1)), Some(false));
    assert_eq!(asg.get(ex.varmap.ibit(3)), None); // address bits unconstrained
}

#[test]
fn store_template_has_address_pattern() {
    let ex = extract_src(ACC_MACHINE);
    let n = netlist(ACC_MACHINE);
    let acc = n.storage_by_name("acc").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;
    let dest = Dest::Mem(ram, Pattern::Imm { hi: 5, lo: 2 });
    assert!(ex.base.find(&dest, &Pattern::Reg(acc)).is_some());
}

#[test]
fn encoding_conflict_discards_templates() {
    // The decoder enables the accumulator only for op==2 but routes the
    // immediate only for op==3: the immediate-load route is unsatisfiable.
    let src = r#"
        module Dec {
            ctrl op: bit(2);
            out en: bit(1);
            out sel: bit(1);
            behavior {
                case op {
                    2 => { en = 1; sel = 0; }
                    3 => { en = 0; sel = 1; }
                    default => { en = 0; sel = 0; }
                }
            }
        }
        module Mux {
            in a: bit(8);
            in b: bit(8);
            ctrl s: bit(1);
            out y: bit(8);
            behavior {
                case s {
                    0 => y = a;
                    1 => y = b;
                }
            }
        }
        module Acc {
            in d: bit(8);
            ctrl en: bit(1);
            out q: bit(8);
            register q = d when en == 1;
        }
        processor P {
            instruction word: bit(10);
            in pin: bit(8);
            parts { dec: Dec; mux: Mux; acc: Acc; }
            connections {
                dec.op = I[9:8];
                mux.a = pin;
                mux.b = I[7:0];
                mux.s = dec.sel;
                acc.d = mux.y;
                acc.en = dec.en;
            }
        }
    "#;
    let ex = extract_src(src);
    // Only the pin route survives (en==1 forces op==2 which forces sel==0).
    assert_eq!(ex.base.len(), 1);
    assert_eq!(ex.stats.unsat_discarded, 1);
    let t = &ex.base.templates()[0];
    assert!(matches!(t.src, Pattern::Port(_)));
}

#[test]
fn bus_contention_is_excluded() {
    let src = r#"
        module R {
            in d: bit(8);
            ctrl en: bit(1);
            out q: bit(8);
            register q = d when en == 1;
        }
        processor P {
            instruction word: bit(4);
            in pin1: bit(8);
            in pin2: bit(8);
            bus dbus: bit(8);
            parts { r: R; }
            connections {
                drive dbus = pin1 when I[0] == 0;
                drive dbus = pin2;      -- always driving: contends unless pin1 off
                r.d = dbus;
                r.en = I[1];
            }
        }
    "#;
    let ex = extract_src(src);
    // Route via pin1 needs "pin2 driver off" which is impossible: discarded.
    // Route via pin2 needs I[0] == 1 (pin1 driver off).
    assert_eq!(ex.base.len(), 1);
    let t = &ex.base.templates()[0];
    assert_eq!(t.src, Pattern::Port(record_netlist::ProcPortId(1)));
    let asg = Assignment::satisfying(&ex.manager, t.cond).unwrap();
    assert_eq!(asg.get(ex.varmap.ibit(0)), Some(true));
    assert!(ex.stats.unsat_discarded >= 1);
}

#[test]
fn mode_register_conditions() {
    // A mux selected by a 1-bit mode register: conditions range over mode
    // bits; the mode register itself is writable (set-mode template).
    let src = r#"
        module Mux {
            in a: bit(8);
            in b: bit(8);
            ctrl s: bit(1);
            out y: bit(8);
            behavior {
                case s {
                    0 => y = a;
                    1 => y = b;
                }
            }
        }
        module Reg1 {
            in d: bit(1);
            ctrl en: bit(1);
            out q: bit(1);
            register q = d when en == 1;
        }
        module Acc {
            in d: bit(8);
            ctrl en: bit(1);
            out q: bit(8);
            register q = d when en == 1;
        }
        processor P {
            instruction word: bit(4);
            in pin1: bit(8);
            in pin2: bit(8);
            parts { mux: Mux; st: Reg1; acc: Acc; }
            modes { st }
            connections {
                mux.a = pin1;
                mux.b = pin2;
                mux.s = st.q;
                acc.d = mux.y;
                acc.en = I[0];
                st.d = I[1];
                st.en = I[2];
            }
        }
    "#;
    let ex = extract_src(src);
    // acc := pin1 (mode 0), acc := pin2 (mode 1), st := #I[1].
    assert_eq!(ex.base.len(), 3);
    let n = netlist(src);
    let st = n.storage_by_name("st").unwrap();
    assert!(st.is_mode);
    // The pin2 route condition depends on the mode bit.
    let t = ex
        .base
        .templates()
        .iter()
        .find(|t| t.src == Pattern::Port(record_netlist::ProcPortId(1)))
        .expect("pin2 route");
    let support = ex.manager.support(t.cond);
    let names: Vec<_> = support
        .iter()
        .map(|&v| ex.manager.var_name(v).to_owned())
        .collect();
    assert!(names.contains(&"mode.st[0]".to_owned()), "{names:?}");
}

#[test]
fn immediate_data_routes() {
    let src = r#"
        module Acc {
            in d: bit(8);
            ctrl en: bit(1);
            out q: bit(8);
            register q = d when en == 1;
        }
        processor P {
            instruction word: bit(12);
            parts { acc: Acc; }
            connections {
                acc.d = I[7:0];
                acc.en = I[8];
            }
        }
    "#;
    let ex = extract_src(src);
    assert_eq!(ex.base.len(), 1);
    assert_eq!(ex.base.templates()[0].src, Pattern::Imm { hi: 7, lo: 0 });
}

#[test]
fn regfile_source_and_dest() {
    let src = r#"
        module Rf {
            in raddr: bit(2);
            in waddr: bit(2);
            in din: bit(8);
            ctrl w: bit(1);
            out dout: bit(8);
            memory cells[4]: bit(8);
            read dout = cells[raddr];
            write cells[waddr] = din when w == 1;
        }
        module Alu {
            in a: bit(8);
            in b: bit(8);
            out y: bit(8);
            behavior { y = a + b; }
        }
        processor P {
            instruction word: bit(8);
            in pin: bit(8);
            parts { rf: Rf; alu: Alu; }
            regfiles { rf }
            connections {
                rf.raddr = I[1:0];
                rf.waddr = I[3:2];
                alu.a = rf.dout;
                alu.b = pin;
                rf.din = alu.y;
                rf.w = I[4];
            }
        }
    "#;
    let ex = extract_src(src);
    let n = netlist(src);
    let rf = n.storage_by_name("rf").unwrap().id;
    let add = Pattern::Op(
        OpKind::Add,
        vec![
            Pattern::RegFile(rf),
            Pattern::Port(record_netlist::ProcPortId(0)),
        ],
    );
    assert!(ex.base.find(&Dest::RegFile(rf), &add).is_some());
}

#[test]
fn untraceable_control_is_skipped_not_fatal() {
    // The accumulator enable comes from a primary input: data-dependent
    // control that cannot be encoded.
    let src = r#"
        module Acc {
            in d: bit(8);
            ctrl en: bit(1);
            out q: bit(8);
            register q = d when en == 1;
        }
        processor P {
            instruction word: bit(4);
            in pin: bit(8);
            in enable_pin: bit(1);
            parts { acc: Acc; }
            connections {
                acc.d = pin;
                acc.en = enable_pin;
            }
        }
    "#;
    let ex = extract_src(src);
    assert_eq!(ex.base.len(), 0);
    assert_eq!(ex.stats.untraceable_skipped, 1);
}

#[test]
fn combinational_cycle_is_an_error() {
    let src = r#"
        module Pass {
            in a: bit(8);
            out y: bit(8);
            behavior { y = a + 1; }
        }
        module Acc {
            in d: bit(8);
            ctrl en: bit(1);
            out q: bit(8);
            register q = d when en == 1;
        }
        processor P {
            instruction word: bit(4);
            parts { p1: Pass; p2: Pass; acc: Acc; }
            connections {
                p1.a = p2.y;
                p2.a = p1.y;
                acc.d = p1.y;
                acc.en = I[0];
            }
        }
    "#;
    let n = netlist(src);
    let e = extract(&n, &ExtractOptions::default()).unwrap_err();
    assert!(e.message().contains("depth"), "{}", e.message());
}

#[test]
fn chained_operations_extracted() {
    // MAC data path: acc := acc + (t * mem[..]) must appear as one template.
    let src = r#"
        module Mul {
            in a: bit(16);
            in b: bit(16);
            out y: bit(16);
            behavior { y = a * b; }
        }
        module Add {
            in a: bit(16);
            in b: bit(16);
            out y: bit(16);
            behavior { y = a + b; }
        }
        module Reg16 {
            in d: bit(16);
            ctrl en: bit(1);
            out q: bit(16);
            register q = d when en == 1;
        }
        module Ram {
            in addr: bit(4);
            in din: bit(16);
            ctrl w: bit(1);
            out dout: bit(16);
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
    let ex = extract_src(src);
    let n = netlist(src);
    let acc = n.storage_by_name("acc").unwrap().id;
    let t = n.storage_by_name("t").unwrap().id;
    let ram = n.storage_by_name("ram").unwrap().id;
    let mac = Pattern::Op(
        OpKind::Add,
        vec![
            Pattern::Reg(acc),
            Pattern::Op(
                OpKind::Mul,
                vec![
                    Pattern::Reg(t),
                    Pattern::MemRead(ram, Box::new(Pattern::Imm { hi: 7, lo: 4 })),
                ],
            ),
        ],
    );
    let id = ex.base.find(&Dest::Reg(acc), &mac).expect("MAC template");
    assert_eq!(ex.base.template(id).src.depth(), 4);
}

#[test]
fn duplicate_routes_merge_conditions() {
    // Two mux arms route the same source under different opcodes: one
    // template whose condition covers both.
    let src = r#"
        module Mux {
            in a: bit(8);
            in b: bit(8);
            ctrl s: bit(2);
            out y: bit(8);
            behavior {
                case s {
                    0 => y = a;
                    1 => y = b;
                    2 => y = a;
                }
            }
        }
        module Acc {
            in d: bit(8);
            ctrl en: bit(1);
            out q: bit(8);
            register q = d when en == 1;
        }
        processor P {
            instruction word: bit(4);
            in pin1: bit(8);
            in pin2: bit(8);
            parts { mux: Mux; acc: Acc; }
            connections {
                mux.a = pin1;
                mux.b = pin2;
                mux.s = I[1:0];
                acc.d = mux.y;
                acc.en = I[2];
            }
        }
    "#;
    let ex = extract_src(src);
    assert_eq!(ex.base.len(), 2);
    assert_eq!(ex.stats.merged_duplicates, 1);
    let t = ex
        .base
        .templates()
        .iter()
        .find(|t| t.src == Pattern::Port(record_netlist::ProcPortId(0)))
        .unwrap();
    // Condition satisfiable for s == 0 and s == 2 (I[2] set in both).
    let m = &ex.manager;
    assert!(m.eval(t.cond, &[false, false, true, false]));
    assert!(m.eval(t.cond, &[false, true, true, false]));
    assert!(!m.eval(t.cond, &[true, false, true, false]));
}

/// A two-way selector: the routes through it fork on its select bit.
const SEL: &str = r#"
    module Sel {
        in a: bit(8);
        ctrl s: bit(1);
        out y: bit(8);
        behavior { case s { 0 => y = a; 1 => y = ~a; } }
    }
"#;

/// Appends to `parts` and `conns` a chain `{chain}0`, `{chain}1`, … of
/// `levels` selectors fed by `input`, level `k` selected by instruction
/// bit `first_bit + k`: the chain delivers `2^levels` routes, one per
/// setting of its bits.
fn selector_chain(
    chain: &str,
    input: &str,
    first_bit: usize,
    levels: usize,
    parts: &mut String,
    conns: &mut String,
) {
    for level in 0..levels {
        let bit = first_bit + level;
        let from = match level {
            0 => input.to_owned(),
            _ => format!("{chain}{}.y", level - 1),
        };
        parts.push_str(&format!("{chain}{level}: Sel; "));
        conns.push_str(&format!(
            "{chain}{level}.a = {from}; {chain}{level}.s = I[{bit}]; "
        ));
    }
}

/// Two independent chains of `levels` two-way selectors feeding one
/// adder.  Every selector level reads its own instruction bit, so each
/// chain delivers `2^levels` routes and all pairs of them are
/// satisfiable.
fn selector_chains(levels: usize) -> String {
    let mut parts = String::new();
    let mut conns = String::new();
    selector_chain("l", "pa", 0, levels, &mut parts, &mut conns);
    selector_chain("r", "pb", levels, levels, &mut parts, &mut conns);
    let last = levels - 1;
    format!(
        r#"
        {SEL}
        module Adder {{
            in a: bit(8);
            in b: bit(8);
            out y: bit(8);
            behavior {{ y = a + b; }}
        }}
        module Acc {{
            in d: bit(8);
            out q: bit(8);
            register q = d;
        }}
        processor Chains {{
            instruction word: bit({width});
            in pa: bit(8);
            in pb: bit(8);
            parts {{ {parts}add: Adder; acc: Acc; }}
            connections {{ {conns}add.a = l{last}.y; add.b = r{last}.y; acc.d = add.y; }}
        }}
        "#,
        width = 2 * levels,
    )
}

#[test]
fn route_explosion_across_a_binary_operator_is_an_error() {
    // Each chain's 2^16 routes stay under the default cap of 2^17, but
    // the adder's 2^32 pairs do not.  The pair list must not reserve room
    // for every pair up front: 2^32 routes would ask for 160 GiB and abort
    // the process instead of returning the error.
    let err = extract(&netlist(&selector_chains(16)), &ExtractOptions::default())
        .expect_err("the adder's routes explode");
    assert!(
        err.message().starts_with("route explosion in `add`"),
        "{err}"
    );
}

#[test]
fn selector_chains_enumerate_every_route_under_the_cap() {
    // The small version of the model above extracts normally: 2^3 * 2^3
    // routes into the accumulator.  A route's shape only counts its
    // complements, so they merge into 4 * 4 templates.
    let ex = extract_src(&selector_chains(3));
    assert_eq!(ex.stats.enumerated, 64);
    assert_eq!(ex.stats.merged_duplicates, 48);
    assert_eq!(ex.base.len(), 16);
    assert_eq!(ex.stats.unsat_discarded, 0);
}

/// Extraction options whose route cap the 4096 route pairs of two
/// six-level chains exceed.
fn cap_1000() -> ExtractOptions {
    ExtractOptions {
        max_routes_per_dest: 1000,
        ..ExtractOptions::default()
    }
}

#[test]
fn one_chain_feeding_both_operands_is_bounded_by_its_pairs() {
    // The two-chain model with both adder inputs read from the left
    // chain: a pair of routes is satisfiable only when both take the same
    // path, so 64 of the 4096 pairs survive, far under the cap.  The
    // pairs tried are what costs, so they count against the cap; at 14
    // levels this model took seconds to extract, 4x more per level.
    let src = selector_chains(6).replace("add.b = r5.y", "add.b = l5.y");
    let err = extract(&netlist(&src), &cap_1000()).expect_err("the adder's pairs explode");
    assert!(err.message().starts_with("route explosion"), "{err}");
}

#[test]
fn memory_write_pairs_count_against_the_route_cap() {
    // A RAM written at one chain's address with another chain's data:
    // every one of the 4096 address and data route pairs is a satisfiable
    // write route.
    let levels = 6;
    let mut parts = String::new();
    let mut conns = String::new();
    selector_chain("a", "pa", 0, levels, &mut parts, &mut conns);
    selector_chain("d", "pb", levels, levels, &mut parts, &mut conns);
    let last = levels - 1;
    let src = format!(
        r#"
        {SEL}
        module Ram {{
            in addr: bit(8);
            in din: bit(8);
            ctrl w: bit(1);
            out dout: bit(8);
            memory cells[256]: bit(8);
            read dout = cells[addr];
            write cells[addr] = din when w == 1;
        }}
        processor RamChains {{
            instruction word: bit({width});
            in pa: bit(8);
            in pb: bit(8);
            parts {{ {parts}ram: Ram; }}
            connections {{
                {conns}ram.addr = a{last}.y; ram.din = d{last}.y; ram.w = I[{w}];
            }}
        }}
        "#,
        width = 2 * levels + 1,
        w = 2 * levels,
    );
    let err = extract(&netlist(&src), &cap_1000()).expect_err("the write's pairs explode");
    assert!(err.message().starts_with("route explosion"), "{err}");
}

#[test]
fn branch_test_and_target_pairs_count_against_the_route_cap() {
    // A PC loaded from one chain when another chain's value is zero:
    // each of the 4096 (test, target) route pairs is a branch template.
    let levels = 6;
    let mut parts = String::new();
    let mut conns = String::new();
    selector_chain("t", "pa", 0, levels, &mut parts, &mut conns);
    selector_chain("v", "pb", levels, levels, &mut parts, &mut conns);
    let last = levels - 1;
    let src = format!(
        r#"
        {SEL}
        module Pc {{
            in d: bit(8);
            in v: bit(8);
            ctrl br: bit(1);
            out q: bit(8);
            register q = d when (br == 1) & (v == 0);
        }}
        processor BranchChains {{
            instruction word: bit({width});
            in pa: bit(8);
            in pb: bit(8);
            parts {{ {parts}pc: Pc; }}
            pc {{ pc }}
            connections {{
                {conns}pc.d = t{last}.y; pc.v = v{last}.y; pc.br = I[{br}];
            }}
        }}
        "#,
        width = 2 * levels + 1,
        br = 2 * levels,
    );
    let err = extract(&netlist(&src), &cap_1000()).expect_err("the branch's pairs explode");
    assert!(err.message().starts_with("route explosion"), "{err}");
}
