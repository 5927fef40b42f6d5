use crate::*;
use record_hdl::PortDir;

fn elab(src: &str) -> Result<Netlist, NetlistError> {
    let model = record_hdl::parse(src).expect("test HDL must parse");
    elaborate(&model)
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
                default => y = a;
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
        in pin: bit(8);
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
fn elaborates_acc_machine() {
    let n = elab(ACC_MACHINE).unwrap();
    assert_eq!(n.name(), "AccMachine");
    assert_eq!(n.iword_width(), 8);
    assert_eq!(n.insts().len(), 3);
    assert_eq!(n.storages().len(), 2);
    let acc = n.storage_by_name("acc").unwrap();
    assert_eq!(acc.kind, StorageKind::Register);
    assert_eq!(acc.width, 8);
    let ram = n.storage_by_name("ram").unwrap();
    assert_eq!(ram.kind, StorageKind::Memory);
    assert_eq!(ram.size, 16);
}

#[test]
fn case_flattening_produces_guarded_arms() {
    let n = elab(ACC_MACHINE).unwrap();
    let alu = n.inst_by_name("alu").unwrap();
    let def = n.def_of(alu);
    let ElabKind::Comb { outputs } = &def.kind else {
        panic!("alu must be combinational");
    };
    assert_eq!(outputs.len(), 1);
    // 3 labelled arms + default
    assert_eq!(outputs[0].arms.len(), 4);
    // Default arm's guard is the negation of the labelled cover.
    assert!(matches!(outputs[0].arms[3].guard, Guard::Not(_)));
}

#[test]
fn drivers_resolved() {
    let n = elab(ACC_MACHINE).unwrap();
    let alu = n.inst_by_name("alu").unwrap();
    let def = n.def_of(alu);
    let a = def.port_idx("a").unwrap();
    let acc = n.inst_by_name("acc").unwrap();
    let q = n.def_of(acc).port_idx("q").unwrap();
    assert_eq!(
        n.driver_of(alu, a),
        Some(&Net::InstOut { inst: acc, port: q })
    );
    let f = def.port_idx("f").unwrap();
    assert_eq!(n.driver_of(alu, f), Some(&Net::IField { hi: 1, lo: 0 }));
}

#[test]
fn proc_out_port_driver() {
    let n = elab(ACC_MACHINE).unwrap();
    let pout = n
        .proc_ports()
        .iter()
        .find(|p| p.name == "pout")
        .expect("pout exists");
    assert_eq!(pout.dir, PortDir::Out);
    assert!(pout.driver.is_some());
}

#[test]
fn regfile_classification() {
    let src = r#"
        module Rf {
            in waddr: bit(2);
            in raddr: bit(2);
            in din: bit(8);
            ctrl w: bit(1);
            out dout: bit(8);
            memory cells[4]: bit(8);
            read dout = cells[raddr];
            write cells[waddr] = din when w == 1;
        }
        processor P {
            instruction word: bit(8);
            in pin: bit(8);
            parts { rf: Rf; }
            regfiles { rf }
            connections {
                rf.raddr = I[1:0];
                rf.waddr = I[3:2];
                rf.din = pin;
                rf.w = I[4];
            }
        }
    "#;
    let n = elab(src).unwrap();
    assert_eq!(n.storage_by_name("rf").unwrap().kind, StorageKind::RegFile);
}

#[test]
fn rejects_regfile_with_computed_address() {
    let src = r#"
        module Ar { in d: bit(4); ctrl en: bit(1); out q: bit(4);
                    register q = d when en == 1; }
        module Rf {
            in addr: bit(4);
            in din: bit(8);
            ctrl w: bit(1);
            out dout: bit(8);
            memory cells[16]: bit(8);
            read dout = cells[addr];
            write cells[addr] = din when w == 1;
        }
        processor P {
            instruction word: bit(8);
            in pin: bit(8);
            parts { ar: Ar; rf: Rf; }
            regfiles { rf }
            connections {
                ar.d = I[3:0];
                ar.en = I[7];
                rf.addr = ar.q;
                rf.din = pin;
                rf.w = I[6];
            }
        }
    "#;
    let e = elab(src).unwrap_err();
    assert!(e.message().contains("addressed exclusively"));
}

#[test]
fn memory_with_register_address_is_not_regfile() {
    let src = r#"
        module Ar { in d: bit(4); ctrl en: bit(1); out q: bit(4);
                    register q = d when en == 1; }
        module Ram {
            in addr: bit(4);
            in din: bit(8);
            ctrl w: bit(1);
            out dout: bit(8);
            memory cells[16]: bit(8);
            read dout = cells[addr];
            write cells[addr] = din when w == 1;
        }
        processor P {
            instruction word: bit(8);
            in pin: bit(8);
            parts { ar: Ar; ram: Ram; }
            connections {
                ar.d = I[3:0];
                ar.en = I[7];
                ram.addr = ar.q;
                ram.din = pin;
                ram.w = I[6];
            }
        }
    "#;
    let n = elab(src).unwrap();
    assert_eq!(n.storage_by_name("ram").unwrap().kind, StorageKind::Memory);
}

#[test]
fn mode_register_flag() {
    let src = r#"
        module M { in d: bit(1); ctrl en: bit(1); out q: bit(1);
                   register q = d when en == 1; }
        processor P {
            instruction word: bit(4);
            parts { st: M; }
            modes { st }
            connections { st.d = I[0]; st.en = I[1]; }
        }
    "#;
    let n = elab(src).unwrap();
    let st = n.storage_by_name("st").unwrap();
    assert!(st.is_mode);
    assert_eq!(st.kind, StorageKind::Register);
}

#[test]
fn bus_drivers_elaborated() {
    let src = r#"
        module R { in d: bit(8); ctrl en: bit(1); out q: bit(8);
                   register q = d when en == 1; }
        processor P {
            instruction word: bit(4);
            in pin: bit(8);
            bus dbus: bit(8);
            parts { r1: R; r2: R; }
            connections {
                drive dbus = r1.q when I[0] == 0;
                drive dbus = pin when I[0] == 1;
                r1.d = dbus; r1.en = I[1];
                r2.d = dbus; r2.en = I[2];
            }
        }
    "#;
    let n = elab(src).unwrap();
    assert_eq!(n.busses().len(), 1);
    let bus = &n.busses()[0];
    assert_eq!(bus.drivers.len(), 2);
    assert!(matches!(bus.drivers[0].guard, BusGuard::Cmp { .. }));
}

// ------------------------------ error paths -------------------------------

#[test]
fn rejects_unknown_module() {
    let src = r#"
        processor P { instruction word: bit(4); parts { x: Nope; } connections { } }
    "#;
    let e = elab(src).unwrap_err();
    assert!(e.message().contains("unknown module"));
}

#[test]
fn rejects_double_drive() {
    let src = r#"
        module R { in d: bit(4); out q: bit(4); register q = d; }
        processor P {
            instruction word: bit(4);
            parts { r: R; }
            connections { r.d = I[3:0]; r.d = I[3:0]; }
        }
    "#;
    let e = elab(src).unwrap_err();
    assert!(e.message().contains("driven more than once"));
}

#[test]
fn rejects_width_mismatch() {
    let src = r#"
        module R { in d: bit(4); out q: bit(4); register q = d; }
        processor P {
            instruction word: bit(8);
            parts { r: R; }
            connections { r.d = I[7:0]; }
        }
    "#;
    let e = elab(src).unwrap_err();
    assert!(e.message().contains("width mismatch"));
}

#[test]
fn rejects_ctrl_port_as_data() {
    let src = r#"
        module Bad { ctrl c: bit(4); out y: bit(4); behavior { y = c; } }
        processor P { instruction word: bit(4); parts { b: Bad; } connections { } }
    "#;
    let e = elab(src).unwrap_err();
    assert!(e.message().contains("used as data"));
}

#[test]
fn rejects_data_port_as_selector() {
    let src = r#"
        module Bad { in a: bit(4); in s: bit(1); out y: bit(4);
                     behavior { case s { 0 => y = a; 1 => y = a + 1; } } }
        processor P { instruction word: bit(4); parts { b: Bad; } connections { } }
    "#;
    let e = elab(src).unwrap_err();
    assert!(e.message().contains("control ports"));
}

#[test]
fn rejects_ifield_out_of_range() {
    let src = r#"
        module R { in d: bit(4); out q: bit(4); register q = d; }
        processor P {
            instruction word: bit(4);
            parts { r: R; }
            connections { r.d = I[7:4]; }
        }
    "#;
    let e = elab(src).unwrap_err();
    assert!(e.message().contains("exceeds instruction width"));
}

#[test]
fn rejects_mode_on_non_register() {
    let src = r#"
        module C { in a: bit(4); out y: bit(4); behavior { y = a; } }
        processor P {
            instruction word: bit(4);
            parts { c: C; }
            modes { c }
            connections { }
        }
    "#;
    let e = elab(src).unwrap_err();
    assert!(e.message().contains("not a register"));
}

#[test]
fn rejects_constant_too_wide_for_port() {
    let src = r#"
        module R { in d: bit(4); out q: bit(4); register q = d; }
        processor P {
            instruction word: bit(4);
            parts { r: R; }
            connections { r.d = 255; }
        }
    "#;
    let e = elab(src).unwrap_err();
    assert!(e.message().contains("does not fit"));
}

/// A comparison constant that its operand can never equal is an error
/// naming the module or processor and the constant: a `case` label, a
/// module `when` constant on a control or a data operand, and a
/// `drive … when` constant.  So is a slice that reaches past its base.
#[test]
fn rejects_comparison_constants_wider_than_their_operand() {
    let drive = r#"
        module R { in d: bit(8); out q: bit(8); register q = d; }
        processor P {
            instruction word: bit(4);
            in pin: bit(8);
            bus dbus: bit(8);
            parts { r: R; }
            connections {
                drive dbus = pin when I[1:0] != 5;
                r.d = dbus;
            }
        }
    "#;
    for (src, wants) in [
        (
            ACC_MACHINE.replace("2 => y = a & b;", "2 => y = a & b; 4 => y = b;"),
            ["case label 4 ", "2-bit selector", "module `Alu`"],
        ),
        (
            ACC_MACHINE.replace("when en == 1", "when en == 2"),
            ["`when` constant 2 ", "1-bit operand", "module `Acc`"],
        ),
        (
            ACC_MACHINE.replace("when en == 1", "when d == 256"),
            ["`when` constant 256 ", "8-bit operand", "module `Acc`"],
        ),
        (
            drive.to_owned(),
            ["`drive` guard constant 5 ", "2-bit net", "processor `P`"],
        ),
        // A data slice as wide as its sink that reads bits its port does
        // not have: `a[20:5]` on a 16-bit port, here on the 8-bit `a`.
        (
            ACC_MACHINE.replace("0 => y = a + b;", "0 => y = a[12:5] + b;"),
            ["slice [12:5] ", "exceeds width 8", "module `Alu`"],
        ),
    ] {
        let e = elab(&src).unwrap_err();
        for want in wants {
            assert!(e.message().contains(want), "missing `{want}` in: {e}");
        }
    }
    elab(&drive.replace("!= 5", "!= 3")).expect("3 fits a 2-bit field");
    elab(&ACC_MACHINE.replace("0 => y = a + b;", "0 => y = a[7:0] + b;"))
        .expect("a slice within its port elaborates");

    // A selector slice is as wide as it reads: it may not reach past its
    // port, which control analysis cannot slice.
    let e = elab(&ACC_MACHINE.replace("when en == 1", "when en[3:2] == 1")).unwrap_err();
    assert!(
        e.message().contains("slice [3:2] exceeds width 1") && e.message().contains("`Acc`"),
        "{e}"
    );
}

#[test]
fn guard_and_or_folding() {
    assert_eq!(Guard::True.and(Guard::True), Guard::True);
    assert_eq!(Guard::False.or(Guard::False), Guard::False);
    let cmp = Guard::Cmp {
        sel: CtrlExpr::Port(0),
        value: 1,
    };
    assert_eq!(Guard::True.and(cmp.clone()), cmp.clone());
    assert_eq!(Guard::False.and(cmp.clone()), Guard::False);
    assert_eq!(Guard::False.or(cmp.clone()), cmp.clone());
    assert_eq!(Guard::True.or(cmp), Guard::True);
}
