//! Feature tests for the paper's Table 1: the supported target processor
//! class.  Each test demonstrates one row of the table on the shipped
//! models.

use record_core::{CompileRequest, Record, RetargetOptions};
use record_rtl::{Dest, Pattern};
use record_targets::models;

fn retarget(name: &str) -> record_core::Target {
    let m = models::model(name).unwrap();
    Record::retarget(m.hdl, &RetargetOptions::default()).unwrap()
}

/// "data type: fixed-point" — all arithmetic wraps at the machine word.
#[test]
fn fixed_point_arithmetic() {
    let t = retarget("tms320c25");
    let k = t
        .compile(&CompileRequest::new(
            "int x, a; void f() { x = a + a; }",
            "f",
        ))
        .unwrap();
    let machine = t.execute(&k, &[("a", vec![0x9000])]);
    let dm = t.data_memory().unwrap();
    assert_eq!(machine.mem(dm, 0), 0x2000); // 0x9000+0x9000 mod 2^16
}

/// "code type: time-stationary" — two RTs in one word read pre-state.
#[test]
fn time_stationary_semantics() {
    let m = models::model("demo").unwrap();
    let target = Record::retarget(m.hdl, &RetargetOptions::default()).unwrap();
    // demo is horizontal: acc and r0 can load in the same word.
    let n = target.netlist();
    assert!(n.storage_by_name("acc").is_some());
    assert!(n.storage_by_name("r0").is_some());
}

/// "instruction format: horizontal & encoded" — demo is horizontal (wide
/// word, independent fields), the C25 model is encoded (decoder).
#[test]
fn horizontal_and_encoded_formats() {
    let demo = retarget("demo");
    let c25 = retarget("tms320c25");
    // Horizontal: no route is discarded for encoding conflicts.
    assert_eq!(demo.report().unsat_discarded, 0);
    // Encoded: the decoder rules out combinations.
    assert!(c25.report().unsat_discarded > 0);
}

/// "memory structure: load-store & memory-register" — the C25 model has
/// both a pure load (LAC) and ALU ops with memory operands (ADD dma).
#[test]
fn load_store_and_memory_register() {
    let t = retarget("tms320c25");
    let n = t.netlist();
    let acc = n.storage_by_name("acc").unwrap().id;
    let dmem = n.storage_by_name("dmem").unwrap().id;
    let load = Pattern::MemRead(dmem, Box::new(Pattern::Imm { hi: 7, lo: 0 }));
    assert!(t.base().find(&Dest::Reg(acc), &load).is_some(), "LAC");
    let memop = Pattern::Op(
        record_rtl::OpKind::Add,
        vec![Pattern::Reg(acc), load.clone()],
    );
    assert!(t.base().find(&Dest::Reg(acc), &memop).is_some(), "ADD dma");
}

/// "addressing modes: post-modify" — the C25 model extracts AR increment /
/// decrement templates usable alongside indirect accesses.
#[test]
fn post_modify_addressing_building_blocks() {
    let t = retarget("tms320c25");
    let n = t.netlist();
    let ar0 = n.storage_by_name("ar0").unwrap().id;
    let inc = Pattern::Op(
        record_rtl::OpKind::Add,
        vec![Pattern::Reg(ar0), Pattern::Const(1)],
    );
    assert!(t.base().find(&Dest::Reg(ar0), &inc).is_some(), "AR0 += 1");
    // Indirect access through AR0 exists too.
    let acc = n.storage_by_name("acc").unwrap().id;
    let dmem = n.storage_by_name("dmem").unwrap().id;
    let indirect = Pattern::MemRead(dmem, Box::new(Pattern::Reg(ar0)));
    assert!(
        t.base().find(&Dest::Reg(acc), &indirect).is_some(),
        "LAC *AR0"
    );
}

/// "register structure: heterogeneous & homogeneous" — C25 has dedicated
/// ACC/T/P registers; ref has an 8-cell register file.
#[test]
fn heterogeneous_and_homogeneous_registers() {
    let c25 = retarget("tms320c25");
    for r in ["acc", "t", "p"] {
        assert!(c25.netlist().storage_by_name(r).is_some(), "{r} exists");
    }
    let r = retarget("ref");
    let rf = r.netlist().storage_by_name("rf").unwrap();
    assert_eq!(rf.kind, record_netlist::StorageKind::RegFile);
    assert_eq!(rf.size, 8);
}

/// "mode registers" — the C25 ARP register is a designated mode register
/// and indirect-addressing conditions depend on its bits.
#[test]
fn mode_registers_condition_addressing() {
    let t = retarget("tms320c25");
    let n = t.netlist();
    let arp = n.storage_by_name("arp").unwrap();
    assert!(arp.is_mode);
    let acc = n.storage_by_name("acc").unwrap().id;
    let dmem = n.storage_by_name("dmem").unwrap().id;
    let ar1 = n.storage_by_name("ar1").unwrap().id;
    let via_ar1 = Pattern::MemRead(dmem, Box::new(Pattern::Reg(ar1)));
    let id = t
        .base()
        .find(&Dest::Reg(acc), &via_ar1)
        .expect("indirect via AR1");
    // The template's condition must involve the ARP mode bit: it only
    // fires when ARP selects AR1.
    let cond = t.base().template(id).cond;
    let mode_var = t.varmap().mode_bit(arp.id, 0).expect("arp mode bit");
    let support = t.manager().overlay().support(cond);
    assert!(
        support.contains(&mode_var),
        "indirect-addressing condition must depend on ARP"
    );
}

/// "program control: standard jump instructions" — writable PC appears as
/// an RT destination when modelled.  Our shipped models omit a PC (kernels
/// are straight-line), so this documents the mechanism on a micro model.
#[test]
fn jump_templates_extract_from_pc_models() {
    let src = r#"
        module Inc { in a: bit(8); out y: bit(8); behavior { y = a + 1; } }
        module Mux2 { in a: bit(8); in b: bit(8); ctrl s: bit(1); out y: bit(8);
                      behavior { case s { 0 => y = a; 1 => y = b; } } }
        module Pc { in d: bit(8); out q: bit(8); register q = d; }
        processor WithPc {
            instruction word: bit(10);
            parts { pc: Pc; inc: Inc; pmux: Mux2; }
            connections {
                inc.a = pc.q;
                pmux.a = inc.y;
                pmux.b = I[7:0];
                pmux.s = I[8];
                pc.d = pmux.y;
            }
        }
    "#;
    let t = Record::retarget(src, &RetargetOptions::default()).unwrap();
    let n = t.netlist();
    let pc = n.storage_by_name("pc").unwrap().id;
    // Sequential flow: pc := pc + 1; jump: pc := #imm.
    let seq = Pattern::Op(
        record_rtl::OpKind::Add,
        vec![Pattern::Reg(pc), Pattern::Const(1)],
    );
    assert!(t.base().find(&Dest::Reg(pc), &seq).is_some(), "pc := pc+1");
    let jmp = Pattern::Imm { hi: 7, lo: 0 };
    assert!(
        t.base().find(&Dest::Reg(pc), &jmp).is_some(),
        "pc := #target"
    );
}
