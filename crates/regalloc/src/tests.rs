use crate::*;
use record_codegen::{Binding, DestSim, Loc, Machine, RtOp, SimExpr};
use record_netlist::{Netlist, StorageId, StorageKind};
use record_rtl::TemplateId;
use record_selgen::Selector;

// ------------------------------------------------------------------- pool

#[test]
fn residency_eviction_order_is_belady() {
    let reg = |i| Loc::Reg(StorageId(i));
    let mut led = Residency::with_capacity(2);
    assert!(led
        .insert(
            reg(0),
            Resident {
                addr: 10,
                next_use: Some(5),
            },
        )
        .is_none());
    assert!(led
        .insert(
            reg(1),
            Resident {
                addr: 11,
                next_use: Some(50),
            },
        )
        .is_none());
    // Full: the farthest-next-use association (reg1/addr 11) goes first.
    let ev = led
        .insert(
            reg(2),
            Resident {
                addr: 12,
                next_use: Some(7),
            },
        )
        .expect("overflow evicts");
    assert_eq!(ev.loc, reg(1));
    assert_eq!(ev.residents.len(), 1);
    assert_eq!(ev.residents[0].addr, 11);
    assert!(ev.was_live());
    assert_eq!(ev.live_count(), 1);
    assert!(led.holds(&reg(0), 10));
    assert!(led.holds(&reg(2), 12));

    // Dead associations (no further use) are preferred victims.
    let mut led = Residency::with_capacity(2);
    led.insert(
        reg(0),
        Resident {
            addr: 10,
            next_use: None,
        },
    );
    led.insert(
        reg(1),
        Resident {
            addr: 11,
            next_use: Some(3),
        },
    );
    let ev = led
        .insert(
            reg(2),
            Resident {
                addr: 12,
                next_use: Some(9),
            },
        )
        .expect("overflow evicts");
    assert_eq!(ev.loc, reg(0));
    assert!(!ev.was_live());
    assert_eq!(ev.live_count(), 0);
}

/// Regression: the ledger bounds *distinct registers*, not total
/// (register, address) associations.  One register fanning a value out to
/// many addresses occupies one physical cell and must never evict entries
/// while other registers sit idle.
#[test]
fn residency_fanout_does_not_consume_capacity() {
    let reg = |i| Loc::Reg(StorageId(i));
    let mut led = Residency::with_capacity(2);
    // reg0 mirrors four words: `x = a; y = a; z = a; w = a;`.
    for (addr, nu) in [(10, Some(3)), (11, Some(4)), (12, Some(5)), (13, None)] {
        assert!(
            led.insert(reg(0), Resident { addr, next_use: nu },)
                .is_none(),
            "fan-out within one register must never evict"
        );
    }
    assert_eq!(led.len(), 4);
    assert_eq!(led.distinct_registers(), 1);
    // A second register still fits: only one of two register slots is
    // used, no matter how many addresses reg0 mirrors.
    assert!(led
        .insert(
            reg(1),
            Resident {
                addr: 20,
                next_use: Some(2),
            },
        )
        .is_none());
    assert!(led.holds(&reg(0), 10));
    assert!(led.holds(&reg(1), 20));
    assert_eq!(led.distinct_registers(), 2);

    // A third register overflows: the whole farthest-used register goes,
    // with every association it held.  reg0's nearest use (3) is farther
    // than reg1's (2), so reg0 is the Belady victim.
    let ev = led
        .insert(
            reg(2),
            Resident {
                addr: 30,
                next_use: Some(9),
            },
        )
        .expect("third register overflows the two-register ledger");
    assert_eq!(ev.loc, reg(0));
    assert_eq!(ev.residents.len(), 4);
    assert_eq!(ev.live_count(), 3); // addr 13 was dead
    assert!(led.holds(&reg(1), 20));
    assert!(led.holds(&reg(2), 30));
    assert_eq!(led.distinct_registers(), 2);
}

#[test]
fn residency_multi_association_and_invalidation() {
    let reg = |i| Loc::Reg(StorageId(i));
    let mut led = Residency::with_capacity(4);
    led.insert(
        reg(0),
        Resident {
            addr: 3,
            next_use: Some(1),
        },
    );
    // A register may mirror several equal-valued words at once.
    assert!(led
        .insert(
            reg(0),
            Resident {
                addr: 4,
                next_use: None,
            },
        )
        .is_none());
    assert!(led.holds(&reg(0), 3));
    assert!(led.holds(&reg(0), 4));
    // Re-inserting an existing pair refreshes it instead of growing.
    led.insert(
        reg(0),
        Resident {
            addr: 4,
            next_use: Some(9),
        },
    );
    assert_eq!(led.len(), 2);
    led.insert(
        reg(1),
        Resident {
            addr: 4,
            next_use: None,
        },
    );
    // Overwriting the word drops every register mirroring it.
    led.forget_addr(4);
    assert!(led.holds(&reg(0), 3));
    assert_eq!(led.len(), 1);
    // Clobbering the register drops all its associations.
    assert_eq!(led.forget(&reg(0)).len(), 1);
    assert!(led.is_empty());
}

fn retarget_pool(model_name: &str) -> (Netlist, RegisterPool) {
    let model = record_targets::models::model(model_name).expect("model exists");
    let parsed = record_hdl::parse(model.hdl).expect("parses");
    let netlist = record_netlist::elaborate(&parsed).expect("elaborates");
    let ex = record_isex::extract(&netlist, &Default::default()).expect("extracts");
    let mut base = ex.base;
    record_rtl::extend(&mut base, &Default::default());
    let dm = netlist
        .storages()
        .iter()
        .filter(|s| s.kind == StorageKind::Memory)
        .max_by_key(|s| s.size)
        .expect("data memory")
        .id;
    let pool = RegisterPool::discover(&netlist, &base, dm);
    (netlist, pool)
}

#[test]
fn pool_discovery_single_register_target() {
    // The C25-like DSP: acc, t, p are allocatable single registers; the
    // address registers are too (LARK writes, the address path reads).
    let (netlist, pool) = retarget_pool("tms320c25");
    assert!(pool.capacity() >= 3);
    let by_name = |n: &str| {
        let s = netlist.storage_by_name(n).expect("storage").id;
        pool.class_of(s)
    };
    let acc = by_name("acc").expect("acc allocatable");
    assert_eq!(acc.cells, 1);
    assert!(acc.reload.is_some(), "LAC reloads acc from dmem");
    assert!(acc.spill.is_some(), "SACL spills acc to dmem");
    let t = by_name("t").expect("t allocatable");
    assert!(t.reload.is_some(), "LT reloads t from dmem");
    assert!(t.spill.is_none(), "nothing stores t back");
    // The mode register (arp) is never allocatable.
    let arp = netlist.storage_by_name("arp").expect("arp exists");
    assert!(pool.class_of(arp.id).is_none());
    // Width bookkeeping: 16-bit registers over a 16-bit memory.
    assert!(pool.store_preserves_value(netlist.storage_by_name("acc").unwrap().id));
}

#[test]
fn pool_discovery_regfile_target() {
    // The `ref` machine declares an 8-cell register file.
    let (netlist, pool) = retarget_pool("ref");
    let rf = netlist.storage_by_name("rf").expect("rf exists");
    assert_eq!(rf.kind, StorageKind::RegFile);
    let class = pool.class_of(rf.id).expect("rf allocatable");
    assert_eq!(class.cells, 8);
    assert!(pool.capacity() > 8, "regfile cells plus plain registers");
    assert!(pool.is_allocatable(&Loc::Rf(rf.id, 3)));
    assert!(!pool.is_allocatable(&Loc::Mem(pool.data_mem(), 0)));
}

// -------------------------------------------------------- allocator (unit)

/// Builds a synthetic single-register machine: `reg0` over a data memory
/// `mem9` — enough to drive the allocator without a netlist.
fn synth_pool(reg_width: u16) -> RegisterPool {
    RegisterPool::new(
        StorageId(9),
        16,
        vec![RegClass {
            storage: StorageId(0),
            name: "reg0".into(),
            width: reg_width,
            cells: 1,
            reload: Some(TemplateId(0)),
            spill: Some(TemplateId(1)),
        }],
    )
}

fn synth_reload(reg: u32, addr: u64) -> RtOp {
    RtOp {
        template: TemplateId(0),
        dest: DestSim::Loc(Loc::Reg(StorageId(reg))),
        expr: SimExpr::MemRead(StorageId(9), Box::new(SimExpr::Const(addr))),
        transfer: None,
        cond: record_bdd::Bdd::TRUE,
    }
}

fn synth_store(reg: u32, addr: u64) -> RtOp {
    RtOp {
        template: TemplateId(1),
        dest: DestSim::MemAt(StorageId(9), SimExpr::Const(addr)),
        expr: SimExpr::Read(Loc::Reg(StorageId(reg))),
        transfer: None,
        cond: record_bdd::Bdd::TRUE,
    }
}

fn synth_modify(reg: u32) -> RtOp {
    RtOp {
        template: TemplateId(2),
        dest: DestSim::Loc(Loc::Reg(StorageId(reg))),
        expr: SimExpr::Op(
            record_rtl::OpKind::Add,
            vec![SimExpr::Read(Loc::Reg(StorageId(reg))), SimExpr::Const(1)],
        ),
        transfer: None,
        cond: record_bdd::Bdd::TRUE,
    }
}

/// Allocates `ops` as one block.
fn allocate_one(
    ops: &[RtOp],
    pool: &RegisterPool,
    layout: MemLayout,
    options: &AllocOptions,
) -> (Vec<RtOp>, AllocStats) {
    let (out, _, stats) = allocate(
        ops,
        std::slice::from_ref(&(0..ops.len())),
        pool,
        layout,
        options,
        &mut record_probe::Probe::disabled(),
    );
    (out, stats)
}

fn run_synth(ops: &[RtOp], pool: &RegisterPool, first_scratch: u64) -> (Vec<RtOp>, AllocStats) {
    let layout = MemLayout {
        data_mem: StorageId(9),
        first_scratch,
    };
    allocate_one(ops, pool, layout, &AllocOptions::default())
}

#[test]
fn identity_reload_is_dropped_and_store_dies() {
    // store r→5; reload 5→r (identity); store r→0 (variable result).
    let ops = vec![synth_store(0, 5), synth_reload(0, 5), synth_store(0, 0)];
    let (out, stats) = run_synth(&ops, &synth_pool(16), 5);
    assert_eq!(stats.reloads_eliminated, 1);
    // The scratch store at 5 has no remaining reader.
    assert_eq!(stats.stores_eliminated, 1);
    assert_eq!(out, vec![synth_store(0, 0)]);
    assert_eq!(stats.accesses_before(), 3);
    assert_eq!(stats.accesses_after(), 1);
}

#[test]
fn clobbered_register_keeps_its_reload() {
    // store r→5; r := r+1; reload 5→r must stay (residency lost).
    let ops = vec![
        synth_store(0, 5),
        synth_modify(0),
        synth_reload(0, 5),
        synth_store(0, 0),
    ];
    let (out, stats) = run_synth(&ops, &synth_pool(16), 5);
    assert_eq!(stats.reloads_eliminated, 0);
    assert_eq!(stats.stores_eliminated, 0);
    assert_eq!(stats.spills, 1, "clobber while a later read existed");
    assert_eq!(out.len(), 4);
}

#[test]
fn wide_register_store_is_not_an_exact_copy() {
    // A 32-bit register stored into 16-bit memory truncates: the reload
    // genuinely changes the register and must stay.
    let ops = vec![synth_store(0, 5), synth_reload(0, 5), synth_store(0, 0)];
    let (out, stats) = run_synth(&ops, &synth_pool(32), 5);
    assert_eq!(stats.reloads_eliminated, 0);
    assert_eq!(out.len(), 3);
    // Reload-established residency is still exact: a *second* reload of
    // the same word disappears.
    let ops = vec![
        synth_reload(0, 3),
        synth_store(0, 0),
        synth_reload(0, 3),
        synth_store(0, 1),
    ];
    let (_, stats) = run_synth(&ops, &synth_pool(32), 5);
    assert_eq!(stats.reloads_eliminated, 1);
}

#[test]
fn spill_on_overflow_with_capped_pool() {
    // Two registers ping-ponging two addresses; with the ledger capped at
    // one association, one of the reloads survives and the overflow is
    // counted as a spill.
    let pool = RegisterPool::new(
        StorageId(9),
        16,
        vec![
            RegClass {
                storage: StorageId(0),
                name: "r0".into(),
                width: 16,
                cells: 1,
                reload: Some(TemplateId(0)),
                spill: Some(TemplateId(1)),
            },
            RegClass {
                storage: StorageId(1),
                name: "r1".into(),
                width: 16,
                cells: 1,
                reload: Some(TemplateId(0)),
                spill: Some(TemplateId(1)),
            },
        ],
    );
    let layout = MemLayout {
        data_mem: StorageId(9),
        first_scratch: 4,
    };
    let ops = vec![
        synth_store(0, 4),
        synth_store(1, 5),
        synth_reload(1, 5),
        synth_reload(0, 4),
        synth_store(0, 0),
        synth_store(1, 1),
    ];
    // Unlimited: both reloads are identities and both scratch stores die.
    let (_, stats) = allocate_one(&ops, &pool, layout, &AllocOptions::default());
    assert_eq!(stats.reloads_eliminated, 2);
    assert_eq!(stats.stores_eliminated, 2);
    assert_eq!(stats.spills, 0);
    // Capped at one association: the second store overflows the ledger and
    // evicts the first residency while its reload is still ahead — that
    // reload must stay, and the overflow is counted as a spill.
    let (out, stats) = allocate_one(
        &ops,
        &pool,
        layout,
        &AllocOptions {
            max_resident: Some(1),
        },
    );
    assert_eq!(
        stats.reloads_eliminated, 1,
        "only the resident value's reload dies"
    );
    assert_eq!(stats.spills, 1, "overflow eviction of a live residency");
    assert!(out.iter().any(|o| *o == synth_reload(0, 4)));
    // The scratch word whose reload was eliminated has no reader left.
    assert_eq!(stats.stores_eliminated, 1);
}

#[test]
fn dynamic_access_is_a_barrier() {
    let dyn_read = RtOp {
        template: TemplateId(3),
        dest: DestSim::Loc(Loc::Reg(StorageId(1))),
        expr: SimExpr::MemRead(
            StorageId(9),
            Box::new(SimExpr::Read(Loc::Reg(StorageId(1)))),
        ),
        transfer: None,
        cond: record_bdd::Bdd::TRUE,
    };
    // A dynamic read may observe the scratch store: it must survive.
    let ops = vec![synth_store(0, 5), dyn_read.clone(), synth_store(0, 0)];
    let (out, stats) = run_synth(&ops, &synth_pool(16), 5);
    assert_eq!(stats.stores_eliminated, 0);
    assert_eq!(out.len(), 3);

    let dyn_write = RtOp {
        template: TemplateId(3),
        dest: DestSim::MemAt(StorageId(9), SimExpr::Read(Loc::Reg(StorageId(1)))),
        expr: SimExpr::Const(7),
        transfer: None,
        cond: record_bdd::Bdd::TRUE,
    };
    // A dynamic write may hit the stored word: the following reload is no
    // longer an identity.
    let ops = vec![synth_store(0, 5), dyn_write, synth_reload(0, 5)];
    let (_, stats) = run_synth(&ops, &synth_pool(16), 5);
    assert_eq!(stats.reloads_eliminated, 0);
}

// ------------------------------------------------- allocator (end-to-end)

/// 16-bit accumulator DSP with a T register and a MAC path (the shape of
/// the codegen crate's test machine).
const DSP: &str = r#"
    module Alu {
        in a: bit(16);
        in b: bit(16);
        ctrl f: bit(2);
        out y: bit(16);
        behavior {
            case f {
                0 => y = a + b;
                1 => y = a - b;
                2 => y = a & b;
                3 => y = b;
            }
        }
    }
    module Mul { in a: bit(16); in b: bit(16); out y: bit(16);
                 behavior { y = a * b; } }
    module Mux3 {
        in a: bit(16); in b: bit(16); in c: bit(16);
        ctrl s: bit(2);
        out y: bit(16);
        behavior { case s { 0 => y = a; 1 => y = b; 2 => y = c; } }
    }
    module Reg16 { in d: bit(16); ctrl en: bit(1); out q: bit(16);
                   register q = d when en == 1; }
    module Ram {
        in addr: bit(4); in din: bit(16); ctrl w: bit(1); out dout: bit(16);
        memory cells[16]: bit(16);
        read dout = cells[addr];
        write cells[addr] = din when w == 1;
    }
    processor AllocDsp {
        instruction word: bit(16);
        parts { alu: Alu; mul: Mul; bmux: Mux3; acc: Reg16; t: Reg16; ram: Ram; }
        connections {
            mul.a = t.q;
            mul.b = ram.dout;
            bmux.a = ram.dout;
            bmux.b = mul.y;
            bmux.c = I[15:12];
            bmux.s = I[11:10];
            alu.a = acc.q;
            alu.b = bmux.y;
            alu.f = I[1:0];
            acc.d = alu.y;
            acc.en = I[3];
            t.d = ram.dout;
            t.en = I[8];
            ram.addr = I[7:4];
            ram.din = acc.q;
            ram.w = I[9];
        }
    }
"#;

struct Rig {
    netlist: Netlist,
    base: record_rtl::TemplateBase,
    selector: Selector,
    manager: std::cell::RefCell<record_bdd::BddManager>,
    tables: record_codegen::EmitTables,
}

fn rig() -> Rig {
    let model = record_hdl::parse(DSP).expect("parses");
    let netlist = record_netlist::elaborate(&model).expect("elaborates");
    let ex = record_isex::extract(&netlist, &Default::default()).expect("extracts");
    let mut base = ex.base;
    record_rtl::extend(&mut base, &Default::default());
    let grammar = record_grammar::TreeGrammar::from_base(&base, &netlist);
    let selector = Selector::generate(std::sync::Arc::new(grammar));
    let mut manager = ex.manager;
    let tables = record_codegen::EmitTables::build(&netlist, &mut manager, netlist.iword_width());
    Rig {
        netlist,
        base,
        selector,
        manager: std::cell::RefCell::new(manager),
        tables,
    }
}

/// Compiles `csrc`, allocates, and checks the allocated code against the
/// mini-C interpreter; returns (unallocated, allocated, stats).
fn compile_both(
    r: &Rig,
    csrc: &str,
    init: &[(&str, Vec<u64>)],
) -> (Vec<RtOp>, Vec<RtOp>, AllocStats) {
    let prog = record_ir::parse(csrc).expect("mini-C parses");
    let cfg = record_ir::lower_cfg(&prog, "f").expect("lowers");
    let dm = r
        .netlist
        .storages()
        .iter()
        .find(|s| s.kind == StorageKind::Memory)
        .expect("data memory")
        .id;
    let mut binding = Binding::allocate(&prog, "f", &r.netlist, dm).expect("binds");
    let ops = record_codegen::compile(
        &cfg,
        &r.selector,
        &r.base,
        &mut binding,
        &r.netlist,
        &mut *r.manager.borrow_mut(),
        &r.tables,
        16,
        &mut record_probe::Probe::disabled(),
    )
    .expect("compiles")
    .ops;

    let pool = RegisterPool::discover(&r.netlist, &r.base, dm);
    let (alloc_ops, stats) = allocate_one(
        &ops,
        &pool,
        MemLayout::from_binding(&binding),
        &AllocOptions::default(),
    );

    // Oracle.
    let mut mem = record_ir::Memory::new();
    for (k, v) in init {
        mem.insert((*k).to_owned(), v.clone());
    }
    record_ir::interp(&prog, "f", &mut mem, 16).expect("interprets");

    let mut m = Machine::new(&r.netlist);
    for (k, v) in init {
        let base_addr = binding
            .assignments()
            .find(|(n, _)| n == k)
            .expect("bound var")
            .1;
        for (i, val) in v.iter().enumerate() {
            m.set_mem(dm, base_addr + i as u64, *val & 0xFFFF);
        }
    }
    m.run(&alloc_ops);
    for (name, addr) in binding.assignments() {
        for (i, want) in mem[name].iter().enumerate() {
            assert_eq!(
                m.mem(dm, addr + i as u64),
                *want,
                "allocated code disagrees with the interpreter at {name}[{i}]"
            );
        }
    }
    (ops, alloc_ops, stats)
}

#[test]
fn accumulator_chain_stays_resident() {
    let r = rig();
    let src =
        "int a[4], s; void f() { s = 0; s = s + a[0]; s = s + a[1]; s = s + a[2]; s = s + a[3]; }";
    let (plain, alloc, stats) = compile_both(&r, src, &[("a", vec![3, 5, 7, 11])]);
    // Every intermediate `acc := dmem[s]` reload and `dmem[s] := acc`
    // store disappears; only the final store remains.
    assert_eq!(stats.reloads_eliminated, 4);
    assert_eq!(stats.stores_eliminated, 4);
    assert!(alloc.len() < plain.len());
    let dm = MemLayout {
        data_mem: StorageId(0),
        first_scratch: 0,
    };
    let _ = dm; // layout asserted through stats below
    assert!(stats.accesses_after() < stats.accesses_before());
    assert_eq!(
        stats.accesses_after(),
        stats.accesses_before() - stats.accesses_saved()
    );
}

#[test]
fn independent_statements_are_untouched() {
    let r = rig();
    let src = "int a, b, x, y; void f() { x = a + 1; y = b + 2; }";
    let (plain, alloc, stats) = compile_both(&r, src, &[("a", vec![9]), ("b", vec![4])]);
    assert_eq!(plain, alloc, "nothing to allocate, nothing changed");
    assert_eq!(stats.reloads_eliminated, 0);
    assert_eq!(stats.stores_eliminated, 0);
    assert_eq!(stats.accesses_before(), stats.accesses_after());
}

#[test]
fn register_mirrors_several_equal_words() {
    let r = rig();
    // After `x = a`, the accumulator equals both `a` and `x`; the second
    // statement's reload of `a` is an identity and must disappear.
    let src = "int a, x, y; void f() { x = a; y = a; }";
    let (plain, alloc, stats) = compile_both(&r, src, &[("a", vec![77])]);
    assert_eq!(
        stats.reloads_eliminated, 1,
        "second load of `a` is identity"
    );
    assert_eq!(stats.spills, 0, "no residency was actually lost");
    assert!(alloc.len() < plain.len());
}

#[test]
fn copy_propagation_through_memory() {
    let r = rig();
    // `y = x` then reuse of `y`: the reload of y after its store is an
    // identity because acc still holds it.
    let src = "int x, y, z; void f() { y = x + 1; z = y + 2; }";
    let (plain, alloc, stats) = compile_both(&r, src, &[("x", vec![40])]);
    assert!(stats.reloads_eliminated >= 1);
    assert!(alloc.len() < plain.len());
    // The store to y must survive: y is a program variable.
    assert!(stats.writes_after >= 2);
}
