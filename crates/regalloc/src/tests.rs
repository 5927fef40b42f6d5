use crate::*;
use proptest::prelude::*;
use record_codegen::{Binding, DestSim, Loc, Machine, RtOp, SimExpr};
use record_netlist::{Netlist, StorageId, StorageKind};
use record_rtl::TemplateId;
use record_selgen::Selector;
use std::sync::Arc;

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
    by_name("t").expect("t allocatable");
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
        }],
    )
}

fn synth_reload(reg: u32, addr: u64) -> RtOp {
    RtOp {
        template: TemplateId(0),
        dest: DestSim::Loc(Loc::Reg(StorageId(reg))),
        expr: SimExpr::MemRead(StorageId(9), Arc::new(SimExpr::Const(addr))),
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
            Arc::new([SimExpr::Read(Loc::Reg(StorageId(reg))), SimExpr::Const(1)]),
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
        ops.to_vec(),
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
            },
            RegClass {
                storage: StorageId(1),
                name: "r1".into(),
                width: 16,
                cells: 1,
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
            Arc::new(SimExpr::Read(Loc::Reg(StorageId(1)))),
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

/// Liveness is kept over the addresses a block names, not over the
/// declared memory: a watermark of 2^40 variable words costs nothing.
#[test]
fn variable_area_size_does_not_cost_memory() {
    let ops = vec![synth_reload(0, 5), synth_modify(0), synth_store(0, 7)];
    let (out, stats) = run_synth(&ops, &synth_pool(16), 1 << 40);
    // Every word is a variable word: nothing is dead, nothing is resident.
    assert_eq!(out, ops);
    assert_eq!(stats.stores_eliminated, 0);
    assert_eq!(stats.reloads_eliminated, 0);
}

// ------------------------------------------- allocator (reference, property)

/// The allocator before it moved ops and indexed addresses densely, kept
/// as the reference of [`allocate_matches_clone_and_hash_reference`]: it
/// copies every kept op, collects each op's data-memory reads into a
/// fresh vector in both passes, keeps read sites in a `HashMap` and
/// dead-store liveness in a `HashSet` seeded with every variable word, and
/// counts traffic with two extra walks.
mod reference {
    use crate::{AllocOptions, AllocStats, MemLayout, RegisterPool, Residency, Resident};
    use record_codegen::{DestSim, Loc, RtOp, SimExpr};
    use record_netlist::StorageId;
    use std::collections::{HashMap, HashSet};
    use std::ops::Range;

    fn mem_traffic(ops: &[RtOp], dm: StorageId) -> (usize, usize) {
        let mut reads = 0;
        let mut writes = 0;
        for op in ops {
            count_expr_reads(&op.expr, dm, &mut reads);
            match &op.dest {
                DestSim::MemAt(s, addr) => {
                    count_expr_reads(addr, dm, &mut reads);
                    if *s == dm {
                        writes += 1;
                    }
                }
                DestSim::Loc(Loc::Mem(s, _)) => {
                    if *s == dm {
                        writes += 1;
                    }
                }
                DestSim::Loc(_) => {}
            }
        }
        (reads, writes)
    }

    fn count_expr_reads(e: &SimExpr, dm: StorageId, n: &mut usize) {
        match e {
            SimExpr::Const(_) => {}
            SimExpr::Read(Loc::Mem(s, _)) => {
                if *s == dm {
                    *n += 1;
                }
            }
            SimExpr::Read(_) => {}
            SimExpr::MemRead(s, addr) => {
                if *s == dm {
                    *n += 1;
                }
                count_expr_reads(addr, dm, n);
            }
            SimExpr::Op(_, args) => args.iter().for_each(|a| count_expr_reads(a, dm, n)),
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum MemAccess {
        Const(u64),
        Dynamic,
    }

    fn dm_reads(op: &RtOp, dm: StorageId) -> Vec<MemAccess> {
        let mut out = Vec::new();
        collect_dm_reads(&op.expr, dm, &mut out);
        if let DestSim::MemAt(_, addr) = &op.dest {
            collect_dm_reads(addr, dm, &mut out);
        }
        out
    }

    fn collect_dm_reads(e: &SimExpr, dm: StorageId, out: &mut Vec<MemAccess>) {
        match e {
            SimExpr::Const(_) => {}
            SimExpr::Read(Loc::Mem(s, a)) => {
                if *s == dm {
                    out.push(MemAccess::Const(*a));
                }
            }
            SimExpr::Read(_) => {}
            SimExpr::MemRead(s, addr) => {
                if *s == dm {
                    match **addr {
                        SimExpr::Const(a) => out.push(MemAccess::Const(a)),
                        _ => out.push(MemAccess::Dynamic),
                    }
                }
                collect_dm_reads(addr, dm, out);
            }
            SimExpr::Op(_, args) => args.iter().for_each(|a| collect_dm_reads(a, dm, out)),
        }
    }

    fn dm_write(op: &RtOp, dm: StorageId) -> Option<MemAccess> {
        match &op.dest {
            DestSim::MemAt(s, addr) if *s == dm => match addr {
                SimExpr::Const(a) => Some(MemAccess::Const(*a)),
                _ => Some(MemAccess::Dynamic),
            },
            DestSim::Loc(Loc::Mem(s, a)) if *s == dm => Some(MemAccess::Const(*a)),
            _ => None,
        }
    }

    fn as_reload(op: &RtOp, pool: &RegisterPool) -> Option<(Loc, u64)> {
        let DestSim::Loc(loc) = &op.dest else {
            return None;
        };
        if !pool.is_allocatable(loc) {
            return None;
        }
        let addr = match &op.expr {
            SimExpr::MemRead(s, addr) if *s == pool.data_mem() => match **addr {
                SimExpr::Const(a) => a,
                _ => return None,
            },
            SimExpr::Read(Loc::Mem(s, a)) if *s == pool.data_mem() => *a,
            _ => return None,
        };
        Some((loc.clone(), addr))
    }

    fn as_store(op: &RtOp, pool: &RegisterPool) -> Option<(Loc, u64)> {
        let addr = match &op.dest {
            DestSim::MemAt(s, SimExpr::Const(a)) if *s == pool.data_mem() => *a,
            DestSim::Loc(Loc::Mem(s, a)) if *s == pool.data_mem() => *a,
            _ => return None,
        };
        let SimExpr::Read(src) = &op.expr else {
            return None;
        };
        if !pool.is_allocatable(src) {
            return None;
        }
        Some((src.clone(), addr))
    }

    fn establish<F: Fn(u64, usize) -> Option<usize>>(
        ledger: &mut Residency,
        loc: Loc,
        addr: u64,
        i: usize,
        next_use: &F,
        stats: &mut AllocStats,
    ) {
        ledger.refresh_next_uses(|a| next_use(a, i));
        if let Some(ev) = ledger.insert(
            loc,
            Resident {
                addr,
                next_use: next_use(addr, i),
            },
        ) {
            stats.spills += ev.live_count();
        }
    }

    pub fn allocate(
        ops: &[RtOp],
        block_ranges: &[Range<usize>],
        pool: &RegisterPool,
        layout: MemLayout,
        options: &AllocOptions,
    ) -> (Vec<RtOp>, Vec<Range<usize>>, AllocStats) {
        let dm = layout.data_mem;
        let mut stats = AllocStats {
            ops_before: ops.len(),
            ..AllocStats::default()
        };
        (stats.reads_before, stats.writes_before) = mem_traffic(ops, dm);
        let alloc = Allocator {
            pool,
            layout,
            capacity: options
                .max_resident
                .unwrap_or_else(|| pool.capacity().min(usize::MAX as u64) as usize),
        };
        let mut out = Vec::new();
        let mut ranges = Vec::with_capacity(block_ranges.len());
        for r in block_ranges {
            let kept = alloc.residency_pass(&ops[r.clone()], &mut stats);
            let kept = alloc.dead_store_pass(kept, &mut stats);
            let start = out.len();
            out.extend(kept);
            ranges.push(start..out.len());
        }
        stats.ops_after = out.len();
        (stats.reads_after, stats.writes_after) = mem_traffic(&out, dm);
        (out, ranges, stats)
    }

    struct Allocator<'a> {
        pool: &'a RegisterPool,
        layout: MemLayout,
        capacity: usize,
    }

    impl Allocator<'_> {
        fn residency_pass(&self, ops: &[RtOp], stats: &mut AllocStats) -> Vec<RtOp> {
            let dm = self.layout.data_mem;
            let mut read_sites: HashMap<u64, Vec<usize>> = HashMap::new();
            for (i, op) in ops.iter().enumerate() {
                for r in dm_reads(op, dm) {
                    if let MemAccess::Const(a) = r {
                        read_sites.entry(a).or_default().push(i);
                    }
                }
            }
            let next_use = |addr: u64, after: usize| -> Option<usize> {
                let sites = read_sites.get(&addr)?;
                let i = sites.partition_point(|&s| s <= after);
                sites.get(i).copied()
            };
            let mut ledger = Residency::with_capacity(self.capacity.max(1));
            let mut out = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                if let Some((loc, addr)) = as_reload(op, self.pool) {
                    if ledger.holds(&loc, addr) {
                        stats.reloads_eliminated += 1;
                        continue;
                    }
                }
                let write = op.write();
                match &write {
                    Loc::Reg(_) | Loc::Rf(..) if self.pool.is_allocatable(&write) => {
                        for r in ledger.forget(&write) {
                            if next_use(r.addr, i).is_some() {
                                stats.spills += 1;
                            }
                        }
                        if let Some((loc, addr)) = as_reload(op, self.pool) {
                            establish(&mut ledger, loc, addr, i, &next_use, stats);
                        }
                    }
                    Loc::Mem(s, a) if *s == dm => {
                        ledger.forget_addr(*a);
                        if let Some((src, _)) = as_store(op, self.pool) {
                            let (Loc::Reg(storage) | Loc::Rf(storage, _)) = src else {
                                unreachable!("as_store returns register locations")
                            };
                            if self.pool.store_preserves_value(storage) {
                                establish(&mut ledger, src, *a, i, &next_use, stats);
                            }
                        }
                    }
                    Loc::MemDyn(s) if *s == dm => {
                        stats.spills += ledger
                            .residents()
                            .filter(|(_, r)| next_use(r.addr, i).is_some())
                            .count();
                        ledger.clear();
                    }
                    _ => {}
                }
                out.push(op.clone());
            }
            out
        }

        fn dead_store_pass(&self, ops: Vec<RtOp>, stats: &mut AllocStats) -> Vec<RtOp> {
            let dm = self.layout.data_mem;
            let mut live: HashSet<u64> = (0..self.layout.first_scratch).collect();
            let mut all_live = false;
            let mut keep = vec![true; ops.len()];
            for (i, op) in ops.iter().enumerate().rev() {
                if let Some(w) = dm_write(op, dm) {
                    match w {
                        MemAccess::Const(a) => {
                            if !all_live && !live.contains(&a) {
                                keep[i] = false;
                                stats.stores_eliminated += 1;
                                continue;
                            }
                            if !all_live {
                                live.remove(&a);
                            }
                        }
                        MemAccess::Dynamic => all_live = true,
                    }
                }
                for r in dm_reads(op, dm) {
                    match r {
                        MemAccess::Const(a) => {
                            live.insert(a);
                        }
                        MemAccess::Dynamic => all_live = true,
                    }
                }
            }
            ops.into_iter()
                .zip(keep)
                .filter_map(|(op, k)| k.then_some(op))
                .collect()
        }
    }
}

/// The data memory of the generated sequences, and a second memory the
/// allocator must leave alone.
const DM: StorageId = StorageId(9);
const OTHER_MEM: StorageId = StorageId(8);
/// A register outside the pool, holding computed addresses.
const ADDR_REG: StorageId = StorageId(5);

/// Two plain 16-bit registers, a 32-bit one whose stores truncate, and a
/// three-cell register file: capacity 6.
fn property_pool() -> RegisterPool {
    let class = |s: u32, width: u16, cells: u64| RegClass {
        storage: StorageId(s),
        name: format!("s{s}"),
        width,
        cells,
    };
    RegisterPool::new(
        DM,
        16,
        vec![
            class(0, 16, 1),
            class(1, 16, 1),
            class(2, 32, 1),
            class(3, 16, 3),
        ],
    )
}

/// Register `r` of the generated sequences: the pool's registers and
/// cells, and (for 6) the non-pool address register.
fn property_reg(r: u8) -> Loc {
    match r % 7 {
        0..=2 => Loc::Reg(StorageId(u32::from(r % 7))),
        k @ 3..=5 => Loc::Rf(StorageId(3), u64::from(k - 3)),
        _ => Loc::Reg(ADDR_REG),
    }
}

/// `(kind, register, address, fan-out)`: one generated op, or a run of
/// fan-out stores.
type AllocOpSpec = (u8, u8, u64, u8);

fn alloc_op_spec() -> impl Strategy<Value = AllocOpSpec> {
    (0u8..12, 0u8..7, 0u64..6, 1u8..4)
}

fn property_op(dest: DestSim, expr: SimExpr) -> RtOp {
    RtOp {
        template: TemplateId(0),
        dest,
        expr,
        transfer: None,
        cond: record_bdd::Bdd::TRUE,
    }
}

/// The ops of `spec`: reloads and stores in both address forms, register
/// modifies, computed-address reads and writes, fan-out stores, reads
/// and stores that are neither plain reloads nor plain stores, and
/// accesses to a second memory.
fn build_alloc_ops(spec: &[AllocOpSpec]) -> Vec<RtOp> {
    let mut ops = Vec::new();
    for &(kind, r, a, fan) in spec {
        let reg = property_reg(r);
        let read = || SimExpr::Read(reg.clone());
        let mem = |a| SimExpr::MemRead(DM, Arc::new(SimExpr::Const(a)));
        let computed = || SimExpr::Read(Loc::Reg(ADDR_REG));
        let add = |x, y| SimExpr::Op(record_rtl::OpKind::Add, Arc::new([x, y]));
        match kind {
            0 => ops.push(property_op(DestSim::Loc(reg.clone()), mem(a))),
            1 => ops.push(property_op(
                DestSim::Loc(reg.clone()),
                SimExpr::Read(Loc::Mem(DM, a)),
            )),
            2 => ops.push(property_op(DestSim::MemAt(DM, SimExpr::Const(a)), read())),
            3 => ops.push(property_op(DestSim::Loc(Loc::Mem(DM, a)), read())),
            4 => ops.push(property_op(
                DestSim::Loc(reg.clone()),
                add(read(), SimExpr::Const(1)),
            )),
            5 => ops.push(property_op(
                DestSim::Loc(reg.clone()),
                SimExpr::MemRead(DM, Arc::new(computed())),
            )),
            6 => ops.push(property_op(DestSim::MemAt(DM, computed()), read())),
            7 => ops.extend(
                (0..u64::from(fan))
                    .map(|k| property_op(DestSim::MemAt(DM, SimExpr::Const(a + k)), read())),
            ),
            8 => ops.push(property_op(DestSim::Loc(reg.clone()), add(read(), mem(a)))),
            9 => ops.push(property_op(
                DestSim::MemAt(DM, SimExpr::Const(a)),
                add(read(), mem(a + 1)),
            )),
            10 => ops.push(property_op(DestSim::Loc(Loc::Mem(OTHER_MEM, a)), read())),
            _ => ops.push(property_op(
                DestSim::Loc(Loc::Reg(ADDR_REG)),
                SimExpr::MemRead(OTHER_MEM, Arc::new(SimExpr::Const(a))),
            )),
        }
    }
    ops
}

/// Block ranges tiling `0..n`, cut at `cuts` (mod `n + 1`); repeated cuts
/// give empty blocks.
fn block_ranges(n: usize, cuts: &[u16]) -> Vec<std::ops::Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c as usize % (n + 1)).collect();
    bounds.sort_unstable();
    bounds.insert(0, 0);
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// One generated case: ops, block ranges, layout and options.
type AllocCase = (
    Vec<RtOp>,
    Vec<std::ops::Range<usize>>,
    MemLayout,
    AllocOptions,
);

/// `max_resident` 0 stands for `None` (the pool capacity, 6).
fn alloc_case(
    spec: &[AllocOpSpec],
    cuts: &[u16],
    first_scratch: u64,
    max_resident: usize,
) -> AllocCase {
    let ops = build_alloc_ops(spec);
    let ranges = block_ranges(ops.len(), cuts);
    let layout = MemLayout {
        data_mem: DM,
        first_scratch,
    };
    let options = AllocOptions {
        max_resident: (max_resident > 0).then_some(max_resident),
    };
    (ops, ranges, layout, options)
}

proptest! {
    #[test]
    fn allocate_matches_clone_and_hash_reference(
        spec in prop::collection::vec(alloc_op_spec(), 0..40),
        cuts in prop::collection::vec(any::<u16>(), 0..4),
        first_scratch in 0u64..8,
        max_resident in 0usize..7,
    ) {
        let (ops, ranges, layout, options) = alloc_case(&spec, &cuts, first_scratch, max_resident);
        let pool = property_pool();
        let want = reference::allocate(&ops, &ranges, &pool, layout, &options);
        let got = allocate(
            ops,
            &ranges,
            &pool,
            layout,
            &options,
            &mut record_probe::Probe::disabled(),
        );
        prop_assert_eq!(got, want);
    }
}

/// The property above is not vacuous: generated sequences span several
/// blocks and make the allocator eliminate reloads and stores and count
/// spills.
#[test]
fn generated_sequences_exercise_every_counter() {
    let mut rng = proptest::TestRng::from_name("generated_sequences_exercise_every_counter");
    let cases = (
        prop::collection::vec(alloc_op_spec(), 0..40),
        prop::collection::vec(any::<u16>(), 0..4),
        0u64..8,
        0usize..7,
    );
    let (mut total, mut blocks) = (AllocStats::default(), 0);
    for _ in 0..64 {
        let (spec, cuts, first_scratch, max_resident) = cases.new_value(&mut rng);
        let (ops, ranges, layout, options) = alloc_case(&spec, &cuts, first_scratch, max_resident);
        blocks += ranges.iter().filter(|r| !r.is_empty()).count();
        let (_, _, stats) = allocate(
            ops,
            &ranges,
            &property_pool(),
            layout,
            &options,
            &mut record_probe::Probe::disabled(),
        );
        total.reloads_eliminated += stats.reloads_eliminated;
        total.stores_eliminated += stats.stores_eliminated;
        total.spills += stats.spills;
    }
    assert!(blocks > 64, "{blocks} non-empty blocks");
    assert!(
        total.reloads_eliminated > 0 && total.stores_eliminated > 0 && total.spills > 0,
        "{total:?}"
    );
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
    let selector = Selector::generate(grammar);
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
    let codegen = record_codegen::Codegen {
        selector: &r.selector,
        base: &r.base,
        netlist: &r.netlist,
        tables: &r.tables,
    };
    let ops = codegen
        .compile(
            &cfg,
            &mut binding,
            &mut r.manager.borrow_mut(),
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
