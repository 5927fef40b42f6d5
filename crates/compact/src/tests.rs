use crate::*;
use proptest::prelude::*;
use record_bdd::BddManager;
use record_codegen::{Binding, DestSim, Machine, Transfer};
use record_grammar::TreeGrammar;
use record_netlist::{ProcPortId, StorageId};
use record_rtl::{OpKind, TemplateId};
use record_selgen::Selector;
use std::sync::Arc;

/// A horizontal two-register machine: r1 and r2 load from independent
/// fields, so independent RTs pack into one word; the shared ALU writes
/// only r1.
const HORIZ: &str = r#"
    module Reg16 {
        in d: bit(16);
        ctrl en: bit(1);
        out q: bit(16);
        register q = d when en == 1;
    }
    module Alu {
        in a: bit(16);
        in b: bit(16);
        ctrl f: bit(1);
        out y: bit(16);
        behavior {
            case f { 0 => y = a + b; 1 => y = a - b; }
        }
    }
    module Mux2 {
        in a: bit(16);
        in b: bit(16);
        ctrl s: bit(1);
        out y: bit(16);
        behavior { case s { 0 => y = a; 1 => y = b; } }
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
    processor Horiz {
        instruction word: bit(16);
        parts {
            r1: Reg16; r2: Reg16; alu: Alu; r1mux: Mux2; ram: Ram;
        }
        connections {
            alu.a = r1.q;
            alu.b = r2.q;
            alu.f = I[0];
            r1mux.a = alu.y;
            r1mux.b = ram.dout;
            r1mux.s = I[1];
            r1.d = r1mux.y;
            r1.en = I[2];
            r2.d = ram.dout;
            r2.en = I[3];
            ram.addr = I[7:4];
            ram.din = r1.q;
            ram.w = I[8];
        }
    }
"#;

struct Rig {
    netlist: record_netlist::Netlist,
    base: record_rtl::TemplateBase,
    selector: Selector,
    manager: record_bdd::BddManager,
    tables: record_codegen::EmitTables,
}

fn rig() -> Rig {
    let model = record_hdl::parse(HORIZ).expect("parses");
    let netlist = record_netlist::elaborate(&model).expect("elaborates");
    let ex = record_isex::extract(&netlist, &Default::default()).expect("extracts");
    let grammar = TreeGrammar::from_base(&ex.base, &netlist);
    let selector = Selector::generate(grammar);
    let mut manager = ex.manager;
    let tables = record_codegen::EmitTables::build(&netlist, &mut manager, netlist.iword_width());
    Rig {
        netlist,
        base: ex.base,
        selector,
        manager,
        tables,
    }
}

fn compile(r: &mut Rig, src: &str) -> (Vec<record_codegen::RtOp>, Binding) {
    let prog = record_ir::parse(src).expect("mini-C parses");
    let cfg = record_ir::lower_cfg(&prog, "f").expect("lowers");
    let dm = r.netlist.storage_by_name("ram").unwrap().id;
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
            &mut r.manager,
            &mut record_probe::Probe::disabled(),
        )
        .expect("compiles")
        .ops;
    (ops, binding)
}

/// Compacts `ops` as one block.
fn compact_one(ops: &[RtOp], manager: &mut BddOverlay<'_>) -> Schedule {
    compact(ops, std::slice::from_ref(&(0..ops.len())), manager)
}

#[test]
fn independent_loads_share_a_word() {
    let mut r = rig();
    // x = x + y loads r1 (from x) and r2 (from y) independently: the two
    // loads are encoding-compatible (different enable bits, same address
    // field only if addresses are equal -- here they differ, so the loads
    // cannot actually share the address field).
    // Use x + x: both loads read the same address and can share.
    let (ops, _) = compile(&mut r, "int x; void f() { x = x + x; }");
    let schedule = compact_one(&ops, &mut r.manager);
    assert!(
        schedule.len() < ops.len(),
        "{} < {}",
        schedule.len(),
        ops.len()
    );
}

#[test]
fn address_field_conflict_prevents_packing() {
    let mut r = rig();
    // Loading r1 from x and r2 from y needs two different values in the
    // single address field: never packable.
    let (ops, binding) = compile(&mut r, "int x, y; void f() { x = x + y; }");
    let schedule = compact_one(&ops, &mut r.manager);
    // Every op that reads a distinct address must be in its own word,
    // so compaction saves at most nothing here beyond sequential.
    let x = binding.assignments().find(|(n, _)| *n == "x").unwrap().1;
    let y = binding.assignments().find(|(n, _)| *n == "y").unwrap().1;
    assert_ne!(x, y);
    // r1 := ram[x]; r2 := ram[y]; r1 := r1+r2; ram[x] := r1  -- 4 words.
    assert_eq!(schedule.len(), 4);
    assert_eq!(ops.len(), 4);
}

#[test]
fn flow_dependence_is_respected() {
    let mut r = rig();
    let (ops, _) = compile(&mut r, "int x; void f() { x = x + x; }");
    let schedule = compact_one(&ops, &mut r.manager);
    // The ALU op must come after the loads; the store after the ALU op.
    let words = schedule.words();
    let pos = |opi: usize| words.iter().position(|w| w.ops.contains(&opi)).unwrap();
    // op order: load r1, load r2, add, store
    assert!(pos(0) < pos(2));
    assert!(pos(1) < pos(2));
    assert!(pos(2) < pos(3));
}

#[test]
fn compacted_execution_matches_vertical() {
    let mut r = rig();
    let (ops, binding) = compile(&mut r, "int x, y; void f() { x = x + x; y = x - y; }");
    let schedule = compact_one(&ops, &mut r.manager);
    let dm = r.netlist.storage_by_name("ram").unwrap().id;
    let x = binding.assignments().find(|(n, _)| *n == "x").unwrap().1;
    let y = binding.assignments().find(|(n, _)| *n == "y").unwrap().1;

    let mut vertical = Machine::new(&r.netlist);
    vertical.set_mem(dm, x, 21);
    vertical.set_mem(dm, y, 5);
    vertical.run(&ops);

    let mut horizontal = Machine::new(&r.netlist);
    horizontal.set_mem(dm, x, 21);
    horizontal.set_mem(dm, y, 5);
    horizontal.run_compacted(&schedule.materialize(&ops));

    assert_eq!(vertical.mem(dm, x), horizontal.mem(dm, x));
    assert_eq!(vertical.mem(dm, y), horizontal.mem(dm, y));
    assert_eq!(vertical.mem(dm, x), 42);
}

#[test]
fn empty_sequence() {
    let mut m = record_bdd::BddManager::new();
    let s = compact_one(&[], &mut m);
    assert!(s.is_empty());
    assert_eq!(s.len(), 0);
}

/// Every location `op` reads, as [`RtOp::for_each_read`] visits them.
fn reads_of(op: &RtOp) -> Vec<Loc> {
    let mut out = Vec::new();
    op.for_each_read(|l| out.push(l.clone()));
    out
}

/// The all-pairs dependence scan the scoreboard replaced, kept as its
/// reference: every op rescans every op already placed, pair by pair
/// through [`Loc::may_alias`].  The encoding scan is the same.
fn reference_compact(ops: &[RtOp], manager: &mut BddOverlay<'_>) -> Schedule {
    let mut schedule = Schedule::default();
    let mut word_conds: Vec<Bdd> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let reads = reads_of(op);
        let write = op.write();
        let mut earliest = 0usize;
        for (wi, word) in schedule.words.iter().enumerate() {
            for &j in &word.ops {
                let other = &ops[j];
                let ow = other.write();
                // Flow and output dependences.
                if reads.iter().any(|r| r.may_alias(&ow)) || write.may_alias(&ow) {
                    earliest = earliest.max(wi + 1);
                }
                // Anti dependence: sharing the reader's word is legal.
                if reads_of(other).iter().any(|r| r.may_alias(&write)) {
                    earliest = earliest.max(wi);
                }
            }
        }
        let mut placed = None;
        for (wi, &cond) in word_conds.iter().enumerate().skip(earliest) {
            schedule.stats.sat_checks += 1;
            let joint = manager.and(cond, op.cond);
            if manager.is_sat(joint) {
                placed = Some((wi, joint));
                break;
            }
            schedule.stats.sat_rejects += 1;
        }
        match placed {
            Some((wi, joint)) => {
                schedule.words[wi].ops.push(i);
                word_conds[wi] = joint;
            }
            None => {
                schedule.words.push(Word { ops: vec![i] });
                word_conds.push(op.cond);
            }
        }
    }
    schedule
}

/// Per-block reference: each stretch compacted on its own by
/// [`reference_compact`], its words shifted back to absolute indices.
fn reference_compact_cfg(
    ops: &[RtOp],
    block_ranges: &[Range<usize>],
    manager: &mut BddOverlay<'_>,
) -> Schedule {
    let mut out = Schedule::default();
    let flush = |run: Range<usize>, out: &mut Schedule, manager: &mut BddOverlay<'_>| {
        let s = reference_compact(&ops[run.clone()], manager);
        out.stats.sat_checks += s.stats.sat_checks;
        out.stats.sat_rejects += s.stats.sat_rejects;
        out.words.extend(s.words.into_iter().map(|w| Word {
            ops: w.ops.iter().map(|&k| k + run.start).collect(),
        }));
    };
    for r in block_ranges {
        let mut run_start = r.start;
        for i in r.clone() {
            if ops[i].transfer.is_some() {
                flush(run_start..i, &mut out, manager);
                out.words.push(Word { ops: vec![i] });
                run_start = i + 1;
            }
        }
        flush(run_start..r.end, &mut out, manager);
    }
    out
}

/// `(kind, storage, index)`: one operand or destination of a generated op.
type LocSpec = (u8, u32, u64);

/// `(destination, operands, condition literals, transfer selector)`.
type OpSpec = (LocSpec, Vec<LocSpec>, Vec<(u32, bool)>, u8);

/// Condition variables: few enough that random conjunctions often agree
/// (words pack) and often contradict (SAT checks reject).
const COND_VARS: u32 = 4;

/// Storage ids are shared across location kinds, so `Reg(s)`, `Rf(s, _)`,
/// `Mem(s, _)` and `Port(s)` with equal `s` test that only memory kinds
/// alias each other.
fn loc_spec() -> impl Strategy<Value = LocSpec> {
    (0u8..6, 0u32..2, 0u64..3)
}

fn op_spec() -> impl Strategy<Value = OpSpec> {
    (
        loc_spec(),
        prop::collection::vec(loc_spec(), 0..4),
        prop::collection::vec((0u32..COND_VARS, any::<bool>()), 0..3),
        0u8..8,
    )
}

fn fixed_loc(kind: u8, s: u32, i: u64) -> Loc {
    match kind {
        0 => Loc::Reg(StorageId(s)),
        1 => Loc::Rf(StorageId(s), i),
        2 => Loc::Mem(StorageId(s), i),
        _ => Loc::Port(ProcPortId(s)),
    }
}

/// A computed address, read from a register or register-file cell.
fn address(i: u64) -> SimExpr {
    SimExpr::Read(match i {
        0 => Loc::Reg(StorageId(0)),
        1 => Loc::Rf(StorageId(0), 1),
        _ => Loc::Reg(StorageId(1)),
    })
}

fn operand((kind, s, i): LocSpec) -> SimExpr {
    match kind {
        0..=3 => SimExpr::Read(fixed_loc(kind, s, i)),
        4 => SimExpr::MemRead(StorageId(s), Arc::new(address(i))),
        _ => SimExpr::Const(i),
    }
}

fn dest((kind, s, i): LocSpec) -> DestSim {
    match kind {
        0..=3 => DestSim::Loc(fixed_loc(kind, s, i)),
        4 => DestSim::MemAt(StorageId(s), address(i)),
        _ => DestSim::MemAt(StorageId(s), SimExpr::Const(i)),
    }
}

/// Builds the ops of `spec`, their conditions conjunctions of literals
/// in `m`.  About a quarter are control transfers.
fn build_ops(spec: &[OpSpec], m: &mut BddManager) -> Vec<RtOp> {
    let vars: Vec<_> = (0..COND_VARS).map(|k| m.var_id(&format!("v{k}"))).collect();
    spec.iter()
        .map(|(d, operands, literals, transfer)| {
            let expr = operands
                .iter()
                .map(|&o| operand(o))
                .reduce(|a, b| SimExpr::Op(OpKind::Add, Arc::new([a, b])))
                .unwrap_or(SimExpr::Const(0));
            let cond = literals.iter().fold(m.constant(true), |c, &(v, phase)| {
                let lit = m.literal(vars[v as usize], phase);
                m.and(c, lit)
            });
            let transfer = match transfer {
                0 => Some(Transfer::Always),
                1 => Some(Transfer::Cond {
                    test: operand(*d),
                    value: 0,
                    eq: true,
                }),
                _ => None,
            };
            RtOp {
                template: TemplateId(0),
                dest: dest(*d),
                expr,
                transfer,
                cond,
            }
        })
        .collect()
}

/// Block ranges covering `0..n`, cut at `cuts` (mod `n + 1`); repeated
/// cuts give empty blocks.
fn block_ranges(n: usize, cuts: &[u16]) -> Vec<Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c as usize % (n + 1)).collect();
    bounds.sort_unstable();
    bounds.insert(0, 0);
    bounds.push(n);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

proptest! {
    #[test]
    fn scoreboard_matches_all_pairs_scan(
        spec in prop::collection::vec(op_spec(), 0..48),
        cuts in prop::collection::vec(any::<u16>(), 0..4),
    ) {
        let mut m = BddManager::new();
        let ops = build_ops(&spec, &mut m);
        let ranges = block_ranges(ops.len(), &cuts);
        prop_assert_eq!(
            compact(&ops, &ranges, &mut m),
            reference_compact_cfg(&ops, &ranges, &mut m)
        );
    }
}

/// The property above is not vacuous: generated sequences pack words,
/// and their SAT checks both accept and reject.
#[test]
fn generated_sequences_pack_and_reject() {
    let mut rng = proptest::TestRng::from_name("generated_sequences_pack_and_reject");
    let sequences = prop::collection::vec(op_spec(), 0..48);
    let (mut ops, mut words) = (0, 0);
    let mut stats = CompactStats::default();
    for _ in 0..64 {
        let mut m = BddManager::new();
        let seq = build_ops(&sequences.new_value(&mut rng), &mut m);
        let s = compact_one(&seq, &mut m);
        ops += seq.len();
        words += s.len();
        stats.sat_checks += s.stats().sat_checks;
        stats.sat_rejects += s.stats().sat_rejects;
    }
    assert!(words < ops, "{words} words for {ops} ops");
    assert!(
        0 < stats.sat_rejects && stats.sat_rejects < stats.sat_checks,
        "{stats:?}"
    );
}
