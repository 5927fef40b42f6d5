//! The allocating rewriter: keeps operand values register-resident across
//! statements instead of round-tripping them through data memory.
//!
//! Input is the vertical [`RtOp`] sequence the emitter produced, in which
//! every statement ends by storing its result to data memory and every
//! operand begins life as a memory read.  Two passes rewrite it:
//!
//! 1. **Residency (forward).**  A [`Residency`] ledger tracks, per pool
//!    register, which data-memory word's value it currently holds (exact
//!    value equality, established by stores `dmem[a] := r` and reloads
//!    `r := dmem[a]`, invalidated by any write to either side).  A reload
//!    whose destination register *already holds* the loaded word is the
//!    identity and is dropped; every other op is emitted unchanged — so
//!    reload RTs appear in the output exactly where residency was lost
//!    (the register was clobbered, or the ledger overflowed and evicted
//!    the association).
//! 2. **Dead-store elimination (backward).**  After reloads disappear,
//!    intermediate result stores often have no remaining reader before the
//!    next store to the same word.  Program variables stay observable at
//!    the end of the program (the simulator oracle compares them); spill
//!    scratch words above the binding watermark do not.
//!
//! Both passes only ever *remove* provably-identity operations, so the
//! rewritten code computes bit-identical final variable values on the
//! [`record_codegen::Machine`] oracle while making strictly fewer data
//! memory accesses whenever the source reuses a value.

use crate::pool::{RegisterPool, Residency, Resident};
use record_codegen::{Binding, DestSim, Loc, RtOp, SimExpr};
use record_netlist::StorageId;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Options for [`allocate`].
#[derive(Debug, Clone, Default)]
pub struct AllocOptions {
    /// Caps the number of simultaneously tracked register residencies;
    /// `None` uses the pool capacity (every physical cell).  Lower values
    /// force pool overflow and are mainly useful for testing the eviction
    /// path.
    pub max_resident: Option<usize>,
}

/// Counters describing what the allocator did to one kernel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// RT operations before / after rewriting.
    pub ops_before: usize,
    pub ops_after: usize,
    /// Reload RTs dropped because the value was register-resident.
    pub reloads_eliminated: usize,
    /// Dead data-memory stores removed.
    pub stores_eliminated: usize,
    /// Residencies lost (register clobbered or ledger overflow) while the
    /// memory word still had a later read — each one forces a reload RT to
    /// stay in the output.
    pub spills: usize,
    /// Data-memory reads before / after.
    pub reads_before: usize,
    pub reads_after: usize,
    /// Data-memory writes before / after.
    pub writes_before: usize,
    pub writes_after: usize,
}

impl AllocStats {
    /// Total data-memory accesses before rewriting.
    pub fn accesses_before(&self) -> usize {
        self.reads_before + self.writes_before
    }

    /// Total data-memory accesses after rewriting.
    pub fn accesses_after(&self) -> usize {
        self.reads_after + self.writes_after
    }

    /// Accesses removed.
    pub fn accesses_saved(&self) -> usize {
        self.accesses_before() - self.accesses_after()
    }
}

/// Memory layout facts the allocator needs from the binding phase.
#[derive(Debug, Clone, Copy)]
pub struct MemLayout {
    /// The data memory program variables live in.
    pub data_mem: StorageId,
    /// First address above the variable area: everything from here up is
    /// compiler scratch, unobservable at program end.
    pub first_scratch: u64,
}

impl MemLayout {
    /// Extracts the layout from a binding.
    pub fn from_binding(binding: &Binding) -> MemLayout {
        MemLayout {
            data_mem: binding.data_mem(),
            first_scratch: binding.scratch_mark(),
        }
    }
}

/// Counts data-memory reads and writes of an op sequence (constant and
/// computed addresses alike; one access per textual occurrence).
pub fn mem_traffic(ops: &[RtOp], dm: StorageId) -> (usize, usize) {
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

/// A data-memory access with a statically known address, or a dynamic one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemAccess {
    Const(u64),
    Dynamic,
}

/// Precise data-memory read set of one op (the conservative
/// [`RtOp::reads`] folds every memory read to "dynamic", which would
/// defeat dead-store analysis).
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

/// The data-memory write of one op, if any.
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

/// Is this op a pure reload `reg := dmem[const]` of a pool register?
/// Returns the register and the loaded address.
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

/// Is this op a plain store `dmem[const] := reg` of a pool register?
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

/// Records in `ledger` that `loc` now mirrors `addr` as of op `i`:
/// eviction keys are refreshed first (they go stale as the pass advances),
/// and every still-live association a Belady eviction drops counts as a
/// spill (each one forces a reload RT to stay in the output).
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

/// Rewrites `ops` over `pool`, one basic block at a time; see the module
/// docs for the two passes.  Each pass is wrapped in a trace span on
/// `probe` (`"allocate.residency"`, `"allocate.dead-store"`).
///
/// Blocks are rewritten independently: the residency ledger starts
/// empty per block (no register state is assumed across a control
/// transfer — predecessors differ and loops re-enter), and the
/// dead-store pass keeps every variable word observable at the block's
/// end.  Scratch words never escape a block (emission defines them
/// before any read in the same block), so block-local analysis loses
/// nothing.
///
/// Returns the rewritten sequence, the new per-block op ranges (ops are
/// only ever removed, so ranges shift), and the stats.
pub fn allocate(
    ops: &[RtOp],
    block_ranges: &[Range<usize>],
    pool: &RegisterPool,
    layout: MemLayout,
    options: &AllocOptions,
    probe: &mut record_probe::Probe<'_>,
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
        probe.begin("allocate.residency");
        let kept = alloc.residency_pass(&ops[r.clone()], &mut stats);
        probe.end("allocate.residency");
        probe.begin("allocate.dead-store");
        let kept = alloc.dead_store_pass(kept, &mut stats);
        probe.end("allocate.dead-store");
        let start = out.len();
        // Moving the first block's ops in, rather than copying them, keeps
        // a straight-line function at one op vector.
        if out.is_empty() {
            out = kept;
        } else {
            out.extend(kept);
        }
        ranges.push(start..out.len());
    }

    stats.ops_after = out.len();
    (stats.reads_after, stats.writes_after) = mem_traffic(&out, dm);
    (out, ranges, stats)
}

/// The value-placement rewriter's fixed inputs.
struct Allocator<'a> {
    pool: &'a RegisterPool,
    layout: MemLayout,
    /// Most register residencies tracked at once.
    capacity: usize,
}

impl Allocator<'_> {
    /// Forward pass: drop reloads of register-resident values.
    fn residency_pass(&self, ops: &[RtOp], stats: &mut AllocStats) -> Vec<RtOp> {
        let dm = self.layout.data_mem;
        // Read sites per constant address, for Belady ranking and for
        // spill accounting (a lost residency only matters if a later read
        // exists).
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
            // 1. Identity reload?  Drop it; the value is already resident.
            if let Some((loc, addr)) = as_reload(op, self.pool) {
                if ledger.holds(&loc, addr) {
                    stats.reloads_eliminated += 1;
                    continue;
                }
            }

            // 2. Apply the op's effect on the ledger.
            let write = op.write();
            match &write {
                Loc::Reg(_) | Loc::Rf(..) if self.pool.is_allocatable(&write) => {
                    for r in ledger.forget(&write) {
                        if next_use(r.addr, i).is_some() {
                            stats.spills += 1;
                        }
                    }
                    if let Some((loc, addr)) = as_reload(op, self.pool) {
                        // The register now mirrors the memory word.
                        establish(&mut ledger, loc, addr, i, &next_use, stats);
                    }
                }
                Loc::Mem(s, a) if *s == dm => {
                    self.apply_store(&mut ledger, op, *a, i, &next_use, stats);
                }
                Loc::MemDyn(s) if *s == dm => {
                    // Unknown address: every association may be stale.
                    // Dropped residencies with a later read are spills like
                    // any other loss path.
                    stats.spills += ledger
                        .residents()
                        .filter(|(_, r)| next_use(r.addr, i).is_some())
                        .count();
                    ledger.clear();
                }
                _ => {}
            }
            // `DestSim::MemAt` with a constant address surfaces as
            // `Loc::Mem` through `RtOp::write`; dynamic ones as `MemDyn`.

            out.push(op.clone());
        }
        out
    }

    /// Ledger effect of a store to constant address `addr`.
    fn apply_store<F: Fn(u64, usize) -> Option<usize>>(
        &self,
        ledger: &mut Residency,
        op: &RtOp,
        addr: u64,
        i: usize,
        next_use: &F,
        stats: &mut AllocStats,
    ) {
        // The memory word changed: registers holding its old value are
        // stale.
        ledger.forget_addr(addr);
        // If the stored value came straight from a pool register whose
        // store loses no bits, that register now mirrors the word.
        if let Some((src, a)) = as_store(op, self.pool) {
            debug_assert_eq!(a, addr);
            let storage = match src {
                Loc::Reg(s) | Loc::Rf(s, _) => s,
                _ => unreachable!("as_store returns register locations"),
            };
            if self.pool.store_preserves_value(storage) {
                establish(ledger, src, addr, i, next_use, stats);
            }
        }
    }

    /// Backward pass: remove stores no one reads before the next definite
    /// overwrite.  Variable words (below the scratch watermark) count as
    /// read at program end; scratch words do not.
    fn dead_store_pass(&self, ops: Vec<RtOp>, stats: &mut AllocStats) -> Vec<RtOp> {
        let dm = self.layout.data_mem;
        // `live`: addresses whose current value may still be read.  At the
        // end of the program every variable word is observable (the oracle
        // compares them); scratch words above the watermark are not.
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
                        // This write supplies the observed value; earlier
                        // values of `a` are dead until an earlier read
                        // appears.
                        if !all_live {
                            live.remove(&a);
                        }
                    }
                    MemAccess::Dynamic => {
                        // May or may not overwrite anything: proves no
                        // earlier store dead, keeps everything live.
                        all_live = true;
                    }
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
