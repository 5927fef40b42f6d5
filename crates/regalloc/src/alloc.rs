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
        for_each_dm_read(op, dm, |_| reads += 1);
        writes += usize::from(dm_write(op, dm).is_some());
    }
    (reads, writes)
}

/// A data-memory access with a statically known address, or a dynamic one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemAccess {
    Const(u64),
    Dynamic,
}

/// Calls `f` on every data-memory read of one op, in its value expression
/// and its computed destination address.  Precise, unlike
/// [`RtOp::for_each_read`], which folds every computed-address read to
/// the memory's wildcard and would defeat dead-store analysis.
fn for_each_dm_read(op: &RtOp, dm: StorageId, mut f: impl FnMut(MemAccess)) {
    dm_reads_in(&op.expr, dm, &mut f);
    if let DestSim::MemAt(_, addr) = &op.dest {
        dm_reads_in(addr, dm, &mut f);
    }
}

fn dm_reads_in<F: FnMut(MemAccess)>(e: &SimExpr, dm: StorageId, f: &mut F) {
    match e {
        SimExpr::Const(_) => {}
        SimExpr::Read(Loc::Mem(s, a)) => {
            if *s == dm {
                f(MemAccess::Const(*a));
            }
        }
        SimExpr::Read(_) => {}
        SimExpr::MemRead(s, addr) => {
            if *s == dm {
                f(match **addr {
                    SimExpr::Const(a) => MemAccess::Const(a),
                    _ => MemAccess::Dynamic,
                });
            }
            dm_reads_in(addr, dm, f);
        }
        SimExpr::Op(_, args) => args.iter().for_each(|a| dm_reads_in(a, dm, f)),
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
fn as_reload<'o>(op: &'o RtOp, pool: &RegisterPool) -> Option<(&'o Loc, u64)> {
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
    Some((loc, addr))
}

/// Is this op a plain store `dmem[const] := reg` of a pool register?
fn as_store<'o>(op: &'o RtOp, pool: &RegisterPool) -> Option<(&'o Loc, u64)> {
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
    Some((src, addr))
}

/// One block's constant data-memory addresses, indexed for both passes.
/// The vectors are rebuilt per block and reused across blocks, so memory
/// stays proportional to a block's ops, never to the declared memory.
#[derive(Debug, Default)]
struct BlockIndex {
    /// `(address, op)` for every constant-address read, sorted: a
    /// next-use query is one binary search.
    sites: Vec<(u64, usize)>,
    /// Every constant address the block reads or writes, sorted and
    /// deduplicated: the compressed address space of the block.
    addrs: Vec<u64>,
    /// Dead-store liveness per compressed address.
    live: Vec<bool>,
}

impl BlockIndex {
    /// Indexes the block `ops`, counting their data-memory reads and
    /// writes into the before-counts of `stats`.
    fn build(&mut self, ops: &[RtOp], dm: StorageId, stats: &mut AllocStats) {
        self.sites.clear();
        self.addrs.clear();
        for (i, op) in ops.iter().enumerate() {
            for_each_dm_read(op, dm, |r| {
                stats.reads_before += 1;
                if let MemAccess::Const(a) = r {
                    self.sites.push((a, i));
                }
            });
            if let Some(w) = dm_write(op, dm) {
                stats.writes_before += 1;
                if let MemAccess::Const(a) = w {
                    self.addrs.push(a);
                }
            }
        }
        self.sites.sort_unstable();
        self.addrs.extend(self.sites.iter().map(|&(a, _)| a));
        self.addrs.sort_unstable();
        self.addrs.dedup();
    }

    /// The first op after `after` that reads `addr`: for Belady ranking,
    /// and for spill accounting (a lost residency only matters if a later
    /// read exists).
    fn next_use(&self, addr: u64, after: usize) -> Option<usize> {
        let k = self.sites.partition_point(|&site| site <= (addr, after));
        self.sites
            .get(k)
            .filter(|&&(a, _)| a == addr)
            .map(|&(_, i)| i)
    }

    /// The compressed index of `addr`, a constant address of the block.
    fn slot(&self, addr: u64) -> usize {
        self.addrs
            .binary_search(&addr)
            .expect("every constant address of the block is indexed")
    }
}

/// Records in `ledger` that `loc` now mirrors `addr` as of op `i`:
/// eviction keys are refreshed first (they go stale as the pass advances),
/// and every still-live association a Belady eviction drops counts as a
/// spill (each one forces a reload RT to stay in the output).
fn establish(
    ledger: &mut Residency,
    loc: &Loc,
    addr: u64,
    i: usize,
    index: &BlockIndex,
    stats: &mut AllocStats,
) {
    ledger.refresh_next_uses(|a| index.next_use(a, i));
    let resident = Resident {
        addr,
        next_use: index.next_use(addr, i),
    };
    ledger.insert_with(loc.clone(), resident, |_, r| {
        if r.next_use.is_some() {
            stats.spills += 1;
        }
    });
}

/// Rewrites `ops` over `pool`, one basic block at a time; see the module
/// docs for the two passes.  Each pass is wrapped in a trace span on
/// `probe` (`"allocate.residency"`, `"allocate.dead-store"`).
///
/// `block_ranges` tile `0..ops.len()` in order, as emission lays blocks
/// out.  Blocks are rewritten independently: the residency ledger starts
/// empty per block (no register state is assumed across a control
/// transfer — predecessors differ and loops re-enter), and the
/// dead-store pass keeps every variable word observable at the block's
/// end.  Scratch words never escape a block (emission defines them
/// before any read in the same block), so block-local analysis loses
/// nothing.
///
/// Both passes only mark ops to drop; the survivors then move, in order,
/// within `ops`, which the call consumes: no op is copied.  Returns the
/// rewritten sequence, the new per-block op ranges (ops are only ever
/// removed, so ranges shift), and the stats.
pub fn allocate(
    mut ops: Vec<RtOp>,
    block_ranges: &[Range<usize>],
    pool: &RegisterPool,
    layout: MemLayout,
    options: &AllocOptions,
    probe: &mut record_probe::Probe<'_>,
) -> (Vec<RtOp>, Vec<Range<usize>>, AllocStats) {
    debug_assert!(
        block_ranges
            .iter()
            .try_fold(0, |end, r| (r.start == end).then_some(r.end))
            == Some(ops.len()),
        "block ranges tile the op sequence"
    );
    let mut stats = AllocStats {
        ops_before: ops.len(),
        ..AllocStats::default()
    };
    let capacity = options
        .max_resident
        .unwrap_or_else(|| pool.capacity().min(usize::MAX as u64) as usize);
    let alloc = Allocator { pool, layout };
    let mut ledger = Residency::with_capacity(capacity);
    let mut index = BlockIndex::default();
    let mut keep = vec![true; ops.len()];

    let mut ranges = Vec::with_capacity(block_ranges.len());
    let mut end = 0;
    for r in block_ranges {
        let (block, keep) = (&ops[r.clone()], &mut keep[r.clone()]);
        probe.begin("allocate.residency");
        index.build(block, layout.data_mem, &mut stats);
        ledger.clear();
        alloc.residency_pass(block, keep, &index, &mut ledger, &mut stats);
        probe.end("allocate.residency");
        probe.begin("allocate.dead-store");
        let kept = alloc.dead_store_pass(block, keep, &mut index, &mut stats);
        probe.end("allocate.dead-store");
        ranges.push(end..end + kept);
        end += kept;
    }

    let mut i = 0;
    ops.retain(|_| {
        i += 1;
        keep[i - 1]
    });
    stats.ops_after = ops.len();
    (ops, ranges, stats)
}

/// The value-placement rewriter's fixed inputs.
struct Allocator<'a> {
    pool: &'a RegisterPool,
    layout: MemLayout,
}

impl Allocator<'_> {
    /// Forward pass: drop reloads of register-resident values, clearing
    /// their `keep` marks.  `ledger` starts empty.
    fn residency_pass(
        &self,
        ops: &[RtOp],
        keep: &mut [bool],
        index: &BlockIndex,
        ledger: &mut Residency,
        stats: &mut AllocStats,
    ) {
        let dm = self.layout.data_mem;
        for (i, op) in ops.iter().enumerate() {
            // 1. Identity reload?  Drop it; the value is already resident.
            let reload = as_reload(op, self.pool);
            if let Some((loc, addr)) = reload {
                if ledger.holds(loc, addr) {
                    stats.reloads_eliminated += 1;
                    keep[i] = false;
                    continue;
                }
            }

            // 2. Apply the op's effect on the ledger.
            let write = op.write();
            match &write {
                Loc::Reg(_) | Loc::Rf(..) if self.pool.is_allocatable(&write) => {
                    ledger.forget_with(&write, |r| {
                        if index.next_use(r.addr, i).is_some() {
                            stats.spills += 1;
                        }
                    });
                    if let Some((loc, addr)) = reload {
                        // The register now mirrors the memory word.
                        establish(ledger, loc, addr, i, index, stats);
                    }
                }
                Loc::Mem(s, a) if *s == dm => {
                    self.apply_store(ledger, op, *a, i, index, stats);
                }
                Loc::MemDyn(s) if *s == dm => {
                    // Unknown address: every association may be stale.
                    // Dropped residencies with a later read are spills like
                    // any other loss path.
                    stats.spills += ledger
                        .residents()
                        .filter(|(_, r)| index.next_use(r.addr, i).is_some())
                        .count();
                    ledger.clear();
                }
                _ => {}
            }
            // `DestSim::MemAt` with a constant address surfaces as
            // `Loc::Mem` through `RtOp::write`; dynamic ones as `MemDyn`.
        }
    }

    /// Ledger effect of a store to constant address `addr`.
    fn apply_store(
        &self,
        ledger: &mut Residency,
        op: &RtOp,
        addr: u64,
        i: usize,
        index: &BlockIndex,
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
                Loc::Reg(s) | Loc::Rf(s, _) => *s,
                _ => unreachable!("as_store returns register locations"),
            };
            if self.pool.store_preserves_value(storage) {
                establish(ledger, src, addr, i, index, stats);
            }
        }
    }

    /// Backward pass: remove stores no one reads before the next definite
    /// overwrite, clearing their `keep` marks, and count the data-memory
    /// traffic of the ops that stay.  Variable words (below the scratch
    /// watermark) count as read at program end; scratch words do not.
    /// Returns the number of ops kept.
    fn dead_store_pass(
        &self,
        ops: &[RtOp],
        keep: &mut [bool],
        index: &mut BlockIndex,
        stats: &mut AllocStats,
    ) -> usize {
        let dm = self.layout.data_mem;
        // `live`: addresses whose current value may still be read.  At the
        // end of the program every variable word is observable (the oracle
        // compares them); scratch words above the watermark are not.
        // Addresses the block never names cannot matter, so liveness is
        // kept over the block's compressed addresses only.
        let first_scratch = self.layout.first_scratch;
        index.live.clear();
        index
            .live
            .extend(index.addrs.iter().map(|&a| a < first_scratch));
        let mut all_live = false;
        let mut kept = 0;

        for (i, op) in ops.iter().enumerate().rev() {
            if !keep[i] {
                continue;
            }
            if let Some(w) = dm_write(op, dm) {
                match w {
                    MemAccess::Const(a) => {
                        if !all_live {
                            let k = index.slot(a);
                            if !index.live[k] {
                                keep[i] = false;
                                stats.stores_eliminated += 1;
                                continue;
                            }
                            // This write supplies the observed value;
                            // earlier values of `a` are dead until an
                            // earlier read appears.
                            index.live[k] = false;
                        }
                    }
                    MemAccess::Dynamic => {
                        // May or may not overwrite anything: proves no
                        // earlier store dead, keeps everything live.
                        all_live = true;
                    }
                }
                stats.writes_after += 1;
            }
            kept += 1;
            for_each_dm_read(op, dm, |r| {
                stats.reads_after += 1;
                match r {
                    MemAccess::Const(a) => {
                        let k = index.slot(a);
                        index.live[k] = true;
                    }
                    MemAccess::Dynamic => all_live = true,
                }
            });
        }
        kept
    }
}
