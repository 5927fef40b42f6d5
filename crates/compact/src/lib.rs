//! Code compaction: vertical RT code → horizontal instruction words.
//!
//! Code selection produces *vertical* code — one RT per instruction.
//! Machines with instruction-level parallelism (horizontal or partially
//! encoded formats) can execute several RTs per word when their execution
//! conditions are jointly satisfiable.  This crate implements the
//! compaction phase the paper defers to its companion work (Leupers &
//! Marwedel, "Time-constrained Code Compaction for DSPs", ISSS 1995) in its
//! greedy list-scheduling form:
//!
//! * **Data dependences** are derived from the concrete read/write sets of
//!   each RT.  Semantics are *time-stationary* (paper table 1): all RTs of
//!   one word read pre-state, so an anti-dependence (write-after-read) may
//!   share a word with the read, while flow (read-after-write) and output
//!   (write-after-write) dependences force a later word.
//! * **Encoding compatibility** is the satisfiability of the conjunction
//!   of execution conditions — the same BDDs instruction-set extraction
//!   built.  Two RTs whose partial instructions conflict in any bit can
//!   never share a word, exactly as in the paper's §2.
//!
//! The number of words after compaction is the code-size metric of the
//! paper's Figure 2.
//!
//! # The dependence scoreboard
//!
//! An RT's earliest legal word comes from a scoreboard, not from a scan
//! over the RTs already placed.  The scoreboard keeps, per location, the
//! latest word that wrote it and the latest word that read it.  The bound
//! is the latest aliasing writer of any read or of the write, plus one,
//! maxed with the latest aliasing reader of the write.  Aliasing follows
//! [`Loc::may_alias`] exactly: a fixed memory word `Mem(s, a)` meets the
//! entries for `Mem(s, a)` and for the computed-address wildcard
//! `MemDyn(s)`, a `MemDyn(s)` meets a per-storage maximum over every word
//! of `s`, and every other location meets only itself.  Entries keep the
//! maximum word, because an RT may join a word earlier than the last.
//!
//! Each RT's reads are walked once.  Every location read or written
//! resolves to its entries once: registers, ports and memory wildcards
//! by index into vectors over storage and port ids, a fixed memory word
//! or register-file cell by one lookup in a keyed hash map.  The bound
//! and the update after placement reuse those keys, so the dependence
//! bound costs O(|reads|) per RT and O(Σ|reads|) per sequence, with at
//! most one hash per fixed word accessed.  Comparing each RT with every
//! RT already placed would cost O(n²) and gives the same bound (the unit
//! tests keep that scan as the reference).  The encoding-compatibility scan then tries the words
//! from the bound onward, so its BDD work depends only on the bound.
//! [`CompactStats`] counts that scan's satisfiability checks, which tells
//! a dependence-bound machine (no checks at all) from an encoding-bound
//! one (every check rejected).
//!
//! # Example
//!
//! See `record-core`'s `Target::compile`, which feeds emitted RT ops
//! through [`compact`].

use std::collections::HashMap;
use std::ops::Range;

use record_bdd::{Bdd, BddOverlay};
use record_codegen::{Loc, RtOp, SimExpr};

/// One horizontal instruction word: indices into the original op sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word {
    /// Positions (in the vertical sequence) of the RTs in this word.
    pub ops: Vec<usize>,
}

/// The encoding-compatibility work of one compaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Joint-satisfiability checks of an RT against a candidate word.
    pub sat_checks: u64,
    /// Checks that found the conjunction unsatisfiable.
    pub sat_rejects: u64,
}

/// The result of compaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    words: Vec<Word>,
    stats: CompactStats,
}

impl Schedule {
    /// Instruction words in execution order.
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// Code size in instruction words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Is the schedule empty?
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The satisfiability checks compaction made.
    pub fn stats(&self) -> CompactStats {
        self.stats
    }

    /// Materialises the schedule as owned op groups (for simulation).
    ///
    /// Transfer targets are rewritten from vertical *op* indices to the
    /// *word* indices those ops landed in (`ops.len()` — the halt target —
    /// maps to `words.len()`).  [`compact`] starts every block in a
    /// fresh word, so a block-entry op always heads its word and the
    /// rewrite never makes a jump re-execute a predecessor's RTs.
    pub fn materialize(&self, ops: &[RtOp]) -> Vec<Vec<RtOp>> {
        let mut word_of = vec![0usize; ops.len()];
        for (wi, w) in self.words.iter().enumerate() {
            for &i in &w.ops {
                word_of[i] = wi;
            }
        }
        self.words
            .iter()
            .map(|w| {
                w.ops
                    .iter()
                    .map(|&i| {
                        let mut op = ops[i].clone();
                        if op.transfer.is_some() {
                            if let SimExpr::Const(t) = op.expr {
                                let target = t as usize;
                                let wt = if target >= ops.len() {
                                    self.words.len()
                                } else {
                                    word_of[target]
                                };
                                op.expr = SimExpr::Const(wt as u64);
                            }
                        }
                        op
                    })
                    .collect()
            })
            .collect()
    }

    /// Compacts `ops[run]` into fresh words appended to this schedule,
    /// over `board`, which it clears first.  `reads` is scratch space for
    /// the keys of one op's reads.
    fn compact_run(
        &mut self,
        ops: &[RtOp],
        run: Range<usize>,
        manager: &mut BddOverlay<'_>,
        board: &mut Scoreboard,
        reads: &mut Vec<Key>,
    ) {
        board.clear();
        let first = self.words.len();
        let mut word_conds: Vec<Bdd> = Vec::new();

        for i in run {
            let op = &ops[i];
            reads.clear();
            op.for_each_read(|l| reads.push(board.key(l)));
            let write = board.key(&op.write());

            // Flow and output dependences force a later word than the
            // writer's.  An anti dependence (an earlier op reads what this
            // one writes) allows the reader's own word: time-stationary
            // words read pre-state.
            let earliest = reads
                .iter()
                .chain([&write])
                .filter_map(|&k| board.aliasing(k, Access::Write))
                .map(|w| w + 1)
                .chain(board.aliasing(write, Access::Read))
                .max()
                .unwrap_or(0);

            // First encoding-compatible word at or after `earliest`.
            let mut placed = None;
            for (wi, &cond) in word_conds.iter().enumerate().skip(earliest) {
                self.stats.sat_checks += 1;
                let joint = manager.and(cond, op.cond);
                if manager.is_sat(joint) {
                    placed = Some((wi, joint));
                    break;
                }
                self.stats.sat_rejects += 1;
            }
            let wi = match placed {
                Some((wi, joint)) => {
                    self.words[first + wi].ops.push(i);
                    word_conds[wi] = joint;
                    wi
                }
                None => {
                    self.words.push(Word { ops: vec![i] });
                    word_conds.push(op.cond);
                    word_conds.len() - 1
                }
            };
            board.record(write, Access::Write, wi);
            for &k in reads.iter() {
                board.record(k, Access::Read, wi);
            }
        }
    }
}

/// The side of the dependence scoreboard an access lands on.
#[derive(Clone, Copy)]
enum Access {
    Write = 0,
    Read = 1,
}

/// The latest word holding a write and the latest holding a read of one
/// location, indexed by [`Access`].
type Latest = [Option<usize>; 2];

/// Where a location's entries sit on the [`Scoreboard`].
#[derive(Clone, Copy)]
enum Key {
    /// `Reg(s)`: index `s`.
    Reg(usize),
    /// `Port(p)`: index `p`.
    Port(usize),
    /// `Rf(s, c)`: a slot of the fixed locations.
    Cell(usize),
    /// `Mem(s, a)`: a slot of the fixed locations, and memory `s`.
    Word(usize, usize),
    /// `MemDyn(s)`: memory `s`.
    Wildcard(usize),
}

/// The dependence scoreboard of one straight-line run: the latest word
/// holding an access to each location.  Registers, ports and memories
/// sit in vectors indexed by storage or port id; only fixed memory words
/// and register-file cells, whose indices a program chooses, go through
/// a (keyed) hash map.
#[derive(Default)]
struct Scoreboard {
    regs: Vec<Latest>,
    ports: Vec<Latest>,
    /// Per memory: the computed-address wildcard `MemDyn(s)` itself.
    wildcard: Vec<Latest>,
    /// Per memory: any word of it, fixed or computed.
    memory: Vec<Latest>,
    /// The slot in `fixed` of each `Mem(s, a)` and `Rf(s, c)` seen.
    slots: HashMap<Loc, usize>,
    fixed: Vec<Latest>,
}

/// Grows `v` to hold index `i`; returns `i`.
fn index(v: &mut Vec<Latest>, i: u32) -> usize {
    let i = i as usize;
    if v.len() <= i {
        v.resize(i + 1, [None; 2]);
    }
    i
}

impl Scoreboard {
    /// Forgets every access, keeping the storage.
    fn clear(&mut self) {
        for v in [
            &mut self.regs,
            &mut self.ports,
            &mut self.wildcard,
            &mut self.memory,
        ] {
            v.fill([None; 2]);
        }
        self.slots.clear();
        self.fixed.clear();
    }

    /// The entries of `loc`, made on first sight.
    fn key(&mut self, loc: &Loc) -> Key {
        match *loc {
            Loc::Reg(s) => Key::Reg(index(&mut self.regs, s.0)),
            Loc::Port(p) => Key::Port(index(&mut self.ports, p.0)),
            Loc::Rf(..) => Key::Cell(self.slot(loc)),
            Loc::Mem(s, _) => Key::Word(self.slot(loc), self.memory_index(s.0)),
            Loc::MemDyn(s) => Key::Wildcard(self.memory_index(s.0)),
        }
    }

    /// The index of memory `s` in `wildcard` and `memory`.
    fn memory_index(&mut self, s: u32) -> usize {
        index(&mut self.wildcard, s);
        index(&mut self.memory, s)
    }

    /// The slot in `fixed` of a fixed word or cell.
    fn slot(&mut self, loc: &Loc) -> usize {
        let next = self.fixed.len();
        let slot = *self.slots.entry(loc.clone()).or_insert(next);
        if slot == next {
            self.fixed.push([None; 2]);
        }
        slot
    }

    /// The latest word holding an `access` that may alias `key`'s
    /// location, as [`Loc::may_alias`] decides.
    fn aliasing(&self, key: Key, access: Access) -> Option<usize> {
        let a = access as usize;
        match key {
            Key::Reg(i) => self.regs[i][a],
            Key::Port(i) => self.ports[i][a],
            Key::Cell(i) => self.fixed[i][a],
            Key::Word(i, m) => self.fixed[i][a].max(self.wildcard[m][a]),
            Key::Wildcard(m) => self.memory[m][a],
        }
    }

    /// Records an `access` to `key`'s location in `word`.
    fn record(&mut self, key: Key, access: Access, word: usize) {
        let a = access as usize;
        let (exact, memory) = match key {
            Key::Reg(i) => (&mut self.regs[i], None),
            Key::Port(i) => (&mut self.ports[i], None),
            Key::Cell(i) => (&mut self.fixed[i], None),
            Key::Word(i, m) => (&mut self.fixed[i], Some(m)),
            Key::Wildcard(m) => (&mut self.wildcard[m], Some(m)),
        };
        exact[a] = exact[a].max(Some(word));
        if let Some(m) = memory {
            let any = &mut self.memory[m][a];
            *any = (*any).max(Some(word));
        }
    }
}

/// Greedy list-scheduling compaction of `ops`, one basic block at a time:
/// no code motion across block boundaries, and every control-transfer RT
/// occupies a word of its own.
///
/// Within a block's straight-line stretch, RTs are taken in order; each
/// is placed into the earliest word that respects its dependences and
/// whose accumulated execution condition stays satisfiable when
/// conjoined with the RT's own condition.  A transfer op ends the
/// current stretch and becomes a singleton word (its encoding carries a
/// target immediate that is patched after scheduling, so it must not
/// constrain — or be constrained by — neighbours).  Block entries always
/// start a fresh word, keeping branch targets aligned to word boundaries.
///
/// `manager` is the session's overlay during compilation against a
/// frozen target, or a [`record_bdd::BddManager`] in unit tests.
pub fn compact(
    ops: &[RtOp],
    block_ranges: &[Range<usize>],
    manager: &mut BddOverlay<'_>,
) -> Schedule {
    let mut schedule = Schedule::default();
    let mut board = Scoreboard::default();
    let mut reads = Vec::new();
    for r in block_ranges {
        let mut run_start = r.start;
        for i in r.clone() {
            if ops[i].transfer.is_some() {
                schedule.compact_run(ops, run_start..i, manager, &mut board, &mut reads);
                schedule.words.push(Word { ops: vec![i] });
                run_start = i + 1;
            }
        }
        schedule.compact_run(ops, run_start..r.end, manager, &mut board, &mut reads);
    }
    schedule
}

#[cfg(test)]
mod tests;
