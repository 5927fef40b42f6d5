//! Cover emission: register-file allocation, conflict-avoiding operand
//! ordering and spill insertion.
//!
//! Tree parsing is cost-optimal but interference-blind (paper §3.2:
//! "limitations of tree parsing mainly concern incorporation of register
//! spills").  This module implements the cited remedy: operands whose
//! evaluation clobbers the register holding a sibling's result are emitted
//! *first* where possible, and genuinely cyclic conflicts are broken by
//! spilling through data-memory scratch slots.

use crate::binding::Binding;
use crate::error::CodegenError;
use crate::ops::{DestSim, Loc, RtOp, SimExpr, Transfer};
use record_bdd::{Bdd, BddOverlay, VarId};
use record_grammar::{
    Et, EtBuilder, EtDest, EtKind, GPat, NodeIdx, NonTermId, NonTermKind, Rule, RuleOrigin,
    TermKey, TreeGrammar,
};
use record_ir::{Cfg, FlatExpr, FlatStmt, Ref, Terminator};
use record_netlist::{Netlist, StorageId, StorageKind};
use record_probe::Probe;
use record_rtl::{CondPred, Dest, Pattern, TemplateBase, TemplateId};
use record_selgen::{Cover, RuleApp, SelectStats, Selector};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Work counters of one compilation's selection + emission.
///
/// Plain fields incremented at statement granularity — always on, and
/// independent of whether a trace sink is installed.  `splits`,
/// `spill_stores` and `reloads` count what the output holds: a cover or
/// legalization plan whose RTs are discarded takes its counts with them.
/// `select_ns` and `select` count the work done, discarded or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmitStats {
    /// Source statements compiled.
    pub statements: u64,
    /// Times a statement's tree had to be split through scratch memory
    /// because no whole-tree cover existed.
    pub splits: u64,
    /// Spill stores emitted (register pressure evictions).
    pub spill_stores: u64,
    /// Reloads emitted (spilled values brought back into registers).
    pub reloads: u64,
    /// Wall-clock nanoseconds spent in the tree parser.
    pub select_ns: u64,
    /// Labelling work done by the tree parser.
    pub select: SelectStats,
}

/// The result of [`Codegen::compile`] / [`Codegen::baseline`]: the RT
/// sequence, the op range each basic block occupies, and the work
/// counters accumulated while producing them.  `ops` holds only RTs of
/// covers that emitted in full: a failed cover or legalization plan
/// leaves none behind.
///
/// Transfer targets inside `ops` are still *block ids*
/// (`SimExpr::Const(block)`); the caller patches them to vertical op
/// indices once allocation has fixed the final op positions.
#[derive(Debug, Clone)]
pub struct Emitted {
    /// The compiled RT operations, blocks laid out in CFG order.
    pub ops: Vec<RtOp>,
    /// `ops[block_ranges[b].clone()]` are block `b`'s RTs, terminator
    /// transfers included.
    pub block_ranges: Vec<Range<usize>>,
    /// Selection and emission work counters.
    pub stats: EmitStats,
}

/// The code generator of one retargeted machine: its tree parser,
/// template base, netlist and emission tables, which every compile for
/// the machine reads and none changes.
///
/// Each compile brings what it mutates: the variable binding (scratch
/// words are reserved from it) and the BDD manager execution conditions
/// are conjoined in.
#[derive(Debug, Clone, Copy)]
pub struct Codegen<'a> {
    /// The generated tree parser.
    pub selector: &'a Selector,
    /// The template base the selector's rules derive from.
    pub base: &'a TemplateBase,
    /// The elaborated processor model.
    pub netlist: &'a Netlist,
    /// The machine's emission tables.
    pub tables: &'a EmitTables,
}

impl Codegen<'_> {
    /// Compiles a control-flow graph.  Each block's statements compile in
    /// order, with scratch space recycled between statements; then the
    /// terminator becomes compare-and-branch / jump RTs against the
    /// target's PC-writing templates.  A block whose terminator falls
    /// through to the next block in layout order emits no transfer at
    /// all, so a straight-line function needs no PC.
    ///
    /// A legalization plan states each repeated step once, as a run (a
    /// shift-and-add multiply is one four-statement step run once per
    /// bit): the step compiles once and its other passes copy the RTs it
    /// emitted, sharing their expression trees.  Every other statement is
    /// selected and emitted where it stands.  Each instruction-field cube
    /// an execution condition conjoins is built bottom-up where it is
    /// used, one node per bit ([`BddOverlay::cube`]), and a tree the
    /// selector finds no cover for is diagnosed only when its error is
    /// returned: most such trees are split or legalized instead.
    ///
    /// `probe` receives one `"statement"` span per source statement and
    /// per branch; pass [`Probe::disabled`] when no trace is wanted.
    ///
    /// # Errors
    ///
    /// Selection failures, unbound variables and spill-path / storage
    /// exhaustion, plus [`CodegenError::NoBranchPath`] when a terminator
    /// needs a control transfer but the target has no PC (or no usable
    /// jump / conditional-branch template).
    pub fn compile(
        &self,
        cfg: &Cfg,
        binding: &mut Binding,
        manager: &mut BddOverlay<'_>,
        probe: &mut Probe<'_>,
    ) -> Result<Emitted, CodegenError> {
        let paths = branch_paths(self.base, self.netlist);
        let mut gen = Gen::new(*self, binding, manager);
        let mut ranges = Vec::with_capacity(cfg.blocks.len());
        for (i, block) in cfg.blocks.iter().enumerate() {
            let start = gen.out.len();
            for stmt in &block.stmts {
                gen.statement(probe, |gen| gen.split(stmt, 0))?;
            }
            match &block.term {
                Terminator::Halt => {}
                Terminator::Jump(t) => {
                    if *t != i + 1 {
                        let jump = jump_op(require_paths(&paths)?, self.base, *t)?;
                        gen.out.push(jump);
                    }
                }
                Terminator::Branch {
                    cond,
                    then_to,
                    else_to,
                } => {
                    let p = require_paths(&paths)?;
                    gen.statement(probe, |gen| gen.branch(cond, *then_to, *else_to, i + 1, p))?;
                }
            }
            ranges.push(start..gen.out.len());
        }
        Ok(gen.finish(ranges))
    }
}

/// The state one compile mutates: the binding, the BDD node store, the
/// one output sequence every cover emits into, and the work counters.
pub(crate) struct Gen<'a, 'm> {
    pub(crate) cg: Codegen<'a>,
    pub(crate) binding: &'a mut Binding,
    manager: &'a mut BddOverlay<'m>,
    /// Width of a data-memory word, in bits.
    width: u16,
    /// The RTs emitted so far, blocks in CFG order.
    pub(crate) out: Vec<RtOp>,
    stats: EmitStats,
}

impl<'a, 'm> Gen<'a, 'm> {
    pub(crate) fn new(
        cg: Codegen<'a>,
        binding: &'a mut Binding,
        manager: &'a mut BddOverlay<'m>,
    ) -> Self {
        let width = cg.netlist.storage(binding.data_mem()).width;
        Gen {
            cg,
            binding,
            manager,
            width,
            out: Vec::new(),
            stats: EmitStats::default(),
        }
    }

    pub(crate) fn finish(self, block_ranges: Vec<Range<usize>>) -> Emitted {
        Emitted {
            ops: self.out,
            block_ranges,
            stats: self.stats,
        }
    }

    /// The condition "instruction bits `hi..=lo` hold `value`".
    ///
    /// [`BddOverlay::cube`] builds it on every use, one node lookup per
    /// bit, bottom-up over the bits' variables.  A rebuild within a
    /// compile finds the nodes the first build made, since session nodes
    /// are hash-consed and live as long as the compile, and a cube the
    /// frozen base holds is found there and makes no session node.
    fn field_equals(&mut self, hi: u16, lo: u16, value: u64) -> Bdd {
        self.manager.cube(self.cg.tables.ibit_range(hi, lo), value)
    }

    /// The values a data-memory word holds.
    pub(crate) fn word_mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1 << self.width) - 1
        }
    }

    /// Compiles one source statement or branch: `body` runs in a
    /// `"statement"` span, the statement is counted, and the scratch words
    /// it reserved are released.
    pub(crate) fn statement(
        &mut self,
        probe: &mut Probe<'_>,
        body: impl FnOnce(&mut Self) -> Result<(), CodegenError>,
    ) -> Result<(), CodegenError> {
        probe.begin("statement");
        let mark = self.binding.scratch_mark();
        let result = body(self);
        probe.end("statement");
        result?;
        self.stats.statements += 1;
        self.binding.release_scratch(mark)
    }

    /// Emits a two-way branch: the condition value is computed into a
    /// scratch word, reloaded into the register the conditional template
    /// tests, and a conditional PC-write (plus, when neither side falls
    /// through, a jump) steers control.  Polarity is chosen so the
    /// laid-out next block falls through where the repertoire allows.
    fn branch(
        &mut self,
        cond: &FlatExpr,
        then_to: usize,
        else_to: usize,
        next: usize,
        paths: &BranchPaths,
    ) -> Result<(), CodegenError> {
        // brnz takes the `then` side (cond != 0), brz the `else` side.
        let use_nz = if else_to == next && paths.brnz.is_some() {
            true
        } else if then_to == next && paths.brz.is_some() {
            false
        } else if paths.brnz.is_some() {
            true
        } else if paths.brz.is_some() {
            false
        } else {
            return Err(CodegenError::NoBranchPath {
                detail: "no conditional PC-write template testing a register against zero".into(),
            });
        };
        let (tid, test_reg, taken_to, fall_to, eq) = if use_nz {
            let (t, r) = paths.brnz.expect("chosen above");
            (t, r, then_to, else_to, false)
        } else {
            let (t, r) = paths.brz.expect("chosen above");
            (t, r, else_to, then_to, true)
        };

        // Condition value into a scratch word...
        let tmp = self.binding.scratch()?;
        let stmt = FlatStmt {
            target: scratch_ref(tmp),
            value: cond.clone(),
        };
        self.split(&stmt, 0)?;

        // ...then into the tested register.  Frequently redundant (the
        // store above usually leaves the value right there); the
        // allocator's residency pass deletes the pair when so.
        let base = self.cg.base;
        let dm = self.binding.data_mem();
        let expected = Loc::Reg(test_reg);
        let reload_tid =
            find_reload(base, test_reg, dm).ok_or_else(|| CodegenError::NoBranchPath {
                detail: format!(
                    "no reload into branch-test register `{}` from data memory",
                    expected.render(self.cg.netlist)
                ),
            })?;
        let mut rcond = base.template(reload_tid).cond;
        if let Pattern::MemRead(_, a) = &base.template(reload_tid).src {
            if let Pattern::Imm { hi, lo } = **a {
                let eqv = self.field_equals(hi, lo, tmp);
                rcond = self.manager.and(rcond, eqv);
            }
        }
        self.out.push(RtOp {
            template: reload_tid,
            dest: DestSim::Loc(expected.clone()),
            expr: SimExpr::MemRead(dm, Arc::new(SimExpr::Const(tmp))),
            transfer: None,
            cond: rcond,
        });
        self.stats.reloads += 1;

        self.out.push(RtOp {
            template: tid,
            dest: DestSim::Loc(Loc::Reg(paths.pc)),
            expr: SimExpr::Const(taken_to as u64),
            transfer: Some(Transfer::Cond {
                test: SimExpr::Read(expected),
                value: 0,
                eq,
            }),
            cond: base.template(tid).cond,
        });
        if fall_to != next {
            self.out.push(jump_op(paths, base, fall_to)?);
        }
        Ok(())
    }

    /// Compiles one statement, splitting the expression tree through
    /// scratch memory when no cover exists for the whole tree.
    ///
    /// Tree parsing alone cannot cover e.g. `(a+b) + (c+d)` on a single-
    /// accumulator machine — one operand of every operator pattern must be
    /// a storage or memory leaf.  The paper resolves this with "an
    /// extension of the scheduling technique from [8]": computed subtrees
    /// are evaluated first and stored to memory, then re-read as memory
    /// operands.  Each hoist strictly reduces nesting, so the recursion
    /// terminates; when a single-operator tree over leaves still has no
    /// cover, [`Gen::legalize`] gets one speculative shot at rewriting the
    /// statement into covered shapes (subtraction via two's complement,
    /// multiplication via shift-and-add, constants via shifts) before the
    /// selection error is accepted as final.
    ///
    /// `depth` counts the plans this statement is nested in, up to
    /// [`MAX_LEGALIZE_DEPTH`].
    ///
    /// When the whole tree has no cover, its selection error is built
    /// (by [`Gen::no_cover`]) only on the three paths that return it:
    /// most uncovered trees split or legalize, and their diagnosis would
    /// be thrown away.
    fn split(&mut self, stmt: &FlatStmt, depth: usize) -> Result<(), CodegenError> {
        let mut b = EtBuilder::new();
        let value = self.tree(&stmt.value, &mut b)?;
        let target = target_addr(self.binding, &stmt.target)?;
        let addr = b.leaf(EtKind::Const(target));
        let et = Et::store(self.binding.data_mem(), addr, value, b);
        // `None`: no cover was selected.  `Some`: the cover's emission
        // failed.
        let emit_err = match self.cover(&et) {
            Ok(true) => return Ok(()),
            Ok(false) => None,
            Err(e) => Some(e),
        };
        // Hoist a nested computation into scratch memory and retry.
        if let Some((hoisted, remainder)) = split_deepest(&stmt.value) {
            self.stats.splits += 1;
            let tmp = scratch_ref(self.binding.scratch()?);
            let hoisted_stmt = FlatStmt {
                target: tmp.clone(),
                value: hoisted,
            };
            self.split(&hoisted_stmt, depth)?;
            let remainder_stmt = FlatStmt {
                target: stmt.target.clone(),
                value: replace_marker(&remainder, &tmp),
            };
            return self.split(&remainder_stmt, depth);
        }
        // Unsplittable and uncovered: speculatively legalize.  On failure,
        // roll back everything the attempt emitted or reserved and report
        // the *original* selection error — legalization only ever converts
        // failures into successes, never one failure class into another.
        if depth >= MAX_LEGALIZE_DEPTH {
            return Err(emit_err.unwrap_or_else(|| self.no_cover(&et)));
        }
        let len0 = self.out.len();
        let mark0 = self.binding.scratch_mark();
        let before = self.stats;
        let Some(plan) = self.legalize(stmt) else {
            return Err(emit_err.unwrap_or_else(|| self.no_cover(&et)));
        };
        if self.plan(&plan, depth).is_err() {
            self.roll_back(len0, before);
            self.binding.release_scratch(mark0)?;
            return Err(emit_err.unwrap_or_else(|| self.no_cover(&et)));
        }
        Ok(())
    }

    /// Drops the RTs emitted past `len` and the split, spill-store and
    /// reload counts gained since `before`: those counts describe the
    /// output, so discarded work leaves them.
    fn roll_back(&mut self, len: usize, before: EmitStats) {
        self.out.truncate(len);
        self.stats.splits = before.splits;
        self.stats.spill_stores = before.spill_stores;
        self.stats.reloads = before.reloads;
    }

    /// Compiles a legalization plan, a list of runs, nested in `depth`
    /// plans.  Each run's body compiles once, each statement under its own
    /// scratch mark, and its remaining passes are copies of the RTs that
    /// pass emitted, with its split, spill-store and reload counts added
    /// once per copy.
    fn plan(&mut self, plan: &[Run], depth: usize) -> Result<(), CodegenError> {
        for run in plan {
            let Some(copies) = run.times.checked_sub(1) else {
                continue;
            };
            let start = self.out.len();
            let before = self.stats;
            for sub in &run.body {
                let mark = self.binding.scratch_mark();
                self.split(sub, depth + 1)?;
                self.binding.release_scratch(mark)?;
            }
            // Every pass over the body starts at the same scratch
            // watermark with the same binding.  A cover's RTs depend only
            // on the tree, the watermark and the target, and execution
            // conditions are hash-consed in the session's BDD manager, so
            // each pass would emit and count what the first did.  A copy
            // shares the expression trees of the RT it copies.
            let end = self.out.len();
            for _ in 0..copies {
                self.out.extend_from_within(start..end);
            }
            let stats = &mut self.stats;
            stats.splits += copies * (stats.splits - before.splits);
            stats.spill_stores += copies * (stats.spill_stores - before.spill_stores);
            stats.reloads += copies * (stats.reloads - before.reloads);
        }
        Ok(())
    }

    /// Rewrites an unsplittable, uncovered statement into a plan of runs
    /// of statements the machine may be able to cover (the caller compiles
    /// the plan speculatively and rolls back on failure):
    ///
    /// * `t = a - b` / `t = -a` — two's complement: `a + (!b + 1)`.
    /// * `t = a * b` — shift-and-add over the word width, using scratch
    ///   cells for the shifting operands, the running sum and the
    ///   `-(b & 1)` mask (branch-free Horner form needing only `and`,
    ///   `not`, `add ±const 1`, `shl`, `shr`): a four-statement prologue,
    ///   one four-statement step run once per bit, and the copy into `t`.
    /// * `t = c` — constant materialisation by shifting: `t <<= 1` run
    ///   `width` times forces `t` to zero from any prior value, then the
    ///   bits of `c` are rebuilt MSB-first with shift/increment steps.
    /// * any remaining statement with an embedded constant — hoist one
    ///   constant into a scratch cell (materialised by the rule above) so
    ///   a memory-operand rule can cover the rest.
    fn legalize(&mut self, stmt: &FlatStmt) -> Option<Vec<Run>> {
        use record_rtl::OpKind as Op;
        use FlatExpr as E;
        let neg = |e: &E| {
            E::Binary(
                Op::Add,
                Box::new(E::Unary(Op::Not, Box::new(e.clone()))),
                Box::new(E::Const(1)),
            )
        };
        let bits = self.width.min(64);
        match &stmt.value {
            E::Binary(Op::Sub, a, b) => Some(vec![Run::once(vec![FlatStmt {
                target: stmt.target.clone(),
                value: E::Binary(Op::Add, a.clone(), Box::new(neg(b))),
            }])]),
            E::Unary(Op::Neg, a) => Some(vec![Run::once(vec![FlatStmt {
                target: stmt.target.clone(),
                value: neg(a),
            }])]),
            E::Binary(Op::Mul, a, b) => {
                let sa = scratch_ref(self.binding.scratch().ok()?);
                let sb = scratch_ref(self.binding.scratch().ok()?);
                let one = scratch_ref(self.binding.scratch().ok()?);
                let mask = scratch_ref(self.binding.scratch().ok()?);
                let res = scratch_ref(self.binding.scratch().ok()?);
                let ld = |r: &Ref| E::Load(r.clone());
                let prologue = vec![
                    FlatStmt {
                        target: sa.clone(),
                        value: (**a).clone(),
                    },
                    FlatStmt {
                        target: sb.clone(),
                        value: (**b).clone(),
                    },
                    FlatStmt {
                        target: one.clone(),
                        value: E::Const(1),
                    },
                    FlatStmt {
                        target: res.clone(),
                        value: E::Const(0),
                    },
                ];
                // mask = -(sb & 1); res += sa & mask; sa <<= 1; sb >>= 1.
                let step = vec![
                    FlatStmt {
                        target: mask.clone(),
                        value: neg(&E::Binary(Op::And, Box::new(ld(&sb)), Box::new(ld(&one)))),
                    },
                    FlatStmt {
                        target: res.clone(),
                        value: E::Binary(
                            Op::Add,
                            Box::new(ld(&res)),
                            Box::new(E::Binary(Op::And, Box::new(ld(&sa)), Box::new(ld(&mask)))),
                        ),
                    },
                    FlatStmt {
                        target: sa.clone(),
                        value: E::Binary(Op::Shl, Box::new(ld(&sa)), Box::new(E::Const(1))),
                    },
                    FlatStmt {
                        target: sb.clone(),
                        value: E::Binary(Op::Shr, Box::new(ld(&sb)), Box::new(E::Const(1))),
                    },
                ];
                let result = vec![FlatStmt {
                    target: stmt.target.clone(),
                    value: ld(&res),
                }];
                Some(vec![
                    Run::once(prologue),
                    Run {
                        body: step,
                        times: u64::from(bits),
                    },
                    Run::once(result),
                ])
            }
            E::Const(c) => {
                let c = (*c as u64) & self.word_mask();
                let shl1 = |t: &Ref| FlatStmt {
                    target: t.clone(),
                    value: E::Binary(Op::Shl, Box::new(E::Load(t.clone())), Box::new(E::Const(1))),
                };
                // `width` left shifts clear the target from any prior value
                // (no load-immediate path needed), then shift/increment
                // rebuilds `c` MSB-first.
                let mut rebuild = Vec::new();
                for i in (0..u64::from(bits)).rev().take_while(|_| c != 0) {
                    if i < 63 && c >> (i + 1) != 0 {
                        rebuild.push(shl1(&stmt.target));
                    }
                    if (c >> i) & 1 == 1 {
                        rebuild.push(FlatStmt {
                            target: stmt.target.clone(),
                            value: E::Binary(
                                Op::Add,
                                Box::new(E::Load(stmt.target.clone())),
                                Box::new(E::Const(1)),
                            ),
                        });
                    }
                }
                Some(vec![
                    Run {
                        body: vec![shl1(&stmt.target)],
                        times: u64::from(bits),
                    },
                    Run::once(rebuild),
                ])
            }
            value => {
                // Hoist one embedded constant into a scratch cell; the
                // recursion materialises it and retries with a memory
                // operand.
                let (hoisted, c) = hoist_first_const(value)?;
                let tmp = scratch_ref(self.binding.scratch().ok()?);
                Some(vec![Run::once(vec![
                    FlatStmt {
                        target: tmp.clone(),
                        value: E::Const(c),
                    },
                    FlatStmt {
                        target: stmt.target.clone(),
                        value: replace_marker(&hoisted, &tmp),
                    },
                ])])
            }
        }
    }

    /// Builds an ET value from a flat expression, resolving `$scratch`
    /// names to raw addresses.
    fn tree(&self, e: &FlatExpr, b: &mut EtBuilder) -> Result<NodeIdx, CodegenError> {
        Ok(match e {
            FlatExpr::Const(c) => b.leaf(EtKind::Const((*c as u64) & self.word_mask())),
            FlatExpr::Load(r) if r.name.starts_with("$scratch") => {
                let a = b.leaf(EtKind::Const(r.offset));
                b.node(EtKind::MemRead(self.binding.data_mem()), &[a])
            }
            FlatExpr::Load(r) => {
                let addr = self.binding.addr_of(r)?;
                let a = b.leaf(EtKind::Const(addr));
                b.node(EtKind::MemRead(self.binding.storage_of(r)), &[a])
            }
            FlatExpr::Unary(op, a) => {
                let an = self.tree(a, b)?;
                b.node(EtKind::Op(*op), &[an])
            }
            FlatExpr::Binary(op, l, r) => {
                let ln = self.tree(l, b)?;
                let rn = self.tree(r, b)?;
                b.node(EtKind::Op(*op), &[ln, rn])
            }
        })
    }

    /// Selects a cover for `et` and emits it into the output, returning
    /// `true`.  Returns `false`, having emitted nothing, when the
    /// selector finds no cover; a caller that reports the failure builds
    /// its error with [`Gen::no_cover`].  A cover whose emission fails
    /// leaves no RT and no spill or reload count behind: the output is
    /// truncated back to where the cover began.  Scratch words it
    /// reserved stay reserved until the statement's mark is released.
    ///
    /// # Errors
    ///
    /// Emission failures; see [`Codegen::compile`].
    pub(crate) fn cover(&mut self, et: &Et) -> Result<bool, CodegenError> {
        let t0 = Instant::now();
        let selected = self.cg.selector.select(et);
        self.stats.select_ns += t0.elapsed().as_nanos() as u64;
        let Some(cover) = selected else {
            return Ok(false);
        };
        self.stats.select.absorb(&cover.stats);
        let start = self.out.len();
        let before = self.stats;
        let emitted = Emitter::new(self, et, &cover).run();
        if emitted.is_err() {
            self.roll_back(start, before);
        }
        emitted.map(|()| true)
    }

    /// The selection error of `et`, a tree [`Gen::cover`] found no cover
    /// for.  [`Selector::diagnose`] labels the tree again, so only a
    /// failure that is reported pays for it.  Its time counts as
    /// selection; its labelling, like a failed selection's, is not
    /// counted in [`EmitStats::select`].
    pub(crate) fn no_cover(&mut self, et: &Et) -> CodegenError {
        let t0 = Instant::now();
        let e = self.cg.selector.diagnose(et);
        self.stats.select_ns += t0.elapsed().as_nanos() as u64;
        CodegenError::Select {
            missing_op: e.missing_op,
            message: e.to_string(),
        }
    }
}

/// The target's control-transfer repertoire: its PC storage and the
/// extracted templates that write it.
/// extracted templates that write it.
struct BranchPaths {
    pc: StorageId,
    /// Unconditional `pc := #imm`.
    jump: Option<TemplateId>,
    /// `pc := #imm when reg != 0` — (template, tested register).
    brnz: Option<(TemplateId, StorageId)>,
    /// `pc := #imm when reg == 0`.
    brz: Option<(TemplateId, StorageId)>,
}

/// Scans the template base for PC-writing templates.  `None` when the
/// model declares no PC at all (a branchless machine).
fn branch_paths(base: &TemplateBase, netlist: &Netlist) -> Option<BranchPaths> {
    let pc = netlist.pc_storage()?.id;
    let mut p = BranchPaths {
        pc,
        jump: None,
        brnz: None,
        brz: None,
    };
    for t in base.templates() {
        if !matches!(&t.dest, Dest::Reg(d) if *d == pc) {
            continue;
        }
        match &t.pred {
            None => {
                if p.jump.is_none() {
                    p.jump = Some(t.id);
                }
            }
            // Only zero-comparing predicates over a plain register are
            // usable: lowered branch conditions are truth values, steered
            // by loading them into the tested register.
            Some(CondPred {
                test: Pattern::Reg(r),
                value: 0,
                eq,
            }) => {
                let slot = if *eq { &mut p.brz } else { &mut p.brnz };
                if slot.is_none() {
                    *slot = Some((t.id, *r));
                }
            }
            Some(_) => {}
        }
    }
    Some(p)
}

fn require_paths(paths: &Option<BranchPaths>) -> Result<&BranchPaths, CodegenError> {
    paths.as_ref().ok_or_else(|| CodegenError::NoBranchPath {
        detail: "the model declares no program counter, so no transfer templates exist".into(),
    })
}

/// An unconditional jump to block `target`.
///
/// The target immediate is *not* folded into the execution condition —
/// it is a block id here and is patched to an op/word index later, and
/// compaction schedules transfer ops into words of their own, so the
/// encoding bits never constrain a neighbour.
fn jump_op(paths: &BranchPaths, base: &TemplateBase, target: usize) -> Result<RtOp, CodegenError> {
    let tid = paths.jump.ok_or_else(|| CodegenError::NoBranchPath {
        detail: "no unconditional PC-write (jump) template".into(),
    })?;
    Ok(RtOp {
        template: tid,
        dest: DestSim::Loc(Loc::Reg(paths.pc)),
        expr: SimExpr::Const(target as u64),
        transfer: Some(Transfer::Always),
        cond: base.template(tid).cond,
    })
}

/// Finds an unpredicated `reg := dm[#imm]`: the reload path of both
/// branch steering and spilling.  Each caller raises its own error when
/// there is none.
fn find_reload(base: &TemplateBase, reg: StorageId, dm: StorageId) -> Option<TemplateId> {
    base.templates()
        .iter()
        .find(|t| {
            t.pred.is_none()
                && matches!(t.dest, Dest::Reg(r) if r == reg)
                && matches!(&t.src, Pattern::MemRead(s, addr)
                    if *s == dm && matches!(**addr, Pattern::Imm { .. }))
        })
        .map(|t| t.id)
}

/// How many times statement legalization may recurse through itself.
///
/// The worst well-formed chain is short (a multiply expansion whose
/// prologue materialises a constant, whose statements select directly);
/// the cap exists so a machine missing the building blocks (e.g. no
/// shifter to materialise constants with) fails fast instead of
/// re-deriving the same shapes forever.
const MAX_LEGALIZE_DEPTH: usize = 4;

/// Store address of a statement target: named variables resolve through
/// the binding, `$scratch` temporaries carry their address directly.
fn target_addr(binding: &Binding, r: &Ref) -> Result<u64, CodegenError> {
    if r.name.starts_with("$scratch") {
        Ok(r.offset)
    } else {
        binding.addr_of(r)
    }
}

/// A reference naming scratch word `addr`.
fn scratch_ref(addr: u64) -> Ref {
    Ref {
        name: format!("$scratch{addr}"),
        offset: addr,
    }
}

/// One run of a legalization plan: `body` compiled `times` times in a
/// row.
struct Run {
    body: Vec<FlatStmt>,
    times: u64,
}

impl Run {
    fn once(body: Vec<FlatStmt>) -> Run {
        Run { body, times: 1 }
    }
}

/// Marker name used while splitting; replaced by a scratch-address load.
const SPLIT_MARKER: &str = "$split";

/// A load of the split marker, standing for a value hoisted out of an
/// expression until [`replace_marker`] names the scratch word holding it.
fn split_marker() -> FlatExpr {
    FlatExpr::Load(Ref {
        name: SPLIT_MARKER.to_owned(),
        offset: 0,
    })
}

/// Replaces the split marker with a load of `tmp`.
fn replace_marker(e: &FlatExpr, tmp: &Ref) -> FlatExpr {
    match e {
        FlatExpr::Load(r) if r.name == SPLIT_MARKER => FlatExpr::Load(tmp.clone()),
        FlatExpr::Unary(op, a) => FlatExpr::Unary(*op, Box::new(replace_marker(a, tmp))),
        FlatExpr::Binary(op, l, r) => FlatExpr::Binary(
            *op,
            Box::new(replace_marker(l, tmp)),
            Box::new(replace_marker(r, tmp)),
        ),
        other => other.clone(),
    }
}

/// Replaces the first (leftmost-outermost) `Const` leaf of a computed
/// expression with the split marker; returns the rewritten expression and
/// the constant.  `None` when the expression has no constant leaf to
/// hoist (then legalization has nothing left to try).
fn hoist_first_const(e: &FlatExpr) -> Option<(FlatExpr, i64)> {
    use FlatExpr as E;
    match e {
        E::Unary(op, a) => {
            if let E::Const(c) = **a {
                return Some((E::Unary(*op, Box::new(split_marker())), c));
            }
            let (ra, c) = hoist_first_const(a)?;
            Some((E::Unary(*op, Box::new(ra)), c))
        }
        E::Binary(op, l, r) => {
            if let E::Const(c) = **l {
                return Some((E::Binary(*op, Box::new(split_marker()), r.clone()), c));
            }
            if let E::Const(c) = **r {
                return Some((E::Binary(*op, l.clone(), Box::new(split_marker())), c));
            }
            if let Some((rl, c)) = hoist_first_const(l) {
                return Some((E::Binary(*op, Box::new(rl), r.clone()), c));
            }
            let (rr, c) = hoist_first_const(r)?;
            Some((E::Binary(*op, l.clone(), Box::new(rr)), c))
        }
        _ => None,
    }
}

/// Splits off the deepest-leftmost computed subtree that has a computed
/// parent; returns `(hoisted, remainder-with-marker)`.
fn split_deepest(e: &FlatExpr) -> Option<(FlatExpr, FlatExpr)> {
    fn is_computed(e: &FlatExpr) -> bool {
        matches!(e, FlatExpr::Unary(..) | FlatExpr::Binary(..))
    }
    match e {
        FlatExpr::Binary(op, l, r) => {
            if let Some((h, rem)) = split_deepest(l) {
                return Some((h, FlatExpr::Binary(*op, Box::new(rem), r.clone())));
            }
            if let Some((h, rem)) = split_deepest(r) {
                return Some((h, FlatExpr::Binary(*op, l.clone(), Box::new(rem))));
            }
            // No nested splits below: hoist a computed child, if any.
            if is_computed(l) {
                let rem = FlatExpr::Binary(*op, Box::new(split_marker()), r.clone());
                return Some(((**l).clone(), rem));
            }
            if is_computed(r) {
                let rem = FlatExpr::Binary(*op, l.clone(), Box::new(split_marker()));
                return Some(((**r).clone(), rem));
            }
            None
        }
        FlatExpr::Unary(op, a) => {
            if let Some((h, rem)) = split_deepest(a) {
                return Some((h, FlatExpr::Unary(*op, Box::new(rem))));
            }
            if is_computed(a) {
                return Some((
                    (**a).clone(),
                    FlatExpr::Unary(*op, Box::new(split_marker())),
                ));
            }
            None
        }
        _ => None,
    }
}

/// Instruction fields encoding register-file cell choices.
#[derive(Debug, Clone, Copy)]
struct RfFields {
    write: Option<(u16, u16)>,
    read: Option<(u16, u16)>,
}

/// Per-target emission tables, computed once at retarget time.
///
/// Before the retarget artifact froze these were rebuilt on every
/// compile: `rf_fields` walked the netlist per `Emitter`, and folding an
/// instruction field into an execution condition formatted an `I[b]`
/// name, hashed it and looked the variable up — per bit, per emitted op.
/// Both are target-level constants, so they live here now: the
/// register-file address fields and the BDD variable of every
/// instruction-word bit.  Instruction bits are registered first, in bit
/// order, so the ids ascend with the bit, as [`BddOverlay::cube`] needs.
#[derive(Debug, Clone)]
pub struct EmitTables {
    rf: HashMap<StorageId, RfFields>,
    ibits: Vec<VarId>,
}

impl EmitTables {
    /// Builds the tables against the retarget-time manager.  Each bit's
    /// positive literal is made here, before
    /// [`record_bdd::BddManager::freeze`], so the frozen store holds it
    /// whatever extraction made, and a session never makes it.
    pub fn build(netlist: &Netlist, manager: &mut BddOverlay<'_>, iword_width: u16) -> EmitTables {
        let ibits = (0..iword_width)
            .map(|b| {
                let id = manager.var_id(&format!("I[{b}]"));
                manager.literal(id, true);
                id
            })
            .collect();
        EmitTables {
            rf: rf_fields(netlist),
            ibits,
        }
    }

    /// Variables of instruction bits `lo..=hi` (`lo` first).
    fn ibit_range(&self, hi: u16, lo: u16) -> &[VarId] {
        &self.ibits[lo as usize..=hi as usize]
    }
}

/// Extracts the address fields of every register file in the netlist.
fn rf_fields(netlist: &Netlist) -> HashMap<StorageId, RfFields> {
    use record_netlist::{DataExpr, ElabKind, Net};
    let mut out = HashMap::new();
    for s in netlist.storages() {
        if s.kind != StorageKind::RegFile {
            continue;
        }
        let def = netlist.def_of(s.inst);
        let ElabKind::Memory { reads, writes, .. } = &def.kind else {
            continue;
        };
        let field_of = |addr: &DataExpr| -> Option<(u16, u16)> {
            let DataExpr::Port(p) = addr else { return None };
            match netlist.driver_of(s.inst, *p) {
                Some(Net::IField { hi, lo }) => Some((*hi, *lo)),
                _ => None,
            }
        };
        out.insert(
            s.id,
            RfFields {
                write: writes.first().and_then(|w| field_of(&w.addr)),
                read: reads.first().and_then(|r| field_of(&r.addr)),
            },
        );
    }
    out
}

/// A cover value: a non-terminal derived at an ET node, in the order of
/// [`RuleApp::operands`].
type Value = (NonTermId, NodeIdx);

/// Free register-file cells, per file: the cells handed back, as a stack,
/// and the first cell never handed out.  Cells come out 0, 1, 2, … and a
/// freed cell is the next one handed out; memory grows with the cells in
/// use, not with the size of the file.
#[derive(Debug, Default)]
struct RfFree(Vec<(StorageId, RfCells)>);

/// The free cells of one register file.
#[derive(Debug, Default)]
struct RfCells {
    returned: Vec<u64>,
    next: u64,
}

impl RfFree {
    /// Takes a free cell of `file`, a register file of `size` cells.
    fn take(&mut self, file: StorageId, size: u64) -> Option<u64> {
        let i = match self.0.iter().position(|(s, _)| *s == file) {
            Some(i) => i,
            None => {
                self.0.push((file, RfCells::default()));
                self.0.len() - 1
            }
        };
        let cells = &mut self.0[i].1;
        if let Some(cell) = cells.returned.pop() {
            return Some(cell);
        }
        let cell = cells.next;
        (cell < size).then(|| {
            cells.next += 1;
            cell
        })
    }

    /// Returns a cell taken from `file`.
    fn give_back(&mut self, file: StorageId, cell: u64) {
        let (_, cells) = self
            .0
            .iter_mut()
            .find(|(s, _)| *s == file)
            .expect("cell was taken from this file");
        cells.returned.push(cell);
    }
}

/// Looks `key` up in a small association list.
fn lookup<'l, K: PartialEq, V>(list: &'l [(K, V)], key: &K) -> Option<&'l V> {
    list.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Sets `key`'s entry of a small association list, replacing it in place.
fn set<K: PartialEq, V>(list: &mut Vec<(K, V)>, key: K, value: V) {
    match list.iter_mut().find(|(k, _)| *k == key) {
        Some(entry) => entry.1 = value,
        None => list.push((key, value)),
    }
}

/// Removes `key`'s entry of a small association list.
fn remove<K: PartialEq, V>(list: &mut Vec<(K, V)>, key: &K) -> Option<V> {
    let i = list.iter().position(|(k, _)| k == key)?;
    Some(list.swap_remove(i).1)
}

/// Emits one cover into the compile's output.  It borrows the compile's
/// [`Gen`], the cover's applications and the grammar's rules, and keeps
/// its per-cover tables as association lists searched in place: a cover
/// holds a handful of values, too few to repay building and hashing into
/// a map.
struct Emitter<'e, 'a, 'm> {
    gen: &'e mut Gen<'a, 'm>,
    et: &'e Et,
    cover: &'e Cover,
    grammar: &'a TreeGrammar,
    /// Length of the output when the cover began.
    start: usize,
    /// Field constraints (hi, lo, value) collected for the op being built.
    field_constraints: Vec<(u16, u16, u64)>,
    /// Current location of produced, not-yet-consumed values.
    value_loc: Vec<(Value, Loc)>,
    /// Which value currently occupies a register-like location.
    holder: Vec<(Loc, Value)>,
    /// Free register-file cells.
    rf_free: RfFree,
    /// Cells we allocated (to distinguish temp cells from variable cells).
    rf_temp: Vec<(Value, (StorageId, u64))>,
}

impl<'e, 'a, 'm> Emitter<'e, 'a, 'm> {
    fn new(gen: &'e mut Gen<'a, 'm>, et: &'e Et, cover: &'e Cover) -> Self {
        Emitter {
            grammar: gen.cg.selector.grammar(),
            start: gen.out.len(),
            gen,
            et,
            cover,
            field_constraints: Vec::new(),
            value_loc: Vec::new(),
            holder: Vec::new(),
            rf_free: RfFree::default(),
            rf_temp: Vec::new(),
        }
    }

    fn run(mut self) -> Result<(), CodegenError> {
        let root = self.cover.apps.len() - 1;
        self.emit_app(root)
    }

    /// How many RTs this cover has emitted.
    fn at_op(&self) -> usize {
        self.gen.out.len() - self.start
    }

    /// Index of the application producing `v` (the last, if several do).
    fn producer(&self, v: Value) -> Option<usize> {
        self.cover.apps.iter().rposition(|a| (a.nt, a.at) == v)
    }

    fn emit_app(&mut self, idx: usize) -> Result<(), CodegenError> {
        let app: &'e RuleApp = &self.cover.apps[idx];
        let rule: &'a Rule = self.grammar.rule(app.rule);
        match rule.origin {
            RuleOrigin::Stop(_) => {
                let loc = match self.et.kind(app.at) {
                    EtKind::RegLeaf(s) => Loc::Reg(s),
                    EtKind::RfLeaf(s, c) => Loc::Rf(s, c as u64),
                    other => unreachable!("stop rule at non-leaf {other:?}"),
                };
                self.produce((app.nt, app.at), loc);
                Ok(())
            }
            RuleOrigin::Start => {
                let v = app.operands[0];
                let p = self.producer(v).expect("operand has a producer");
                self.emit_app(p)?;
                // The operand's derivation wrote the destination register;
                // consume it.
                self.consume(v);
                Ok(())
            }
            RuleOrigin::Template(tid) => self.emit_template(app, rule, tid),
        }
    }

    fn emit_template(
        &mut self,
        app: &'e RuleApp,
        rule: &'a Rule,
        tid: TemplateId,
    ) -> Result<(), CodegenError> {
        self.field_constraints.clear();

        // 1. Order operand evaluation: an operand whose derivation clobbers
        //    the register a sibling's value will occupy goes first.
        for oi in self.operand_order(app) {
            let p = self
                .producer(app.operands[oi])
                .expect("operand has a producer");
            self.emit_app(p)?;
        }

        // 2. Make sure every operand is where the pattern expects it
        //    (reload spilled values).  Operands of this very operation are
        //    protected: they are read from pre-state and must not be
        //    spilled on each other's behalf — if that is unavoidable the
        //    conflict is cyclic and unimplementable on this data path.
        let protected: &[Value] = &app.operands;
        for &v in protected {
            self.ensure_in_place(v, protected)?;
        }

        // 3. Build the concrete expression and destination.
        let mut operand_iter = app.operands.iter();
        let (dest, expr) = match self.grammar.rhs(rule) {
            GPat::T(TermKey::Store(s), kids) => {
                let root_children = self.et.children(app.at);
                let addr = self.sim_of(&kids[0], root_children[0], &mut operand_iter)?;
                let val = self.sim_of(&kids[1], root_children[1], &mut operand_iter)?;
                (DestSim::MemAt(*s, addr), val)
            }
            rhs => {
                let expr = self.sim_of(rhs, app.at, &mut operand_iter)?;
                let dest_loc = self.dest_loc_for(app, rule)?;
                (DestSim::Loc(dest_loc), expr)
            }
        };

        // 4. Spill whatever pending value occupies the destination — unless
        //    it is one of this op's own operands (those are read from
        //    pre-state, so overwriting is safe).
        let produced = match &dest {
            DestSim::Loc(loc) => Some(loc.clone()),
            DestSim::MemAt(..) => None,
        };
        if let Some(loc) = &produced {
            self.evict(loc, protected)?;
        }

        // 5. Emit with the immediate-field values folded into the
        //    execution condition (the binary *partial instruction* of the
        //    paper includes operand fields; compaction relies on it).
        if let Some(Loc::Rf(s, c)) = &produced {
            if let Some(f) = self.gen.cg.tables.rf.get(s).and_then(|f| f.write) {
                self.field_constraints.push((f.0, f.1, *c));
            }
        }
        let cond = self.conjoin_fields(self.gen.cg.base.template(tid).cond);
        self.gen.out.push(RtOp {
            template: tid,
            dest,
            expr,
            transfer: None,
            cond,
        });
        // Operands are consumed by this op.
        for &v in protected {
            self.consume(v);
        }
        if let Some(loc) = produced {
            self.produce((app.nt, app.at), loc);
        }
        Ok(())
    }

    /// Conjoins the collected field constraints into `cond` and clears
    /// them.  Each constraint's cube comes from [`Gen::field_equals`],
    /// built bottom-up over the instruction-bit variables of
    /// [`EmitTables`].
    fn conjoin_fields(&mut self, cond: Bdd) -> Bdd {
        let mut acc = cond;
        for (hi, lo, v) in self.field_constraints.drain(..) {
            let eq = self.gen.field_equals(hi, lo, v);
            acc = self.gen.manager.and(acc, eq);
        }
        acc
    }

    /// Register the value as live at `loc`.
    fn produce(&mut self, v: Value, loc: Loc) {
        set(&mut self.value_loc, v, loc.clone());
        set(&mut self.holder, loc, v);
    }

    /// The value has been consumed: free its location (and temp cell).
    fn consume(&mut self, v: Value) {
        if let Some(loc) = remove(&mut self.value_loc, &v) {
            if lookup(&self.holder, &loc) == Some(&v) {
                remove(&mut self.holder, &loc);
            }
        }
        if let Some((s, c)) = remove(&mut self.rf_temp, &v) {
            self.rf_free.give_back(s, c);
        }
    }

    /// Destination location for a non-store template application.
    fn dest_loc_for(&mut self, app: &RuleApp, rule: &Rule) -> Result<Loc, CodegenError> {
        match self.grammar.nonterm_kind(rule.lhs) {
            NonTermKind::Reg(s) => Ok(Loc::Reg(s)),
            NonTermKind::Port(p) => Ok(Loc::Port(p)),
            NonTermKind::RegFile(s) => {
                // If this application produces the final ET value and the ET
                // destination is a specific cell, write it directly.
                if let EtDest::RegFile(ds, cell) = self.et.dest() {
                    if *ds == s && self.is_final_value(app) {
                        return Ok(Loc::Rf(s, *cell as u64));
                    }
                }
                let file = self.gen.cg.netlist.storage(s);
                let cell =
                    self.rf_free
                        .take(s, file.size)
                        .ok_or_else(|| CodegenError::OutOfStorage {
                            storage: file.name.clone(),
                            detail: "register file has no free cell".to_owned(),
                        })?;
                set(&mut self.rf_temp, (app.nt, app.at), (s, cell));
                Ok(Loc::Rf(s, cell))
            }
            NonTermKind::Start => unreachable!("templates never derive START directly"),
        }
    }

    /// Is this application the one whose value the start rule consumes?
    fn is_final_value(&self, app: &RuleApp) -> bool {
        let root = self.cover.apps.last().expect("cover non-empty");
        root.operands.first() == Some(&(app.nt, app.at))
    }

    /// Chooses operand evaluation order to avoid clobbering conflicts.
    fn operand_order(&self, app: &RuleApp) -> Vec<usize> {
        let n = app.operands.len();
        let mut order: Vec<usize> = (0..n).collect();
        if n < 2 {
            return order;
        }
        // Target register of each operand and clobber set of its subtree.
        let targets: Vec<Option<Loc>> = app
            .operands
            .iter()
            .map(|&(nt, _)| match self.grammar.nonterm_kind(nt) {
                NonTermKind::Reg(s) => Some(Loc::Reg(s)),
                _ => None,
            })
            .collect();
        let clobbers: Vec<Vec<Loc>> = app
            .operands
            .iter()
            .map(|&v| {
                let mut set = Vec::new();
                self.collect_clobbers(v, &mut set);
                set
            })
            .collect();
        // Pairwise: if evaluating j clobbers i's target, j must go first.
        order.sort_by(|&a, &b| {
            let a_kills_b = targets[b].as_ref().is_some_and(|t| clobbers[a].contains(t));
            let b_kills_a = targets[a].as_ref().is_some_and(|t| clobbers[b].contains(t));
            match (a_kills_b, b_kills_a) {
                (true, false) => std::cmp::Ordering::Less,
                (false, true) => std::cmp::Ordering::Greater,
                // Tie / cycle: deeper subtree first (Sethi-Ullman flavour).
                _ => clobbers[b].len().cmp(&clobbers[a].len()),
            }
        });
        order
    }

    /// Registers written while deriving `v`.
    fn collect_clobbers(&self, v: Value, out: &mut Vec<Loc>) {
        let Some(p) = self.producer(v) else {
            return;
        };
        let app = &self.cover.apps[p];
        let rule = self.grammar.rule(app.rule);
        if matches!(rule.origin, RuleOrigin::Template(_)) {
            if let NonTermKind::Reg(s) = self.grammar.nonterm_kind(app.nt) {
                out.push(Loc::Reg(s));
            }
        }
        for &w in &app.operands {
            if w != v {
                self.collect_clobbers(w, out);
            }
        }
    }

    /// Spills the pending value occupying `loc`, if any.  If that value is
    /// protected (an operand of the operation being emitted), the eviction
    /// is either safely skipped (for writes: operands read pre-state) or a
    /// cyclic conflict (for reloads) — `protected` holders are never
    /// spilled, the caller decides what skipping means.
    fn evict(&mut self, loc: &Loc, protected: &[Value]) -> Result<(), CodegenError> {
        if matches!(loc, Loc::Port(_)) {
            return Ok(()); // ports are write-only, nothing to preserve
        }
        let Some(&victim) = lookup(&self.holder, loc) else {
            return Ok(());
        };
        if protected.contains(&victim) {
            return Ok(());
        }
        // Find a store template for this register.
        let (store_tid, spill_reg) = self.find_spill_store(loc)?;
        let base = self.gen.cg.base;
        let dm = self.gen.binding.data_mem();
        let addr = self.gen.binding.scratch()?;
        if let Dest::Mem(_, Pattern::Imm { hi, lo }) = &base.template(store_tid).dest {
            self.field_constraints.push((*hi, *lo, addr));
        }
        let cond = self.conjoin_fields(base.template(store_tid).cond);
        self.gen.out.push(RtOp {
            template: store_tid,
            dest: DestSim::MemAt(dm, SimExpr::Const(addr)),
            expr: SimExpr::Read(spill_reg),
            transfer: None,
            cond,
        });
        self.gen.stats.spill_stores += 1;
        remove(&mut self.holder, loc);
        set(&mut self.value_loc, victim, Loc::Mem(dm, addr));
        Ok(())
    }

    /// Reloads `v` into the register its consumer expects, spilling the
    /// current occupant if necessary.
    fn ensure_in_place(&mut self, v: Value, protected: &[Value]) -> Result<(), CodegenError> {
        let loc = lookup(&self.value_loc, &v)
            .cloned()
            .ok_or_else(|| CodegenError::Select {
                message: "internal: operand value has no location".into(),
                missing_op: None,
            })?;
        let reg = match self.grammar.nonterm_kind(v.0) {
            NonTermKind::Reg(s) => s,
            // Regfile/port operands: any cell of the file is fine.
            _ => return Ok(()),
        };
        let expected = Loc::Reg(reg);
        if loc == expected {
            return Ok(());
        }
        let Loc::Mem(dm, addr) = loc else {
            // Value sits in a different register than expected: can only
            // happen through spilling, which always goes via memory.
            return Ok(());
        };
        // A protected value occupying the reload target means two operands
        // of one operation need the same register: unimplementable.
        if lookup(&self.holder, &expected).is_some_and(|h| protected.contains(h) && *h != v) {
            return Err(CodegenError::NoSpillPath {
                loc: expected.render(self.gen.cg.netlist),
                at_op: self.at_op(),
                detail: "cyclic register conflict: two operands need the register".into(),
            });
        }
        let base = self.gen.cg.base;
        let reload_tid = find_reload(base, reg, dm).ok_or_else(|| CodegenError::NoSpillPath {
            loc: expected.render(self.gen.cg.netlist),
            at_op: self.at_op(),
            detail: "no reload template into the register from data memory".into(),
        })?;
        self.evict(&expected, protected)?;
        if let Pattern::MemRead(_, a) = &base.template(reload_tid).src {
            if let Pattern::Imm { hi, lo } = **a {
                self.field_constraints.push((hi, lo, addr));
            }
        }
        let cond = self.conjoin_fields(base.template(reload_tid).cond);
        self.gen.out.push(RtOp {
            template: reload_tid,
            dest: DestSim::Loc(expected.clone()),
            expr: SimExpr::MemRead(dm, Arc::new(SimExpr::Const(addr))),
            transfer: None,
            cond,
        });
        self.gen.stats.reloads += 1;
        self.produce(v, expected);
        Ok(())
    }

    /// Finds `dm[#imm] := reg` for the register behind `loc`.
    fn find_spill_store(&self, loc: &Loc) -> Result<(TemplateId, Loc), CodegenError> {
        let dm = self.gen.binding.data_mem();
        for t in self.gen.cg.base.templates() {
            let Dest::Mem(s, Pattern::Imm { .. }) = &t.dest else {
                continue;
            };
            if *s != dm {
                continue;
            }
            let matches = match (&t.src, loc) {
                (Pattern::Reg(r), Loc::Reg(l)) => r == l,
                (Pattern::RegFile(r), Loc::Rf(l, _)) => r == l,
                _ => false,
            };
            if matches {
                return Ok((t.id, loc.clone()));
            }
        }
        Err(CodegenError::NoSpillPath {
            loc: loc.render(self.gen.cg.netlist),
            at_op: self.at_op(),
            detail: "no store template from the register to data memory".into(),
        })
    }

    /// Builds the concrete [`SimExpr`] for pattern `pat` matched at ET node
    /// `node`; `operands` yields the operand list in pattern order.
    fn sim_of(
        &mut self,
        pat: &GPat,
        node: NodeIdx,
        operands: &mut std::slice::Iter<'_, Value>,
    ) -> Result<SimExpr, CodegenError> {
        match pat {
            GPat::NT(_) => {
                let v = operands.next().expect("operand list matches pattern");
                let loc =
                    lookup(&self.value_loc, v)
                        .cloned()
                        .ok_or_else(|| CodegenError::Select {
                            message: "internal: operand not materialised".into(),
                            missing_op: None,
                        })?;
                if let Loc::Rf(s, c) = &loc {
                    if let Some(f) = self.gen.cg.tables.rf.get(s).and_then(|f| f.read) {
                        self.field_constraints.push((f.0, f.1, *c));
                    }
                }
                Ok(SimExpr::Read(loc))
            }
            GPat::T(key, kids) => {
                let children = self.et.children(node);
                match key {
                    TermKey::ConstVal(v) => Ok(SimExpr::Const(*v)),
                    TermKey::Imm { hi, lo } => match self.et.kind(node) {
                        EtKind::Const(v) => {
                            self.field_constraints.push((*hi, *lo, v));
                            Ok(SimExpr::Const(v))
                        }
                        other => unreachable!("imm matched non-const {other:?}"),
                    },
                    TermKey::RegLeaf(s) => Ok(SimExpr::Read(Loc::Reg(*s))),
                    TermKey::RfLeaf(s) => match self.et.kind(node) {
                        EtKind::RfLeaf(_, c) => {
                            if let Some(f) = self.gen.cg.tables.rf.get(s).and_then(|f| f.read) {
                                self.field_constraints.push((f.0, f.1, c as u64));
                            }
                            Ok(SimExpr::Read(Loc::Rf(*s, c as u64)))
                        }
                        other => unreachable!("rf leaf matched {other:?}"),
                    },
                    TermKey::PortLeaf(p) => Ok(SimExpr::Read(Loc::Port(*p))),
                    TermKey::MemRead(s) => {
                        let addr = self.sim_of(&kids[0], children[0], operands)?;
                        Ok(SimExpr::MemRead(*s, Arc::new(addr)))
                    }
                    // One allocation per node, arguments in place.
                    TermKey::Op(op) => Ok(SimExpr::Op(
                        *op,
                        match (kids.as_slice(), children) {
                            ([k], &[c]) => Arc::new([self.sim_of(k, c, operands)?]),
                            ([k0, k1], &[c0, c1]) => {
                                let a0 = self.sim_of(k0, c0, operands)?;
                                Arc::new([a0, self.sim_of(k1, c1, operands)?])
                            }
                            _ => unreachable!("an operator takes one or two arguments"),
                        },
                    )),
                    TermKey::Assign(_) | TermKey::Store(_) => {
                        unreachable!("designated root keys handled by caller")
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::RfFree;
    use record_netlist::StorageId;

    #[test]
    fn regfile_free_list_hands_out_low_cells_and_reuses_the_last_freed() {
        let (rf, other) = (StorageId(3), StorageId(5));
        let mut free = RfFree::default();
        assert_eq!(free.take(rf, 4), Some(0));
        assert_eq!(free.take(rf, 4), Some(1));
        assert_eq!(free.take(rf, 4), Some(2));
        // The most recently freed cell comes back first.
        free.give_back(rf, 0);
        free.give_back(rf, 2);
        assert_eq!(free.take(rf, 4), Some(2));
        assert_eq!(free.take(rf, 4), Some(0));
        assert_eq!(free.take(rf, 4), Some(3));
        assert_eq!(free.take(rf, 4), None);
        // Each file has a list of its own, built on its first request.
        assert_eq!(free.take(other, 2), Some(0));
        free.give_back(rf, 1);
        assert_eq!(free.take(other, 2), Some(1));
        assert_eq!(free.take(other, 2), None);
        assert_eq!(free.take(rf, 4), Some(1));
    }

    /// The free list grows with the cells handed out, not with the file.
    #[test]
    fn regfile_free_list_does_not_grow_with_the_file() {
        let mut free = RfFree::default();
        assert_eq!(free.take(StorageId(3), 1 << 40), Some(0));
    }
}
