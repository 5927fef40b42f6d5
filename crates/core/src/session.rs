//! Compilation sessions and the parallel batch API.
//!
//! The retarget artifact ([`crate::Target`]) is frozen; everything a
//! compilation mutates lives here.  A [`CompileSession`] owns the
//! session-local BDD overlay arena (emission and compaction conjoin
//! execution conditions, which creates nodes) plus whatever binding and
//! allocation state each request needs.  Sessions are cheap to open —
//! the overlay starts empty and pages grow on demand — so the batch API
//! simply opens one per request, which also makes batch output
//! byte-identical to sequential output.

use crate::error::{panic_message, CompileError, CompilePhase};
use crate::pipeline::{CompileOptions, CompileReport, CompiledKernel, Target};
use record_bdd::BddOverlay;
use record_codegen::{
    baseline_compile, compile, compile_cfg, Binding, CodegenError, Emitted, EmittedCfg, SimExpr,
};
use record_compact::compact_cfg;
use record_ir::{FlatStmt, Ref, Terminator};
use record_probe::{Collector, Probe, Trace, TraceSink};
use record_regalloc::{
    allocate_cfg_probed, allocate_probed, AllocOptions, CfgLiveness, Liveness, MemLayout,
};
use std::borrow::Cow;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One compilation request: a mini-C translation unit, the function to
/// compile, and the options to compile it under.
///
/// Built in builder style:
///
/// ```ignore
/// let req = CompileRequest::new(source, "f").compaction(false);
/// let kernel = target.compile(&req)?;
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileRequest<'a> {
    source: &'a str,
    function: &'a str,
    options: CompileOptions,
}

impl<'a> CompileRequest<'a> {
    /// A request for `function` of `source` under default options.
    pub fn new(source: &'a str, function: &'a str) -> CompileRequest<'a> {
        CompileRequest {
            source,
            function,
            options: CompileOptions::default(),
        }
    }

    /// Replaces the whole option set.
    pub fn with_options(mut self, options: CompileOptions) -> CompileRequest<'a> {
        self.options = options;
        self
    }

    /// Selects the naive per-operator baseline (the Figure 2 comparator).
    pub fn baseline(mut self, on: bool) -> CompileRequest<'a> {
        self.options.baseline = on;
        self
    }

    /// Toggles code compaction.
    pub fn compaction(mut self, on: bool) -> CompileRequest<'a> {
        self.options.compaction = on;
        self
    }

    /// Toggles the register-allocation / value-placement phase.
    pub fn allocate_registers(mut self, on: bool) -> CompileRequest<'a> {
        self.options.allocate_registers = on;
        self
    }

    /// Sets the compilation time budget in nanoseconds (`None` for
    /// unbounded).  See [`CompileOptions::deadline_ns`] for semantics.
    pub fn deadline_ns(mut self, budget: Option<u64>) -> CompileRequest<'a> {
        self.options.deadline_ns = budget;
        self
    }

    /// Arms the fault-injection hook: compilation panics on entering
    /// `phase`.  See [`CompileOptions::inject_panic`].
    pub fn inject_panic(mut self, phase: Option<CompilePhase>) -> CompileRequest<'a> {
        self.options.inject_panic = phase;
        self
    }

    /// The mini-C translation unit.
    pub fn source(&self) -> &'a str {
        self.source
    }

    /// The function to compile.
    pub fn function(&self) -> &'a str {
        self.function
    }

    /// The compile options.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }
}

/// A compilation session against one frozen [`Target`].
///
/// Owns the per-session mutable scratch — the BDD overlay arena — and
/// borrows the target immutably, so any number of sessions can run
/// concurrently over one artifact.  A session may compile several
/// requests; its overlay keeps growing (conditions from earlier requests
/// stay cached), which is the right trade for a worker thread serving a
/// request stream.  For bit-reproducible one-shots use
/// [`Target::compile`], which opens a fresh session per request.
#[derive(Debug)]
pub struct CompileSession<'t> {
    target: &'t Target,
    bdd: BddOverlay<'t>,
    /// Trace collector, when the caller wants the span stream.  Owned by
    /// the session (one lane per session), so concurrent sessions never
    /// contend — batch tracing merges lanes after the workers join.
    collector: Option<Collector>,
    /// Set when a compilation panicked inside this session (see
    /// [`CompileSession::poisoned`]).
    poisoned: bool,
}

impl<'t> CompileSession<'t> {
    pub(crate) fn new(target: &'t Target) -> CompileSession<'t> {
        CompileSession {
            target,
            bdd: target.frozen.overlay(),
            collector: None,
            poisoned: false,
        }
    }

    pub(crate) fn from_pages(target: &'t Target, pages: SessionPages) -> CompileSession<'t> {
        CompileSession {
            target,
            bdd: target.frozen.overlay_from(pages.bdd),
            collector: None,
            poisoned: false,
        }
    }

    /// Whether a compilation panicked inside this session.
    ///
    /// A panic unwinds out of arbitrary overlay mutation, so a poisoned
    /// session's scratch state is suspect: [`CompileSession::reset`]
    /// before compiling on it again, and do not recycle its pages into a
    /// session pool.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Rolls the session back to its just-opened state while keeping its
    /// allocated capacity (overlay node pages, hash tables, interner
    /// storage).
    ///
    /// After `reset()` the session is observationally identical to a fresh
    /// [`Target::session`] — the overlay replays the same handles for the
    /// same operation sequence — which is what lets a session pool hand
    /// out warmed sessions without perturbing compile output.  Any
    /// installed trace collector is discarded (its lane belonged to the
    /// previous tenancy).
    pub fn reset(&mut self) {
        self.bdd.reset();
        self.collector = None;
        self.poisoned = false;
    }

    /// Tears the session down to its retained allocations, for reuse by a
    /// later session — of this target or any other — via
    /// [`Target::session_from`].
    pub fn into_pages(self) -> SessionPages {
        SessionPages {
            bdd: self.bdd.into_pages(),
        }
    }

    /// Installs a trace collector recording into `lane`: subsequent
    /// compilations stream their span and counter events into it.
    /// Replaces any previously installed collector.
    pub fn install_collector(&mut self, lane: u32) {
        self.collector = Some(Collector::new(lane));
    }

    /// Removes the installed collector and returns its recorded trace
    /// (`None` when none was installed).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.collector.take().map(Collector::into_trace)
    }

    /// The frozen artifact this session compiles against.
    pub fn target(&self) -> &'t Target {
        self.target
    }

    /// BDD nodes this session created on top of the frozen base (a
    /// scratch-memory gauge).
    pub fn scratch_nodes(&self) -> usize {
        self.bdd.local_node_count()
    }

    /// Fraction of this session's BDD op-cache lookups served from cache
    /// (frozen-base hits included).
    pub fn bdd_op_cache_hit_rate(&self) -> f64 {
        self.bdd.op_cache_hit_rate()
    }

    /// Mean probe-chain length of this session's local unique-table
    /// lookups.
    pub fn bdd_unique_avg_probe_len(&self) -> f64 {
        self.bdd.unique_avg_probe_len()
    }

    /// Compiles one request.
    ///
    /// Every successful result carries a [`CompileReport`] with per-phase
    /// times and work counters; when a collector is installed
    /// ([`CompileSession::install_collector`]) the same phases also appear
    /// as spans in the trace.  Spans stay balanced on error paths (panics
    /// excepted — a contained panic abandons its open spans along with
    /// the rest of the poisoned session's scratch state).
    ///
    /// The whole pipeline runs under `catch_unwind`: a compiler bug that
    /// panics (or an armed [`CompileOptions::inject_panic`] hook) comes
    /// back as [`CompileError::Internal`] naming the phase that was
    /// running, and the session is marked
    /// [poisoned](CompileSession::poisoned) instead of taking the calling
    /// thread down.
    ///
    /// # Errors
    ///
    /// Structured [`CompileError`]s for mini-C errors and code-generation
    /// failures (no cover, storage exhaustion, missing spill paths); use
    /// [`CompileError::classify`] for the failure taxonomy.
    pub fn compile(
        &mut self,
        request: &CompileRequest<'_>,
    ) -> Result<CompiledKernel, CompileError> {
        let phase = Cell::new(CompilePhase::Parse);
        let contained = {
            let phase = &phase;
            catch_unwind(AssertUnwindSafe(|| self.compile_inner(request, phase)))
        };
        match contained {
            Ok(result) => result,
            Err(payload) => {
                self.poisoned = true;
                Err(CompileError::Internal {
                    function: request.function().to_owned(),
                    phase: phase.get(),
                    payload: panic_message(payload),
                })
            }
        }
    }

    /// The pipeline body; `at` tracks the phase currently running so the
    /// containment wrapper can attribute a panic.
    fn compile_inner(
        &mut self,
        request: &CompileRequest<'_>,
        at: &Cell<CompilePhase>,
    ) -> Result<CompiledKernel, CompileError> {
        let enter = |phase: CompilePhase| {
            at.set(phase);
            if request.options().inject_panic == Some(phase) {
                panic!("injected panic in phase `{phase}` (fault-injection hook)");
            }
        };
        let target = self.target;
        let function = request.function();
        let options = request.options();
        let mut report = CompileReport::with_capacity(7, 16);
        let bdd_before = self.bdd.counters();
        // Disjoint-field borrows: the probe holds `self.collector` for the
        // whole compilation while codegen and compaction mutate `self.bdd`.
        let mut probe = Probe::attached(self.collector.as_mut().map(|c| c as &mut dyn TraceSink));
        if let Some(budget) = options.deadline_ns {
            probe.set_deadline_ns(Some(record_probe::now_ns().saturating_add(budget)));
        }
        // Cooperative deadline: checked here at phase boundaries (and by
        // instrumented loops inside codegen via the probe), never
        // mid-phase, so `phase` always names the last *completed* phase.
        let expired = |probe: &Probe<'_>, phase: CompilePhase| {
            if probe.deadline_exceeded() {
                Err(CompileError::DeadlineExceeded {
                    function: function.to_owned(),
                    phase,
                })
            } else {
                Ok(())
            }
        };

        let t0 = Instant::now();
        enter(CompilePhase::Parse);
        probe.begin("parse");
        let parsed = record_ir::parse(request.source())
            .map_err(|e| CompileError::from_frontend(function, CompilePhase::Parse, &e));
        probe.end("parse");
        report.phase("parse", t0.elapsed().as_nanos() as u64);
        let program = parsed?;
        expired(&probe, CompilePhase::Parse)?;

        let t1 = Instant::now();
        enter(CompilePhase::Lower);
        probe.begin("lower");
        let lowered = record_ir::lower_cfg(&program, function)
            .map_err(|e| CompileError::from_frontend(function, CompilePhase::Lower, &e));
        probe.end("lower");
        report.phase("lower", t1.elapsed().as_nanos() as u64);
        let cfg = lowered?;
        expired(&probe, CompilePhase::Lower)?;
        // Straight-line functions take the pre-CFG single-block pipeline —
        // same statement slices, same phase calls — so their output stays
        // byte-identical to what this code produced before control flow
        // existed (pinned by the golden-listing tests).
        let straight = cfg.is_straight_line();
        // What the binder scans for ROM placement: every block's
        // statements, plus one pseudo-statement per branch condition so a
        // word read by a terminator never looks ROM-eligible.
        let bind_stmts: Cow<'_, [FlatStmt]> = if straight {
            Cow::Borrowed(&cfg.blocks[0].stmts)
        } else {
            let mut all: Vec<FlatStmt> = cfg
                .blocks
                .iter()
                .flat_map(|b| b.stmts.iter().cloned())
                .collect();
            for b in &cfg.blocks {
                if let Terminator::Branch { cond, .. } = &b.term {
                    all.push(FlatStmt {
                        target: Ref {
                            name: "$cond".to_owned(),
                            offset: 0,
                        },
                        value: cond.clone(),
                    });
                }
            }
            Cow::Owned(all)
        };

        let t2 = Instant::now();
        enter(CompilePhase::Bind);
        probe.begin("bind");
        // The baseline path ignores the constant memory on purpose: the
        // Figure 2 comparator routes every operand through data memory.
        let const_mem = if options.baseline {
            None
        } else {
            target.const_mem
        };
        let bound = target.data_memory().and_then(|dm| {
            Binding::allocate_with_const_mem(
                &program,
                function,
                &target.netlist,
                dm,
                const_mem,
                &bind_stmts,
            )
            .map_err(|e| CompileError::from_codegen(function, CompilePhase::Bind, e))
            .map(|binding| (binding, target.netlist.storage(dm).width))
        });
        probe.end("bind");
        report.phase("bind", t2.elapsed().as_nanos() as u64);
        let (mut binding, width) = bound?;
        expired(&probe, CompilePhase::Bind)?;

        let t3 = Instant::now();
        // Selection and emission both happen inside codegen; attribute
        // panics there to the emit phase (the enclosing span).
        enter(CompilePhase::Emit);
        probe.begin("codegen");
        let emitted = if options.baseline {
            if straight {
                baseline_compile(
                    &cfg.blocks[0].stmts,
                    &target.selector,
                    &target.base,
                    &mut binding,
                    &target.netlist,
                    &mut self.bdd,
                    &target.emit_tables,
                    width,
                    &mut probe,
                )
                .map(emitted_as_one_block)
            } else {
                Err(CodegenError::NoBranchPath {
                    detail: "the baseline per-operator compiler supports straight-line code only"
                        .to_owned(),
                })
            }
        } else if straight {
            compile(
                &cfg.blocks[0].stmts,
                &target.selector,
                &target.base,
                &mut binding,
                &target.netlist,
                &mut self.bdd,
                &target.emit_tables,
                width,
                &mut probe,
            )
            .map(emitted_as_one_block)
        } else {
            compile_cfg(
                &cfg,
                &target.selector,
                &target.base,
                &mut binding,
                &target.netlist,
                &mut self.bdd,
                &target.emit_tables,
                width,
                &mut probe,
            )
        };
        probe.end("codegen");
        let codegen_ns = t3.elapsed().as_nanos() as u64;
        let EmittedCfg {
            ops,
            block_ranges,
            stats: emit,
        } = emitted.map_err(|e| CompileError::from_codegen(function, CompilePhase::Emit, e))?;
        // Selection time is measured inside codegen per statement; the
        // rest of the codegen wall clock (splitting, spill routing, RT
        // emission) is the emit phase.
        report.phase("select", emit.select_ns);
        report.phase("emit", codegen_ns.saturating_sub(emit.select_ns));
        report.count("emit.statements", emit.statements);
        report.count("emit.splits", emit.splits);
        report.count("emit.spill-stores", emit.spill_stores);
        report.count("emit.reloads", emit.reloads);
        report.count("select.rules-tried", emit.select.rules_tried);
        report.count("select.labels-set", emit.select.labels_set);
        expired(&probe, CompilePhase::Emit)?;

        // Value placement: keep chained results register-resident.  The
        // baseline path stays memory-bound on purpose — it models the
        // Figure 2 target-specific compiler whose operands travel through
        // memory.
        let (mut ops, block_ranges, alloc) = match &target.pool {
            Some(pool) if options.allocate_registers && !options.baseline => {
                let t4 = Instant::now();
                enter(CompilePhase::Allocate);
                probe.begin("allocate");
                let (ops, ranges, stats) = if straight {
                    let liveness = Liveness::analyze(&cfg.blocks[0].stmts);
                    let (ops, stats) = allocate_probed(
                        &ops,
                        pool,
                        &liveness,
                        MemLayout::from_binding(&binding),
                        &AllocOptions::default(),
                        &mut probe,
                    );
                    let n = ops.len();
                    // One block spanning all ops, not `(0..n).collect()`.
                    #[allow(clippy::single_range_in_vec_init)]
                    (ops, vec![0..n], stats)
                } else {
                    let liveness = CfgLiveness::analyze(&cfg);
                    allocate_cfg_probed(
                        &ops,
                        &block_ranges,
                        pool,
                        &liveness,
                        MemLayout::from_binding(&binding),
                        &AllocOptions::default(),
                        &mut probe,
                    )
                };
                probe.end("allocate");
                report.phase("allocate", t4.elapsed().as_nanos() as u64);
                report.count(
                    "allocate.reloads-eliminated",
                    stats.reloads_eliminated as u64,
                );
                report.count("allocate.stores-eliminated", stats.stores_eliminated as u64);
                report.count("allocate.spills", stats.spills as u64);
                (ops, ranges, Some(stats))
            }
            _ => (ops, block_ranges, None),
        };
        expired(&probe, CompilePhase::Allocate)?;

        // Transfer targets leave emission as *block ids*; now that op
        // positions are final, rewrite them to vertical op indices (the
        // first op of the target block).  Compacted execution rewrites
        // them once more, to word indices, in `Schedule::materialize`.
        if !straight {
            for op in ops.iter_mut() {
                if op.transfer.is_some() {
                    if let SimExpr::Const(b) = op.expr {
                        op.expr = SimExpr::Const(block_ranges[b as usize].start as u64);
                    }
                }
            }
        }

        let schedule = options.compaction.then(|| {
            let t5 = Instant::now();
            enter(CompilePhase::Compact);
            probe.begin("compact");
            // A straight-line function is one block without transfers,
            // which `compact_cfg` compacts exactly as `compact` would.
            let schedule = compact_cfg(&ops, &block_ranges, &mut self.bdd);
            probe.end("compact");
            report.phase("compact", t5.elapsed().as_nanos() as u64);
            let stats = schedule.stats();
            report.count("compact.sat-checks", stats.sat_checks);
            report.count("compact.sat-rejects", stats.sat_rejects);
            schedule
        });

        let bdd = self.bdd.counters().delta(&bdd_before);
        report.count("bdd.nodes-allocated", bdd.nodes);
        report.count("bdd.op-cache-hits", bdd.op_hits);
        report.count("bdd.op-cache-misses", bdd.op_misses);
        report.count("bdd.unique-probes", bdd.unique_probes);
        report.count("bdd.unique-lookups", bdd.unique_lookups);

        Ok(CompiledKernel {
            ops,
            schedule,
            binding,
            alloc,
            report,
        })
    }
}

/// Wraps a straight-line emission result in the single-block CFG shape.
// One block spanning all ops, not `(0..n).collect()`.
#[allow(clippy::single_range_in_vec_init)]
fn emitted_as_one_block(e: Emitted) -> EmittedCfg {
    let n = e.ops.len();
    EmittedCfg {
        ops: e.ops,
        block_ranges: vec![0..n],
        stats: e.stats,
    }
}

/// The retained allocations of a torn-down [`CompileSession`]: overlay
/// node pages, hash tables and interner storage, with their *contents*
/// cleared.
///
/// Pages carry no handles, so they are not tied to the target that
/// produced them — [`Target::session_from`] accepts pages from any
/// session.  `Default` gives empty pages (a cold session).
#[derive(Debug, Default)]
pub struct SessionPages {
    bdd: record_bdd::OverlayPages,
}

/// Thread-parallel batch compilation over one frozen target.
///
/// Worker threads pull request indices off a shared atomic counter; each
/// request is compiled in its *own* fresh session, so output is
/// byte-identical to sequential [`Target::compile`] calls no matter how
/// the requests land on threads.  Uses `std::thread::scope` — no runtime,
/// no extra dependencies — and caps workers at the smaller of the request
/// count and available parallelism.
pub(crate) fn compile_batch(
    target: &Target,
    requests: &[CompileRequest<'_>],
) -> Vec<Result<CompiledKernel, CompileError>> {
    if requests.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(requests.len());
    if workers <= 1 {
        return requests.iter().map(|r| target.compile(r)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<Result<CompiledKernel, CompileError>>> =
        (0..requests.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break;
                        };
                        done.push((i, target.compile(request)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("batch worker panicked") {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every request index was claimed by exactly one worker"))
        .collect()
}

/// [`compile_batch`] with tracing: every request compiles in a fresh
/// session whose collector records into lane = request index, and the
/// lanes merge — by moving event buffers, no locks — after the workers
/// join.  Lanes come back sorted by request index, so the merged trace
/// is deterministic regardless of scheduling.
pub(crate) fn compile_batch_traced(
    target: &Target,
    requests: &[CompileRequest<'_>],
) -> (Vec<Result<CompiledKernel, CompileError>>, Trace) {
    let compile_one = |i: usize, request: &CompileRequest<'_>| {
        let mut session = target.session();
        session.install_collector(i as u32);
        let result = session.compile(request);
        let trace = session.take_trace().expect("collector installed above");
        (result, trace)
    };
    if requests.is_empty() {
        return (Vec::new(), Trace::default());
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(requests.len());
    if workers <= 1 {
        let (mut results, mut traces) = (Vec::new(), Vec::new());
        for (i, request) in requests.iter().enumerate() {
            let (result, trace) = compile_one(i, request);
            results.push(result);
            traces.push(trace);
        }
        return (results, Trace::merge(traces));
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<(Result<CompiledKernel, CompileError>, Trace)>> =
        (0..requests.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            break;
                        };
                        done.push((i, compile_one(i, request)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("batch worker panicked") {
                slots[i] = Some(result);
            }
        }
    });
    let (mut results, mut traces) = (Vec::new(), Vec::new());
    for slot in slots {
        let (result, trace) = slot.expect("every request index was claimed by exactly one worker");
        results.push(result);
        traces.push(trace);
    }
    (results, Trace::merge(traces))
}
