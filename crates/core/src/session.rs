//! Compilation sessions.
//!
//! The retarget artifact ([`crate::Target`]) is frozen; everything a
//! compilation mutates lives here.  A [`CompileSession`] owns the
//! session-local BDD overlay arena (emission and compaction conjoin
//! execution conditions, which creates nodes) plus whatever binding and
//! allocation state each request needs.  Sessions are cheap to open —
//! the overlay starts empty and pages grow on demand — so
//! [`crate::Target::compile`] opens one per request, and threads sharing
//! one target each compile in their own, with output byte-identical to
//! sequential compiles.

use crate::error::{panic_message, CompileError, CompilePhase};
use crate::pipeline::{CompileOptions, CompileReport, CompiledKernel, Target};
use record_bdd::BddOverlay;
use record_codegen::{Binding, Codegen, Emitted, SimExpr};
use record_compact::compact;
use record_probe::{Collector, Probe, Trace};
use record_regalloc::{allocate, AllocOptions, MemLayout};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
    /// contend — their traces merge with [`Trace::merge`] afterwards.
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

    /// Compiles one request.
    ///
    /// Every successful result carries a [`CompileReport`] with per-phase
    /// times and work counters; when a collector is installed
    /// ([`CompileSession::install_collector`]) the same phases also appear
    /// as spans in the trace, timed by the same clock readings.  Spans
    /// stay balanced on error paths (panics excepted — a contained panic
    /// abandons its open spans along with the rest of the poisoned
    /// session's scratch state).
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
        let running = Cell::new(CompilePhase::Parse);
        let contained = {
            let running = &running;
            catch_unwind(AssertUnwindSafe(|| self.compile_inner(request, running)))
        };
        match contained {
            Ok(result) => result,
            Err(payload) => {
                self.poisoned = true;
                Err(CompileError::Internal {
                    function: request.function().to_owned(),
                    phase: running.get(),
                    payload: panic_message(payload),
                })
            }
        }
    }

    /// The pipeline body: parse, lower, bind, codegen (select + emit),
    /// allocate, compact, over the lowered CFG.  A function without
    /// control flow is a CFG of one block.
    fn compile_inner(
        &mut self,
        request: &CompileRequest<'_>,
        running: &Cell<CompilePhase>,
    ) -> Result<CompiledKernel, CompileError> {
        let target = self.target;
        let function = request.function();
        let options = request.options();
        let bdd_before = self.bdd.counters();
        // Disjoint-field borrows: the probe holds `self.collector` for the
        // whole compilation while codegen and compaction mutate `self.bdd`.
        let mut phases = Phases {
            probe: Probe::attached(self.collector.as_mut()),
            deadline_ns: options
                .deadline_ns
                .map(|budget| record_probe::now_ns().saturating_add(budget)),
            report: CompileReport::with_capacity(7, 16),
            running,
            inject_panic: options.inject_panic,
            function,
        };

        let program = phases.run(CompilePhase::Parse, |_| {
            record_ir::parse(request.source())
                .map_err(|e| CompileError::from_frontend(function, CompilePhase::Parse, &e))
        })?;
        let cfg = phases.run(CompilePhase::Lower, |_| {
            record_ir::lower_cfg(&program, function)
                .map_err(|e| CompileError::from_frontend(function, CompilePhase::Lower, &e))
        })?;

        // The baseline path ignores the constant memory on purpose: the
        // Figure 2 comparator routes every operand through data memory.
        let const_mem = target
            .const_mem
            .filter(|_| !options.baseline)
            .map(|rom| (rom, &cfg));
        let mut binding = phases.run(CompilePhase::Bind, |_| {
            Binding::allocate_with_const_mem(
                &program,
                function,
                &target.netlist,
                target.data_memory()?,
                const_mem,
            )
            .map_err(|e| CompileError::from_codegen(function, CompilePhase::Bind, e))
        })?;

        // Selection and emission interleave inside codegen, under one
        // span: a panic there is attributed to the emit phase.
        phases.enter(CompilePhase::Select);
        let codegen = Codegen {
            selector: &target.selector,
            base: &target.base,
            netlist: &target.netlist,
            tables: &target.emit_tables,
        };
        let (emitted, codegen_ns) = phases.timed(CompilePhase::Emit, "codegen", |probe| {
            let emitted = if options.baseline {
                codegen.baseline(&cfg, &mut binding, &mut self.bdd, probe)
            } else {
                codegen.compile(&cfg, &mut binding, &mut self.bdd, probe)
            };
            emitted.map_err(|e| CompileError::from_codegen(function, CompilePhase::Emit, e))
        })?;
        let Emitted {
            ops,
            block_ranges,
            stats: emit,
        } = emitted;
        // Selection time is measured inside codegen per statement; the
        // rest of the codegen span (splitting, spill routing, RT
        // emission) is the emit phase.
        let report = &mut phases.report;
        report.phase("select", emit.select_ns);
        report.phase("emit", codegen_ns.saturating_sub(emit.select_ns));
        report.count("emit.statements", emit.statements);
        report.count("emit.splits", emit.splits);
        report.count("emit.spill-stores", emit.spill_stores);
        report.count("emit.reloads", emit.reloads);
        report.count("select.rules-tried", emit.select.rules_tried);
        report.count("select.labels-set", emit.select.labels_set);

        // Value placement: keep chained results register-resident.  The
        // baseline path stays memory-bound on purpose — it models the
        // Figure 2 target-specific compiler whose operands travel through
        // memory.
        let (mut ops, block_ranges, alloc) = match &target.pool {
            Some(pool) if options.allocate_registers && !options.baseline => {
                let (ops, ranges, stats) = phases.run(CompilePhase::Allocate, |probe| {
                    Ok(allocate(
                        ops,
                        &block_ranges,
                        pool,
                        MemLayout::from_binding(&binding),
                        &AllocOptions::default(),
                        probe,
                    ))
                })?;
                let report = &mut phases.report;
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

        // Transfer targets leave emission as *block ids*; now that op
        // positions are final, rewrite them to vertical op indices (the
        // first op of the target block).  Compacted execution rewrites
        // them once more, to word indices, in `Schedule::materialize`.
        for op in ops.iter_mut().filter(|op| op.transfer.is_some()) {
            if let SimExpr::Const(b) = op.expr {
                op.expr = SimExpr::Const(block_ranges[b as usize].start as u64);
            }
        }

        let schedule = if options.compaction {
            let schedule = phases.run(CompilePhase::Compact, |_| {
                Ok(compact(&ops, &block_ranges, &mut self.bdd))
            })?;
            let stats = schedule.stats();
            let report = &mut phases.report;
            report.count("compact.sat-checks", stats.sat_checks);
            report.count("compact.sat-rejects", stats.sat_rejects);
            Some(schedule)
        } else {
            None
        };

        let mut report = phases.report;
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

/// The phase bookkeeping of one compilation.
///
/// Each phase is one [`Probe::time`] span, whose two clock readings also
/// give its report entry.  Entering a phase records it for panic
/// attribution and fires the fault-injection hook when armed for it.  The
/// deadline is checked against the span's end, so a
/// [`CompileError::DeadlineExceeded`] names the phase that had just
/// completed.
struct Phases<'a, 's> {
    probe: Probe<'s>,
    /// When the compile's budget runs out, in [`record_probe::now_ns`]
    /// time (`None` when unbounded).
    deadline_ns: Option<u64>,
    report: CompileReport,
    /// The phase running now, read by the containment wrapper when a
    /// panic unwinds.
    running: &'a Cell<CompilePhase>,
    inject_panic: Option<CompilePhase>,
    function: &'a str,
}

impl<'s> Phases<'_, 's> {
    /// Marks `phase` as running and fires the fault-injection hook.
    fn enter(&self, phase: CompilePhase) {
        self.running.set(phase);
        if self.inject_panic == Some(phase) {
            panic!("injected panic in phase `{phase}` (fault-injection hook)");
        }
    }

    /// Runs `body` as `phase` inside span `label`, then checks the
    /// deadline; returns the body's value and the span's duration.
    fn timed<T>(
        &mut self,
        phase: CompilePhase,
        label: &'static str,
        body: impl FnOnce(&mut Probe<'s>) -> Result<T, CompileError>,
    ) -> Result<(T, u64), CompileError> {
        self.enter(phase);
        let (result, span) = self.probe.time(label, body);
        let value = result?;
        if self.deadline_ns.is_some_and(|d| span.end_ns > d) {
            return Err(CompileError::DeadlineExceeded {
                function: self.function.to_owned(),
                phase,
            });
        }
        Ok((value, span.ns()))
    }

    /// [`Phases::timed`] under the phase's own label, recorded in the
    /// report.
    fn run<T>(
        &mut self,
        phase: CompilePhase,
        body: impl FnOnce(&mut Probe<'s>) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        let (value, ns) = self.timed(phase, phase.label(), body)?;
        self.report.phase(phase.label(), ns);
        Ok(value)
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
