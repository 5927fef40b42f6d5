//! The retargeting pipeline and the frozen retarget artifact.
//!
//! [`Record::retarget`] runs once per processor model and returns a
//! [`Target`]: an immutable, `Send + Sync` compiler for that processor.
//! Everything mutable during compilation — the BDD overlay arena, the
//! variable binding, allocation state — lives in a per-compilation
//! [`crate::CompileSession`], so one retargeted `Target` can serve any
//! number of concurrent compilations through [`Target::compile`] and
//! [`Target::compile_batch`].

use crate::error::{CompileError, PipelineError};
use crate::session::{CompileRequest, CompileSession};
use record_bdd::FrozenBdd;
use record_codegen::{Binding, EmitTables, Machine, RtOp};
use record_compact::Schedule;
use record_grammar::TreeGrammar;
use record_isex::{ExtractOptions, VarMap};
use record_netlist::{Netlist, StorageId, StorageKind};
use record_probe::{Probe, Report};
use record_regalloc::{AllocStats, RegisterPool};
use record_rtl::{ExtensionOptions, TemplateBase};
use record_selgen::Selector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for [`Record::retarget`].
#[derive(Debug, Clone, Default)]
pub struct RetargetOptions {
    /// ISE limits.
    pub extract: ExtractOptions,
    /// Algebraic extension configuration (§3 of the paper).
    pub extension: ExtensionOptions,
}

/// Retargeting report: one row of the paper's Table 3 (the count
/// columns) plus the per-phase time/counter breakdown as a
/// [`record_probe::Report`].
///
/// This is the single retarget-side statistics struct — phase times that
/// used to be separate `t_*` `Duration` fields live in [`Self::report`]
/// under the phase labels `"parse"`, `"extract"`, `"template-gen"`,
/// `"rule-gen"`, `"selector-gen"` and `"freeze"`, with accessor methods
/// preserving the old vocabulary.
#[derive(Debug, Clone)]
pub struct RetargetReport {
    /// Processor name from the HDL model.
    pub processor: String,
    /// Templates delivered by ISE (after validity filtering and merging).
    pub templates_extracted: usize,
    /// Templates after commutative/rewrite extension — the paper's
    /// "number of RT templates" column.
    pub templates_extended: usize,
    /// Routes discarded for unsatisfiable conditions.
    pub unsat_discarded: usize,
    /// Grammar rules.
    pub rules: usize,
    /// Non-terminals.
    pub nonterminals: usize,
    /// Allocatable register classes discovered for the register pool
    /// (0 when the model has no data memory).
    pub pool_registers: usize,
    /// Total allocatable register cells in the pool.
    pub pool_cells: u64,
    /// Per-phase wall-clock times and work counters.
    pub report: record_probe::Report,
    /// Total retargeting wall clock in nanoseconds — the paper's
    /// "retargeting time" column (phase times plus inter-phase glue).
    pub total_ns: u64,
}

impl RetargetReport {
    fn phase_dur(&self, label: &str) -> Duration {
        Duration::from_nanos(self.report.phase_ns(label).unwrap_or(0))
    }

    /// Time in the HDL frontend (parsing + elaboration; phase `"parse"`).
    pub fn t_frontend(&self) -> Duration {
        self.phase_dur("parse")
    }

    /// Time in instruction-set extraction (phase `"extract"`).
    pub fn t_extract(&self) -> Duration {
        self.phase_dur("extract")
    }

    /// Time in algebraic template extension (phase `"template-gen"`).
    pub fn t_extend(&self) -> Duration {
        self.phase_dur("template-gen")
    }

    /// Time constructing the tree grammar (phase `"rule-gen"`).
    pub fn t_grammar(&self) -> Duration {
        self.phase_dur("rule-gen")
    }

    /// Time generating the selector tables (phase `"selector-gen"`).
    pub fn t_selector(&self) -> Duration {
        self.phase_dur("selector-gen")
    }

    /// Total retargeting time.
    pub fn t_total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }
}

/// The retargetable compiler entry point.
#[derive(Debug)]
pub struct Record;

impl Record {
    /// Retargets the compiler to the processor described by `hdl`.
    ///
    /// The returned [`Target`] is frozen: the netlist, template base,
    /// grammar, selector, execution-condition BDDs and register pool are
    /// all fixed at this point, and compilation never mutates them.
    ///
    /// # Errors
    ///
    /// Fails on malformed HDL, elaboration errors or extraction errors
    /// (combinational cycles, route explosion).
    pub fn retarget(hdl: &str, options: &RetargetOptions) -> Result<Target, PipelineError> {
        Record::retarget_probed(hdl, options, &mut Probe::disabled())
    }

    /// [`Record::retarget`] with a trace probe: every retargeting phase
    /// (`parse`, `extract`, `template-gen`, `rule-gen`, `selector-gen`,
    /// `freeze`) is bracketed by a span on `probe`, and phase sizes are
    /// reported as counters.  The same phase labels appear in the
    /// returned target's [`RetargetReport`], probe or not.
    ///
    /// # Errors
    ///
    /// As [`Record::retarget`].  Spans stay balanced on the error path.
    pub fn retarget_probed(
        hdl: &str,
        options: &RetargetOptions,
        probe: &mut Probe<'_>,
    ) -> Result<Target, PipelineError> {
        let t0 = Instant::now();
        let mut report = Report::with_capacity(6, 8);

        let netlist = phase(probe, &mut report, "parse", |_| {
            let model = record_hdl::parse(hdl).map_err(|e| PipelineError::Hdl(e.to_string()))?;
            record_netlist::elaborate(&model).map_err(|e| PipelineError::Netlist(e.to_string()))
        })?;

        let extraction = phase(probe, &mut report, "extract", |_| {
            record_isex::extract(&netlist, &options.extract)
                .map_err(|e| PipelineError::Extract(e.to_string()))
        })?;
        let templates_extracted = extraction.base.len();
        probe.count("extract.templates", templates_extracted as u64);
        report.count("extract.templates", templates_extracted as u64);

        let mut base = extraction.base;
        phase(probe, &mut report, "template-gen", |_| {
            record_rtl::extend(&mut base, &options.extension)
        });
        probe.count("template-gen.templates", base.len() as u64);
        report.count("template-gen.templates", base.len() as u64);

        let grammar = phase(probe, &mut report, "rule-gen", |probe| {
            let grammar = TreeGrammar::from_base(&base, &netlist);
            probe.count("rule-gen.nonterminals", grammar.nonterm_count() as u64);
            probe.count("rule-gen.rules", grammar.rules().len() as u64);
            Arc::new(grammar)
        });
        report.count("rule-gen.nonterminals", grammar.nonterm_count() as u64);
        report.count("rule-gen.rules", grammar.rules().len() as u64);

        let selector = phase(probe, &mut report, "selector-gen", |_| {
            Selector::generate(Arc::clone(&grammar))
        });

        // Freeze the artifact: data memory, register pool and the
        // emission tables (register-file address fields, instruction-bit
        // literals) are fixed by the netlist and template base, so they
        // are built *now*, not recomputed on every compile.  The literal
        // handles must be created before `freeze` so sessions see them as
        // frozen-base handles.
        let mut manager = extraction.manager;
        let (emit_tables, data_mem, const_mem, pool) = phase(probe, &mut report, "freeze", |_| {
            let emit_tables =
                EmitTables::build(&netlist, &mut manager, extraction.varmap.iword_width());
            let data_mem = netlist
                .storages()
                .iter()
                .filter(|s| s.kind == StorageKind::Memory)
                .max_by_key(|s| s.size)
                .map(|s| s.id);
            let const_mem = const_memory_of(&grammar, &netlist, data_mem);
            let pool = data_mem.map(|dm| RegisterPool::discover(&netlist, &base, dm));
            (emit_tables, data_mem, const_mem, pool)
        });
        report.count("freeze.bdd-nodes", manager.counters().nodes);

        let stats = RetargetReport {
            processor: netlist.name().to_owned(),
            templates_extracted,
            templates_extended: base.len(),
            unsat_discarded: extraction.stats.unsat_discarded,
            rules: grammar.rules().len(),
            nonterminals: grammar.nonterm_count(),
            pool_registers: pool.as_ref().map_or(0, |p| p.classes().len()),
            pool_cells: pool.as_ref().map_or(0, |p| p.capacity()),
            report,
            total_ns: t0.elapsed().as_nanos() as u64,
        };
        Ok(Target {
            netlist,
            base,
            grammar,
            selector,
            frozen: manager.freeze(),
            varmap: extraction.varmap,
            emit_tables,
            stats,
            data_mem,
            const_mem,
            pool,
        })
    }
}

/// Runs `body` as retarget phase `label`: its span and its report entry
/// come from the same two clock readings.
fn phase<'s, T>(
    probe: &mut Probe<'s>,
    report: &mut Report,
    label: &'static str,
    body: impl FnOnce(&mut Probe<'s>) -> T,
) -> T {
    let (out, span) = probe.time(label, body);
    report.phase(label, span.ns());
    out
}

/// Detects a *constant memory*: a second memory whose read port feeds
/// multiplier operands (a DSP coefficient ROM, like the paper's
/// `bassboost` example) and which no template ever writes.
///
/// The evidence is the generated grammar itself: a memory qualifies when
/// some rule reads it as a direct operand of a `*` pattern and no rule
/// stores to it.  Variable binding uses this to place read-only,
/// multiply-only variables where the `mul(coef, x)`-shaped rules can
/// reach them.
fn const_memory_of(
    grammar: &TreeGrammar,
    netlist: &Netlist,
    data_mem: Option<StorageId>,
) -> Option<StorageId> {
    use record_grammar::{GPat, TermKey};
    use record_rtl::OpKind;
    let mut mul_read: Vec<StorageId> = Vec::new();
    let mut written: Vec<StorageId> = Vec::new();
    fn walk(
        p: &GPat,
        under_mul: bool,
        mul_read: &mut Vec<StorageId>,
        written: &mut Vec<StorageId>,
    ) {
        let GPat::T(key, kids) = p else { return };
        match key {
            TermKey::MemRead(s) if under_mul => mul_read.push(*s),
            TermKey::Store(s) => written.push(*s),
            _ => {}
        }
        let is_mul = matches!(key, TermKey::Op(OpKind::Mul));
        for k in kids {
            walk(k, is_mul, mul_read, written);
        }
    }
    for rule in grammar.rules() {
        walk(&rule.rhs, false, &mut mul_read, &mut written);
    }
    // First qualifying storage in netlist declaration order, for
    // determinism when a model would somehow have several.
    netlist
        .storages()
        .iter()
        .filter(|s| s.kind == StorageKind::Memory)
        .map(|s| s.id)
        .find(|id| Some(*id) != data_mem && mul_read.contains(id) && !written.contains(id))
}

/// Options for [`Target::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Use the naive per-operator baseline instead of tree-parsing
    /// selection (the Figure 2 comparator).
    pub baseline: bool,
    /// Run code compaction after selection.
    pub compaction: bool,
    /// Run the register-allocation / value-placement phase after emission
    /// (`record-regalloc`): chained results stay register-resident across
    /// statements instead of round-tripping through data memory.  Ignored
    /// on the baseline path, which deliberately stays memory-bound.
    pub allocate_registers: bool,
    /// Compilation time budget in nanoseconds, `None` for unbounded.
    ///
    /// The deadline is cooperative: the session arms the probe's deadline
    /// when compilation starts and checks it at phase boundaries, so an
    /// exceeded budget surfaces as a structured
    /// [`CompileError::DeadlineExceeded`] naming the last completed phase
    /// rather than interrupting a phase mid-flight.
    pub deadline_ns: Option<u64>,
    /// Fault-injection hook: deliberately panic when compilation enters
    /// this phase.
    ///
    /// Exists to *prove* the panic-containment boundary: the injected
    /// panic must come back as a structured [`CompileError::Internal`]
    /// (wire kind `internal`), not kill the calling thread.  Used by the
    /// serve smoke test and the fuzz harness's containment tests; never
    /// set it in production requests.
    pub inject_panic: Option<crate::CompilePhase>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            baseline: false,
            compaction: true,
            allocate_registers: true,
            deadline_ns: None,
            inject_panic: None,
        }
    }
}

/// Per-compilation phase times and work counters, attached to every
/// [`CompiledKernel`].
///
/// An alias of [`record_probe::Report`]: phases use the
/// [`crate::CompilePhase`] label vocabulary (`parse`, `lower`, `bind`,
/// `select`, `emit`, `allocate`, `compact`); the counter vocabulary is
/// documented in ARCHITECTURE.md's Observability section.
pub type CompileReport = record_probe::Report;

/// A compiled kernel: vertical RT code plus the compacted schedule.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Vertical RT operations in emission order (post-allocation when the
    /// register allocator ran).
    ///
    /// The `cond` handles on these ops are scoped to the session that
    /// compiled the kernel (see [`record_codegen::RtOp::cond`]); execute,
    /// list, compare and simulate freely, but do not feed them back into
    /// [`Target::manager`].
    pub ops: Vec<RtOp>,
    /// Compacted instruction-word schedule (empty when compaction is off).
    pub schedule: Option<Schedule>,
    /// Variable binding used (for simulation set-up).
    pub binding: Binding,
    /// Register-allocation counters (`None` when the phase did not run).
    pub alloc: Option<AllocStats>,
    /// Per-phase times and work counters for this compilation (always
    /// attached; see [`crate::CompileReport`]).
    pub report: crate::CompileReport,
}

impl CompiledKernel {
    /// Code size in instruction words: compacted size when available,
    /// vertical size otherwise.
    pub fn code_size(&self) -> usize {
        match &self.schedule {
            Some(s) => s.len(),
            None => self.ops.len(),
        }
    }
}

/// A retargeted compiler for one processor: the frozen retarget artifact.
///
/// `Target` is immutable and `Send + Sync`.  Compilation goes through
/// [`Target::compile`] (one-shot), [`Target::session`] (an explicit
/// reusable session) or [`Target::compile_batch`] (thread-parallel
/// fan-out); none of them takes `&mut self`, so a single retargeted
/// artifact can be shared across threads and serve concurrent traffic.
#[derive(Debug)]
pub struct Target {
    pub(crate) netlist: Netlist,
    pub(crate) base: TemplateBase,
    /// Shared with the selector (one rule set, two handles).
    pub(crate) grammar: Arc<TreeGrammar>,
    pub(crate) selector: Selector,
    /// Frozen execution-condition BDDs; sessions layer overlays on top.
    pub(crate) frozen: FrozenBdd,
    pub(crate) varmap: VarMap,
    /// Emission tables (rf address fields, instruction-bit literals),
    /// fixed at retarget time.
    pub(crate) emit_tables: EmitTables,
    pub(crate) stats: RetargetReport,
    /// Default data memory, fixed at retarget time (`None` when the model
    /// has none — every compile then fails with a diagnostic).
    pub(crate) data_mem: Option<StorageId>,
    /// Constant memory (multiplier-fed ROM), detected at retarget time;
    /// see [`const_memory_of`].
    pub(crate) const_mem: Option<StorageId>,
    /// Register pool, discovered eagerly at retarget time.
    pub(crate) pool: Option<RegisterPool>,
}

/// Compile-time proof of the API contract: a retargeted artifact is
/// shareable across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Target>();
};

impl Target {
    /// The retargeting report: Table 3 counts plus the per-phase
    /// time/counter breakdown.
    pub fn report(&self) -> &RetargetReport {
        &self.stats
    }

    /// The elaborated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The extended template base.
    pub fn base(&self) -> &TemplateBase {
        &self.base
    }

    /// The constructed tree grammar.
    pub fn grammar(&self) -> &TreeGrammar {
        &self.grammar
    }

    /// The generated code selector.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// BDD variable layout (instruction width, mode bits).
    pub fn varmap(&self) -> &VarMap {
        &self.varmap
    }

    /// The frozen store of all execution conditions of this target.
    ///
    /// Valid for every handle created at retarget time (template
    /// conditions, `base().template(id).cond`).  Handles found on
    /// *compiled* ops ([`CompiledKernel::ops`]) may point into the
    /// overlay of the session that emitted them and must not be
    /// interpreted here — see [`record_codegen::RtOp::cond`].
    pub fn manager(&self) -> &FrozenBdd {
        &self.frozen
    }

    /// The register pool discovered at retarget time (`None` when the
    /// model has no data memory to spill through).
    pub fn register_pool(&self) -> Option<&RegisterPool> {
        self.pool.as_ref()
    }

    /// The default data memory: the first (largest) `Memory` storage.
    ///
    /// # Errors
    ///
    /// [`CompileError::NoDataMemory`] when the model has none.
    pub fn data_memory(&self) -> Result<StorageId, CompileError> {
        self.data_mem.ok_or_else(|| CompileError::NoDataMemory {
            processor: self.stats.processor.clone(),
        })
    }

    /// A data memory by instance name.
    ///
    /// # Errors
    ///
    /// [`CompileError::UnknownStorage`] when no storage has that name, and
    /// [`CompileError::NotAMemory`] when one does but it is a register or
    /// register file.
    pub fn memory_named(&self, name: &str) -> Result<StorageId, CompileError> {
        let s = self
            .netlist
            .storage_by_name(name)
            .ok_or_else(|| CompileError::UnknownStorage {
                name: name.to_owned(),
            })?;
        if s.kind != StorageKind::Memory {
            return Err(CompileError::NotAMemory {
                name: name.to_owned(),
            });
        }
        Ok(s.id)
    }

    /// Opens a compilation session against this frozen artifact.
    ///
    /// A session owns all per-compilation mutable state (the BDD overlay
    /// arena) and can compile any number of requests; open one per thread
    /// when rolling your own parallelism, or use
    /// [`Target::compile_batch`].
    pub fn session(&self) -> CompileSession<'_> {
        CompileSession::new(self)
    }

    /// Opens a compilation session that reuses the retained allocations of
    /// a previous session (see [`crate::SessionPages`]).
    ///
    /// The pages may come from a session of *any* target — they carry no
    /// handles, only capacity — which is what lets a session pool rebuild
    /// warm sessions against whichever artifact a request resolves to.
    /// Compilation output is byte-identical to a fresh [`Target::session`].
    pub fn session_from(&self, pages: crate::SessionPages) -> CompileSession<'_> {
        CompileSession::from_pages(self, pages)
    }

    /// Compiles one request against the frozen artifact.
    ///
    /// Shorthand for `self.session().compile(request)` — a fresh session
    /// is created and dropped, which keeps results bit-identical whether a
    /// request is compiled here, in an explicit session, or in a batch.
    ///
    /// # Errors
    ///
    /// Structured [`CompileError`]s for mini-C errors and code-generation
    /// failures (no cover, storage exhaustion, missing spill paths).
    pub fn compile(&self, request: &CompileRequest<'_>) -> Result<CompiledKernel, CompileError> {
        self.session().compile(request)
    }

    /// Compiles a batch of requests, fanning out across OS threads.
    ///
    /// Results come back in request order and are byte-identical to
    /// compiling each request sequentially with [`Target::compile`]: every
    /// request gets its own session over the same frozen base, so neither
    /// thread count nor scheduling can leak into the output.
    pub fn compile_batch(
        &self,
        requests: &[CompileRequest<'_>],
    ) -> Vec<Result<CompiledKernel, CompileError>> {
        crate::session::compile_batch(self, requests)
    }

    /// [`Target::compile_batch`] with tracing: each request's session
    /// records into its own trace lane (lane id = request index) and the
    /// lanes merge lock-free after the workers join.  Results are
    /// byte-identical to the untraced batch.
    pub fn compile_batch_traced(
        &self,
        requests: &[CompileRequest<'_>],
    ) -> (
        Vec<Result<CompiledKernel, CompileError>>,
        record_probe::Trace,
    ) {
        crate::session::compile_batch_traced(self, requests)
    }

    /// Runs compiled code on a zeroed machine with `init` memory words
    /// (`(variable, values)` pairs resolved through the kernel's binding)
    /// and returns the machine afterwards.
    ///
    /// # Panics
    ///
    /// Panics if an `init` variable is not bound (programming error in the
    /// caller).
    pub fn execute(&self, kernel: &CompiledKernel, init: &[(&str, Vec<u64>)]) -> Machine {
        let dm = self
            .data_memory()
            .expect("compile succeeded, data memory exists");
        let mut machine = Machine::new(&self.netlist);
        for (name, values) in init {
            // Variables live in data memory, except ROM-placed constants
            // (coefficients the binding moved into the constant memory).
            let (storage, base) = kernel
                .binding
                .assignments()
                .find(|(n, _)| n == name)
                .map(|(_, base)| (dm, base))
                .or_else(|| {
                    let rom = kernel.binding.const_mem()?;
                    kernel
                        .binding
                        .rom_assignments()
                        .find(|(n, _)| n == name)
                        .map(|(_, base)| (rom, base))
                })
                .unwrap_or_else(|| panic!("variable `{name}` is not bound"));
            for (i, v) in values.iter().enumerate() {
                machine.set_mem(storage, base + i as u64, *v);
            }
        }
        match &kernel.schedule {
            Some(s) => machine.run_compacted(&s.materialize(&kernel.ops)),
            None => machine.run(&kernel.ops),
        }
        machine
    }

    /// Renders compiled code as an assembly-like listing.
    pub fn listing(&self, kernel: &CompiledKernel) -> String {
        let mut out = String::new();
        match &kernel.schedule {
            Some(s) => {
                for (wi, word) in s.words().iter().enumerate() {
                    let rts: Vec<String> = word
                        .ops
                        .iter()
                        .map(|&i| kernel.ops[i].render(&self.netlist))
                        .collect();
                    out.push_str(&format!("{wi:>4}: {}\n", rts.join("  ||  ")));
                }
            }
            None => {
                for (i, op) in kernel.ops.iter().enumerate() {
                    out.push_str(&format!("{i:>4}: {}\n", op.render(&self.netlist)));
                }
            }
        }
        out
    }
}
