//! Pipeline error types.
//!
//! Retargeting failures are [`PipelineError`]s: one message per failing
//! retarget phase (they are one-shot, operator-facing).  Compilation
//! failures use the structured [`CompileError`]/[`Diagnostic`] pair: they
//! carry the phase that failed, the source position or RT index reached,
//! and the names of the storages/templates involved, so a service
//! front-end can attribute a failed request without parsing message
//! strings.

use record_codegen::CodegenError;
use std::error::Error;
use std::fmt;

/// A retargeting failure.
///
/// [`crate::Record::retarget`] reports `Hdl`, `Netlist` and `Extract`,
/// each with the failing phase's message; compilation reports
/// [`CompileError`]s instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    Hdl(String),
    Netlist(String),
    Extract(String),
    /// The retargeting pipeline panicked; the payload is the panic
    /// message.  Produced by panic-containment boundaries (the serve
    /// layer's target cache, the fuzz oracle) that run
    /// [`crate::Record::retarget`] under `catch_unwind`.
    Internal(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Hdl(s) => write!(f, "HDL frontend: {s}"),
            PipelineError::Netlist(s) => write!(f, "elaboration: {s}"),
            PipelineError::Extract(s) => write!(f, "instruction-set extraction: {s}"),
            PipelineError::Internal(s) => write!(f, "internal retargeting error: {s}"),
        }
    }
}

impl Error for PipelineError {}

/// The compilation phase a [`Diagnostic`] originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilePhase {
    /// mini-C parsing.
    Parse,
    /// Flattening/lowering of the requested function.
    Lower,
    /// Variable binding (memory layout).
    Bind,
    /// Tree-pattern selection.
    Select,
    /// Cover emission (spills, register-file cells).
    Emit,
    /// Register allocation / value placement.
    Allocate,
    /// Code compaction.
    Compact,
}

impl CompilePhase {
    /// The phase's trace-span label — the same vocabulary
    /// `record-probe` spans and report tables use.
    pub fn label(self) -> &'static str {
        match self {
            CompilePhase::Parse => "parse",
            CompilePhase::Lower => "lower",
            CompilePhase::Bind => "bind",
            CompilePhase::Select => "select",
            CompilePhase::Emit => "emit",
            CompilePhase::Allocate => "allocate",
            CompilePhase::Compact => "compact",
        }
    }

    /// The inverse of [`CompilePhase::label`] (`None` for unknown text).
    /// Lets wire protocols and fuzz corpora name phases by slug.
    pub fn from_label(label: &str) -> Option<CompilePhase> {
        match label {
            "parse" => Some(CompilePhase::Parse),
            "lower" => Some(CompilePhase::Lower),
            "bind" => Some(CompilePhase::Bind),
            "select" => Some(CompilePhase::Select),
            "emit" => Some(CompilePhase::Emit),
            "allocate" => Some(CompilePhase::Allocate),
            "compact" => Some(CompilePhase::Compact),
            _ => None,
        }
    }
}

impl fmt::Display for CompilePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A structured description of one compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which phase failed.
    pub phase: CompilePhase,
    /// Human-readable description.
    pub message: String,
    /// 1-based (line, column) in the mini-C source, when the failure has
    /// a source position (parse/lower errors).
    pub span: Option<(u32, u32)>,
    /// RT index reached when the phase stopped, when the failure has one
    /// (spill-path errors).  Counted from where the *failing cover*
    /// began, not from the start of the kernel: emission discards a
    /// failed cover's RTs, and a failed compile produces no kernel to
    /// index into.
    pub rt_index: Option<usize>,
    /// Rendered name of the storage or location involved, when one is:
    /// a bare instance name for capacity failures (`"rf"`, `"dmem"`) or a
    /// rendered location for spill-path failures (`"acc"`, `"rf[3]"`).
    /// Display text, not a lookup key — resolve storages through the
    /// netlist instead.
    pub storage: Option<String>,
    /// Mnemonic of an operator the machine has *no rule at all* for, when
    /// the selector proved that (selection failures only).  Set means the
    /// failure is a hardware gap, not a selector gap — see
    /// [`CompileError::classify`].
    pub op: Option<&'static str>,
    /// `true` when the program needs a control transfer but the target
    /// exposes no usable PC-writing template (emission failures only) —
    /// classified `no-branch-path`.
    pub branch_gap: bool,
    /// Correlation id of the serving-layer request this failure belongs
    /// to, when one exists.  The compiler never sets this; the serve
    /// front-end threads it in ([`CompileError::set_request_id`]) so
    /// wire errors, access-log lines and scrape labels line up.
    pub request_id: Option<String>,
}

impl Diagnostic {
    /// A bare diagnostic for `phase`.
    pub fn new(phase: CompilePhase, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            phase,
            message: message.into(),
            span: None,
            rt_index: None,
            storage: None,
            op: None,
            branch_gap: false,
            request_id: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.phase, self.message)?;
        if let Some((line, col)) = self.span {
            write!(f, " at {line}:{col}")?;
        }
        if let Some(i) = self.rt_index {
            write!(f, " at RT {i}")?;
        }
        if let Some(s) = &self.storage {
            write!(f, " (storage `{s}`)")?;
        }
        Ok(())
    }
}

/// A structured compilation error, returned by [`crate::Target::compile`]
/// and [`crate::CompileSession::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The model has no memory suitable as data memory.
    NoDataMemory {
        /// Processor name from the HDL model.
        processor: String,
    },
    /// The mini-C frontend rejected the translation unit.
    Frontend {
        /// The function that was requested.
        function: String,
        /// What went wrong, with source position.  Boxed to keep the
        /// error (and every `Result` it rides in) pointer-small.
        diagnostic: Box<Diagnostic>,
    },
    /// Code generation failed (selection, spill paths, storage).
    Codegen {
        /// The function being compiled.
        function: String,
        /// What went wrong, with RT index / storage name when available.
        /// Boxed to keep the error pointer-small.
        diagnostic: Box<Diagnostic>,
    },
    /// The request's deadline passed before compilation finished.
    ///
    /// Raised at phase boundaries (cooperative cancellation: the session
    /// compares each phase's end with the deadline), so `phase` names
    /// the last phase that ran to completion.
    DeadlineExceeded {
        /// The function being compiled.
        function: String,
        /// The last phase that completed before the deadline check fired.
        phase: CompilePhase,
    },
    /// The compiler panicked.
    ///
    /// [`crate::CompileSession::compile`] runs the pipeline under
    /// `catch_unwind`, so a bug that would otherwise abort the calling
    /// thread (and kill a server worker) surfaces as this structured
    /// error instead.  The session that produced it is
    /// [poisoned](crate::CompileSession::poisoned): its overlay may be
    /// mid-mutation, so discard it (or [`crate::CompileSession::reset`]
    /// it) rather than compiling further requests on it.
    Internal {
        /// The function being compiled.
        function: String,
        /// The phase that was running when the panic unwound.
        phase: CompilePhase,
        /// The panic payload (message), when it was a string.
        payload: String,
    },
}

/// The failure taxonomy: which phase a compilation died in and what
/// *kind* of failure it was.
///
/// The kind separates failures that look identical in a pass/fail table:
///
/// * `missing-hardware(<op>)` — the machine has no rule at all for an
///   operator; fixing it needs a different processor model.
/// * `selector-gap` — rules exist but no cover was found; a smarter
///   selector (or splitter) might compile this.
/// * `no-spill-path` — a register conflict needed a spill but the machine
///   has no store/reload templates for the register (or the conflict is
///   cyclic).
/// * `no-branch-path` — the program has runtime control flow but the
///   target exposes no usable PC-writing template (no PC declared, no
///   jump, or no zero-testing conditional branch).
/// * `bind-overflow` — a storage ran out of words or cells.
/// * `deadline-exceeded` — the request's deadline passed mid-compile
///   (phase = the last phase that completed).
/// * `no-data-memory`, `unbound-variable`, `frontend` — set-up
///   failures.
///
/// The golden listings under `tests/golden/` pin this pair per failing
/// model×kernel, so a pair cannot silently change class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureClass {
    /// The phase that failed.
    pub phase: CompilePhase,
    /// The failure kind slug (see the type docs for the vocabulary).
    pub kind: String,
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.phase, self.kind)
    }
}

impl CompileError {
    /// The diagnostic payload, when the variant carries one.
    pub fn diagnostic(&self) -> Option<&Diagnostic> {
        match self {
            CompileError::Frontend { diagnostic, .. }
            | CompileError::Codegen { diagnostic, .. } => Some(diagnostic),
            _ => None,
        }
    }

    /// Threads a serving-layer correlation id into the diagnostic, when
    /// the variant carries one (variants without a diagnostic — timeouts,
    /// contained panics — carry the id on the wire response instead).
    pub fn set_request_id(&mut self, request_id: &str) {
        if let CompileError::Frontend { diagnostic, .. }
        | CompileError::Codegen { diagnostic, .. } = self
        {
            diagnostic.request_id = Some(request_id.to_owned());
        }
    }

    /// The phase that failed (for deadline errors: the last phase that
    /// completed before the deadline fired; for internal errors: the
    /// phase that was running when the panic unwound).
    pub fn phase(&self) -> Option<CompilePhase> {
        match self {
            CompileError::DeadlineExceeded { phase, .. } | CompileError::Internal { phase, .. } => {
                Some(*phase)
            }
            _ => self.diagnostic().map(|d| d.phase),
        }
    }

    /// Classifies the failure (see [`FailureClass`]).
    ///
    /// Total: every error maps to exactly one class, derived from the
    /// structured diagnostic fields — no message parsing.
    pub fn classify(&self) -> FailureClass {
        let class = |phase, kind: &str| FailureClass {
            phase,
            kind: kind.to_owned(),
        };
        match self {
            CompileError::NoDataMemory { .. } => class(CompilePhase::Bind, "no-data-memory"),
            CompileError::Frontend { diagnostic, .. } => class(diagnostic.phase, "frontend"),
            CompileError::DeadlineExceeded { phase, .. } => class(*phase, "deadline-exceeded"),
            CompileError::Internal { phase, .. } => class(*phase, "internal"),
            CompileError::Codegen { diagnostic, .. } => {
                // The diagnostic fields identify the codegen variant
                // exactly: `op` only on proven hardware gaps, `rt_index`
                // only on spill-path failures, `storage` (without
                // `rt_index`) only on storage exhaustion.
                if let Some(op) = diagnostic.op {
                    FailureClass {
                        phase: diagnostic.phase,
                        kind: format!("missing-hardware({op})"),
                    }
                } else if diagnostic.branch_gap {
                    class(diagnostic.phase, "no-branch-path")
                } else if diagnostic.phase == CompilePhase::Select {
                    class(diagnostic.phase, "selector-gap")
                } else if diagnostic.rt_index.is_some() {
                    class(diagnostic.phase, "no-spill-path")
                } else if diagnostic.storage.is_some() {
                    class(diagnostic.phase, "bind-overflow")
                } else {
                    class(diagnostic.phase, "unbound-variable")
                }
            }
        }
    }

    pub(crate) fn from_frontend(
        function: &str,
        phase: CompilePhase,
        e: &record_ir::CError,
    ) -> Self {
        CompileError::Frontend {
            function: function.to_owned(),
            diagnostic: Box::new(Diagnostic {
                span: Some((e.line(), e.column())),
                ..Diagnostic::new(phase, e.message())
            }),
        }
    }

    pub(crate) fn from_codegen(function: &str, phase: CompilePhase, e: CodegenError) -> Self {
        let diagnostic = match e {
            CodegenError::Select {
                message,
                missing_op,
            } => Diagnostic {
                op: missing_op,
                ..Diagnostic::new(CompilePhase::Select, message)
            },
            CodegenError::NoSpillPath { loc, at_op, detail } => Diagnostic {
                rt_index: Some(at_op),
                storage: Some(loc),
                ..Diagnostic::new(CompilePhase::Emit, detail)
            },
            CodegenError::OutOfStorage { storage, detail } => Diagnostic {
                storage: Some(storage),
                ..Diagnostic::new(phase, detail)
            },
            CodegenError::UnboundVariable { name } => Diagnostic::new(
                CompilePhase::Bind,
                format!("variable or function `{name}` is not bound"),
            ),
            CodegenError::NoBranchPath { detail } => Diagnostic {
                branch_gap: true,
                ..Diagnostic::new(CompilePhase::Emit, detail)
            },
        };
        CompileError::Codegen {
            function: function.to_owned(),
            diagnostic: Box::new(diagnostic),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NoDataMemory { processor } => {
                write!(f, "model `{processor}` has no data memory")
            }
            CompileError::Frontend {
                function,
                diagnostic,
            } => {
                write!(f, "mini-C frontend (`{function}`): {diagnostic}")
            }
            CompileError::Codegen {
                function,
                diagnostic,
            } => {
                write!(f, "code generation (`{function}`): {diagnostic}")
            }
            CompileError::DeadlineExceeded { function, phase } => {
                write!(
                    f,
                    "deadline exceeded compiling `{function}` (after phase `{phase}`)"
                )
            }
            CompileError::Internal {
                function,
                phase,
                payload,
            } => {
                write!(
                    f,
                    "internal compiler error in phase `{phase}` compiling `{function}`: {payload}"
                )
            }
        }
    }
}

impl Error for CompileError {}

/// Renders a `catch_unwind` payload as a message string (`&str` and
/// `String` payloads verbatim, anything else a placeholder).
///
/// Shared by every panic-containment boundary (the compile session, the
/// serve layer's retarget cache, the fuzz oracle) so `Internal` errors
/// carry the same payload text no matter which boundary caught them.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
