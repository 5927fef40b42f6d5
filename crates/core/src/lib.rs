//! `record-core` — the end-to-end retargetable compiler pipeline.
//!
//! This crate wires the paper's Figure 1 together:
//!
//! ```text
//! HDL model --(frontend)--> netlist --(ISE)--> RT templates
//!    --(algebraic extension)--> extended base --(§3.1)--> tree grammar
//!    --(§3.2)--> code selector
//! ```
//!
//! [`Record::retarget`] runs the whole retargeting procedure once per
//! processor and returns a [`Target`]: a frozen, `Send + Sync` compiler
//! artifact.  The per-phase wall-clock times and template counts it
//! records are the rows of the paper's Table 3.  Compilation happens over
//! and over against that artifact — [`Target::compile`] maps one mini-C
//! kernel to machine code (selection, spill-aware emission, allocation,
//! compaction), [`Target::compile_batch`] fans a batch out across
//! threads, and [`Target::session`] exposes the per-compilation scratch
//! ([`CompileSession`]) explicitly.  This split powers the Figure 2
//! experiment and lets one retargeted compiler serve concurrent traffic.
//!
//! # Example
//!
//! ```
//! use record_core::{CompileRequest, Record, RetargetOptions};
//!
//! let model = record_targets::models::model("bass_boost").unwrap();
//! let target = Record::retarget(model.hdl, &RetargetOptions::default())?;
//! assert!(target.report().templates_extended > 0);
//! # Ok::<(), record_core::PipelineError>(())
//! ```
//!
//! Every phase of both pipelines is instrumented through `record-probe`:
//! [`Record::retarget_probed`] and [`CompileSession::install_collector`]
//! stream spans into a [`record_probe::Trace`] (exportable as Chrome
//! trace JSON), and every [`Target`] / [`CompiledKernel`] carries an
//! always-on [`RetargetReport`] / [`CompileReport`] with per-phase times
//! and work counters.

mod error;
mod pipeline;
mod session;

pub use error::{
    panic_message, CompileError, CompilePhase, Diagnostic, FailureClass, PipelineError,
};
pub use pipeline::{
    CompileOptions, CompileReport, CompiledKernel, Record, RetargetOptions, RetargetReport, Target,
};
pub use record_bdd::FrozenBdd;
pub use record_codegen::{Machine, RtOp};
pub use record_probe::{
    json, validate_chrome_json, Collector, CounterId, CounterVal, GaugeId, HistogramId,
    MetricsBuilder, MetricsRegistry, MetricsShard, PhaseNs, Probe, Report, Trace, TraceSink,
};
pub use record_regalloc::{mem_traffic, AllocStats, RegisterPool};
pub use session::{CompileRequest, CompileSession, SessionPages};

#[cfg(test)]
mod tests;
