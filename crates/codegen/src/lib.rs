//! Code generation: selection driver, spill-aware emission, baseline
//! compiler and RT-level simulator.
//!
//! This crate turns lowered mini-C statements into sequences of concrete
//! RT operations for a retargeted machine:
//!
//! 1. [`Binding`] places program variables into the target's data memory
//!    (paper §3.1: "all primary source program inputs and program variables
//!    are a priori bound to certain memory or register resources").
//! 2. [`Codegen`] names the retargeted machine: its selector, template
//!    base, netlist and [`EmitTables`].  [`Codegen::compile`] shapes each
//!    flat statement into a destination-annotated expression tree over
//!    the target's storages, runs the generated tree parser on it and
//!    *emits* the cover: register-file cells are allocated for
//!    intermediates, operand evaluation is ordered to avoid register
//!    conflicts, and unavoidable conflicts are resolved by spill/reload
//!    RTs through scratch memory — the role of the Araujo/Malik-style
//!    scheduling the paper cites.  Every cover emits into the compile's
//!    one output sequence, and a cover whose emission fails is truncated
//!    away.
//! 3. [`Codegen::baseline`] is the stand-in for the target-specific C
//!    compiler in the paper's Figure 2: a correct but naive code generator
//!    that expands every operator separately through memory temporaries,
//!    never exploiting chained operations.
//! 4. [`Machine`] executes RT operations concretely — the oracle used to
//!    prove generated code computes what the mini-C interpreter computes.
//!
//! # Example
//!
//! See the crate-level tests and `examples/quickstart.rs` in the workspace
//! root; a full pipeline needs an HDL model, so the example lives where one
//! is available.

mod baseline;
mod binding;
mod emit;
mod error;
mod ops;
mod sim;

pub use binding::Binding;
pub use emit::{Codegen, EmitStats, EmitTables, Emitted};
pub use error::CodegenError;
pub use ops::{DestSim, Loc, RtOp, SimExpr, Transfer};
pub use sim::Machine;

#[cfg(test)]
mod tests;
