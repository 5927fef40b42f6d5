//! Mini-C frontend: the source language of the compiler.
//!
//! The paper evaluates RECORD on *basic program blocks* from the DSPstone
//! benchmark suite — small fixed-point C kernels (FIR, biquad, dot product,
//! convolution, complex arithmetic).  This crate implements the C subset
//! those kernels need:
//!
//! * global `int` scalars and one-dimensional arrays,
//! * one or more `void` functions with straight-line assignments,
//! * compound assignment sugar (`+=`, `-=`, ...),
//! * counted `for` loops with constant bounds (fully unrolled during
//!   lowering, matching the paper's basic-block evaluation),
//! * the usual integer expression operators.
//!
//! Lowering produces destination-annotated flat statements whose leaves are
//! scalar/array-element references with constant offsets — exactly the shape
//! code selection consumes after variables are bound to storage locations.
//! A reference [`interp`] interpreter provides the semantic oracle used by
//! codegen correctness tests.
//!
//! # Example
//!
//! ```
//! let src = "int x; int a[4]; void f() { x = a[0] + a[1]; }";
//! let prog = record_ir::parse(src)?;
//! let cfg = record_ir::lower_cfg(&prog, "f")?;
//! assert!(cfg.is_straight_line());
//! assert_eq!(cfg.stmts().count(), 1);
//! # Ok::<(), record_ir::CError>(())
//! ```

mod ast;
mod error;
mod interp;
mod lower;
mod parser;

pub use ast::*;
pub use error::CError;
pub use interp::{interp, Memory};
pub use lower::{lower_cfg, Block, Cfg, FlatExpr, FlatStmt, Ref, Terminator};
pub use parser::MAX_NESTING;

/// Parses a mini-C translation unit.
///
/// # Errors
///
/// Returns [`CError`] with line/column info on malformed source, and on
/// source nested deeper than [`MAX_NESTING`] levels.
pub fn parse(source: &str) -> Result<Program, CError> {
    parser::parse(source)
}

#[cfg(test)]
mod tests;
