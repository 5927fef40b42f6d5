//! Code-generation errors.
//!
//! Variants are structured — they name the storage, location or variable
//! involved and, where one exists, the RT index reached — so `record-core`
//! can surface them as diagnostics without parsing message strings.

use std::error::Error;
use std::fmt;

/// An error raised while generating code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// No cover exists for an expression tree (missing operator, oversized
    /// constant, unreachable destination).
    Select {
        /// What the selector reported.
        message: String,
        /// When the selector proved the machine has *no rule at all* for
        /// an operator, the operator's mnemonic (see
        /// [`record_selgen::SelectError::missing_op`]).
        missing_op: Option<&'static str>,
    },
    /// A register conflict required a spill but the machine has no
    /// store/reload templates for the register, or the conflict is cyclic.
    NoSpillPath {
        /// Rendered name of the register/location involved.
        loc: String,
        /// How many RTs the *failing cover* had emitted when it stopped,
        /// counted from where the cover began in the compile's output.
        /// A failed cover's RTs are truncated away, and a failed compile
        /// yields no kernel-wide op list this could index into.
        at_op: usize,
        /// What exactly went wrong.
        detail: String,
    },
    /// A storage ran out of words or cells (data memory overflow, register
    /// file exhaustion, scratch watermark misuse).
    OutOfStorage {
        /// Instance name of the exhausted storage.
        storage: String,
        /// What was being allocated.
        detail: String,
    },
    /// A variable (or function) was referenced that the binding does not
    /// know.
    UnboundVariable {
        /// The unknown name.
        name: String,
    },
    /// The program needs a control transfer but the target exposes no
    /// usable PC-writing template (no jump path, or no conditional branch
    /// whose predicate tests a reachable register against zero).
    NoBranchPath {
        /// What exactly is missing.
        detail: String,
    },
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Select { message, .. } => write!(f, "selection failed: {message}"),
            CodegenError::NoSpillPath { loc, at_op, detail } => {
                write!(f, "no spill path at RT {at_op} involving {loc}: {detail}")
            }
            CodegenError::OutOfStorage { storage, detail } => {
                write!(f, "out of storage in `{storage}`: {detail}")
            }
            CodegenError::UnboundVariable { name } => write!(f, "unbound variable `{name}`"),
            CodegenError::NoBranchPath { detail } => {
                write!(f, "no branch path: {detail}")
            }
        }
    }
}

impl Error for CodegenError {}
