//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! This crate implements the Boolean back-end used by the `record`
//! retargetable compiler.  Execution conditions of register-transfer (RT)
//! templates are Boolean functions over *instruction-word bits* and *mode
//! register bits* (paper §2, "Analysis of control signals").  Instruction-set
//! extraction conjoins many small conditions while tracing control signals
//! through decoder logic, and code compaction tests whether two RTs may share
//! one instruction word by checking satisfiability of the conjunction of
//! their conditions.  Both uses need cheap `and`/`not` plus a constant-time
//! unsatisfiability check, which is exactly what hash-consed ROBDDs give us.
//!
//! There is one node store, [`BddOverlay`]: a mutable page of nodes over
//! an immutable, shareable [`FrozenBdd`].  A [`BddManager`] is an overlay
//! on the empty base and owns nodes while the instruction set is being
//! extracted; [`BddManager::freeze`] turns its pages into a `FrozenBdd`,
//! and each compilation session layers a private overlay on top for the
//! nodes its conjunctions create.  Code that combines conditions takes
//! `&mut BddOverlay<'_>`, which is either.
//!
//! # Example
//!
//! ```
//! use record_bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let i0 = m.var("I[0]");
//! let i1 = m.var("I[1]");
//! let a = m.and(i0, i1);
//! let na = m.not(a);
//! let contradiction = m.and(a, na);
//! assert!(m.is_false(contradiction));
//! ```

mod manager;
mod overlay;
mod sat;
mod symbol;
mod table;

pub use manager::{Bdd, BddCounters, BddManager, VarId};
pub use overlay::{BddOverlay, FrozenBdd, OverlayPages};
pub use sat::Assignment;
pub use symbol::{Symbol, SymbolInterner};

#[cfg(test)]
mod tests;
