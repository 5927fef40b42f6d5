//! Register allocation & value placement: keep operands out of memory.
//!
//! The code selector emits *memory-bound* vertical code: each statement's
//! result is stored to data memory and each operand starts as a memory
//! read, because tree parsing works statement-at-a-time (paper §3.2 notes
//! that "limitations of tree parsing mainly concern incorporation of
//! register spills").  On real DSPs the hand-written reference code of the
//! paper's Figure 2 keeps chained values in the accumulator across
//! statements; this crate closes that gap as a separate backend phase:
//!
//! * [`RegisterPool`] discovers, per target, the registers and register
//!   files the extracted RT templates can actually route values through.
//! * [`allocate`] rewrites the emitted [`record_codegen::RtOp`] sequence
//!   block by block: values stay register-resident across statements,
//!   identity reloads disappear, dead result stores disappear, and
//!   reload/spill RTs remain in the output only where residency was
//!   genuinely lost ([`Residency`] overflow or clobbering).  Value
//!   locations are tracked at op granularity, exactly, from the sequence
//!   itself; no statement-level liveness analysis is needed.
//!
//! The phase is driven by `record-core`'s `Target::compile` (option
//! `allocate_registers`, on by default) and validated against the RT-level
//! machine simulator oracle for every Figure 2 kernel on all Table 3
//! models.

mod alloc;
mod pool;

pub use alloc::{allocate, mem_traffic, AllocOptions, AllocStats, MemLayout};
pub use pool::{Evicted, RegClass, RegisterPool, Residency, Resident};

#[cfg(test)]
mod tests;
