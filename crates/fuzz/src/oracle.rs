//! The differential oracle: reference interpreter vs compiled machine.
//!
//! One [`FuzzCase`] (a generated model plus a generated kernel) is pushed
//! through both semantic paths:
//!
//! 1. the mini-C reference interpreter ([`record_ir::interp`]), and
//! 2. the full pipeline — retarget the HDL, compile the kernel, run the
//!    emitted code on the RT machine simulator —
//!
//! then every memory-bound variable the program touches is compared word
//! for word.  The outcome is a [`Verdict`], triaged with the
//! [`FailureClass`] taxonomy: structured rejections (a machine with no
//! multiplier refusing `a * b` as `select/missing-hardware(mul)`) are
//! *expected-unsupported*; divergences, panics at any boundary, and
//! `internal` failure classes are *genuine bugs*.
//!
//! Every pipeline boundary runs under `catch_unwind`, so a crash anywhere
//! becomes a reportable verdict instead of killing the fuzzing run.

use crate::model::ModelSpec;
use crate::program;
use record_core::{
    panic_message, CompileError, CompileRequest, CompiledKernel, FailureClass, PipelineError,
    Record, RetargetOptions, Target,
};
use record_ir::Program;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One generated (model, kernel) pair.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    pub spec: ModelSpec,
    pub program: Program,
    /// Entry function (always `f` for generated programs).
    pub function: String,
}

impl FuzzCase {
    /// Generates the case for `seed`: model first, then a program sized
    /// to it, from one deterministic stream.
    pub fn generate(seed: u64) -> FuzzCase {
        let mut rng = crate::rng::Rng::new(seed);
        let spec = ModelSpec::generate(&mut rng);
        let program = program::generate(&mut rng, &spec);
        FuzzCase {
            spec,
            program,
            function: "f".to_owned(),
        }
    }
}

/// The oracle's judgement on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Interpreter and machine agree on every touched variable.
    Agree,
    /// Retargeting rejected the model with a structured error.
    ModelRejected { error: String },
    /// Compilation rejected the kernel with a structured, classified
    /// error (expected-unsupported unless the kind is `internal`).
    CompileRejected { class: FailureClass },
    /// The reference path itself failed — generated cases are valid by
    /// construction, so this is a harness/frontend bug.
    InterpRejected { error: String },
    /// Machine memory disagrees with the interpreter: a miscompile.
    Diverge {
        variable: String,
        index: u64,
        machine: u64,
        interp: u64,
    },
    /// A panic unwound out of the named boundary (`retarget`,
    /// `compile:<phase>`, or `simulate`).
    Panic { boundary: String, message: String },
}

impl Verdict {
    /// A stable slug identifying the failure mode — the minimizer shrinks
    /// while this key reproduces, and corpus entries pin it.
    pub fn key(&self) -> String {
        match self {
            Verdict::Agree => "agree".to_owned(),
            Verdict::ModelRejected { .. } => "model-rejected".to_owned(),
            Verdict::CompileRejected { class } => format!("compile:{class}"),
            Verdict::InterpRejected { .. } => "interp-rejected".to_owned(),
            Verdict::Diverge { .. } => "diverge".to_owned(),
            Verdict::Panic { boundary, .. } => format!("panic:{boundary}"),
        }
    }

    /// Whether this verdict is a genuine bug (vs expected-unsupported).
    pub fn is_bug(&self) -> bool {
        match self {
            Verdict::Agree | Verdict::ModelRejected { .. } => false,
            Verdict::CompileRejected { class } => class.kind == "internal",
            Verdict::InterpRejected { .. } | Verdict::Diverge { .. } | Verdict::Panic { .. } => {
                true
            }
        }
    }
}

/// Deterministic non-trivial input data for a program's globals (the same
/// scheme the integration-test oracle uses).
pub fn init_data(program: &Program) -> Vec<(String, Vec<u64>)> {
    program
        .globals
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let vals = (0..g.words())
                .map(|i| (gi as u64 * 37 + i * 11 + 3) & 0xFF)
                .collect();
            (g.name.clone(), vals)
        })
        .collect()
}

/// Runs the full oracle on one case.
pub fn run_case(case: &FuzzCase) -> Verdict {
    let hdl = case.spec.render();
    let source = program::render(&case.program);

    let target = match catch_unwind(AssertUnwindSafe(|| {
        Record::retarget(&hdl, &RetargetOptions::default())
    })) {
        Err(payload) => {
            return Verdict::Panic {
                boundary: "retarget".to_owned(),
                message: panic_message(payload),
            }
        }
        Ok(Err(PipelineError::Internal(message))) => {
            return Verdict::Panic {
                boundary: "retarget".to_owned(),
                message,
            }
        }
        Ok(Err(e)) => {
            return Verdict::ModelRejected {
                error: e.to_string(),
            }
        }
        Ok(Ok(target)) => target,
    };

    // The compile session has its own containment: a panic in any phase
    // comes back as `CompileError::Internal`, never unwinds.
    let kernel = match target.compile(&CompileRequest::new(&source, &case.function)) {
        Err(CompileError::Internal { phase, payload, .. }) => {
            return Verdict::Panic {
                boundary: format!("compile:{phase}"),
                message: payload,
            }
        }
        Err(e) => {
            return Verdict::CompileRejected {
                class: e.classify(),
            }
        }
        Ok(kernel) => kernel,
    };

    differential(
        &target,
        &kernel,
        &case.program,
        &case.function,
        case.spec.width,
    )
}

/// The comparison half of the oracle, reusable against an arbitrary
/// kernel — the self-test feeds it a deliberately tampered one.
pub fn differential(
    target: &Target,
    kernel: &CompiledKernel,
    program: &Program,
    function: &str,
    width: u16,
) -> Verdict {
    let cfg = match record_ir::lower_cfg(program, function) {
        Ok(cfg) => cfg,
        Err(e) => {
            return Verdict::InterpRejected {
                error: e.to_string(),
            }
        }
    };
    let init = init_data(program);

    let mut mem = record_ir::Memory::new();
    for (name, vals) in &init {
        mem.insert(name.clone(), vals.clone());
    }
    if let Err(e) = record_ir::interp(program, function, &mut mem, width) {
        return Verdict::InterpRejected {
            error: e.to_string(),
        };
    }

    let init_refs: Vec<(&str, Vec<u64>)> =
        init.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    let machine = match catch_unwind(AssertUnwindSafe(|| target.execute(kernel, &init_refs))) {
        Ok(machine) => machine,
        Err(payload) => {
            return Verdict::Panic {
                boundary: "simulate".to_owned(),
                message: panic_message(payload),
            }
        }
    };
    let dm = match target.data_memory() {
        Ok(dm) => dm,
        Err(e) => {
            return Verdict::CompileRejected {
                class: e.classify(),
            }
        }
    };

    // Loop variables that unrolling folded away never reach machine
    // memory, so only touched variables are compared.
    let touched = cfg.touched_variables();
    for (name, addr) in kernel.binding.assignments() {
        if !touched.contains(name) {
            continue;
        }
        for (i, want) in mem[name].iter().enumerate() {
            let got = machine.mem(dm, addr + i as u64);
            if got != *want {
                return Verdict::Diverge {
                    variable: name.to_owned(),
                    index: i as u64,
                    machine: got,
                    interp: *want,
                };
            }
        }
    }
    Verdict::Agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_keys_are_stable() {
        assert_eq!(Verdict::Agree.key(), "agree");
        assert!(!Verdict::Agree.is_bug());
        let v = Verdict::Diverge {
            variable: "g0".into(),
            index: 0,
            machine: 1,
            interp: 2,
        };
        assert_eq!(v.key(), "diverge");
        assert!(v.is_bug());
        let v = Verdict::Panic {
            boundary: "compile:emit".into(),
            message: "boom".into(),
        };
        assert_eq!(v.key(), "panic:compile:emit");
        assert!(v.is_bug());
    }
}
