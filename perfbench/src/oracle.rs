//! The correctness oracle behind every timed output.
//!
//! A (model, kernel) input is *checked* once per set-up: it is compiled,
//! run on the `Machine` simulator for several seeded input images, and
//! every variable the kernel touches is compared word for word with the
//! mini-C reference interpreter (`record_ir::interp`).  Control-flow
//! kernels take the same path, since the touched set is read off the
//! lowered CFG.  Timed compiles are then held to the checked result: same
//! op count, same code size, and (on a seeded sample) the same listing,
//! byte for byte.

use record_core::{mem_traffic, CompileRequest, CompiledKernel, Report, Target};
use record_fuzz::Rng;
use record_ir::{FlatExpr, Memory, Program, Ref, Terminator};
use std::collections::BTreeSet;

/// Initial values per variable name: one input image.
pub type Image = Vec<(String, Vec<u64>)>;

/// Input images per checked kernel; control kernels branch on the data,
/// so several images drive different paths.
pub const IMAGES: usize = 3;

/// A mini-C kernel: its source and the parsed program the interpreter
/// runs.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: String,
    pub source: String,
    pub function: String,
    pub program: Program,
}

impl Kernel {
    /// Parses `source` for the interpreter.
    pub fn parse(name: &str, source: &str, function: &str) -> Result<Kernel, String> {
        let program = record_ir::parse(source).map_err(|e| format!("{name}: parse: {e}"))?;
        Ok(Kernel {
            name: name.to_owned(),
            source: source.to_owned(),
            function: function.to_owned(),
            program,
        })
    }

    /// The compile request the benchmark times.
    pub fn request(&self) -> CompileRequest<'_> {
        CompileRequest::new(&self.source, &self.function)
    }
}

/// What a checked compile produced; timed and served compiles must
/// reproduce it.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Vertical RT ops.
    pub ops: usize,
    /// Instruction words (the Figure 2 code size).
    pub words: usize,
    /// Data-memory reads plus writes of the vertical code.
    pub mem_accesses: usize,
    /// The assembly listing.
    pub listing: String,
    /// The compile's phase times and work counters.
    pub report: Report,
}

impl Checked {
    /// Holds a later compile of the same input to this result.  The
    /// listing comparison renders the listing, so callers sample it.
    pub fn matches(
        &self,
        target: &Target,
        kernel: &CompiledKernel,
        compare_listing: bool,
    ) -> Result<(), String> {
        self.matches_summary(kernel.ops.len(), kernel.code_size())?;
        if compare_listing && target.listing(kernel) != self.listing {
            return Err("listing differs from the checked compile".to_owned());
        }
        Ok(())
    }

    /// Holds an op count and code size (a served answer) to this result.
    pub fn matches_summary(&self, ops: usize, words: usize) -> Result<(), String> {
        if (ops, words) != (self.ops, self.words) {
            return Err(format!(
                "{ops} ops / {words} words, checked compile had {} / {}",
                self.ops, self.words
            ));
        }
        Ok(())
    }
}

/// Bits of an input value.  Products of two values still wrap a 16-bit
/// word, while data-dependent loops (`count_down`) stay short enough that
/// set-up time does not depend on the seed.
const VALUE_BITS: u16 = 10;

/// `count` seeded input images covering every global of `program`, with
/// values below `2^VALUE_BITS` and masked to `width` bits.
pub fn images(program: &Program, width: u16, rng: &mut Rng, count: usize) -> Vec<Image> {
    let mask = (1u64 << width.min(VALUE_BITS)) - 1;
    (0..count)
        .map(|_| {
            program
                .globals
                .iter()
                .map(|g| {
                    let words = (0..g.words()).map(|_| rng.next_u64() & mask).collect();
                    (g.name.clone(), words)
                })
                .collect()
        })
        .collect()
}

/// Variables the lowered CFG reads or writes (loop counters folded away
/// by unrolling never reach machine memory and are not compared).
fn touched(kernel: &Kernel) -> Result<BTreeSet<String>, String> {
    let cfg = record_ir::lower_cfg(&kernel.program, &kernel.function)
        .map_err(|e| format!("{}: lower: {e}", kernel.name))?;
    let mut refs: Vec<Ref> = Vec::new();
    let mut exprs: Vec<&FlatExpr> = Vec::new();
    for block in &cfg.blocks {
        for stmt in &block.stmts {
            refs.push(stmt.target.clone());
            exprs.push(&stmt.value);
        }
        if let Terminator::Branch { cond, .. } = &block.term {
            exprs.push(cond);
        }
    }
    for e in exprs {
        e.loads(&mut refs);
    }
    Ok(refs.into_iter().map(|r| r.name).collect())
}

/// Runs `compiled` on the machine for every image and compares each
/// touched variable with the interpreter.
pub fn check(
    target: &Target,
    compiled: &CompiledKernel,
    kernel: &Kernel,
    images: &[Image],
) -> Result<(), String> {
    let dm = target.data_memory().map_err(|e| e.to_string())?;
    let width = target.netlist().storage(dm).width;
    let touched = touched(kernel)?;
    let bound = |name: &str| {
        compiled.binding.assignments().any(|(n, _)| n == name)
            || compiled.binding.rom_assignments().any(|(n, _)| n == name)
    };
    for image in images {
        let mut memory: Memory = image.iter().cloned().collect();
        record_ir::interp(&kernel.program, &kernel.function, &mut memory, width)
            .map_err(|e| format!("{}: interpreter: {e}", kernel.name))?;
        let init: Vec<(&str, Vec<u64>)> = image
            .iter()
            .filter(|(name, _)| bound(name))
            .map(|(name, words)| (name.as_str(), words.clone()))
            .collect();
        let machine = target.execute(compiled, &init);
        for (name, addr) in compiled.binding.assignments() {
            let Some(want) = memory.get(name).filter(|_| touched.contains(name)) else {
                continue;
            };
            for (i, &w) in want.iter().enumerate() {
                let got = machine.mem(dm, addr + i as u64);
                if got != w {
                    return Err(format!(
                        "{}: `{name}[{i}]` is {got} on the machine, {w} in the interpreter",
                        kernel.name
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Compiles `kernel` and checks it against the interpreter on `images`.
pub fn verify(target: &Target, kernel: &Kernel, images: &[Image]) -> Result<Checked, String> {
    let compiled = target
        .compile(&kernel.request())
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    check(target, &compiled, kernel, images)?;
    let dm = target.data_memory().map_err(|e| e.to_string())?;
    let (reads, writes) = mem_traffic(&compiled.ops, dm);
    Ok(Checked {
        ops: compiled.ops.len(),
        words: compiled.code_size(),
        mem_accesses: reads + writes,
        listing: target.listing(&compiled),
        report: compiled.report,
    })
}

/// Proves the oracle catches a wrong result: `kernel`, a straight-line
/// kernel whose last op stores a result, compiled with that op removed
/// must fail [`check`].
pub fn self_test(target: &Target, kernel: &Kernel, images: &[Image]) -> Result<(), String> {
    let mut tampered = target
        .compile(&kernel.request())
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    tampered.schedule = None;
    tampered.ops.pop();
    match check(target, &tampered, kernel, images) {
        Err(_) => Ok(()),
        Ok(()) => Err(format!(
            "self-test: {} with its last op removed passed the oracle",
            kernel.name
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use record_core::{Record, RetargetOptions};

    fn ref_target() -> Target {
        let model = record_targets::models::model("ref").expect("ref model exists");
        Record::retarget(model.hdl, &RetargetOptions::default()).expect("ref retargets")
    }

    fn kernel(name: &str) -> Kernel {
        let k = record_targets::kernel(name).expect("kernel exists");
        Kernel::parse(k.name, k.source, k.function).expect("kernel parses")
    }

    #[test]
    fn checked_kernels_pass_and_tampered_ones_fail() {
        let target = ref_target();
        let mut rng = Rng::new(7);
        for name in ["real_update", "fir", "clip", "count_down"] {
            let k = kernel(name);
            let imgs = images(&k.program, 16, &mut rng, IMAGES);
            let checked = verify(&target, &k, &imgs).expect("checked compile agrees");
            assert!(checked.words > 0 && checked.mem_accesses > 0);
        }
        for name in ["real_update", "fir"] {
            let k = kernel(name);
            let imgs = images(&k.program, 16, &mut rng, IMAGES);
            self_test(&target, &k, &imgs).expect("tampered compile is caught");
        }
    }

    #[test]
    fn served_answers_are_held_to_the_checked_compile() {
        let target = ref_target();
        let k = kernel("real_update");
        let imgs = images(&k.program, 16, &mut Rng::new(1), 1);
        let checked = verify(&target, &k, &imgs).expect("checked compile agrees");
        assert!(checked.matches_summary(checked.ops, checked.words).is_ok());
        assert!(checked
            .matches_summary(checked.ops + 1, checked.words)
            .is_err());
        let compiled = target.compile(&k.request()).expect("compiles");
        assert!(checked.matches(&target, &compiled, true).is_ok());
        let tampered = Checked {
            listing: format!("{} ", checked.listing),
            ..checked
        };
        assert!(tampered.matches(&target, &compiled, true).is_err());
    }
}
