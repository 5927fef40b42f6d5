//! Shared oracle helpers for the integration tests: deterministic input
//! data and the interpreter-vs-machine comparison used to validate every
//! code-transforming phase.

use record_core::{CompiledKernel, Target};

/// Deterministic non-trivial input data for a program's globals.
#[allow(dead_code)]
pub fn init_data(program: &record_ir::Program) -> Vec<(String, Vec<u64>)> {
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

/// Runs `kernel` on the machine simulator from the `init` memory image
/// and asserts every variable the lowered CFG touches equals what the
/// mini-C interpreter computes; `label` names the kernel/model pair in
/// failure messages.  Control-flow kernels are sensitive to input data,
/// so tests drive them with several images.
#[allow(dead_code)]
pub fn assert_matches_interpreter_cfg(
    target: &Target,
    kernel: &CompiledKernel,
    source: &str,
    function: &str,
    init: &[(String, Vec<u64>)],
    label: &str,
) {
    let program = record_ir::parse(source).unwrap();
    let cfg = record_ir::lower_cfg(&program, function).unwrap();

    let mut mem = record_ir::Memory::new();
    for (name, vals) in init {
        mem.insert(name.clone(), vals.clone());
    }
    record_ir::interp(&program, function, &mut mem, 16).unwrap();

    let init_refs: Vec<(&str, Vec<u64>)> =
        init.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
    let machine = target.execute(kernel, &init_refs);
    let dm = target.data_memory().expect("data memory");
    let touched = cfg.touched_variables();
    for (name, addr) in kernel.binding.assignments() {
        if !touched.contains(name) {
            continue;
        }
        for (i, want) in mem[name].iter().enumerate() {
            assert_eq!(
                machine.mem(dm, addr + i as u64),
                *want,
                "{label}: machine disagrees with the interpreter at {name}[{i}]"
            );
        }
    }
}

/// [`assert_matches_interpreter_cfg`] from the [`init_data`] image.
#[allow(dead_code)]
pub fn assert_matches_interpreter(
    target: &Target,
    kernel: &CompiledKernel,
    source: &str,
    function: &str,
    label: &str,
) {
    let program = record_ir::parse(source).unwrap();
    assert_matches_interpreter_cfg(
        target,
        kernel,
        source,
        function,
        &init_data(&program),
        label,
    );
}
