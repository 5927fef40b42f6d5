//! Differential validation of the register allocator: on every kernel ×
//! model pair that compiles, allocated code must compute exactly what the
//! mini-C interpreter computes, and must never make more data-memory
//! accesses than the unallocated code.

mod common;

use record_core::{mem_traffic, CompileRequest, CompiledKernel, Record, RetargetOptions, Target};
use record_targets::{kernels, models};

fn req<'a>(source: &'a str, function: &'a str, allocate: bool) -> CompileRequest<'a> {
    CompileRequest::new(source, function)
        .compaction(false)
        .allocate_registers(allocate)
}

fn accesses(target: &Target, kernel: &CompiledKernel) -> usize {
    let dm = target.data_memory().expect("data memory");
    let (r, w) = mem_traffic(&kernel.ops, dm);
    r + w
}

#[test]
fn allocated_code_is_correct_and_never_noisier_on_every_model() {
    let mut compiled_on_c25 = 0;
    for model in models::models() {
        let target = Record::retarget(model.hdl, &RetargetOptions::default())
            .unwrap_or_else(|e| panic!("{} failed to retarget: {e}", model.name));
        if target.data_memory().is_err() {
            continue; // no data memory: nothing to compile against
        }

        for k in kernels::kernels() {
            // Some machines legitimately lack operators a kernel needs
            // (e.g. no multiplier): skip those pairs, but never on the C25.
            let Ok(unalloc) = target.compile(&req(k.source, k.function, false)) else {
                assert_ne!(
                    model.name, "tms320c25",
                    "{}: kernel {} must compile on the C25",
                    model.name, k.name
                );
                continue;
            };
            let alloc = target
                .compile(&req(k.source, k.function, true))
                .unwrap_or_else(|e| {
                    panic!(
                        "{}/{}: allocation broke compilation: {e}",
                        model.name, k.name
                    )
                });
            if model.name == "tms320c25" {
                compiled_on_c25 += 1;
            }

            // 1. Traffic: allocated ≤ unallocated, and the counters agree
            //    with what the stats claim.
            let before = accesses(&target, &unalloc);
            let after = accesses(&target, &alloc);
            assert!(
                after <= before,
                "{}/{}: allocation increased memory traffic {before} -> {after}",
                model.name,
                k.name
            );
            let stats = alloc.alloc.as_ref().expect("allocator ran");
            assert_eq!(stats.accesses_after(), after, "{}/{}", model.name, k.name);
            assert_eq!(stats.accesses_before(), before, "{}/{}", model.name, k.name);
            assert!(alloc.ops.len() <= unalloc.ops.len());

            // 2. Correctness: allocated code agrees with the interpreter
            //    on every touched variable.
            common::assert_matches_interpreter(
                &target,
                &alloc,
                k.source,
                k.function,
                &format!("{}/{} (allocated)", model.name, k.name),
            );
        }
    }
    assert_eq!(compiled_on_c25, 10, "all Figure 2 kernels ran on the C25");
}

/// On the C25, the accumulator kernels round-trip their running sum
/// through memory once per MAC — the allocator must remove all of it.
#[test]
fn c25_accumulator_kernels_get_strictly_faster() {
    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    for name in ["fir", "dot_product", "convolution"] {
        let k = kernels::kernel(name).unwrap();
        let unalloc = target.compile(&req(k.source, k.function, false)).unwrap();
        let alloc = target.compile(&req(k.source, k.function, true)).unwrap();
        assert!(
            accesses(&target, &alloc) < accesses(&target, &unalloc),
            "{name}: expected a strict memory-traffic reduction"
        );
        let stats = alloc.alloc.as_ref().unwrap();
        assert!(stats.reloads_eliminated > 0, "{name}: reloads survive");
        assert!(stats.stores_eliminated > 0, "{name}: dead stores survive");
    }
}

/// Against the memory-bound baseline (the paper's Figure 2 comparator),
/// allocated RECORD code makes strictly fewer data-memory accesses on
/// every kernel.
#[test]
fn c25_allocated_beats_baseline_traffic_on_every_kernel() {
    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    for k in kernels::kernels() {
        let alloc = target.compile(&req(k.source, k.function, true)).unwrap();
        let base = target
            .compile(
                // allocate_registers is ignored on the baseline path.
                &req(k.source, k.function, true).baseline(true),
            )
            .unwrap();
        assert!(
            base.alloc.is_none(),
            "{}: the baseline path must stay memory-bound",
            k.name
        );
        assert!(
            accesses(&target, &alloc) < accesses(&target, &base),
            "{}: allocated {} accesses vs baseline {}",
            k.name,
            accesses(&target, &alloc),
            accesses(&target, &base)
        );
    }
}

/// Allocation composes with compaction: same results, no longer code.
#[test]
fn c25_allocation_composes_with_compaction() {
    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    for k in kernels::kernels() {
        let full = target
            .compile(&CompileRequest::new(k.source, k.function))
            .unwrap();
        let unalloc = target
            .compile(&CompileRequest::new(k.source, k.function).allocate_registers(false))
            .unwrap();
        assert!(
            full.code_size() <= unalloc.code_size(),
            "{}: allocation lengthened compacted code",
            k.name
        );
        common::assert_matches_interpreter(
            &target,
            &full,
            k.source,
            k.function,
            &format!("{} (allocated+compacted)", k.name),
        );
    }
}

/// Allocation costs memory in proportion to the ops, not to the declared
/// data memory: on manocpu with 2^32 memory cells and a 4·10^9-word
/// array, `x = y + x` allocates to the same three ops as with allocation
/// off, without allocating a byte per variable word.
#[test]
fn huge_declared_memory_allocates_like_allocation_off() {
    let hdl = models::model("manocpu")
        .unwrap()
        .hdl
        .replace("memory cells[256]", "memory cells[4294967296]");
    let target = Record::retarget(&hdl, &RetargetOptions::default()).unwrap();
    let src = "int x, y; int big[4000000000]; void f() { x = y + x; }";
    let off = target.compile(&req(src, "f", false)).unwrap();
    let on = target.compile(&req(src, "f", true)).unwrap();
    assert_eq!(off.ops.len(), 3);
    assert_eq!(on.ops, off.ops);
    let stats = on.alloc.as_ref().expect("allocator ran");
    assert_eq!((stats.reloads_eliminated, stats.stores_eliminated), (0, 0));
}
