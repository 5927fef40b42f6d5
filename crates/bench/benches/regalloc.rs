//! Register-allocation benchmark: time of the value-placement phase alone
//! per Figure 2 kernel, plus full compiles with the phase on vs off.
//! Memory-traffic reduction itself is reported by the `figure2` binary.
//!
//! `allocate` consumes the op vector it rewrites, so every iteration of
//! the phase bench clones its input first: the clone is part of the time
//! it reports.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use record_core::{CompileRequest, Record};
use record_targets::{kernels, models};

fn bench_allocation_phase(c: &mut Criterion) {
    let model = models::model("tms320c25").expect("model exists");
    let target = Record::retarget(model.hdl, &Default::default()).expect("retargets");
    let mut g = c.benchmark_group("regalloc/phase");
    g.sample_size(20);
    for k in kernels::kernels() {
        // Pre-compile once without allocation; the bench then measures the
        // rewriting pass in isolation.
        let unalloc = target
            .compile(
                &CompileRequest::new(k.source, k.function)
                    .compaction(false)
                    .allocate_registers(false),
            )
            .expect("compiles");
        // The pool is part of the frozen artifact now: no re-discovery.
        let pool = target.register_pool().expect("data memory").clone();
        let layout = record_regalloc::MemLayout::from_binding(&unalloc.binding);
        g.bench_with_input(
            BenchmarkId::from_parameter(k.name),
            &unalloc.ops,
            |b, ops| {
                b.iter(|| {
                    // The Figure 2 kernels are straight-line: one block.
                    record_regalloc::allocate(
                        ops.clone(),
                        std::slice::from_ref(&(0..ops.len())),
                        &pool,
                        layout,
                        &record_regalloc::AllocOptions::default(),
                        &mut record_core::Probe::disabled(),
                    )
                });
            },
        );
    }
    g.finish();
}

fn bench_compile_with_and_without(c: &mut Criterion) {
    let model = models::model("tms320c25").expect("model exists");
    let target = Record::retarget(model.hdl, &Default::default()).expect("retargets");
    let mut g = c.benchmark_group("regalloc/compile");
    g.sample_size(20);
    for k in [
        kernels::kernel("dot_product").unwrap(),
        kernels::kernel("fir").unwrap(),
    ] {
        g.bench_with_input(BenchmarkId::new("alloc-on", k.name), &k, |b, k| {
            b.iter(|| {
                target
                    .compile(&CompileRequest::new(k.source, k.function))
                    .expect("compiles")
            });
        });
        g.bench_with_input(BenchmarkId::new("alloc-off", k.name), &k, |b, k| {
            b.iter(|| {
                target
                    .compile(&CompileRequest::new(k.source, k.function).allocate_registers(false))
                    .expect("compiles")
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_allocation_phase,
    bench_compile_with_and_without
);
criterion_main!(benches);
