//! Parallelism differential: a frozen `Target` shared across threads,
//! each request compiled in a fresh session on its own thread (the
//! server's pattern), must produce *byte-identical* results to sequential
//! one-shot compiles — op sequences, schedules and allocation counters —
//! for every kernel × model pair, under every option set.  This is the
//! contract that makes the retarget-once/compile-many split safe to serve
//! concurrent traffic with.

mod common;

use record_core::{CompileError, CompileRequest, CompiledKernel, Record, RetargetOptions, Target};
use record_targets::{kernels, models};
use std::sync::Barrier;

/// Compile-time check: the frozen artifact is shareable across threads.
/// (The scoped threads below would not compile otherwise, but the
/// assertion documents the API contract independently of any runtime
/// path.)
#[test]
fn target_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Target>();
    assert_send_sync::<record_core::FrozenBdd>();
}

/// Compiles every request on its own scoped thread, in a fresh session
/// over the one shared `target`, and returns the results in request
/// order.  A barrier holds every thread until all have started, so the
/// compiles overlap.
fn compile_concurrently(
    target: &Target,
    requests: &[CompileRequest<'_>],
) -> Vec<Result<CompiledKernel, CompileError>> {
    let start = Barrier::new(requests.len());
    std::thread::scope(|scope| {
        let threads: Vec<_> = requests
            .iter()
            .map(|request| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    target.session().compile(request)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("compile thread panicked"))
            .collect()
    })
}

fn assert_identical(
    concurrent: &[Result<CompiledKernel, CompileError>],
    sequential: &[Result<CompiledKernel, CompileError>],
    label: &str,
) {
    assert_eq!(concurrent.len(), sequential.len(), "{label}: result count");
    for (i, (b, s)) in concurrent.iter().zip(sequential).enumerate() {
        match (b, s) {
            (Ok(bk), Ok(sk)) => {
                assert_eq!(bk.ops, sk.ops, "{label}[{i}]: op sequences differ");
                assert_eq!(bk.schedule, sk.schedule, "{label}[{i}]: schedules differ");
                assert_eq!(bk.alloc, sk.alloc, "{label}[{i}]: AllocStats differ");
                assert_eq!(
                    bk.code_size(),
                    sk.code_size(),
                    "{label}[{i}]: code size differs"
                );
            }
            (Err(be), Err(se)) => {
                assert_eq!(be, se, "{label}[{i}]: errors differ");
            }
            _ => panic!("{label}[{i}]: concurrent and sequential disagree on success"),
        }
    }
}

/// Every kernel × model pair, compiled concurrently from one shared
/// `&Target`, equals the sequential compile bit for bit.
#[test]
fn batch_output_is_identical_to_sequential_on_every_model() {
    let mut checked_pairs = 0usize;
    for model in models::models() {
        let target = Record::retarget(model.hdl, &RetargetOptions::default())
            .unwrap_or_else(|e| panic!("{} failed to retarget: {e}", model.name));
        if target.data_memory().is_err() {
            continue; // no data memory: every compile fails identically
        }
        let requests: Vec<CompileRequest<'_>> = kernels::kernels()
            .iter()
            .map(|k| CompileRequest::new(k.source, k.function))
            .collect();

        let sequential: Vec<_> = requests.iter().map(|r| target.compile(r)).collect();
        let concurrent = compile_concurrently(&target, &requests);
        assert_identical(&concurrent, &sequential, model.name);
        checked_pairs += concurrent.len();
    }
    assert!(checked_pairs >= 50, "checked {checked_pairs} pairs");
}

/// The equality holds under every option combination, including the ones
/// that exercise the allocator and the compactor differently, and the
/// concurrently compiled output still matches the mini-C interpreter.
#[test]
fn batch_equals_sequential_under_all_option_sets_on_c25() {
    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    let mut requests: Vec<CompileRequest<'_>> = Vec::new();
    for k in kernels::kernels() {
        requests.push(CompileRequest::new(k.source, k.function));
        requests.push(CompileRequest::new(k.source, k.function).compaction(false));
        requests.push(
            CompileRequest::new(k.source, k.function)
                .compaction(false)
                .allocate_registers(false),
        );
        requests.push(
            CompileRequest::new(k.source, k.function)
                .baseline(true)
                .compaction(false),
        );
    }
    let sequential: Vec<_> = requests.iter().map(|r| target.compile(r)).collect();
    let concurrent = compile_concurrently(&target, &requests);
    assert_identical(&concurrent, &sequential, "c25/options");

    // The parallel-compiled kernels are not just self-consistent — they
    // compute what the interpreter computes.
    for (req, result) in requests.iter().zip(&concurrent) {
        let kernel = result.as_ref().expect("all C25 kernels compile");
        common::assert_matches_interpreter(
            &target,
            kernel,
            req.source(),
            req.function(),
            &format!("concurrent {}", req.function()),
        );
    }
}

/// Stress the session isolation: many copies of the same requests racing
/// over one artifact, several concurrent rounds in a row, never
/// diverging.
#[test]
fn repeated_batches_are_stable() {
    let model = models::model("tms320c25").unwrap();
    let target = Record::retarget(model.hdl, &RetargetOptions::default()).unwrap();
    // Duplicate the kernel set so identical requests run side by side —
    // any cross-session leakage would show up as a divergence between
    // duplicates.
    let requests: Vec<CompileRequest<'_>> = kernels::kernels()
        .iter()
        .chain(kernels::kernels().iter())
        .chain(kernels::kernels().iter())
        .map(|k| CompileRequest::new(k.source, k.function))
        .collect();
    let first = compile_concurrently(&target, &requests);
    for round in 0..3 {
        let again = compile_concurrently(&target, &requests);
        assert_identical(&again, &first, &format!("round {round}"));
    }
    // Duplicates within one round are identical to each other too.
    let n = kernels::kernels().len();
    for i in 0..n {
        let a = first[i].as_ref().unwrap();
        let b = first[i + n].as_ref().unwrap();
        let c = first[i + 2 * n].as_ref().unwrap();
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.ops, c.ops);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.alloc, c.alloc);
    }
}
