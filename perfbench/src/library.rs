//! The library workloads: one caller, whole passes over a fixed input
//! set, every output held to a checked result.
//!
//! * `retarget-cold` times `Record::retarget` over the six Table 3 models
//!   plus a seeded pool of generated models.
//! * `compile-long` times `Target::compile` of the ten DSPstone kernels
//!   on manocpu, whose one-op-per-word programs are the longest the
//!   repository compiles.

use crate::metrics::{Spans, Values, COMPILE_PHASES, RETARGET_PHASES};
use crate::oracle::{self, Checked, Kernel, IMAGES};
use crate::run::{self, Outcome, RunOptions};
use record_core::{Record, RetargetOptions, Target};
use record_fuzz::{program, ModelSpec, Rng};
use std::time::Instant;

/// Generated models in the `retarget-cold` pool.
const GENERATED_MODELS: usize = 64;

/// Seed of the generated model pool.  Fixed rather than drawn from the
/// run seed: 64 models drawn per run moved every latency metric by about
/// 20% between seeds, so the run seed varies only the pass order and the
/// oracle's input images.
const POOL_SEED: u64 = 0x5eed;

/// Programs tried per generated model before the model is passed over
/// for lack of a kernel it can compile.
const PROGRAMS_PER_MODEL: usize = 6;

/// Timed compiles whose listing is also compared, one in this many.
const LISTING_SAMPLE: u64 = 8;

/// A retargeted model's identity: every count a correct retarget of the
/// same source reproduces exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub templates: usize,
    pub rules: usize,
    pub nonterminals: usize,
    pub bdd_nodes: usize,
}

impl Fingerprint {
    pub fn of(target: &Target) -> Fingerprint {
        let r = target.report();
        Fingerprint {
            templates: r.templates_extended,
            rules: r.rules,
            nonterminals: r.nonterminals,
            bdd_nodes: target.manager().node_count(),
        }
    }
}

/// One model of the retarget pool, with its checked reference.
struct PoolModel {
    hdl: String,
    expect: Fingerprint,
    op_cache_hit_rate: f64,
    /// The kernel that verified this model's selector, when one compiles.
    checked: Option<Checked>,
}

/// Retargets `hdl` and, when a kernel compiles on it, checks that kernel
/// against the interpreter.  `kernels` yields candidates in order.
fn pool_model(
    hdl: String,
    kernels: impl IntoIterator<Item = Kernel>,
    rng: &mut Rng,
    outcome: &mut Outcome,
) -> Result<PoolModel, String> {
    let target = Record::retarget(&hdl, &RetargetOptions::default()).map_err(|e| e.to_string())?;
    let width = target
        .data_memory()
        .map(|dm| target.netlist().storage(dm).width)
        .unwrap_or(16);
    let mut checked = None;
    for kernel in kernels {
        if target.compile(&kernel.request()).is_err() {
            continue;
        }
        let images = oracle::images(&kernel.program, width, rng, IMAGES);
        match oracle::verify(&target, &kernel, &images) {
            Ok(c) => {
                checked = Some(c);
                break;
            }
            Err(e) => outcome.problems.push(e),
        }
    }
    Ok(PoolModel {
        expect: Fingerprint::of(&target),
        op_cache_hit_rate: target.manager().op_cache_hit_rate(),
        hdl,
        checked,
    })
}

/// Generated pool entry `i`: a seeded model spec and the kernels
/// generated for it.
fn generated(i: u64) -> (String, Vec<Kernel>) {
    let mut rng = run::rng(POOL_SEED, 1_000 + i);
    let spec = ModelSpec::generate(&mut rng);
    let kernels = (0..PROGRAMS_PER_MODEL)
        .filter_map(|p| {
            let source = program::render(&program::generate(&mut rng, &spec));
            Kernel::parse(&format!("gen{i}.p{p}"), &source, "f").ok()
        })
        .collect();
    (spec.render(), kernels)
}

/// The retarget pool: the Table 3 models (checked on `real_update` where
/// it compiles) plus [`GENERATED_MODELS`] generated models that retarget
/// and compile at least one generated kernel.
fn retarget_pool(seed: u64, outcome: &mut Outcome) -> Vec<PoolModel> {
    let mut rng = run::rng(seed, 2);
    let check = record_targets::kernel("real_update").expect("real_update kernel exists");
    let check = Kernel::parse(check.name, check.source, check.function).expect("kernel parses");
    let reference = record_targets::models::model("ref").expect("ref model exists");
    if let Err(e) = self_test(reference.hdl, &check, &mut rng) {
        outcome.problems.push(e);
    }
    let mut pool = Vec::new();
    for m in record_targets::models() {
        match pool_model(m.hdl.to_owned(), [check.clone()], &mut rng, outcome) {
            Ok(model) => pool.push(model),
            Err(e) => outcome.problems.push(format!("{}: {e}", m.name)),
        }
    }
    let mut accepted = 0;
    let mut i = 0;
    while accepted < GENERATED_MODELS && i < 8 * GENERATED_MODELS as u64 {
        let (hdl, kernels) = generated(i);
        i += 1;
        // Generated models that fail to retarget or compile are passed
        // over: the pool is a draw from the models that do.
        if let Ok(model) = pool_model(hdl, kernels, &mut rng, outcome) {
            if model.checked.is_some() {
                pool.push(model);
                accepted += 1;
            }
        }
    }
    if accepted < GENERATED_MODELS {
        outcome.problems.push(format!(
            "only {accepted} of {GENERATED_MODELS} generated models retarget and compile"
        ));
    }
    pool
}

/// Runs the oracle's self-test for `kernel` on the model `hdl`.
fn self_test(hdl: &str, kernel: &Kernel, rng: &mut Rng) -> Result<(), String> {
    let target = Record::retarget(hdl, &RetargetOptions::default()).map_err(|e| e.to_string())?;
    let dm = target.data_memory().map_err(|e| e.to_string())?;
    let width = target.netlist().storage(dm).width;
    let images = oracle::images(&kernel.program, width, rng, IMAGES);
    oracle::self_test(&target, kernel, &images)
}

/// Sums the code size and memory traffic of the checked kernels.
pub fn write_code_metrics<'a>(checked: impl Iterator<Item = &'a Checked>, values: &mut Values) {
    let (mut words, mut accesses) = (0, 0);
    for c in checked {
        words += c.words;
        accesses += c.mem_accesses;
    }
    values.insert("code_words", words as f64);
    values.insert("mem_accesses", accesses as f64);
}

/// `retarget-cold`: cold `Record::retarget` over the pool.
pub fn retarget_cold(opts: &RunOptions) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let ((pool, setup_problems), setup_s) = run::repeated_setup(|| {
        let mut scratch = Outcome::default();
        let pool = retarget_pool(opts.seed, &mut scratch);
        (pool, scratch.problems)
    });
    outcome.problems = setup_problems;
    let options = RetargetOptions::default();
    let mut spans = Spans::default();
    let passes = run::passes(
        pool.len(),
        run::LIBRARY_WINDOW,
        opts,
        &mut run::rng(opts.seed, 3),
        &mut outcome,
        |i, traced| {
            let t = Instant::now();
            let target = Record::retarget(&pool[i].hdl, &options).map_err(|e| e.to_string())?;
            let ns = t.elapsed().as_nanos() as u64;
            if traced {
                spans.add_report(&target.report().report, &RETARGET_PHASES);
            }
            let got = Fingerprint::of(&target);
            if got != pool[i].expect {
                return Err(format!(
                    "retarget {i}: {got:?}, reference {:?}",
                    pool[i].expect
                ));
            }
            Ok(ns)
        },
    );

    let values = &mut outcome.values;
    if opts.trace {
        spans.write_means(values);
        write_retarget_counts(
            pool.iter().map(|m| (&m.expect, m.op_cache_hit_rate)),
            values,
        );
        run::write_probe_metrics(&passes, spans.total_ns(), values);
    } else {
        values.insert("setup_s", setup_s);
        run::write_latency_metrics(&passes.untraced, values);
        write_code_metrics(pool.iter().filter_map(|m| m.checked.as_ref()), values);
    }
    eprintln!(
        "retarget-cold: {} models ({} with a checked kernel), {} retargets",
        pool.len(),
        pool.iter().filter(|m| m.checked.is_some()).count(),
        passes.untraced.len() + passes.traced.len()
    );
    Ok(outcome)
}

/// The compile-long set-up: manocpu retargeted, each DSPstone kernel
/// checked, and the oracle's self-test.
struct CompileSetup {
    target: Target,
    kernels: Vec<(Kernel, Checked)>,
    problems: Vec<String>,
}

fn compile_setup(seed: u64) -> Result<CompileSetup, String> {
    let model = record_targets::models::model("manocpu").expect("manocpu model exists");
    let target =
        Record::retarget(model.hdl, &RetargetOptions::default()).map_err(|e| e.to_string())?;
    let mut rng = run::rng(seed, 4);
    let mut kernels = Vec::new();
    let mut problems = Vec::new();
    for k in record_targets::kernels() {
        let kernel = Kernel::parse(k.name, k.source, k.function)?;
        let images = oracle::images(&kernel.program, model.data_width, &mut rng, IMAGES);
        if kernels.is_empty() {
            if let Err(e) = oracle::self_test(&target, &kernel, &images) {
                problems.push(e);
            }
        }
        match oracle::verify(&target, &kernel, &images) {
            Ok(checked) => kernels.push((kernel, checked)),
            Err(e) => problems.push(e),
        }
    }
    Ok(CompileSetup {
        target,
        kernels,
        problems,
    })
}

/// `compile-long`: `Target::compile` of the DSPstone kernels on manocpu.
pub fn compile_long(opts: &RunOptions) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (setup, setup_s) = run::repeated_setup(|| compile_setup(opts.seed));
    let setup = setup?;
    outcome.problems.extend(setup.problems.iter().cloned());
    let target = &setup.target;
    let mut sample = run::rng(opts.seed, 5);
    let mut spans = Spans::default();
    let passes = run::passes(
        setup.kernels.len(),
        run::LIBRARY_WINDOW,
        opts,
        &mut run::rng(opts.seed, 6),
        &mut outcome,
        |i, traced| {
            let (kernel, checked) = &setup.kernels[i];
            let t = Instant::now();
            let compiled = target
                .compile(&kernel.request())
                .map_err(|e| format!("{}: {e}", kernel.name))?;
            let ns = t.elapsed().as_nanos() as u64;
            if traced {
                spans.add_report(&compiled.report, &COMPILE_PHASES);
            }
            checked
                .matches(target, &compiled, sample.below(LISTING_SAMPLE) == 0)
                .map_err(|e| format!("{}: {e}", kernel.name))?;
            Ok(ns)
        },
    );

    let values = &mut outcome.values;
    if opts.trace {
        spans.write_means(values);
        write_compile_counts(setup.kernels.iter().map(|(_, c)| c), values);
        run::write_probe_metrics(&passes, spans.total_ns(), values);
    } else {
        values.insert("setup_s", setup_s);
        run::write_latency_metrics(&passes.untraced, values);
        write_code_metrics(setup.kernels.iter().map(|(_, c)| c), values);
    }
    for (i, median) in passes.untraced.input_medians_ms() {
        eprintln!(
            "compile-long: {:<18} {median:>10.3} ms",
            setup.kernels[i].0.name
        );
    }
    Ok(outcome)
}

/// The retarget layers' counts, summed over the distinct models, and
/// their mean op-cache hit rate.
pub fn write_retarget_counts<'a>(
    models: impl Iterator<Item = (&'a Fingerprint, f64)>,
    values: &mut Values,
) {
    let (mut templates, mut rules, mut nodes, mut hit_rate, mut n) = (0, 0, 0, 0.0, 0);
    for (f, rate) in models {
        templates += f.templates;
        rules += f.rules;
        nodes += f.bdd_nodes;
        hit_rate += rate;
        n += 1;
    }
    values.insert("rtl.templates", templates as f64);
    values.insert("grammar.rules", rules as f64);
    values.insert("bdd.nodes", nodes as f64);
    values.insert("bdd.op-cache-hit-rate", hit_rate / f64::from(n.max(1)));
}

/// The compile layers' work counts, summed over the checked inputs (each
/// counted once), and the ratios they give.
pub fn write_compile_counts<'a>(checked: impl Iterator<Item = &'a Checked>, values: &mut Values) {
    let (mut ops, mut words, mut hits, mut misses) = (0.0, 0.0, 0.0, 0.0);
    let mut counts = [
        ("selgen.rules-tried", "select.rules-tried", 0.0),
        (
            "regalloc.reloads-eliminated",
            "allocate.reloads-eliminated",
            0.0,
        ),
        ("regalloc.spills", "allocate.spills", 0.0),
        ("bdd.session-nodes", "bdd.nodes-allocated", 0.0),
    ];
    for c in checked {
        ops += c.ops as f64;
        words += c.words as f64;
        let counter = |name| c.report.counter(name).unwrap_or(0) as f64;
        hits += counter("bdd.op-cache-hits");
        misses += counter("bdd.op-cache-misses");
        for (_, counter_name, total) in &mut counts {
            *total += counter(counter_name);
        }
    }
    values.insert("codegen.ops", ops);
    values.insert("compact.words", words);
    values.insert("compact.pack-ratio", ops / words);
    values.insert("bdd.session-op-cache-hit-rate", hits / (hits + misses));
    for (metric, _, total) in counts {
        values.insert(metric, total);
    }
}
