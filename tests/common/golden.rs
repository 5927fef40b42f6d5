//! Golden listing rendering, shared by `tests/straightline_golden.rs`
//! (which compares) and `examples/golden_listings.rs` (which writes), so
//! the two cannot drift apart.
//!
//! Every kernel, straight-line and control-flow, is rendered on every
//! model in three modes: compacted, vertical (no compaction) and the
//! per-operator baseline.  A pair that fails to compile is recorded as
//! its failure class.  Each model's extended template base is pinned
//! too, so a change that renumbers templates cannot hide behind
//! selection tie-breaks that happen to pick the same code.

use record_core::{CompileRequest, Record, RetargetOptions};
use record_rtl::TemplateOrigin;
use record_targets::{control_kernels, kernels, TargetModel};
use std::fmt::Write as _;

/// Full listings above this size are stored as per-section FNV-1a
/// digests instead of verbatim text (manocpu's accumulator code is
/// ~700 KiB of listings).
const DIGEST_THRESHOLD: usize = 100_000;

/// Section modes: (name, compaction, baseline).
const MODES: [(&str, bool, bool); 3] = [
    ("compacted", true, false),
    ("vertical", false, false),
    ("baseline", true, true),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders one model's golden file: `(file name, content)`.
pub fn render(model: &TargetModel) -> (String, String) {
    let target = Record::retarget(model.hdl, &RetargetOptions::default())
        .unwrap_or_else(|e| panic!("retarget {} failed: {e}", model.name));
    let mut sections = Vec::new();
    for kernel in kernels().into_iter().chain(control_kernels()) {
        for (mode, compaction, baseline) in MODES {
            let req = CompileRequest::new(kernel.source, kernel.function)
                .compaction(compaction)
                .baseline(baseline);
            let body = match target.compile(&req) {
                Ok(k) => target.listing(&k),
                Err(e) => format!("ERROR {}\n", e.classify()),
            };
            sections.push((format!("== {} {} ==", kernel.name, mode), body));
        }
    }
    let total: usize = sections.iter().map(|(h, b)| h.len() + b.len()).sum();
    let mut out = String::new();
    if total > DIGEST_THRESHOLD {
        for (header, body) in &sections {
            writeln!(
                out,
                "{header} fnv1a={:016x} bytes={}",
                fnv1a(body.as_bytes()),
                body.len()
            )
            .unwrap();
        }
        (format!("digests_{}.txt", model.name), out)
    } else {
        for (header, body) in &sections {
            writeln!(out, "{header}").unwrap();
            out.push_str(body);
        }
        (format!("listings_{}.txt", model.name), out)
    }
}

/// Renders the template-base golden file over `models`: `(file name,
/// content)`.
///
/// Per model, the retarget report's counts and the frozen BDD node
/// count, then the FNV-1a digest and byte length of the base listed in
/// id order, one line per template:
/// `id: dest := src [when pred] | origin | cond`.
pub fn render_template_bases(models: &[TargetModel]) -> (String, String) {
    let mut out = String::new();
    for model in models {
        let target = Record::retarget(model.hdl, &RetargetOptions::default())
            .unwrap_or_else(|e| panic!("retarget {} failed: {e}", model.name));
        let r = target.report();
        writeln!(out, "== {} ==", model.name).unwrap();
        writeln!(
            out,
            "extracted={} extended={} unsat_discarded={} rules={} nonterminals={} \
             pool_registers={} pool_cells={} bdd_nodes={}",
            r.templates_extracted,
            r.templates_extended,
            r.unsat_discarded,
            r.rules,
            r.nonterminals,
            r.pool_registers,
            r.pool_cells,
            target.manager().node_count()
        )
        .unwrap();
        let mut listing = String::new();
        for t in target.base().templates() {
            let origin = match t.origin {
                TemplateOrigin::Extracted => "extracted".to_owned(),
                TemplateOrigin::Commutative(of) => format!("commutative({})", of.0),
                TemplateOrigin::Rewrite(of) => format!("rewrite({})", of.0),
            };
            writeln!(
                listing,
                "{}: {} | {origin} | {}",
                t.id.0,
                t.render(target.netlist()),
                t.cond
            )
            .unwrap();
        }
        writeln!(
            out,
            "templates fnv1a={:016x} bytes={}",
            fnv1a(listing.as_bytes()),
            listing.len()
        )
        .unwrap();
    }
    ("template_bases.txt".to_owned(), out)
}
