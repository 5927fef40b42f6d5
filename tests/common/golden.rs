//! Golden listing rendering, shared by `tests/straightline_golden.rs`
//! (which compares) and `examples/golden_listings.rs` (which writes), so
//! the two cannot drift apart.
//!
//! Every kernel, straight-line and control-flow, is rendered on every
//! model in three modes: compacted, vertical (no compaction) and the
//! per-operator baseline.  A pair that fails to compile is recorded as
//! its failure class.

use record_core::{CompileRequest, Record, RetargetOptions};
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
