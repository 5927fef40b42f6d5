//! Differential pin: every kernel must produce byte-identical listings to
//! the reviewed golden files under `tests/golden/`.
//!
//! The straight-line kernels pin the one-block path through lowering,
//! emission, allocation and compaction; the control-flow kernels pin
//! branch emission; the baseline sections pin the per-operator Figure 2
//! comparator.  Regenerate the files with `cargo run --release --example
//! golden_listings` only when an intentional output change is reviewed.

#[path = "common/golden.rs"]
mod golden;

use record_targets::models;

#[test]
fn straightline_listings_match_golden_files() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    for model in models() {
        let (file, want) = golden::render(&model);
        let path = format!("{dir}/{file}");
        let got = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("golden file {path} unreadable: {e}"));
        assert_eq!(
            got, want,
            "{}: listings drifted from {path}; if the change is intentional, \
             regenerate with `cargo run --release --example golden_listings`",
            model.name
        );
    }
}
