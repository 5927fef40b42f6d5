//! Differential pin: every kernel must produce byte-identical listings to
//! the reviewed golden files under `tests/golden/`, and every model the
//! same extended template base.
//!
//! The straight-line kernels pin the one-block path through lowering,
//! emission, allocation and compaction; the control-flow kernels pin
//! branch emission; the baseline sections pin the per-operator Figure 2
//! comparator.  Regenerate the files with `cargo run --release --example
//! golden_listings` only when an intentional output change is reviewed.

#[path = "common/golden.rs"]
mod golden;

use record_targets::models;

/// Asserts that a rendered `(file name, content)` pair equals the golden
/// file of that name; `what` names the content in the failure message.
fn assert_matches_golden((file, want): (String, String), what: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/").to_owned() + &file;
    let got = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {path} unreadable: {e}"));
    assert_eq!(
        got, want,
        "{what} drifted from {path}; if the change is intentional, \
         regenerate with `cargo run --release --example golden_listings`"
    );
}

#[test]
fn straightline_listings_match_golden_files() {
    for model in models() {
        let what = format!("{}: listings", model.name);
        assert_matches_golden(golden::render(&model), &what);
    }
}

#[test]
fn template_bases_match_golden_file() {
    assert_matches_golden(golden::render_template_bases(&models()), "template bases");
}
