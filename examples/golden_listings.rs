//! Regenerates the golden listing and template-base files under
//! `tests/golden/`.
//!
//! Every kernel must keep producing byte-identical listings, and every
//! model the same extended template base, across pipeline refactors;
//! `tests/straightline_golden.rs` compares against these files, rendered
//! by the same `tests/common/golden.rs`.  Run
//! `cargo run --release --example golden_listings` only when an
//! intentional output change is reviewed.

#[path = "../tests/common/golden.rs"]
mod golden;

use record_targets::models;

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    std::fs::create_dir_all(dir).expect("create tests/golden");
    let models = models();
    let files = models
        .iter()
        .map(golden::render)
        .chain([golden::render_template_bases(&models)]);
    for (file, out) in files {
        let path = format!("{dir}/{file}");
        std::fs::write(&path, out).expect("write golden file");
        println!("wrote {path}");
    }
}
