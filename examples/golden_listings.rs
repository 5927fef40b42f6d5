//! Regenerates the golden listing files under `tests/golden/`.
//!
//! Every kernel must keep producing byte-identical listings across
//! pipeline refactors; `tests/straightline_golden.rs` compares against
//! these files, rendered by the same `tests/common/golden.rs`.  Run
//! `cargo run --release --example golden_listings` only when an
//! intentional output change is reviewed.

#[path = "../tests/common/golden.rs"]
mod golden;

use record_targets::models;

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    std::fs::create_dir_all(dir).expect("create tests/golden");
    for model in models() {
        let (file, out) = golden::render(&model);
        let path = format!("{dir}/{file}");
        std::fs::write(&path, out).expect("write golden file");
        println!("wrote {path}");
    }
}
