//! Regenerates the paper's Figure 2: relative code size (hand-written =
//! 100 %) on the TMS320C25-like model, baseline compiler (the paper's TI C
//! compiler bar) vs RECORD, plus the register allocator's memory-traffic
//! reduction per kernel.
//!
//! Pass `--no-commutativity` for the commutativity ablation: the same
//! table from a template base without commutative variants.

use record_core::RetargetOptions;
use record_rtl::{ExtensionOptions, TransformLibrary};

fn main() {
    let no_comm = std::env::args().any(|a| a == "--no-commutativity");
    let mut options = RetargetOptions::default();
    if no_comm {
        options.extension = ExtensionOptions {
            commutativity: false,
            max_variants_per_template: 16,
            library: TransformLibrary::standard(),
        };
        println!("(ablation: commutative extension disabled)");
    }
    println!("Figure 2: relative code size, hand-written = 100% (TMS320C25-like)");
    println!(
        "{:<18} {:>6} {:>8} {:>8} {:>8} {:>9} | {:>7} {:>9} {:>9} {:>6} {:>6}",
        "kernel",
        "hand",
        "record",
        "baseline",
        "record%",
        "baseline%",
        "mem r+w",
        "(unalloc)",
        "(basel.)",
        "saved",
        "spills"
    );
    match record_bench::figure2(&options) {
        Ok(rows) => {
            for r in &rows {
                println!(
                    "{:<18} {:>6} {:>8} {:>8} {:>7.0}% {:>8.0}% | {:>7} {:>9} {:>9} {:>5.0}% {:>6}",
                    r.kernel,
                    r.hand_ops,
                    r.record_size,
                    r.baseline_size,
                    r.record_pct(),
                    r.baseline_pct(),
                    r.record_mem,
                    r.unalloc_mem,
                    r.baseline_mem,
                    r.mem_reduction_pct(),
                    r.spills,
                );
            }
            let avg_r: f64 = rows.iter().map(|r| r.record_pct()).sum::<f64>() / rows.len() as f64;
            let avg_b: f64 = rows.iter().map(|r| r.baseline_pct()).sum::<f64>() / rows.len() as f64;
            let avg_m: f64 =
                rows.iter().map(|r| r.mem_reduction_pct()).sum::<f64>() / rows.len() as f64;
            println!(
                "{:<18} {:>6} {:>8} {:>8} {:>7.0}% {:>8.0}% | {:>7} {:>9} {:>9} {:>5.0}% {:>6}",
                "average", "", "", "", avg_r, avg_b, "", "", "", avg_m, ""
            );
        }
        Err(e) => println!("FAILED: {e}"),
    }
    println!();
    println!("paper shape: RECORD bars near 100%, below the target-specific compiler");
    println!("on every kernel; largest compiler overheads on MAC-dominated kernels.");
    println!("`mem r+w` counts data-memory accesses of the allocated code; `(unalloc)`");
    println!("is the same path with the register allocator off, `(basel.)` the naive");
    println!("baseline compiler's traffic.");
}
