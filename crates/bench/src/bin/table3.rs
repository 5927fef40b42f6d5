//! Regenerates the paper's Table 3: number of RT templates and retargeting
//! time per target processor, plus aggregate register-allocation counters
//! over the Figure 2 kernels that compile on each model.

use record_core::{CompileRequest, Record};
use record_targets::{kernels, models};
use std::time::Duration;

/// The retarget phases, in pipeline order, as the report labels them.
const PHASES: [&str; 6] = [
    "parse",
    "extract",
    "template-gen",
    "rule-gen",
    "selector-gen",
    "freeze",
];

fn main() {
    println!("Table 3: retargeting statistics (paper: templates / SPARC-20 CPU s)");
    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>12}   {:>7} {:>7} {:>7}   phases ({})",
        "processor",
        "extracted",
        "extended",
        "rules",
        "time",
        "kernels",
        "saved",
        "spills",
        PHASES.join("/")
    );
    for model in models::models() {
        match Record::retarget(model.hdl, &Default::default()) {
            Ok(target) => {
                // Aggregate allocator counters over the kernels this
                // machine can compile at all (only allocator counters
                // are read: skip compaction).
                let mut compiled = 0usize;
                let mut saved = 0usize;
                let mut spills = 0usize;
                for k in kernels::kernels() {
                    let request = CompileRequest::new(k.source, k.function).compaction(false);
                    let Ok(c) = target.compile(&request) else {
                        continue;
                    };
                    compiled += 1;
                    if let Some(a) = &c.alloc {
                        saved += a.accesses_saved();
                        spills += a.spills;
                    }
                }
                let s = target.report();
                let phases: Vec<String> = PHASES
                    .iter()
                    .map(|label| {
                        let ns = s.report.phase_ns(label).unwrap_or(0);
                        format!("{:.2?}", Duration::from_nanos(ns))
                    })
                    .collect();
                println!(
                    "{:<12} {:>10} {:>10} {:>8} {:>10.2?}   {:>7} {:>7} {:>7}   {}",
                    model.name,
                    s.templates_extracted,
                    s.templates_extended,
                    s.rules,
                    s.t_total(),
                    compiled,
                    saved,
                    spills,
                    phases.join("/"),
                );
            }
            Err(e) => println!("{:<12} FAILED: {e}", model.name),
        }
    }
    println!();
    println!("`kernels` = Figure 2 kernels the machine compiles; `saved` = data-memory");
    println!("accesses removed by the register allocator; `spills` = residencies lost.");
    println!("paper reference: demo 439/356s  ref 1703/84s  manocpu 207/6.3s");
    println!("                 tanenbaum 232/11.7s  bass_boost 89/3.7s  TMS320C25 356/165s");
}
