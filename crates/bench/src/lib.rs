//! Benchmark harness: regenerates the paper's Table 3 and Figure 2.
//!
//! * `cargo run -p record-bench --bin table3` prints the retargeting-time
//!   table (template counts + per-phase times for all six processors).
//! * `cargo run -p record-bench --bin figure2` prints the relative code
//!   size chart data (hand-written = 100 %) for the ten DSPstone kernels on
//!   the TMS320C25-like model, baseline compiler vs RECORD.
//! * `cargo run -p record-bench --bin perf_snapshot` prints per-phase
//!   median tables for every model retarget and kernel x model compile.
//! * `cargo run -p record-bench --bin trace_smoke` writes and validates a
//!   Chrome trace of one traced compile per Figure 2 kernel.
//! * `cargo run -p record-bench --bin compile_dump` prints every op,
//!   schedule word, failure and report counter of 2,652 compiles, for
//!   diffing what two commits generate.
//!
//! The timing ledger is the repository benchmark (`perfbench/`).

use record_core::{mem_traffic, CompileError, CompileRequest, Record, RetargetOptions, Target};
use record_targets::{kernels, models, Kernel};

/// One Figure 2 data point.
#[derive(Debug, Clone)]
pub struct Figure2Row {
    pub kernel: &'static str,
    pub hand_ops: usize,
    pub record_size: usize,
    pub baseline_size: usize,
    /// Data-memory reads+writes of the allocated RECORD code.
    pub record_mem: usize,
    /// Data-memory reads+writes with the register allocator off.
    pub unalloc_mem: usize,
    /// Data-memory reads+writes of the baseline compiler's code.
    pub baseline_mem: usize,
    /// Identity reloads the allocator removed.
    pub reloads_eliminated: usize,
    /// Dead stores the allocator removed.
    pub stores_eliminated: usize,
    /// Residencies lost while still live (reloads forced to stay).
    pub spills: usize,
}

impl Figure2Row {
    /// RECORD bar height in percent (hand-written = 100).
    pub fn record_pct(&self) -> f64 {
        100.0 * self.record_size as f64 / self.hand_ops as f64
    }

    /// Baseline-compiler bar height in percent.
    pub fn baseline_pct(&self) -> f64 {
        100.0 * self.baseline_size as f64 / self.hand_ops as f64
    }

    /// Memory-traffic reduction of allocation in percent of the
    /// unallocated traffic.
    pub fn mem_reduction_pct(&self) -> f64 {
        if self.unalloc_mem == 0 {
            return 0.0;
        }
        100.0 * (self.unalloc_mem - self.record_mem) as f64 / self.unalloc_mem as f64
    }
}

/// Compiles one kernel both ways on an already-retargeted C25 target.
///
/// # Errors
///
/// Propagates compile errors.
// `CompileError` outweighs `Figure2Row`; it is the workspace-wide error
// type and not worth boxing for this one reporting helper.
#[allow(clippy::result_large_err)]
pub fn figure2_row(target: &Target, kernel: &Kernel) -> Result<Figure2Row, CompileError> {
    let rec = target.compile(&CompileRequest::new(kernel.source, kernel.function))?;
    // Only the vertical op list is read from this variant, so skip the
    // compaction pass.
    let unalloc = target.compile(
        &CompileRequest::new(kernel.source, kernel.function)
            .compaction(false)
            .allocate_registers(false),
    )?;
    let base = target.compile(
        &CompileRequest::new(kernel.source, kernel.function)
            .baseline(true)
            .compaction(false),
    )?;
    let dm = target.data_memory()?;
    let traffic = |ops: &[record_core::RtOp]| {
        let (r, w) = mem_traffic(ops, dm);
        r + w
    };
    let alloc = rec.alloc.clone().unwrap_or_default();
    Ok(Figure2Row {
        kernel: kernel.name,
        hand_ops: kernel.hand_ops,
        record_size: rec.code_size(),
        baseline_size: base.code_size(),
        record_mem: traffic(&rec.ops),
        unalloc_mem: traffic(&unalloc.ops),
        baseline_mem: traffic(&base.ops),
        reloads_eliminated: alloc.reloads_eliminated,
        stores_eliminated: alloc.stores_eliminated,
        spills: alloc.spills,
    })
}

/// Computes the full Figure 2 dataset.
///
/// # Errors
///
/// Propagates retargeting and compile errors (boxed: the two phases fail
/// with different types).
#[allow(clippy::result_large_err)]
pub fn figure2(options: &RetargetOptions) -> Result<Vec<Figure2Row>, Box<dyn std::error::Error>> {
    let model = models::model("tms320c25").expect("c25 model exists");
    let target = Record::retarget(model.hdl, options)?;
    Ok(kernels::kernels()
        .iter()
        .map(|k| figure2_row(&target, k))
        .collect::<Result<Vec<_>, _>>()?)
}
