//! The baseline compiler: Figure 2's "target-specific C compiler" stand-in.
//!
//! The paper's Figure 2 compares RECORD against TI's C compiler for the
//! TMS320C25, whose overheads come from naive per-operator code: every
//! operation is expanded separately, operands travel through memory, and
//! chained operations (MAC) are never exploited.  This module reproduces
//! that compilation *style* retargetably: each operator of the source
//! expression becomes its own single-operator expression tree evaluated
//! into a memory temporary.  Selection of each mini-tree still uses the
//! generated tree parser (so the code is correct for the machine), but no
//! cross-operator chaining, no algebraic restructuring and no compaction
//! can happen.

use crate::binding::Binding;
use crate::emit::{compile_statement, EmitStats, EmitTables, Emitted};
use crate::error::CodegenError;
use crate::ops::RtOp;
use record_bdd::BddOps;
use record_grammar::{Et, EtBuilder, EtKind, NodeIdx};
use record_ir::{Cfg, FlatExpr};
use record_netlist::Netlist;
use record_probe::Probe;
use record_rtl::TemplateBase;
use record_selgen::Selector;

/// An operand produced by naive expansion: a constant or a memory word.
#[derive(Debug, Clone)]
enum Operand {
    Const(u64),
    Mem(u64),
}

/// Compiles a straight-line function in the naive per-operator style.
///
/// # Errors
///
/// Same failure modes as [`crate::compile`], and
/// [`CodegenError::NoBranchPath`] for a function with more than one
/// block: the baseline has no control-flow support.
#[allow(clippy::too_many_arguments)]
pub fn baseline_compile<M: BddOps>(
    cfg: &Cfg,
    selector: &Selector,
    base: &TemplateBase,
    binding: &mut Binding,
    netlist: &Netlist,
    manager: &mut M,
    tables: &EmitTables,
    width: u16,
    probe: &mut Probe<'_>,
) -> Result<Emitted, CodegenError> {
    let [block] = cfg.blocks.as_slice() else {
        return Err(CodegenError::NoBranchPath {
            detail: "the baseline per-operator compiler supports straight-line code only"
                .to_owned(),
        });
    };
    let mut out = Vec::new();
    let mut stats = EmitStats::default();
    for stmt in &block.stmts {
        probe.begin("statement");
        let mark = binding.scratch_mark();
        let target = binding.addr_of(&stmt.target);
        let r = target.and_then(|target| {
            expand(
                &stmt.value,
                Some(target),
                selector,
                base,
                binding,
                netlist,
                manager,
                tables,
                width,
                &mut out,
                &mut stats,
            )
        });
        probe.end("statement");
        r?;
        stats.statements += 1;
        binding.release_scratch(mark)?;
    }
    Ok(Emitted {
        block_ranges: std::iter::once(0..out.len()).collect(),
        ops: out,
        stats,
    })
}

fn mask(width: u16) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// Expands `e`; the result lands at `target` (or a fresh temp if `None`).
/// Returns the operand describing where the value is.
#[allow(clippy::too_many_arguments)]
fn expand<M: BddOps>(
    e: &FlatExpr,
    target: Option<u64>,
    selector: &Selector,
    base: &TemplateBase,
    binding: &mut Binding,
    netlist: &Netlist,
    manager: &mut M,
    tables: &EmitTables,
    width: u16,
    out: &mut Vec<RtOp>,
    stats: &mut EmitStats,
) -> Result<Operand, CodegenError> {
    let operand = match e {
        FlatExpr::Const(c) => Operand::Const((*c as u64) & mask(width)),
        FlatExpr::Load(r) => Operand::Mem(binding.addr_of(r)?),
        FlatExpr::Unary(op, a) => {
            let ao = expand(
                a, None, selector, base, binding, netlist, manager, tables, width, out, stats,
            )?;
            let dst = next_dest(target, binding)?;
            let mut b = EtBuilder::new();
            let an = leaf(&mut b, &ao, binding);
            let value = b.node(EtKind::Op(*op), &[an]);
            emit_step(
                b, value, dst, selector, base, binding, netlist, manager, tables, out, stats,
            )?;
            return Ok(Operand::Mem(dst));
        }
        FlatExpr::Binary(op, l, r) => {
            let lo = expand(
                l, None, selector, base, binding, netlist, manager, tables, width, out, stats,
            )?;
            let ro = expand(
                r, None, selector, base, binding, netlist, manager, tables, width, out, stats,
            )?;
            let dst = next_dest(target, binding)?;
            let mut b = EtBuilder::new();
            let ln = leaf(&mut b, &lo, binding);
            let rn = leaf(&mut b, &ro, binding);
            let value = b.node(EtKind::Op(*op), &[ln, rn]);
            emit_step(
                b, value, dst, selector, base, binding, netlist, manager, tables, out, stats,
            )?;
            return Ok(Operand::Mem(dst));
        }
    };
    // Pure copies (x = y; x = 5;) still have to reach the target.
    if let Some(t) = target {
        let mut b = EtBuilder::new();
        let value = leaf(&mut b, &operand, binding);
        emit_step(
            b, value, t, selector, base, binding, netlist, manager, tables, out, stats,
        )?;
        return Ok(Operand::Mem(t));
    }
    Ok(operand)
}

fn next_dest(target: Option<u64>, binding: &mut Binding) -> Result<u64, CodegenError> {
    match target {
        Some(t) => Ok(t),
        None => binding.scratch(),
    }
}

fn leaf(b: &mut EtBuilder, o: &Operand, binding: &Binding) -> NodeIdx {
    match o {
        Operand::Const(v) => b.leaf(EtKind::Const(*v)),
        Operand::Mem(a) => {
            let an = b.leaf(EtKind::Const(*a));
            b.node(EtKind::MemRead(binding.data_mem()), &[an])
        }
    }
}

/// Builds `dm[dst] := <value>` and compiles it as one statement.
#[allow(clippy::too_many_arguments)]
fn emit_step<M: BddOps>(
    mut b: EtBuilder,
    value: NodeIdx,
    dst: u64,
    selector: &Selector,
    base: &TemplateBase,
    binding: &mut Binding,
    netlist: &Netlist,
    manager: &mut M,
    tables: &EmitTables,
    out: &mut Vec<RtOp>,
    stats: &mut EmitStats,
) -> Result<(), CodegenError> {
    let addr = b.leaf(EtKind::Const(dst));
    let et = Et::store(binding.data_mem(), addr, value, b);
    out.extend(compile_statement(
        &et, selector, base, binding, netlist, manager, tables, stats,
    )?);
    Ok(())
}
