//! Shaping flat statements into expression trees over target storages.

use crate::binding::Binding;
use crate::error::CodegenError;
use record_grammar::{Et, EtBuilder, EtKind, NodeIdx};
use record_ir::{FlatExpr, FlatStmt};

/// Builds the destination-annotated ET for one statement.
///
/// Variable reads become `MemRead(data_mem, Const(addr))` subtrees and the
/// target becomes a `Store` root — direct addressing, as in the paper's
/// basic-block evaluation.  Constants are masked to `width` bits
/// (two's-complement fixed point).
///
/// # Errors
///
/// Propagates [`CodegenError::UnboundVariable`] from the binding.
pub fn build_et(stmt: &FlatStmt, binding: &Binding, width: u16) -> Result<Et, CodegenError> {
    let mut b = EtBuilder::new();
    let value = build_expr(&stmt.value, binding, width, &mut b)?;
    let addr = binding.addr_of(&stmt.target)?;
    let addr_node = b.leaf(EtKind::Const(addr));
    Ok(Et::store(binding.data_mem(), addr_node, value, b))
}

fn mask(width: u16) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

fn build_expr(
    e: &FlatExpr,
    binding: &Binding,
    width: u16,
    b: &mut EtBuilder,
) -> Result<NodeIdx, CodegenError> {
    Ok(match e {
        FlatExpr::Const(c) => b.leaf(EtKind::Const((*c as u64) & mask(width))),
        FlatExpr::Load(r) => {
            let addr = binding.addr_of(r)?;
            let a = b.leaf(EtKind::Const(addr));
            b.node(EtKind::MemRead(binding.storage_of(r)), &[a])
        }
        FlatExpr::Unary(op, a) => {
            let an = build_expr(a, binding, width, b)?;
            b.node(EtKind::Op(*op), &[an])
        }
        FlatExpr::Binary(op, l, r) => {
            let ln = build_expr(l, binding, width, b)?;
            let rn = build_expr(r, binding, width, b)?;
            b.node(EtKind::Op(*op), &[ln, rn])
        }
    })
}
