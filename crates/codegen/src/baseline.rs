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
use crate::emit::{Codegen, Emitted, Gen};
use crate::error::CodegenError;
use record_bdd::BddOverlay;
use record_grammar::{Et, EtBuilder, EtKind, NodeIdx};
use record_ir::{Cfg, FlatExpr};
use record_probe::Probe;

/// An operand produced by naive expansion: a constant or a memory word.
#[derive(Debug, Clone)]
enum Operand {
    Const(u64),
    Mem(u64),
}

impl Codegen<'_> {
    /// Compiles a straight-line function in the naive per-operator style.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Codegen::compile`], and
    /// [`CodegenError::NoBranchPath`] for a function with more than one
    /// block: the baseline has no control-flow support.
    pub fn baseline(
        &self,
        cfg: &Cfg,
        binding: &mut Binding,
        manager: &mut BddOverlay<'_>,
        probe: &mut Probe<'_>,
    ) -> Result<Emitted, CodegenError> {
        let [block] = cfg.blocks.as_slice() else {
            return Err(CodegenError::NoBranchPath {
                detail: "the baseline per-operator compiler supports straight-line code only"
                    .to_owned(),
            });
        };
        let mut gen = Gen::new(*self, binding, manager);
        for stmt in &block.stmts {
            gen.statement(probe, |gen| {
                let target = gen.binding.addr_of(&stmt.target)?;
                gen.expand(&stmt.value, Some(target))?;
                Ok(())
            })?;
        }
        let block = std::iter::once(0..gen.out.len()).collect();
        Ok(gen.finish(block))
    }
}

impl Gen<'_, '_> {
    /// Expands `e`; the result lands at `target` (or a fresh temp if
    /// `None`).  Returns the operand describing where the value is.
    fn expand(&mut self, e: &FlatExpr, target: Option<u64>) -> Result<Operand, CodegenError> {
        let operand = match e {
            FlatExpr::Const(c) => Operand::Const((*c as u64) & self.word_mask()),
            FlatExpr::Load(r) => Operand::Mem(self.binding.addr_of(r)?),
            FlatExpr::Unary(op, a) => {
                let ao = self.expand(a, None)?;
                let dst = next_dest(target, self.binding)?;
                let mut b = EtBuilder::new();
                let an = leaf(&mut b, &ao, self.binding);
                let value = b.node(EtKind::Op(*op), &[an]);
                self.assign(b, value, dst)?;
                return Ok(Operand::Mem(dst));
            }
            FlatExpr::Binary(op, l, r) => {
                let lo = self.expand(l, None)?;
                let ro = self.expand(r, None)?;
                let dst = next_dest(target, self.binding)?;
                let mut b = EtBuilder::new();
                let ln = leaf(&mut b, &lo, self.binding);
                let rn = leaf(&mut b, &ro, self.binding);
                let value = b.node(EtKind::Op(*op), &[ln, rn]);
                self.assign(b, value, dst)?;
                return Ok(Operand::Mem(dst));
            }
        };
        // Pure copies (x = y; x = 5;) still have to reach the target.
        if let Some(t) = target {
            let mut b = EtBuilder::new();
            let value = leaf(&mut b, &operand, self.binding);
            self.assign(b, value, t)?;
            return Ok(Operand::Mem(t));
        }
        Ok(operand)
    }

    /// Builds `dm[dst] := <value>` and compiles it as one cover.  Nothing
    /// splits an uncovered mini-tree here, so its selection error is
    /// built at once.
    fn assign(&mut self, mut b: EtBuilder, value: NodeIdx, dst: u64) -> Result<(), CodegenError> {
        let addr = b.leaf(EtKind::Const(dst));
        let et = Et::store(self.binding.data_mem(), addr, value, b);
        if self.cover(&et)? {
            Ok(())
        } else {
            Err(self.no_cover(&et))
        }
    }
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
