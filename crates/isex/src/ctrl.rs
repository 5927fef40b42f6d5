//! Analysis of control signals (paper §2, second ISE step).
//!
//! Control nets are evaluated *symbolically*: every net becomes a vector of
//! BDDs over instruction-word bits and mode-register bits.  Tracing passes
//! through arbitrary combinational decoder logic (`case` tables, bitwise
//! ops, slices); it stops at registers — only designated *mode registers*
//! are legitimate control sources, anything else is data-dependent control
//! and therefore not statically encodable.

use crate::error::IsexError;
use crate::varmap::VarMap;
use record_bdd::{Bdd, BddManager};
use record_hdl::UnOp;
use record_netlist::{
    BusGuard, CtrlExpr, DataExpr, ElabKind, Guard, InstId, Net, Netlist, PortIdx, StorageKind,
};
use std::collections::{HashMap, HashSet};

/// Why a control net could not be evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlIssue {
    /// The net depends on the data path (ordinary register, memory, primary
    /// input, bus) — the condition is not a static function of instruction
    /// and mode bits.  Routes requiring it are skipped, not errors.
    Untraceable(String),
    /// A combinational cycle in the control logic: a model bug.
    Cycle(String),
}

impl CtrlIssue {
    /// Converts a cycle into a hard extraction error.
    pub fn into_error(self) -> IsexError {
        match self {
            CtrlIssue::Untraceable(s) => IsexError::new(format!("untraceable control: {s}")),
            CtrlIssue::Cycle(s) => IsexError::new(format!("combinational control cycle: {s}")),
        }
    }
}

/// A symbolic bit-vector: one BDD per bit, plus a *definedness* condition
/// (partial `case` tables leave outputs undefined outside their labels; a
/// comparison against such a vector must include definedness).
#[derive(Debug, Clone)]
pub struct SymVec {
    /// Bit functions, least significant first.
    pub bits: Vec<Bdd>,
    /// Condition under which the vector carries a defined value.
    pub defined: Bdd,
}

impl SymVec {
    fn constant(value: u64, width: u16) -> SymVec {
        SymVec {
            bits: (0..width)
                .map(|i| {
                    if (value >> i) & 1 == 1 {
                        Bdd::TRUE
                    } else {
                        Bdd::FALSE
                    }
                })
                .collect(),
            defined: Bdd::TRUE,
        }
    }

    fn slice(&self, hi: u16, lo: u16) -> SymVec {
        SymVec {
            bits: self.bits[lo as usize..=(hi as usize).min(self.bits.len() - 1)].to_vec(),
            defined: self.defined,
        }
    }
}

type CtrlResult<T> = Result<T, CtrlIssue>;

/// The condition "`vec`'s bits equal `value`", without definedness.
/// False when `value` has a bit set above the vector's width.
fn bits_equal(vec: &SymVec, value: u64, m: &mut BddManager) -> Bdd {
    if vec.bits.len() < 64 && value >> vec.bits.len() != 0 {
        return Bdd::FALSE;
    }
    m.vector_equals(&vec.bits, value)
}

/// Symbolic evaluator for control nets with memoisation.
#[derive(Debug)]
pub struct CtrlAnalysis<'n> {
    netlist: &'n Netlist,
    varmap: VarMap,
    memo: HashMap<(InstId, PortIdx), SymVec>,
    in_progress: HashSet<(InstId, PortIdx)>,
}

impl<'n> CtrlAnalysis<'n> {
    /// Prepares analysis for `netlist`, registering BDD variables.
    pub fn new(netlist: &'n Netlist, manager: &mut BddManager) -> Self {
        CtrlAnalysis {
            netlist,
            varmap: VarMap::new(netlist, manager),
            memo: HashMap::new(),
            in_progress: HashSet::new(),
        }
    }

    /// The variable layout.
    pub fn varmap(&self) -> &VarMap {
        &self.varmap
    }

    /// Builds the condition "`vec == value`" (including definedness).
    pub fn vec_equals(&self, vec: &SymVec, value: u64, m: &mut BddManager) -> Bdd {
        let eq = bits_equal(vec, value, m);
        m.and(vec.defined, eq)
    }

    /// Symbolic value of a processor-level net, as a `width`-bit vector.
    pub fn net_vec(&mut self, net: &Net, width: u16, m: &mut BddManager) -> CtrlResult<SymVec> {
        match net {
            Net::IField { hi, lo } => {
                let bits = (*lo..=*hi)
                    .map(|b| m.literal(self.varmap.ibit(b), true))
                    .collect();
                Ok(SymVec {
                    bits,
                    defined: Bdd::TRUE,
                })
            }
            Net::Const(v) => Ok(SymVec::constant(*v, width.max(1))),
            Net::Slice { base, hi, lo } => {
                let bw = self.netlist.net_width(base).max(hi + 1);
                let base_vec = self.net_vec(base, bw, m)?;
                Ok(base_vec.slice(*hi, *lo))
            }
            Net::ProcIn(p) => Err(CtrlIssue::Untraceable(format!(
                "primary input `{}` feeds a control port",
                self.netlist.proc_port(*p).name
            ))),
            Net::Bus(b) => Err(CtrlIssue::Untraceable(format!(
                "bus `{}` feeds a control port",
                self.netlist.bus(*b).name
            ))),
            Net::InstOut { inst, port } => self.out_vec(*inst, *port, m),
        }
    }

    /// Symbolic value of an instance output port.
    fn out_vec(&mut self, inst: InstId, port: PortIdx, m: &mut BddManager) -> CtrlResult<SymVec> {
        if let Some(v) = self.memo.get(&(inst, port)) {
            return Ok(v.clone());
        }
        // Collect everything needed from the netlist up front so the match
        // below holds no borrows while mutating `self`.
        enum OutKind {
            ModeReg {
                sid: record_netlist::StorageId,
                width: u16,
            },
            PlainReg,
            Memory(&'static str),
            Comb,
        }
        let (kind, iname, pname) = {
            let def = self.netlist.def_of(inst);
            let iname = self.netlist.inst(inst).name.clone();
            let pname = def.ports[port].name.clone();
            let kind = match &def.kind {
                ElabKind::Register { .. } => {
                    let storage = self
                        .netlist
                        .storage_of_inst(inst)
                        .expect("register instance has a storage");
                    if storage.is_mode {
                        OutKind::ModeReg {
                            sid: storage.id,
                            width: storage.width,
                        }
                    } else {
                        OutKind::PlainReg
                    }
                }
                ElabKind::Memory { .. } => {
                    OutKind::Memory(match self.netlist.storage_of_inst(inst).map(|s| s.kind) {
                        Some(StorageKind::RegFile) => "register file",
                        _ => "memory",
                    })
                }
                ElabKind::Comb { .. } => OutKind::Comb,
            };
            (kind, iname, pname)
        };
        let result = match kind {
            OutKind::ModeReg { sid, width } => {
                let bits = (0..width)
                    .map(|b| {
                        let var = self
                            .varmap
                            .mode_bit(sid, b)
                            .expect("mode register registered in varmap");
                        m.literal(var, true)
                    })
                    .collect();
                Ok(SymVec {
                    bits,
                    defined: Bdd::TRUE,
                })
            }
            OutKind::PlainReg => Err(CtrlIssue::Untraceable(format!(
                "register `{iname}` is not a mode register but feeds control"
            ))),
            OutKind::Memory(kindname) => Err(CtrlIssue::Untraceable(format!(
                "{kindname} `{iname}` feeds a control port"
            ))),
            OutKind::Comb => {
                if !self.in_progress.insert((inst, port)) {
                    return Err(CtrlIssue::Cycle(format!(
                        "output `{iname}.{pname}` participates in a combinational cycle"
                    )));
                }
                let r = self.comb_out_vec(inst, port, m);
                self.in_progress.remove(&(inst, port));
                r
            }
        }?;
        self.memo.insert((inst, port), result.clone());
        Ok(result)
    }

    fn comb_out_vec(
        &mut self,
        inst: InstId,
        port: PortIdx,
        m: &mut BddManager,
    ) -> CtrlResult<SymVec> {
        let (width, arms) = {
            let def = self.netlist.def_of(inst);
            let ElabKind::Comb { outputs } = &def.kind else {
                unreachable!("caller checked comb");
            };
            let width = def.ports[port].width;
            let Some(beh) = outputs.iter().find(|o| o.port == port) else {
                return Err(CtrlIssue::Untraceable(format!(
                    "output `{}.{}` is never assigned",
                    self.netlist.inst(inst).name,
                    def.ports[port].name
                )));
            };
            (width, beh.arms.clone())
        };
        let mut bits = vec![Bdd::FALSE; width as usize];
        let mut defined = Bdd::FALSE;
        for arm in &arms {
            let g = self.guard_bdd(inst, &arm.guard, m)?;
            if g == Bdd::FALSE {
                continue;
            }
            let val = self.data_vec(inst, &arm.value, width, m)?;
            let contrib = m.and(g, val.defined);
            defined = m.or(defined, contrib);
            for (i, slot) in bits.iter_mut().enumerate() {
                let vb = val.bits.get(i).copied().unwrap_or(Bdd::FALSE);
                let gated = m.and(g, vb);
                *slot = m.or(*slot, gated);
            }
        }
        Ok(SymVec { bits, defined })
    }

    /// Symbolic value of a data expression evaluated in `inst`'s context.
    /// Only decoder-suitable operators are supported; arithmetic in a
    /// control path is untraceable.
    fn data_vec(
        &mut self,
        inst: InstId,
        e: &DataExpr,
        width: u16,
        m: &mut BddManager,
    ) -> CtrlResult<SymVec> {
        match e {
            DataExpr::Const(v) => Ok(SymVec::constant(*v, width)),
            DataExpr::Port(p) => {
                let pw = self.netlist.def_of(inst).ports[*p].width;
                match self.netlist.driver_of(inst, *p) {
                    Some(net) => {
                        let net = net.clone();
                        self.net_vec(&net, pw, m)
                    }
                    None => Err(CtrlIssue::Untraceable(format!(
                        "port `{}.{}` is unconnected",
                        self.netlist.inst(inst).name,
                        self.netlist.def_of(inst).ports[*p].name
                    ))),
                }
            }
            DataExpr::Slice { base, hi, lo } => {
                let b = self.data_vec(inst, base, hi + 1, m)?;
                Ok(b.slice(*hi, *lo))
            }
            DataExpr::Unary { op: UnOp::Not, arg } => {
                let a = self.data_vec(inst, arg, width, m)?;
                Ok(SymVec {
                    bits: a.bits.iter().map(|&b| m.not(b)).collect(),
                    defined: a.defined,
                })
            }
            DataExpr::Binary { op, lhs, rhs } => {
                use record_hdl::BinOp;
                let bitwise =
                    |m: &mut BddManager,
                     a: SymVec,
                     b: SymVec,
                     f: fn(&mut BddManager, Bdd, Bdd) -> Bdd| {
                        let defined = m.and(a.defined, b.defined);
                        let n = a.bits.len().max(b.bits.len());
                        let bits = (0..n)
                            .map(|i| {
                                let x = a.bits.get(i).copied().unwrap_or(Bdd::FALSE);
                                let y = b.bits.get(i).copied().unwrap_or(Bdd::FALSE);
                                f(m, x, y)
                            })
                            .collect();
                        SymVec { bits, defined }
                    };
                match op {
                    BinOp::And => {
                        let a = self.data_vec(inst, lhs, width, m)?;
                        let b = self.data_vec(inst, rhs, width, m)?;
                        Ok(bitwise(m, a, b, BddManager::and))
                    }
                    BinOp::Or => {
                        let a = self.data_vec(inst, lhs, width, m)?;
                        let b = self.data_vec(inst, rhs, width, m)?;
                        Ok(bitwise(m, a, b, BddManager::or))
                    }
                    BinOp::Xor => {
                        let a = self.data_vec(inst, lhs, width, m)?;
                        let b = self.data_vec(inst, rhs, width, m)?;
                        Ok(bitwise(m, a, b, BddManager::xor))
                    }
                    other => Err(CtrlIssue::Untraceable(format!(
                        "operator `{other:?}` in a control path of `{}`",
                        self.netlist.inst(inst).name
                    ))),
                }
            }
            DataExpr::Unary { op, .. } => Err(CtrlIssue::Untraceable(format!(
                "operator `{op:?}` in a control path of `{}`",
                self.netlist.inst(inst).name
            ))),
        }
    }

    /// Evaluates a module-level guard in the context of instance `inst`.
    pub fn guard_bdd(
        &mut self,
        inst: InstId,
        guard: &Guard,
        m: &mut BddManager,
    ) -> CtrlResult<Bdd> {
        match guard {
            Guard::True => Ok(Bdd::TRUE),
            Guard::False => Ok(Bdd::FALSE),
            Guard::Cmp { sel, value } => {
                let vec = self.ctrl_expr_vec(inst, sel, m)?;
                Ok(self.vec_equals(&vec, *value, m))
            }
            // A runtime data comparison is not decodable from the
            // instruction word; writes guarded by one are untraceable here.
            // Route enumeration handles the PC's data-guarded arms itself.
            Guard::DataCmp { port, .. } => Err(CtrlIssue::Untraceable(format!(
                "data-dependent guard on port {} of `{}`",
                port,
                self.netlist.inst(inst).name
            ))),
            Guard::Not(g) => {
                let inner = self.guard_bdd(inst, g, m)?;
                Ok(m.not(inner))
            }
            Guard::And(a, b) => {
                let x = self.guard_bdd(inst, a, m)?;
                if x == Bdd::FALSE {
                    return Ok(Bdd::FALSE);
                }
                let y = self.guard_bdd(inst, b, m)?;
                Ok(m.and(x, y))
            }
            Guard::Or(a, b) => {
                let x = self.guard_bdd(inst, a, m)?;
                let y = self.guard_bdd(inst, b, m)?;
                Ok(m.or(x, y))
            }
        }
    }

    fn ctrl_expr_vec(
        &mut self,
        inst: InstId,
        e: &CtrlExpr,
        m: &mut BddManager,
    ) -> CtrlResult<SymVec> {
        match e {
            CtrlExpr::Port(p) => {
                let def = self.netlist.def_of(inst);
                let pw = def.ports[*p].width;
                match self.netlist.driver_of(inst, *p) {
                    Some(net) => {
                        let net = net.clone();
                        self.net_vec(&net, pw, m)
                    }
                    None => Err(CtrlIssue::Untraceable(format!(
                        "control port `{}.{}` is unconnected",
                        self.netlist.inst(inst).name,
                        def.ports[*p].name
                    ))),
                }
            }
            CtrlExpr::Const(v) => Ok(SymVec::constant(*v, 64)),
            CtrlExpr::Slice { base, hi, lo } => {
                let b = self.ctrl_expr_vec(inst, base, m)?;
                Ok(b.slice(*hi, *lo))
            }
        }
    }

    /// Evaluates a processor-level bus-driver guard.
    pub fn bus_guard_bdd(&mut self, g: &BusGuard, m: &mut BddManager) -> CtrlResult<Bdd> {
        match g {
            BusGuard::True => Ok(Bdd::TRUE),
            BusGuard::Cmp { net, eq, value } => {
                let w = self.netlist.net_width(net).max(1);
                let vec = self.net_vec(net, w, m)?;
                let eq_bits = bits_equal(&vec, *value, m);
                // != keeps definedness: defined && !(bits == value)
                let cond = if *eq { eq_bits } else { m.not(eq_bits) };
                Ok(m.and(vec.defined, cond))
            }
            BusGuard::Not(inner) => {
                let x = self.bus_guard_bdd(inner, m)?;
                Ok(m.not(x))
            }
            BusGuard::And(a, b) => {
                let x = self.bus_guard_bdd(a, m)?;
                let y = self.bus_guard_bdd(b, m)?;
                Ok(m.and(x, y))
            }
            BusGuard::Or(a, b) => {
                let x = self.bus_guard_bdd(a, m)?;
                let y = self.bus_guard_bdd(b, m)?;
                Ok(m.or(x, y))
            }
        }
    }
}
