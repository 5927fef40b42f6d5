//! Enumeration of data transfer routes (paper §2, first ISE step).

use crate::ctrl::{CtrlAnalysis, CtrlIssue};
use crate::error::IsexError;
use crate::varmap::VarMap;
use record_bdd::{Bdd, BddManager};
use record_hdl::PortDir;
use record_netlist::{
    DataExpr, ElabKind, Guard, GuardedExpr, InstId, Net, Netlist, PortIdx, ProcPortId, StorageKind,
};
use record_rtl::{CondPred, Dest, OpKind, Pattern, TemplateBase, TemplateOrigin};

/// Options controlling extraction.
#[derive(Debug, Clone)]
pub struct ExtractOptions {
    /// Upper bound on routes enumerated for a single destination; exceeding
    /// it is reported as an error (the model has a combinatorial problem).
    /// Where a binary operator, a memory write or a conditional branch
    /// pairs two route lists, the pairs count against it before any is
    /// tried.
    pub max_routes_per_dest: usize,
    /// Upper bound on backward-traversal depth through combinational logic.
    pub max_depth: usize,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            max_routes_per_dest: 1 << 17,
            max_depth: 64,
        }
    }
}

/// Counters reported by [`extract`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// RT destinations examined.
    pub destinations: usize,
    /// Raw routes enumerated (before validity filtering).
    pub enumerated: usize,
    /// Routes discarded because their execution condition is unsatisfiable
    /// (encoding conflicts, bus contention).
    pub unsat_discarded: usize,
    /// Route forks skipped because a required control signal cannot be
    /// traced to instruction or mode bits (data-dependent control).
    pub untraceable_skipped: usize,
    /// Routes merged into an existing identical template (conditions OR-ed).
    pub merged_duplicates: usize,
}

/// The result of instruction-set extraction.
#[derive(Debug)]
pub struct Extraction {
    /// The extracted (not yet algebraically extended) template base.
    pub base: TemplateBase,
    /// Owner of all execution-condition BDDs in `base`.
    pub manager: BddManager,
    /// Variable layout (instruction bits, mode bits).
    pub varmap: VarMap,
    /// Extraction counters.
    pub stats: ExtractStats,
}

/// Runs instruction-set extraction on `netlist`.
///
/// # Errors
///
/// Returns an error on combinational cycles, on route explosion past
/// [`ExtractOptions::max_routes_per_dest`], and on traversal depth past
/// [`ExtractOptions::max_depth`] (which indicates a pathological model).
pub fn extract(netlist: &Netlist, opts: &ExtractOptions) -> Result<Extraction, IsexError> {
    let mut manager = BddManager::new();
    let ctrl = CtrlAnalysis::new(netlist, &mut manager);
    let varmap = ctrl.varmap().clone();
    let mut cx = Cx {
        n: netlist,
        ctrl,
        opts,
        stats: ExtractStats::default(),
        m: manager,
    };
    let mut base = TemplateBase::new();

    // Destinations: registers and register files and memories...
    for storage in netlist.storages() {
        let inst = storage.inst;
        match storage.kind {
            StorageKind::Register => {
                cx.stats.destinations += 1;
                let ElabKind::Register { input, guard, .. } = &netlist.def_of(inst).kind else {
                    unreachable!("register storage backed by register module");
                };
                if storage.is_pc {
                    // PC writes are control transfers; their guards may
                    // compare runtime data (branch-if-zero), which ordinary
                    // control analysis rejects.  Decompose instead.
                    extract_pc(&mut base, &mut cx, storage.id, inst, input, guard)?;
                    continue;
                }
                let gcond = match cx.guard(inst, guard) {
                    Some(g) => g,
                    None => continue,
                };
                let routes = cx.expand_data_expr(inst, input, 0)?;
                for (pat, cond) in routes {
                    let cond = cx.m.and(cond, gcond);
                    record(&mut base, &mut cx, Dest::Reg(storage.id), pat, cond, None);
                }
            }
            StorageKind::RegFile | StorageKind::Memory => {
                let ElabKind::Memory { writes, .. } = &netlist.def_of(inst).kind else {
                    unreachable!("memory storage backed by memory module");
                };
                for w in writes {
                    cx.stats.destinations += 1;
                    let gcond = match cx.guard(inst, &w.guard) {
                        Some(g) => g,
                        None => continue,
                    };
                    let data_routes = cx.expand_data_expr(inst, &w.data, 0)?;
                    if storage.kind == StorageKind::RegFile {
                        // Cell choice is an instruction field; the compiler
                        // picks the cell at emission time.
                        for (pat, cond) in data_routes {
                            let cond = cx.m.and(cond, gcond);
                            record(
                                &mut base,
                                &mut cx,
                                Dest::RegFile(storage.id),
                                pat,
                                cond,
                                None,
                            );
                        }
                    } else {
                        let addr_routes = cx.expand_data_expr(inst, &w.addr, 0)?;
                        cx.pairs(&addr_routes, &data_routes, || {
                            format!("at `{}` write", storage.name)
                        })?;
                        for (addr, acond) in &addr_routes {
                            for (pat, cond) in &data_routes {
                                let c = cx.m.and(*cond, *acond);
                                let c = cx.m.and(c, gcond);
                                record(
                                    &mut base,
                                    &mut cx,
                                    Dest::Mem(storage.id, addr.clone()),
                                    pat.clone(),
                                    c,
                                    None,
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // ... and primary output ports.
    for (i, port) in netlist.proc_ports().iter().enumerate() {
        if port.dir != PortDir::Out {
            continue;
        }
        cx.stats.destinations += 1;
        let Some(driver) = &port.driver else {
            continue;
        };
        let routes = cx.expand_net(driver, 0)?;
        for (pat, cond) in routes {
            record(
                &mut base,
                &mut cx,
                Dest::Port(ProcPortId(i as u32)),
                pat,
                cond,
                None,
            );
        }
    }

    Ok(Extraction {
        base,
        manager: cx.m,
        varmap,
        stats: cx.stats,
    })
}

/// Adds a route to the base, filtering unsatisfiable conditions and merging
/// duplicates.
fn record(
    base: &mut TemplateBase,
    cx: &mut Cx<'_>,
    dest: Dest,
    src: Pattern,
    cond: Bdd,
    pred: Option<CondPred>,
) {
    cx.stats.enumerated += 1;
    if cond == Bdd::FALSE {
        cx.stats.unsat_discarded += 1;
        return;
    }
    match base.find_pred(&dest, &src, pred.as_ref()) {
        Some(id) => {
            base.merge_cond(id, cond, &mut cx.m);
            cx.stats.merged_duplicates += 1;
        }
        None => {
            base.push_pred(dest, src, cond, TemplateOrigin::Extracted, pred);
        }
    }
}

/// Extracts control-transfer templates for the designated PC register.
///
/// The PC's write guard is an OR of *arms*; each arm is an AND of ordinary
/// control conjuncts (decoded from the instruction word) and at most one
/// runtime data comparison (`DataCmp`, possibly negated).  An arm without a
/// data comparison yields unconditional-jump templates; an arm with one
/// yields conditional-branch templates whose [`CondPred`] test is the
/// expansion of the compared data port's driver (e.g. the accumulator).
/// Arms that mix data comparisons deeper into the guard structure are
/// skipped as untraceable, like any other data-dependent control.
fn extract_pc(
    base: &mut TemplateBase,
    cx: &mut Cx<'_>,
    storage: record_netlist::StorageId,
    inst: InstId,
    input: &DataExpr,
    guard: &Guard,
) -> Result<(), IsexError> {
    let mut arms = Vec::new();
    flatten_or(guard, &mut arms);
    let target_routes = cx.expand_data_expr(inst, input, 0)?;
    for arm in arms {
        let mut conjuncts = Vec::new();
        flatten_and(&arm, &mut conjuncts);
        let mut ctrl = Guard::True;
        let mut data: Option<(PortIdx, u64, bool)> = None;
        let mut untraceable = false;
        for c in conjuncts {
            match c {
                Guard::DataCmp { port, value } => {
                    if data.replace((port, value, true)).is_some() {
                        untraceable = true;
                    }
                }
                Guard::Not(inner) => {
                    if let Guard::DataCmp { port, value } = *inner {
                        if data.replace((port, value, false)).is_some() {
                            untraceable = true;
                        }
                    } else if contains_data_cmp(&inner) {
                        untraceable = true;
                    } else {
                        ctrl = ctrl.and(Guard::Not(inner));
                    }
                }
                other => {
                    if contains_data_cmp(&other) {
                        untraceable = true;
                    } else {
                        ctrl = ctrl.and(other);
                    }
                }
            }
        }
        if untraceable {
            cx.stats.untraceable_skipped += 1;
            continue;
        }
        let Some(gcond) = cx.guard(inst, &ctrl) else {
            continue;
        };
        match data {
            None => {
                for (pat, cond) in &target_routes {
                    let c = cx.m.and(*cond, gcond);
                    record(base, cx, Dest::Reg(storage), pat.clone(), c, None);
                }
            }
            Some((port, value, eq)) => {
                let test_routes = cx.expand_data_expr(inst, &DataExpr::Port(port), 0)?;
                cx.pairs(&test_routes, &target_routes, || {
                    format!("at `{}` branch", cx.n.storage(storage).name)
                })?;
                for (test, tcond) in &test_routes {
                    for (pat, cond) in &target_routes {
                        let c = cx.m.and(*cond, *tcond);
                        let c = cx.m.and(c, gcond);
                        record(
                            base,
                            cx,
                            Dest::Reg(storage),
                            pat.clone(),
                            c,
                            Some(CondPred {
                                test: test.clone(),
                                value,
                                eq,
                            }),
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

/// Flattens the top-level OR structure of a guard into arms.
fn flatten_or(g: &Guard, out: &mut Vec<Guard>) {
    match g {
        Guard::Or(a, b) => {
            flatten_or(a, out);
            flatten_or(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// Flattens the top-level AND structure of a guard into conjuncts.
fn flatten_and(g: &Guard, out: &mut Vec<Guard>) {
    match g {
        Guard::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other.clone()),
    }
}

/// Does the guard contain a runtime data comparison anywhere?
fn contains_data_cmp(g: &Guard) -> bool {
    match g {
        Guard::DataCmp { .. } => true,
        Guard::Not(a) => contains_data_cmp(a),
        Guard::And(a, b) | Guard::Or(a, b) => contains_data_cmp(a) || contains_data_cmp(b),
        Guard::True | Guard::False | Guard::Cmp { .. } => false,
    }
}

/// Expansion context.
struct Cx<'n> {
    n: &'n Netlist,
    ctrl: CtrlAnalysis<'n>,
    opts: &'n ExtractOptions,
    stats: ExtractStats,
    m: BddManager,
}

impl<'n> Cx<'n> {
    /// Evaluates a module guard; `None` means untraceable (skip the fork).
    fn guard(&mut self, inst: InstId, guard: &Guard) -> Option<Bdd> {
        match self.ctrl.guard_bdd(inst, guard, &mut self.m) {
            Ok(b) => Some(b),
            Err(CtrlIssue::Untraceable(_)) => {
                self.stats.untraceable_skipped += 1;
                None
            }
            Err(cycle) => {
                // Control cycles surface as untraceable here; the dedicated
                // cycle error is raised by data-path traversal.  Treat the
                // same as untraceable to keep extraction total.
                let _ = cycle;
                self.stats.untraceable_skipped += 1;
                None
            }
        }
    }

    /// The number of pairs of an `l` and an `r` route, or the
    /// route-explosion error, naming `site`, when it exceeds
    /// [`ExtractOptions::max_routes_per_dest`].  Each pair costs a BDD
    /// conjunction whether or not it is satisfiable, so the cap bounds
    /// the pairs tried, not only the routes kept.
    fn pairs(
        &self,
        l: &[(Pattern, Bdd)],
        r: &[(Pattern, Bdd)],
        site: impl FnOnce() -> String,
    ) -> Result<usize, IsexError> {
        let pairs = l.len().saturating_mul(r.len());
        if pairs > self.opts.max_routes_per_dest {
            return Err(IsexError::new(format!(
                "route explosion {}: {} x {} route pairs, more than {}",
                site(),
                l.len(),
                r.len(),
                self.opts.max_routes_per_dest
            )));
        }
        Ok(pairs)
    }

    /// Enumerates all routes delivering a value onto `net`.
    fn expand_net(&mut self, net: &Net, depth: usize) -> Result<Vec<(Pattern, Bdd)>, IsexError> {
        if depth > self.opts.max_depth {
            return Err(IsexError::new(format!(
                "traversal depth exceeds {} (combinational cycle through the data path?)",
                self.opts.max_depth
            )));
        }
        match net {
            Net::Const(v) => Ok(vec![(Pattern::Const(*v), Bdd::TRUE)]),
            Net::IField { hi, lo } => Ok(vec![(Pattern::Imm { hi: *hi, lo: *lo }, Bdd::TRUE)]),
            Net::ProcIn(p) => Ok(vec![(Pattern::Port(*p), Bdd::TRUE)]),
            Net::Slice { base, hi, lo } => {
                let inner = self.expand_net(base, depth + 1)?;
                Ok(inner
                    .into_iter()
                    .map(|(p, c)| (slice_pattern(p, *hi, *lo), c))
                    .collect())
            }
            Net::Bus(bid) => {
                // Fork per driver; forbid contention by requiring all other
                // drivers disabled (paper: bus contention makes conditions
                // unsatisfiable).
                let drivers = &self.n.bus(*bid).drivers;
                let mut enables = Vec::with_capacity(drivers.len());
                for d in drivers {
                    match self.ctrl.bus_guard_bdd(&d.guard, &mut self.m) {
                        Ok(b) => enables.push(Some(b)),
                        Err(CtrlIssue::Untraceable(_)) => {
                            self.stats.untraceable_skipped += 1;
                            enables.push(None);
                        }
                        Err(e) => return Err(e.into_error()),
                    }
                }
                let mut out = Vec::new();
                for (i, d) in drivers.iter().enumerate() {
                    let Some(en) = enables[i] else { continue };
                    let mut cond = en;
                    for (j, other) in enables.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        // A driver with untraceable enable may contend at any
                        // time; conservatively exclude routes over this bus
                        // only if we cannot prove the other driver off.
                        match other {
                            Some(o) => {
                                let off = self.m.not(*o);
                                cond = self.m.and(cond, off);
                            }
                            None => {
                                cond = Bdd::FALSE;
                            }
                        }
                        if cond == Bdd::FALSE {
                            break;
                        }
                    }
                    if cond == Bdd::FALSE {
                        self.stats.unsat_discarded += 1;
                        continue;
                    }
                    for (p, c) in self.expand_net(&d.source, depth + 1)? {
                        let cc = self.m.and(c, cond);
                        if cc == Bdd::FALSE {
                            self.stats.unsat_discarded += 1;
                            continue;
                        }
                        out.push((p, cc));
                    }
                }
                Ok(out)
            }
            Net::InstOut { inst, port } => self.expand_inst_out(*inst, *port, depth),
        }
    }

    fn expand_inst_out(
        &mut self,
        inst: InstId,
        port: PortIdx,
        depth: usize,
    ) -> Result<Vec<(Pattern, Bdd)>, IsexError> {
        let kind = {
            let def = self.n.def_of(inst);
            match &def.kind {
                ElabKind::Register { .. } => Expandee::Register,
                ElabKind::Memory { reads, .. } => match reads.iter().find(|r| r.out == port) {
                    Some(r) => Expandee::MemRead(&r.addr),
                    None => Expandee::DeadOutput,
                },
                ElabKind::Comb { outputs } => match outputs.iter().find(|o| o.port == port) {
                    Some(beh) => Expandee::Comb(&beh.arms),
                    None => Expandee::DeadOutput,
                },
            }
        };
        match kind {
            Expandee::Register => {
                let storage = self
                    .n
                    .storage_of_inst(inst)
                    .expect("register instance has storage");
                Ok(vec![(Pattern::Reg(storage.id), Bdd::TRUE)])
            }
            Expandee::MemRead(addr) => {
                let storage = self
                    .n
                    .storage_of_inst(inst)
                    .expect("memory instance has storage");
                let (sid, skind) = (storage.id, storage.kind);
                if skind == StorageKind::RegFile {
                    // Cell choice is free; the address field is fixed at
                    // emission time.
                    return Ok(vec![(Pattern::RegFile(sid), Bdd::TRUE)]);
                }
                let addr_routes = self.expand_data_expr(inst, addr, depth + 1)?;
                Ok(addr_routes
                    .into_iter()
                    .map(|(p, c)| (Pattern::MemRead(sid, Box::new(p)), c))
                    .collect())
            }
            Expandee::Comb(arms) => {
                let mut out = Vec::new();
                for arm in arms {
                    let Some(g) = self.guard(inst, &arm.guard) else {
                        continue;
                    };
                    if g == Bdd::FALSE {
                        self.stats.unsat_discarded += 1;
                        continue;
                    }
                    for (p, c) in self.expand_data_expr(inst, &arm.value, depth + 1)? {
                        let cc = self.m.and(c, g);
                        if cc == Bdd::FALSE {
                            self.stats.unsat_discarded += 1;
                            continue;
                        }
                        out.push((p, cc));
                        if out.len() > self.opts.max_routes_per_dest {
                            return Err(IsexError::new(format!(
                                "route explosion at `{}.{}`: more than {} routes",
                                self.n.inst(inst).name,
                                self.n.def_of(inst).ports[port].name,
                                self.opts.max_routes_per_dest
                            )));
                        }
                    }
                }
                Ok(out)
            }
            Expandee::DeadOutput => Ok(Vec::new()),
        }
    }

    /// Enumerates routes for a data expression in `inst`'s context.
    fn expand_data_expr(
        &mut self,
        inst: InstId,
        e: &DataExpr,
        depth: usize,
    ) -> Result<Vec<(Pattern, Bdd)>, IsexError> {
        if depth > self.opts.max_depth {
            return Err(IsexError::new(format!(
                "traversal depth exceeds {} while expanding `{}`",
                self.opts.max_depth,
                self.n.inst(inst).name
            )));
        }
        match e {
            DataExpr::Const(v) => Ok(vec![(Pattern::Const(*v), Bdd::TRUE)]),
            DataExpr::Port(p) => match self.n.driver_of(inst, *p) {
                Some(net) => self.expand_net(net, depth + 1),
                None => Ok(Vec::new()), // dangling input: no routes through here
            },
            DataExpr::Slice { base, hi, lo } => {
                let inner = self.expand_data_expr(inst, base, depth + 1)?;
                Ok(inner
                    .into_iter()
                    .map(|(p, c)| (slice_pattern(p, *hi, *lo), c))
                    .collect())
            }
            DataExpr::Unary { op, arg } => {
                let inner = self.expand_data_expr(inst, arg, depth + 1)?;
                let op = OpKind::from_un(*op);
                Ok(inner
                    .into_iter()
                    .map(|(p, c)| (Pattern::Op(op, vec![p]), c))
                    .collect())
            }
            DataExpr::Binary { op, lhs, rhs } => {
                let l = self.expand_data_expr(inst, lhs, depth + 1)?;
                let r = self.expand_data_expr(inst, rhs, depth + 1)?;
                let op = OpKind::from_bin(*op);
                let pairs = self.pairs(&l, &r, || format!("in `{}`", self.n.inst(inst).name))?;
                let mut out = Vec::with_capacity(pairs);
                for (lp, lc) in &l {
                    for (rp, rc) in &r {
                        let c = self.m.and(*lc, *rc);
                        if c == Bdd::FALSE {
                            self.stats.unsat_discarded += 1;
                            continue;
                        }
                        out.push((Pattern::Op(op, vec![lp.clone(), rp.clone()]), c));
                    }
                }
                Ok(out)
            }
        }
    }
}

/// What an instance output expands to, borrowed from the netlist.
enum Expandee<'n> {
    Register,
    MemRead(&'n DataExpr),
    Comb(&'n [GuardedExpr]),
    DeadOutput,
}

/// Wraps `p` in a slice operator, folding slices of immediates and
/// constants.
fn slice_pattern(p: Pattern, hi: u16, lo: u16) -> Pattern {
    match p {
        // A slice of an instruction field is a narrower instruction field.
        Pattern::Imm { lo: base_lo, .. } => Pattern::Imm {
            hi: base_lo + hi,
            lo: base_lo + lo,
        },
        Pattern::Const(v) => {
            let width = hi - lo + 1;
            let mask = if width >= 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            Pattern::Const((v >> lo) & mask)
        }
        other => Pattern::Op(OpKind::Slice(hi, lo), vec![other]),
    }
}
